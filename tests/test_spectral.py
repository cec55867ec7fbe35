import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_entanglement import heun, spectral, verify
from johnson_entanglement.entropy import von_neumann
from johnson_entanglement.scheme import (
    CapacityError,
    GraphSpec,
    adjacency_matrix,
    default_base_vertex,
    distance,
    enumerate_vertices,
    neighborhood_size,
    vertex_from_subset,
)
from johnson_entanglement.spectral import (
    CorrelationSpectrum,
    FillingSpec,
    HoppingProfile,
    SubsystemSpec,
    chopped_correlation_oracle,
    eigenprojectors_oracle,
    energy_exponential,
    energy_table,
    fill_ground_state,
    group_spectra,
    group_spectrum,
    level_labels_x2,
    spectrum_oracle,
    theta_eigenvalue,
)
from johnson_entanglement.terwilliger import assemble_spectrum
from johnson_entanglement.verify import (
    check_hahn_polynomial,
    check_level_degeneracies,
    check_purity_duality,
    check_route_agreement,
    graph_sizes,
    run_battery,
    spectra_max_diff,
)

from cg_oracle import _dual_hahn_rational, exponential_energy_reference, numerator_ratios
from dense_oracle import (
    adjacency_via_polynomial,
    chopped_correlation_reference,
    correlation_kernel_reference,
    indicator_sum_distances,
    level_blocks_reference,
    level_kernel_numerators,
    pairwise_distances,
    subsystem_indices,
)
from merge_reference import group_spectrum_reference

NN = HoppingProfile((0.0, 1.0))


def test_energy_table_octahedron():
    table = energy_table(GraphSpec(4, 2), NN)
    got = {row.j_x2: (row.theta, row.omega, row.degeneracy) for row in table.rows}
    assert got == {0: (-2.0, -2.0, 2), 2: (0.0, 0.0, 3), 4: (4.0, 4.0, 1)}


def test_energy_table_matches_dense_spectrum():
    # dual Hahn route against a direct eigendecomposition of sum alpha_i A_i
    for n, k, alphas in [(4, 2, (0.3, 1.0, -0.5)), (6, 3, (0.0, 1.0, 0.2, 0.1)), (7, 3, (0.1, 0.7))]:
        spec = GraphSpec(n, k)
        hop = HoppingProfile(alphas)
        padded = hop.padded(k)
        ham = sum(padded[i] * adjacency_matrix(i, spec) for i in range(k + 1))
        w = np.linalg.eigvalsh(ham)
        table = energy_table(spec, hop)
        expected = np.sort(np.concatenate([[row.omega] * row.degeneracy for row in table.rows]))
        assert np.max(np.abs(np.sort(w) - expected)) < 1e-8


def test_energy_table_recurrence_matches_term_by_term_series():
    # one recurrence pass per level gives the same exact R_i as the series,
    # so every Omega is the same rational and rounds to the same float
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            spec = GraphSpec(n, k)
            alphas = tuple((-0.7) ** i + 0.1 for i in range(k + 1))
            table = energy_table(spec, HoppingProfile(alphas))
            for row in table.rows:
                j_x2 = row.j_x2
                lam = Fraction(j_x2 * (j_x2 + 2) - (n - 2 * k) ** 2, 4) + Fraction(2 * k - n, 2)
                series = [_dual_hahn_rational(i, lam, 0, n - 2 * k, k) for i in range(k + 1)]
                assert numerator_ratios(int(lam), 0, n - 2 * k, k) == series, (n, k, j_x2)
                omega = sum(
                    Fraction(a) * (-1) ** i * math.comb(k, i) * r for i, (a, r) in enumerate(zip(alphas, series))
                )
                assert (row.omega, row.sign) == (float(omega), (omega > 0) - (omega < 0)), (n, k, j_x2)


def test_energy_constant_alpha0():
    table = energy_table(GraphSpec(6, 2), HoppingProfile((2.5,)))
    assert all(row.omega == pytest.approx(2.5) for row in table.rows)


def test_energy_complete_graph_thetas():
    table = energy_table(GraphSpec(6, 1), NN)
    thetas = {row.j_x2: row.theta for row in table.rows}
    assert thetas[6] == pytest.approx(5.0)  # n - 1
    assert thetas[4] == pytest.approx(-1.0)


def test_theta_lowest_level_is_minus_k():
    for n, k in [(4, 2), (9, 3), (30, 15)]:
        spec = GraphSpec(n, k)
        assert theta_eigenvalue(n - 2 * k, spec) == pytest.approx(-k)


def test_energy_exponential_all_ones_limit():
    # c = 0 makes the Hamiltonian the all-ones matrix
    spec = GraphSpec(6, 2)
    table = energy_exponential(spec, 0.0)
    by_j = {row.j_x2: row.omega for row in table.rows}
    assert by_j[spec.n] == pytest.approx(spec.vertex_count)
    for j_x2 in level_labels_x2(spec)[:-1]:
        assert by_j[j_x2] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.1, 1.0, 5.0, 20.0])
def test_energy_exponential_matches_alpha_path(c):
    for n, k in [(6, 3), (9, 4), (12, 6)]:
        spec = GraphSpec(n, k)
        closed = energy_exponential(spec, c)
        expanded = energy_table(spec, HoppingProfile(tuple(math.exp(-c * i) for i in range(k + 1))))
        for a, b in zip(closed.rows, expanded.rows):
            assert a.omega == pytest.approx(b.omega, rel=1e-9, abs=1e-12)


def _exponential_points():
    for n, k in graph_sizes(2, 30):
        for c in (0.0, 0.1, 0.5, 3.0, 40.0, math.inf):
            yield GraphSpec(n, k), c
    yield GraphSpec(200, 100), 0.5


def test_energy_exponential_equals_the_closed_form():
    # the exact sum over z^i and the 2F1 closed form are one rational for the same double z
    for spec, c in _exponential_points():
        z = Fraction(math.exp(-c))
        for row in energy_exponential(spec, c).rows:
            omega = exponential_energy_reference(spec, row.j_x2, z)
            assert (row.omega, row.sign) == (float(omega), (omega > 0) - (omega < 0)), (spec, c, row.j_x2)


def test_energy_exponential_strictly_increasing():
    for c in (0.1, 1.0, 5.0):
        table = energy_exponential(GraphSpec(12, 6), c)
        omegas = [row.omega for row in table.rows]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))


def test_fill_ground_state_octahedron():
    table = energy_table(GraphSpec(4, 2), NN)
    assert sorted(fill_ground_state(table).occupied) == [0]


def test_fill_ground_state_zero_hopping():
    table = energy_table(GraphSpec(4, 2), HoppingProfile((0.0, 0.0, 0.0)))
    assert fill_ground_state(table).occupied == frozenset()
    assert sorted(fill_ground_state(table, include_zero_modes=True).occupied) == [0, 2, 4]


def test_fill_ground_state_uniform_shift():
    table = energy_table(GraphSpec(4, 2), HoppingProfile((-10.0, 1.0)))
    assert sorted(fill_ground_state(table).occupied) == [0, 2, 4]


@given(
    st.lists(st.integers(-8, 8).map(lambda v: v / 4), min_size=1, max_size=4),
    st.integers(-200, 200),
    st.booleans(),
)
def test_filling_and_entropy_invariant_under_hopping_rescale(alphas, exponent, zero_modes):
    # powers of two rescale every alpha, and so every exact Omega, without rounding
    spec = GraphSpec(6, 3)
    sub = SubsystemSpec(frozenset({0, 1}), default_base_vertex(spec))
    scaled = [a * 2.0**exponent for a in alphas]
    fillings = [
        fill_ground_state(energy_table(spec, HoppingProfile(tuple(hop))), include_zero_modes=zero_modes)
        for hop in (alphas, scaled)
    ]
    assert fillings[0] == fillings[1]
    entropy = von_neumann(assemble_spectrum(spec, fillings[0], sub))
    assert von_neumann(assemble_spectrum(spec, fillings[1], sub)) == entropy


def test_eigenprojectors_top_level_is_uniform():
    for n, k in [(4, 2), (6, 3)]:
        spec = GraphSpec(n, k)
        projectors = eigenprojectors_oracle(spec)
        dim = spec.vertex_count
        assert np.allclose(projectors[n], np.ones((dim, dim)) / dim, atol=1e-10)


def test_eigenprojectors_orthogonal_idempotent_complete():
    spec = GraphSpec(6, 3)
    projectors = eigenprojectors_oracle(spec)
    labels = list(projectors)
    total = np.zeros((20, 20))
    for a, j in enumerate(labels):
        e = projectors[j]
        total += e
        assert np.allclose(e @ e, e, atol=1e-10)
        for j2 in labels[a + 1 :]:
            assert np.allclose(e @ projectors[j2], 0.0, atol=1e-10)
    assert np.allclose(total, np.eye(20), atol=1e-10)


def test_eigenprojector_traces_are_degeneracies():
    for n, k in [(6, 3), (9, 3), (10, 5)]:
        spec = GraphSpec(n, k)
        for j_x2, e in eigenprojectors_oracle(spec).items():
            assert np.trace(e) == pytest.approx(spectral.level_degeneracy(j_x2, spec), abs=1e-6)
        counts = verify._eigenprojector_traces(spec, None)
        assert counts == {j_x2: spectral.level_degeneracy(j_x2, spec) for j_x2 in level_labels_x2(spec)}


def test_chopped_correlation_trivial_fillings():
    spec = GraphSpec(4, 2)
    x0 = default_base_vertex(spec)
    sub = SubsystemSpec(frozenset({0, 1}), x0)
    all_filled = FillingSpec(frozenset(level_labels_x2(spec)))
    c = chopped_correlation_oracle(spec, all_filled, sub)
    assert np.allclose(c, np.eye(5), atol=1e-10)
    empty = FillingSpec(frozenset())
    assert np.allclose(chopped_correlation_oracle(spec, empty, sub), 0.0)


def test_chopped_correlation_single_site_third():
    spec = GraphSpec(4, 2)
    sub = SubsystemSpec(frozenset({0}), default_base_vertex(spec))
    c = chopped_correlation_oracle(spec, FillingSpec(frozenset({0})), sub)
    assert c.shape == (1, 1)
    assert c[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-10)


def _distance_sets(k):
    return [frozenset(c) for r in range(1, k + 2) for c in itertools.combinations(range(k + 1), r)]


def _fillings(spec):
    labels = level_labels_x2(spec)
    return [FillingSpec(frozenset(labels[:fill])) for fill in range(len(labels) + 1)] + [FillingSpec(frozenset(labels[::2]))]


def test_kernel_matches_the_dense_chop_entrywise():
    # each reference entry sums at most N products of entries of unit-norm
    # eigenvector rows, so it is off by at most 2 N 2^-53
    # rows in colex rank order, also from a base vertex that is not colex-first
    for n, k in graph_sizes(2, 10):
        spec = GraphSpec(n, k)
        bound = 2 * spec.vertex_count * 2.0**-53
        for x0 in (default_base_vertex(spec), vertex_from_subset(range(2, 2 * k + 1, 2), spec)):
            for filling, distances in itertools.product(_fillings(spec), _distance_sets(k)):
                sub = SubsystemSpec(distances, x0)
                got = chopped_correlation_oracle(spec, filling, sub)
                ref = chopped_correlation_reference(spec, filling, sub)
                assert np.array_equal(got, got.T)
                assert np.all(np.abs(got - ref) <= bound), (n, k, x0.subset, sorted(filling.occupied), sorted(distances))


def _recurrence_kernel(spec, j_x2) -> list[Fraction]:
    """E_j's exact entry per distance from the three-term recurrence alone.

    A E_j = theta_j E_j read at distance d gives f(d + 1) from f(d - 1) and
    f(d), with b_d = (k-d)(n-k-d), c_d = d^2 and f(0) = m_j / C(n, k); it
    shares no formula with the oracle's Eberlein sums.
    """
    n, k = spec.n, spec.k
    i = (n - j_x2) // 2
    theta = Fraction(j_x2 * (j_x2 + 2) - (n - 2 * k) ** 2, 4) - Fraction(n, 2)
    f = [Fraction(math.comb(n, i) - (math.comb(n, i - 1) if i else 0), spec.vertex_count), Fraction(0)]
    for d in range(k):
        b, c = (k - d) * (n - k - d), d * d
        f[d + 1] = ((theta - (k * (n - k) - b - c)) * f[d] - c * f[d - 1]) / b
        f.append(Fraction(0))
    return f[: k + 1]


def test_chopped_oracle_matches_projector_sum_bitwise():
    # the occupied projectors summed exactly at each pair's distance and
    # rounded once: every entry of the chop is that one correctly rounded sum
    for n, k in graph_sizes(2, 10):
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        dist = pairwise_distances(spec)
        kernels = {j_x2: _recurrence_kernel(spec, j_x2) for j_x2 in level_labels_x2(spec)}
        for filling, distances in itertools.product(_fillings(spec), _distance_sets(k)):
            sub = SubsystemSpec(distances, x0)
            idx = subsystem_indices(spec, sub)
            f = np.array([float(sum((kernels[j_x2][d] for j_x2 in filling.occupied), Fraction(0))) for d in range(k + 1)])
            got = chopped_correlation_oracle(spec, filling, sub)
            assert np.array_equal(got, f[dist[np.ix_(idx, idx)]]), (n, k, sorted(filling.occupied), sorted(distances))


@pytest.mark.parametrize("n,k", graph_sizes(2, 10))
def test_pair_swap_sectors_split_the_adjacency_exactly(n, k):
    # each swap of elements 2p - 1 and 2p commutes with A, so its even and odd
    # sectors split A exactly, together carry every level with its
    # multiplicity, and leave every level projector E_j unchanged
    spec = GraphSpec(n, k)
    a = adjacency_matrix(1, spec)
    verts = enumerate_vertices(spec)
    projectors = eigenprojectors_oracle(spec)
    levels = np.sort(np.concatenate([np.full(spectral.level_degeneracy(j_x2, spec), theta_eigenvalue(j_x2, spec)) for j_x2 in projectors]))
    for p in range(1, n // 2 + 1):
        swap = {2 * p - 1: 2 * p, 2 * p: 2 * p - 1}
        image = np.array([vertex_from_subset([swap.get(e, e) for e in v.subset], spec).index for v in verts])
        assert np.array_equal(a[np.ix_(image, image)], a)
        for e in projectors.values():
            assert np.array_equal(e[np.ix_(image, image)], e)
        rows = np.arange(spec.vertex_count)
        orbits = rows[rows <= image]
        even = np.zeros((spec.vertex_count, len(orbits)))
        even[orbits, np.arange(len(orbits))] += 1.0
        even[image[orbits], np.arange(len(orbits))] += 1.0
        moved = rows[rows < image]
        odd = np.zeros((spec.vertex_count, len(moved)))
        odd[moved, np.arange(len(moved))] = 1.0
        odd[image[moved], np.arange(len(moved))] = -1.0
        assert np.all(odd.T @ a @ even == 0.0)
        spectrum = []
        for h in (even, odd):
            norm = np.sqrt(np.sum(h * h, axis=0))
            spectrum.append(np.linalg.eigvalsh(h.T @ a @ h / np.outer(norm, norm)))
        assert np.max(np.abs(np.sort(np.concatenate(spectrum)) - levels)) <= 1e-12, (n, k, p)


@pytest.mark.parametrize("n", range(2, 12))
def test_subsystem_distances_equal_the_indicator_sum_construction(n):
    # every distance set of every J(n, k), from the default and a scattered base vertex
    for _, k in graph_sizes(n, n):
        spec = GraphSpec(n, k)
        bases = [default_base_vertex(spec), vertex_from_subset(range(n - k + 1, n + 1), spec)]
        bases.append(vertex_from_subset(range(1, 2 * k, 2), spec))
        for x0 in bases:
            for r in range(1, k + 2):
                for distances in itertools.combinations(range(k + 1), r):
                    sub = SubsystemSpec(frozenset(distances), x0)
                    got = spectral._layout_distances(spectral._vertex_layout(spec, x0, sub.distances))
                    want = indicator_sum_distances(spec, sub)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (n, k, x0, distances)


@pytest.mark.parametrize("n,k", graph_sizes(2, 10) + [(12, 6)])
def test_layout_order_level_blocks_match_the_vertex_order_reference(n, k):
    # the oracle lists rows in colex rank order from x0; over the whole graph
    # that is the vertex order, and each level block E_j read off it matches
    # the plain-eigh products Q_j Q_j^T to within 2 N 2^-53 per entry
    spec = GraphSpec(n, k)
    whole = SubsystemSpec(frozenset(range(k + 1)), default_base_vertex(spec))
    assert np.array_equal(spectral._layout_distances(spectral._vertex_layout(spec, whole.x0, whole.distances)), pairwise_distances(spec))
    got = eigenprojectors_oracle(spec)
    ref = level_blocks_reference(spec)
    assert list(got) == list(ref) == level_labels_x2(spec)
    bound = 2 * spec.vertex_count * 2.0**-53
    for j_x2, block in ref.items():
        assert np.all(np.abs(got[j_x2] - block @ block.T) <= bound), (n, k, j_x2)


def test_level_kernels_satisfy_the_three_term_recurrence():
    # A E_j = theta_j E_j read at distance d: c_d f(d-1) + a_d f(d) + b_d f(d+1)
    # = theta_j f(d), with the intersection numbers b_d = (k-d)(n-k-d) and
    # c_d = d^2 of J(n, k); and f(0) = m_j / C(n, k) fixes the scale.  The
    # kernel holds the integer numerators over C(n, k) C(k, d) C(n-k, d)
    for n, k in graph_sizes(2, 60):
        spec = GraphSpec(n, k)
        b = [(k - d) * (n - k - d) for d in range(k + 1)]
        c = [d * d for d in range(k + 1)]
        v = [spec.vertex_count * math.comb(k, d) * math.comb(n - k, d) for d in range(k + 1)]
        for j_x2 in level_labels_x2(spec):
            f = tuple(map(Fraction, spectral._level_kernel(spec, j_x2), v)) + (Fraction(0),)
            theta = Fraction(j_x2 * (j_x2 + 2) - (n - 2 * k) ** 2, 4) - Fraction(n, 2)
            assert f[0] == Fraction(spectral.level_degeneracy(j_x2, spec), spec.vertex_count)
            for d in range(k + 1):
                a_d = k * (n - k) - b[d] - c[d]
                assert c[d] * f[d - 1] + a_d * f[d] + b[d] * f[d + 1] == theta * f[d], (n, k, j_x2, d)


@pytest.mark.parametrize("n,k", [(100, 50), (200, 100)])
def test_level_kernels_equal_the_eberlein_sum(n, k):
    spec = GraphSpec(n, k)
    for j_x2 in level_labels_x2(spec):
        assert spectral._level_kernel(spec, j_x2) == level_kernel_numerators(spec, j_x2), j_x2


@pytest.mark.parametrize("n", range(2, 11))
def test_smaller_side_spectrum_matches_the_direct_large_side(n):
    seen = set()
    for k in range(1, n // 2 + 1):
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        bound = 2 * spec.vertex_count * 2.0**-53
        # each graph's whole grid goes to the oracle as one batch
        configs = [(filling, SubsystemSpec(frozenset(range(n_cut + 1)), x0)) for filling in _fillings(spec) for n_cut in range(k + 1)]
        batch = list(heun.spectra([(spec, configs)], "oracle"))
        assert len(batch) == len(configs)
        for (filling, sub), mapped in zip(configs, batch):
            direct = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
            assert spectra_max_diff(mapped, direct) <= bound, (n, k, sorted(filling.occupied), max(sub.distances))
            seen.add(spec.vertex_count - mapped.total_multiplicity)
    assert 0 in seen  # the whole ball: no complement to solve
    assert n % 2 or 1 in seen  # J(2k, k): the ball 0..k-1 leaves one vertex


def test_oracle_solves_each_cut_on_its_smaller_side(monkeypatch):
    spec = GraphSpec(8, 4)
    configs = [(filling, SubsystemSpec(d, default_base_vertex(spec))) for filling in _fillings(spec) for d in _distance_sets(4)]
    shapes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or real(m))
    monkeypatch.setattr(np.linalg, "eigh", None)
    spectra = list(heun.spectra([(spec, configs)], "oracle"))
    # one matrix per distinct (filling, smaller side); a cut and its complement cut share one
    smaller = {}
    for (filling, sub), spectrum in zip(configs, spectra):
        size = spectrum.total_multiplicity
        side = sub.distances if 2 * size <= spec.vertex_count else frozenset(range(5)) - sub.distances
        if side:
            smaller[filling.occupied, side] = min(size, spec.vertex_count - size)
    assert len(smaller) < len(configs)
    assert all(len(shape) == 3 and shape[1] == shape[2] for shape in shapes)
    assert sorted(size for count, size, _ in shapes for _ in range(count)) == sorted(smaller.values())


def _solve_spy(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every matrix handed to eigh or eigvalsh."""
    shapes = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *args, _real=real, **kwargs: shapes.append(np.shape(m)) or _real(m, *args, **kwargs))
    return shapes


def test_oracle_diagonalizes_each_graph_once(monkeypatch):
    # only the level-degeneracy count solves the whole adjacency matrix; the
    # kernel oracle reads its projectors off the distances and solves nothing
    shapes = _solve_spy(monkeypatch)
    assert check_level_degeneracies(((8, 4),), None).passed
    assert shapes == [(70, 70)]
    shapes.clear()
    assert check_route_agreement(((8, 4),), None).passed
    assert shapes and all(len(s) != 2 or s[0] <= 35 for s in shapes)
    shapes.clear()
    spec = GraphSpec(8, 4)
    sub = SubsystemSpec(frozenset({0, 1}), default_base_vertex(spec))
    chopped_correlation_oracle(spec, FillingSpec(frozenset(level_labels_x2(spec)[:2])), sub)
    eigenprojectors_oracle(spec)
    assert shapes == []


def test_cold_battery_diagonalizes_each_graph_once(monkeypatch):
    spectral._level_kernel.cache_clear()
    spectral._correlation_kernel.cache_clear()
    shapes = _solve_spy(monkeypatch)
    full = {(math.comb(n, k),) * 2 for n, k in ((4, 2), (6, 3), (8, 4))}
    for _ in range(2):
        assert all(r.passed for r in run_battery())
        assert [s for s in shapes if s in full] == [(6, 6), (20, 20), (70, 70)]
        shapes.clear()


def test_purity_duality_check_solves_each_side_directly(monkeypatch):
    # the oracle route maps a cut's complement by the very duality under check
    seen = set()
    batches = []
    real = spectral.oracle_spectra

    def spy(spec, configs, cap=None):
        batches.append(spec)
        seen.update((spec.n, filling.occupied, sub.distances) for filling, sub in configs)
        return real(spec, configs, cap)

    monkeypatch.setattr(spectral, "oracle_spectra", spy)
    monkeypatch.setattr(heun, "spectra", None)
    assert check_purity_duality(((6, 3), (8, 4)), None).passed
    assert batches == [GraphSpec(6, 3), GraphSpec(8, 4)]  # both sides of a graph's configurations in one batch
    for n, k in ((6, 3), (8, 4)):
        labels = level_labels_x2(GraphSpec(n, k))
        for sd in (frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({0, 2}), frozenset(range(k))):
            for se in (frozenset(labels[:1]), frozenset(labels[:2]), frozenset(labels[::2])):
                assert {(n, se, sd), (n, se, frozenset(range(k + 1)) - sd)} <= seen


def _one_point_oracle(spec, filling, sub):
    """One point solved alone on its smaller side, the complement's spectrum mapped back by lam -> 1 - lam."""
    size = sum(neighborhood_size(spec, d) for d in sub.distances)
    if 2 * size <= spec.vertex_count:
        return spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
    other = frozenset(range(spec.k + 1)) - sub.distances
    entries = spectrum_oracle(chopped_correlation_oracle(spec, filling, SubsystemSpec(other, sub.x0))).entries if other else ()
    mixed = [(1.0 - lam, mult) for lam, mult in entries if 0.0 < lam < 1.0]
    q = sum(mult for _, mult in mixed)
    rank = sum(spectral.level_degeneracy(j_x2, spec) for j_x2 in filling.occupied)
    ones = rank - q - sum(mult for lam, mult in entries if lam == 1.0)
    values, mults = zip(*[(lam, mult) for lam, mult in [(0.0, size - ones - q), (1.0, ones), *mixed] if mult])
    return CorrelationSpectrum(group_spectrum(values, mults))


def _mixed_batch(spec, rng):
    """A shuffled batch of balls, shells and scattered distance sets under bottom-run and scattered fillings, from two base vertices, with repeats."""
    k = spec.k
    labels = level_labels_x2(spec)
    subsets = [frozenset(range(r + 1)) for r in range(k + 1)] + [frozenset({i}) for i in range(k + 1)]
    subsets += [frozenset(range(0, k + 1, 2)), frozenset(range(1, k + 1, 2))]
    subsets += [frozenset(rng.sample(range(k + 1), rng.randint(1, k + 1))) for _ in range(3)]
    fillings = [FillingSpec(frozenset(labels[:fill])) for fill in range(k + 2)]
    fillings += [FillingSpec(frozenset(labels[::2])), FillingSpec(frozenset(labels[1::2]))]
    bases = [default_base_vertex(spec), vertex_from_subset(range(2, 2 * k + 1, 2), spec)]
    configs = [(filling, SubsystemSpec(d, x0)) for d in subsets for filling in fillings for x0 in bases]
    configs += rng.sample(configs, 5)
    rng.shuffle(configs)
    return configs


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_batch_equals_one_point_solves(n):
    rng = random.Random(n)
    for k in range(1, n // 2 + 1):
        spec = GraphSpec(n, k)
        configs = _mixed_batch(spec, rng)
        sizes = [sum(neighborhood_size(spec, d) for d in sub.distances) for _, sub in configs]
        assert spec.vertex_count in sizes and any(2 * size > spec.vertex_count for size in sizes)
        routed = list(heun.spectra([(spec, configs)], "oracle"))
        direct = list(spectral.oracle_spectra(spec, configs))
        assert len(routed) == len(direct) == len(configs)
        for (filling, sub), got_routed, got_direct in zip(configs, routed, direct):
            want_routed = _one_point_oracle(spec, filling, sub)
            want_direct = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
            assert got_routed.entries == want_routed.entries and repr(got_routed) == repr(want_routed), (n, k)
            assert got_direct.entries == want_direct.entries and repr(got_direct) == repr(want_direct), (n, k)


def test_oracle_batch_builds_each_side_once_and_solves_each_stack_once(monkeypatch):
    # one vertex layout per base vertex over every distance its sides take, then one distance matrix per side
    spec = GraphSpec(10, 5)
    configs = _mixed_batch(spec, random.Random(1))
    layouts, built = [], []
    real_layout, real_distances = spectral._vertex_layout, spectral._layout_distances
    monkeypatch.setattr(
        spectral, "_vertex_layout", lambda spec, x0, distances: layouts.append((x0, set(distances))) or real_layout(spec, x0, distances)
    )
    monkeypatch.setattr(spectral, "_layout_distances", lambda moved: built.append(moved) or real_distances(moved))
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: shapes.append(m.shape) or real_eigvalsh(m))
    monkeypatch.setattr(np.linalg, "eigh", None)
    list(spectral.oracle_spectra(spec, configs))
    sides = list(dict.fromkeys(sub for _, sub in configs))
    bases = {sub.x0 for sub in sides}
    assert len(bases) == 2 and sorted(x0.subset for x0, _ in layouts) == sorted(x0.subset for x0 in bases)
    assert all(distances == set().union(*(sub.distances for sub in sides if sub.x0 == x0)) for x0, distances in layouts)
    # each side's rows, in batch order, hold the layout rows of its vertices and nothing else
    assert len(built) == len(sides)
    for sub, moved in zip(sides, built):
        want = sum(neighborhood_size(spec, d) for d in sub.distances)
        assert moved.shape == (want, spec.n) and set((moved.sum(axis=1) // 2).astype(int).tolist()) == set(sub.distances)
    fillings = {sub: {filling.occupied for filling, other in configs if other == sub} for sub in sides}
    assert [count for count, _, _ in shapes] == [len(fillings[sub]) for sub in sides]
    # a byte budget of three matrices: each side's fillings in stacks of at most three
    layouts.clear()
    built.clear()
    shapes.clear()
    monkeypatch.setattr(spectral, "STACK_BYTES", 3 * 8 * 126**2)
    list(spectral.oracle_spectra(spec, configs))
    assert len(layouts) == 2 and len(built) == len(sides)
    want = []
    for sub in sides:
        size = sum(neighborhood_size(spec, d) for d in sub.distances)
        per_stack = max(1, 3 * 126**2 // size**2)
        count = len(fillings[sub])
        want += [(min(per_stack, count - lo), size, size) for lo in range(0, count, per_stack)]
    assert shapes == want and any(count > 1 for count, _, _ in shapes) and len(shapes) > len(sides)


@st.composite
def _layout_batch(draw):
    """A graph with n <= 12, two or three base vertices and several distance sets for each, shuffled into one batch."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n // 2))
    spec = GraphSpec(n, k)
    subset = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True).map(lambda e: tuple(sorted(e)))
    bases = [vertex_from_subset(e, spec) for e in draw(st.lists(subset, min_size=2, max_size=3, unique=True))]
    distances = st.frozensets(st.integers(0, k), min_size=1)
    subs = [SubsystemSpec(draw(distances), x0) for x0 in bases for _ in range(draw(st.integers(1, 3)))]
    labels = level_labels_x2(spec)
    configs = [(FillingSpec(frozenset(labels[: draw(st.integers(0, k + 1))])), sub) for sub in subs]
    return spec, draw(st.permutations(configs))


@settings(max_examples=60, deadline=None)
@given(_layout_batch())
def test_every_side_of_a_batch_reads_the_indicator_sum_distances(batch):
    # each side's distance matrix, read off its base vertex's shared layout, against the reference built alone
    spec, configs = batch
    built = []
    real = spectral._layout_distances
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_layout_distances", lambda moved: built.append(real(moved)) or built[-1])
        list(spectral.oracle_spectra(spec, configs))
    sides = list(dict.fromkeys(sub for _, sub in configs))
    assert len({sub.x0 for sub in sides}) >= 2 and len(built) == len(sides)
    for sub, got in zip(sides, built):
        want = indicator_sum_distances(spec, sub)
        assert got.dtype == want.dtype and np.array_equal(got, want), (spec, sub)


def test_oracle_batch_over_a_large_side_holds_its_budget_and_two_matrices():
    # six fillings of the ball 0..3 of J(13, 6), each solved on the 658-row complement 4..6
    spec = GraphSpec(13, 6)
    labels = level_labels_x2(spec)
    ball = SubsystemSpec(frozenset(range(4)), default_base_vertex(spec))
    configs = [(FillingSpec(frozenset(labels[:fill])), ball) for fill in range(1, 7)]
    full = 658**2 * 8
    assert 6 * full > spectral.STACK_BYTES
    list(heun.spectra([(spec, configs)], "oracle"))  # the kernels are cached; only the batch is measured
    assert _traced_bytes(lambda: list(heun.spectra([(spec, configs)], "oracle")))[1] <= spectral.STACK_BYTES + 2 * full


def test_cold_kernel_point_holds_at_most_four_subsystem_arrays():
    spec = GraphSpec(13, 6)
    sub = SubsystemSpec(frozenset(range(3)), default_base_vertex(spec))
    filling = FillingSpec(frozenset(level_labels_x2(spec)[:3]))
    spectral._level_kernel.cache_clear()
    spectral._correlation_kernel.cache_clear()
    assert _traced_bytes(lambda: chopped_correlation_oracle(spec, filling, sub))[1] <= 4 * 358**2 * 8


def test_cold_level_blocks_hold_at_most_two_full_arrays():
    # one level block E_j over the whole J(12, 6): the distances and the block
    spec = GraphSpec(12, 6)
    whole = SubsystemSpec(frozenset(range(7)), default_base_vertex(spec))
    top = FillingSpec(frozenset({12}))
    spectral._level_kernel.cache_clear()
    spectral._correlation_kernel.cache_clear()
    full = spec.vertex_count**2 * 8
    assert _traced_bytes(lambda: chopped_correlation_oracle(spec, top, whole))[1] < 2.5 * full


def test_reconstruction_check_reads_the_last_row_of_the_last_slab(monkeypatch):
    # the diagonal entry of the last row of A_k sits in the last slab only
    spec = GraphSpec(12, 6)
    assert spec.vertex_count % verify._SLAB_ROWS  # the last slab is partial
    real = verify._adjacency_polynomial_slabs

    def corrupted(spec, cap):
        slabs = list(real(spec, cap))
        slabs[-1][1][-1][-1, -1] += 1e-6
        return slabs

    monkeypatch.setattr(verify, "_adjacency_polynomial_slabs", corrupted)
    result = check_hahn_polynomial(((12, 6),), None)
    assert not result.passed
    assert result.worst == pytest.approx(1e-6)


def test_warm_oracle_still_checks_capacity():
    spec = GraphSpec(6, 3)
    sub = SubsystemSpec(frozenset({0}), default_base_vertex(spec))
    filling = FillingSpec(frozenset({0}))
    chopped_correlation_oracle(spec, filling, sub)
    with pytest.raises(CapacityError):
        chopped_correlation_oracle(spec, filling, sub, cap=10)
    with pytest.raises(CapacityError):
        eigenprojectors_oracle(spec, cap=10)
    with pytest.raises(CapacityError):
        next(heun.spectra([(spec, [(filling, SubsystemSpec(frozenset(range(4)), sub.x0))])], "oracle", cap=10))


def test_integer_kernel_equals_the_fraction_sum():
    # one division of the summed integer numerators gives the correctly
    # rounded Fraction sum, entry for entry, on every graph up to n = 40 and
    # every balanced graph up to J(60,30), under every lowest filling
    sizes = graph_sizes(2, 40) + [(2 * k, k) for k in range(21, 31)]
    for n, k in sizes:
        spec = GraphSpec(n, k)
        labels = level_labels_x2(spec)
        for fill in range(len(labels) + 1):
            got = spectral._correlation_kernel(spec, frozenset(labels[:fill]))
            want = correlation_kernel_reference(spec, labels[:fill])
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want], (n, k, fill)
        spectral._correlation_kernel.cache_clear()


def test_cached_eigenvector_blocks_are_read_only():
    # a level's eigenvector block Q_j is cached as its kernel f_j, with
    # E_j = Q_j Q_j^T = f_j read off the distances: exact and immutable
    spec = GraphSpec(6, 3)
    eigenprojectors_oracle(spec)
    for j_x2 in level_labels_x2(spec):
        f_j = spectral._level_kernel(spec, j_x2)
        assert isinstance(f_j, tuple) and len(f_j) == 4
        assert all(isinstance(x, int) for x in f_j)
    f = spectral._correlation_kernel(spec, frozenset(level_labels_x2(spec)[:2]))
    assert f.shape == (4,)
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0] = 1.0



def _oracle_run():
    spec = GraphSpec(12, 6)
    sub = SubsystemSpec(frozenset({0, 1, 2}), default_base_vertex(spec))
    chopped_correlation_oracle(spec, FillingSpec(frozenset(level_labels_x2(spec)[:3])), sub)


def _traced_bytes(run) -> tuple[int, int]:
    """(retained, peak) bytes that ``run`` allocates, its return value dropped."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return current - base, peak - base


def test_warm_oracle_holds_one_full_product():
    _oracle_run()
    full = GraphSpec(12, 6).vertex_count ** 2 * 8
    assert _traced_bytes(_oracle_run)[1] < 1.5 * full


def test_warm_oracle_holds_no_full_product():
    _oracle_run()
    full = GraphSpec(12, 6).vertex_count ** 2 * 8
    assert _traced_bytes(_oracle_run)[1] < 0.5 * full


def test_cold_oracle_keeps_only_the_eigenvector_blocks():
    # what a cold point keeps is the occupied levels' kernels f_j (the
    # eigenvector blocks in their exact form) and their rounded sum
    spectral._level_kernel.cache_clear()
    spectral._correlation_kernel.cache_clear()
    full = GraphSpec(12, 6).vertex_count ** 2 * 8
    assert _traced_bytes(_oracle_run)[0] <= 0.01 * full
    assert spectral._level_kernel.cache_info().currsize == 3
    assert spectral._correlation_kernel.cache_info().currsize == 1


def test_level_degeneracy_check_builds_no_projector():
    spec = GraphSpec(12, 6)
    assert check_level_degeneracies(((12, 6),), None).passed
    full = spec.vertex_count ** 2 * 8
    assert _traced_bytes(lambda: check_level_degeneracies(((12, 6),), None))[1] < 1.5 * full


def test_spectrum_oracle_grouping():
    assert spectrum_oracle(np.eye(5)).entries == ((1.0, 5),)
    assert spectrum_oracle(np.zeros((3, 3))).entries == ((0.0, 3),)
    got = spectrum_oracle(np.array([[1.0 / 3.0]]))
    assert got.entries[0][0] == pytest.approx(1.0 / 3.0)


def test_spectrum_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        spectrum_oracle(np.diag([0.5, 1.5]))


def test_correlation_spectrum_validation():
    with pytest.raises(ValueError):
        CorrelationSpectrum(((1.2, 1),))
    with pytest.raises(ValueError):
        CorrelationSpectrum(((0.5, 0),))


def test_group_spectrum_merges_and_conserves():
    grouped = group_spectrum([0.5, 0.5 + 1e-12, 0.7], [2, 3, 1])
    assert len(grouped) == 2
    assert grouped[0][1] == 5
    assert sum(m for _, m in grouped) == 6


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 4)), min_size=1, max_size=30))
def test_group_spectrum_preserves_total(pairs):
    grouped = group_spectrum([v for v, _ in pairs], [m for _, m in pairs])
    assert sum(m for _, m in grouped) == sum(m for _, m in pairs)


@st.composite
def _merge_pairs(draw):
    """(value, multiplicity) pairs with exact value ties, chains spaced under
    the merge tolerance that span more than it, and multiplicities past 2^63."""
    tol = spectral.GROUP_TOL
    values = []
    for start in draw(st.lists(st.floats(0, 1), min_size=1, max_size=6)):
        shape = draw(st.sampled_from(("single", "ties", "chain")))
        if shape == "ties":
            values += [start] * draw(st.integers(2, 4))
        elif shape == "chain":
            step = draw(st.floats(0.3, 0.99)) * tol
            values += [min(1.0, start + j * step) for j in range(draw(st.integers(3, 7)))]
        else:
            values.append(start)
    mult = st.one_of(st.integers(1, 4), st.integers(2**63 - 2, 2**70))
    mults = draw(st.lists(mult, min_size=len(values), max_size=len(values)))
    return list(zip(values, mults))


@given(_merge_pairs())
def test_vectorized_merge_equals_the_reference_loop(pairs):
    grouped = group_spectrum([v for v, _ in pairs], [m for _, m in pairs])
    want = group_spectrum_reference(pairs)
    assert grouped == want
    assert repr(grouped) == repr(want)
    assert all(type(m) is int for _, m in grouped)


@given(st.lists(_merge_pairs(), min_size=1, max_size=4))
def test_batched_merge_keeps_each_point_apart(points):
    values = [v for pairs in points for v, _ in pairs]
    mults = [m for pairs in points for _, m in pairs]
    owners = [p for p, pairs in enumerate(points) for _ in pairs]
    got = list(group_spectra(values, mults, owners, len(points) + 1))
    assert got == [group_spectrum_reference(pairs) for pairs in points] + [()]


def test_merge_sums_groups_of_every_length_left_to_right():
    # 120 groups of 1..60 members over three points, multiplicities in int64
    # and beyond it: vector steps while enough groups are long, then one by
    # one; each group's mean is reduce(add) of its products
    rng = random.Random(5)
    tol = spectral.GROUP_TOL
    for big in (False, True):
        points = []
        for _ in range(3):
            pairs = []
            for length in rng.sample(range(1, 61), 40):
                start = rng.random()
                pairs += [(start + j * 0.01 * tol, rng.randint(1, 9) * (2**64 if big else 1)) for j in range(length)]
            rng.shuffle(pairs)
            points.append(pairs)
        values = [v for pairs in points for v, _ in pairs]
        mults = [m for pairs in points for _, m in pairs]
        owners = [p for p, pairs in enumerate(points) for _ in pairs]
        got = list(group_spectra(values, mults, owners, len(points)))
        want = [group_spectrum_reference(pairs) for pairs in points]
        assert got == want and repr(got) == repr(want)
        assert all(type(m) is int for entries in got for _, m in entries)


def test_merge_anchors_each_group_at_its_first_value():
    # 0.5 + 0.6 tol joins 0.5, but 0.5 + 1.2 tol is over tol from the anchor
    tol = spectral.GROUP_TOL
    pairs = [(0.5, 1), (0.5 + 0.6 * tol, 1), (0.5 + 1.2 * tol, 1), (0.5, 2**64)]
    grouped = group_spectrum([v for v, _ in pairs], [m for _, m in pairs])
    assert grouped == group_spectrum_reference(pairs)
    assert [m for _, m in grouped] == [2**64 + 2, 1]


def test_merge_sums_each_group_left_to_right():
    # long groups of generic values and multiplicities, where any other
    # summation order (pairwise, blocked) rounds differently
    rng = np.random.default_rng(7)
    tol = spectral.GROUP_TOL
    values, mults = [], []
    for start in rng.uniform(0.0, 1.0, 40):
        length = int(rng.integers(2, 30))
        values += (start + rng.uniform(0.0, 0.9 * tol, length)).tolist()
        mults += [int(m) for m in rng.integers(1, 10**6, length)]
    mults[::7] = [2**64 + 3 * m for m in mults[::7]]
    pairs = list(zip(values, mults))
    assert repr(group_spectrum(values, mults)) == repr(group_spectrum_reference(pairs))


def test_hahn_polynomial_matrix_identity():
    # the product chain gives every A_i bit for bit as its own product of i
    # factors, and that equals the distance matrix A_i; all n <= 10, and one
    # graph with several row slabs
    for n, k in graph_sizes(3, 10) + [(11, 5)]:
        spec = GraphSpec(n, k)
        slabs = list(verify._adjacency_polynomial_slabs(spec, None))
        assert np.array_equal(np.vstack([d for d, _ in slabs]), pairwise_distances(spec))
        for i in range(k + 1):
            rebuilt = np.vstack([polys[i] for _, polys in slabs])
            assert np.array_equal(rebuilt, adjacency_via_polynomial(i, spec)), (n, k, i)
            assert np.max(np.abs(adjacency_matrix(i, spec) - rebuilt)) <= 1e-8, (n, k, i)


def test_projector_product_spectrum_in_unit_interval():
    spec = GraphSpec(6, 3)
    labels = level_labels_x2(spec)
    x0 = default_base_vertex(spec)
    for fill in (1, 2):
        for dset in ({0}, {1}, {0, 2}, {0, 1, 2}):
            c = chopped_correlation_oracle(
                spec, FillingSpec(frozenset(labels[:fill])), SubsystemSpec(frozenset(dset), x0)
            )
            w = np.linalg.eigvalsh(c)
            assert w.min() > -1e-10 and w.max() < 1 + 1e-10


def test_purity_duality_oracle():
    # complement regions carry the same nontrivial spectrum and entropy
    from johnson_entanglement.entropy import von_neumann

    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    x0 = default_base_vertex(spec)
    for fill in (1, 2, 3):
        filling = FillingSpec(frozenset(labels[:fill]))
        for dset in ({0}, {0, 1}, {1, 3}, {0, 2}):
            sub = SubsystemSpec(frozenset(dset), x0)
            comp = SubsystemSpec(frozenset(range(spec.k + 1)) - frozenset(dset), x0)
            s_a = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
            s_b = spectrum_oracle(chopped_correlation_oracle(spec, filling, comp))
            assert von_neumann(s_a) == pytest.approx(von_neumann(s_b), abs=1e-8)
            # mixed eigenvalues of complementary regions pair up as lam <-> 1 - lam
            mixed_a = sorted(l for l, m in s_a.entries for _ in range(m) if 1e-8 < l < 1 - 1e-8)
            mixed_b = sorted(1.0 - l for l, m in s_b.entries for _ in range(m) if 1e-8 < l < 1 - 1e-8)
            assert len(mixed_a) == len(mixed_b)
            assert np.allclose(mixed_a, mixed_b, atol=1e-8)


def test_trace_identity_uniform_diagonal():
    # trace C = sum_{j in SE} D_j |SV| / |X| for neighborhood unions
    from johnson_entanglement.terwilliger import level_degeneracy

    spec = GraphSpec(6, 3)
    labels = level_labels_x2(spec)
    x0 = default_base_vertex(spec)
    filling = FillingSpec(frozenset(labels[:2]))
    occ = sum(level_degeneracy(j, spec) for j in labels[:2])
    for dset in ({0}, {1, 2}, {0, 3}):
        sub = SubsystemSpec(frozenset(dset), x0)
        c = chopped_correlation_oracle(spec, filling, sub)
        sv = c.shape[0]
        assert np.trace(c) == pytest.approx(occ * sv / spec.vertex_count, abs=1e-9)


def test_x0_override_changes_nothing_spectral():
    spec = GraphSpec(5, 2)
    alt = vertex_from_subset({4, 5}, spec)  # the "last k elements" convention
    labels = level_labels_x2(spec)
    filling = FillingSpec(frozenset(labels[:1]))
    for dset in ({0}, {0, 1}):
        sub_a = SubsystemSpec(frozenset(dset), default_base_vertex(spec))
        sub_b = SubsystemSpec(frozenset(dset), alt)
        sa = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub_a))
        sb = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub_b))
        assert sa.entries == tuple(
            (pytest.approx(l, abs=1e-10), m) for l, m in sb.entries
        )


@given(st.data())
def test_x0_relabelling_leaves_oracle_spectrum_unchanged(data):
    n = data.draw(st.integers(2, 9))
    k = data.draw(st.integers(1, n // 2))
    spec = GraphSpec(n, k)
    x0 = vertex_from_subset(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k)), spec)
    ball = frozenset(range(data.draw(st.integers(0, k)) + 1))
    filling = FillingSpec(frozenset(level_labels_x2(spec)[: data.draw(st.integers(0, k + 1))]))
    sub = SubsystemSpec(ball, x0)
    ball_rows = [v.index for v in enumerate_vertices(spec) if distance(x0, v, spec) in ball]
    assert subsystem_indices(spec, sub).tolist() == ball_rows
    got = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
    default = SubsystemSpec(ball, default_base_vertex(spec))
    want = spectrum_oracle(chopped_correlation_oracle(spec, filling, default))
    assert got.entries == tuple((pytest.approx(l, abs=1e-10), m) for l, m in want.entries)
