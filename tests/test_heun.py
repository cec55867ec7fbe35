import math

import numpy as np
import pytest

from johnson_entanglement import heun
from johnson_entanglement.heun import build_T, dual_eigenvalue_at_distance, heun_spec, spectrum_via_heun
from johnson_entanglement.scheme import GraphSpec, default_base_vertex, dual_adjacency_matrix, neighborhood_size
from johnson_entanglement.spectral import (
    FillingSpec,
    SubsystemSpec,
    chopped_correlation_oracle,
    level_labels_x2,
    spectrum_oracle,
    theta_eigenvalue,
)
from johnson_entanglement.terwilliger import (
    assemble_spectrum,
    chain_ladder,
    enumerate_modules,
    module_table,
)
from johnson_entanglement.verify import (
    _A_stack,
    _Astar_stack,
    _level_T_stack,
    _levels_x2,
    check_action_convention,
    check_heun_commutant,
    check_t_basis_similarity,
    spectra_max_diff,
)

from verify_reference import Astar_coefficients, module_admissible_levels, module_stacks


def _module(spec, j1_x2, j2_x2):
    for label in enumerate_modules(spec):
        if (label.j1_x2, label.j2_x2) == (j1_x2, j2_x2):
            return label
    raise LookupError


def _m1_x2(i, spec):
    return (spec.n - spec.k) - 2 * i


def _A_coefficients(label, m1_x2, spec):
    """Scalar reference for the chain arrays: ladder weight a_m1 and diagonal b_m1 of A on a module chain.

    a_m1 = sqrt((j1+m1)(j1-m1+1)(j2-m2)(j2+m2+1)) couples m1 to m1 - 1, i.e.
    the row at distance i to the row at i + 1, and vanishes at the chain
    ends; b_m1 = j1(j1+1) + j2(j2+1) - m1^2 - m2^2 - n/2.
    """
    n, k = spec.n, spec.k
    m2_x2 = (n - 2 * k) - m1_x2
    i = ((n - k) - m1_x2) // 2
    if i not in label.distances:
        raise ValueError(f"m1_x2={m1_x2} outside the module chain")
    j1, j2 = label.j1_x2, label.j2_x2
    prod = (
        ((j1 + m1_x2) // 2)
        * ((j1 - m1_x2) // 2 + 1)
        * ((j2 - m2_x2) // 2)
        * ((j2 + m2_x2) // 2 + 1)
    )
    a = math.sqrt(prod)
    b = (j1 * (j1 + 2) + j2 * (j2 + 2) - m1_x2**2 - m2_x2**2) / 4.0 - n / 2.0
    return a, b


def test_dual_eigenvalue_at_base_vertex():
    for n, k in [(4, 2), (7, 3), (12, 5)]:
        assert dual_eigenvalue_at_distance(0, GraphSpec(n, k)) == pytest.approx(n - 1)


def test_dual_eigenvalue_octahedron_middle():
    assert dual_eigenvalue_at_distance(1, GraphSpec(4, 2)) == pytest.approx(0.0)


def test_dual_eigenvalue_strictly_decreasing():
    spec = GraphSpec(9, 4)
    vals = [dual_eigenvalue_at_distance(i, spec) for i in range(5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dual_eigenvalue_matches_dense_diagonal():
    spec = GraphSpec(5, 2)
    x0 = default_base_vertex(spec)
    diag = np.diag(dual_adjacency_matrix(x0, spec))
    from johnson_entanglement.scheme import distances_from

    d = distances_from(x0, spec)
    for idx in range(spec.vertex_count):
        assert diag[idx] == pytest.approx(dual_eigenvalue_at_distance(int(d[idx]), spec))


def test_A_coefficients_vanish_at_chain_ends():
    for n, k in [(6, 3), (9, 4)]:
        spec = GraphSpec(n, k)
        for label in enumerate_modules(spec):
            a_bottom, _ = _A_coefficients(label, _m1_x2(label.i_max, spec), spec)
            assert a_bottom == 0.0
            # coupling out of the top row also vanishes by the mirrored factor
            m1_top = _m1_x2(label.i_min, spec)
            j1, j2 = label.j1_x2, label.j2_x2
            m2_top = (n - 2 * k) - m1_top
            top_out = ((j1 - m1_top) // 2) * ((j2 + m2_top) // 2)
            assert top_out == 0


def _scalar_chain_arrays(spec):
    """a and b at every chain row, module by module along each chain, with each row's module labels and distance."""
    a, b, rows = [], [], []
    for label in enumerate_modules(spec):
        for i in label.distances:
            a_i, b_i = _A_coefficients(label, _m1_x2(i, spec), spec)
            a.append(a_i)
            b.append(b_i)
            rows.append((label.j1_x2, label.j2_x2, i))
    return np.array(a), np.array(b), np.array(rows).T


@pytest.mark.parametrize("n", [*range(2, 31), 400])
def test_chain_arrays_equal_the_scalar_coefficients(n):
    for k in range(1, n // 2 + 1) if n <= 30 else [n // 2]:
        spec = GraphSpec(n, k)
        want_a, want_b, (j1_x2, j2_x2, i) = _scalar_chain_arrays(spec)
        a, b = chain_ladder(n, k, j1_x2, j2_x2, i)
        assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes(), (n, k)
        theta = np.array([dual_eigenvalue_at_distance(i, spec) for i in range(k + 1)])
        assert dual_eigenvalue_at_distance(np.arange(k + 1), spec).tobytes() == theta.tobytes()
        # the per-block form T reads, with n and k as arrays
        per_block = heun._dual_eigenvalue(np.full(k + 1, n), np.full(k + 1, k), np.arange(k + 1))
        assert per_block.tobytes() == theta.tobytes()


@pytest.mark.parametrize("n,k", [(2_200_000, 2), (3_000_000, 1), (10**7, 3)])
def test_dual_eigenvalue_of_an_array_equals_the_scalar_past_the_int64_range(n, k):
    # n (n - 1) (n - 4i) passes 2^63 from n = 2.2 * 10^6: an int64 product would wrap there
    spec = GraphSpec(n, k)
    theta = [dual_eigenvalue_at_distance(i, spec) for i in range(k + 1)]
    assert dual_eigenvalue_at_distance(np.arange(k + 1), spec).tolist() == theta
    assert theta[0] == pytest.approx(n - 1)


def _stacked_module(spec, j1_x2, j2_x2):
    """The chain-length stack that holds module (j1_x2, j2_x2) of the graph, and its place there."""
    for label, stack, s in module_stacks(spec):
        if (label.j1_x2, label.j2_x2) == (j1_x2, j2_x2):
            return stack, s
    raise LookupError


def _Astar(stack):
    """The stacked A* of the battery, at each module's admissible levels."""
    return _Astar_stack(stack.n, stack.k, stack.j1_x2, stack.j2_x2, _levels_x2(stack))


def test_A_action_trace_identity():
    for n, k in [(6, 3), (8, 4), (9, 4)]:
        spec = GraphSpec(n, k)
        for label, stack, s in module_stacks(spec):
            action = _A_stack(stack)[s]
            expected = sum(theta_eigenvalue(j, spec) for j in module_admissible_levels(label, spec))
            assert np.trace(action) == pytest.approx(expected, abs=1e-9)


def test_A_action_octahedron_module_spectrum():
    spec = GraphSpec(4, 2)
    stack, s = _stacked_module(spec, 2, 2)
    action = _A_stack(stack)[s]
    assert np.allclose(np.sort(np.linalg.eigvalsh(action)), [-2.0, 0.0, 4.0], atol=1e-10)


def test_action_convention_validates_widely():
    result = check_action_convention([(4, 2), (7, 3), (12, 5)])
    assert result.passed and result.worst <= 1e-10


def test_Astar_one_dimensional_modules():
    # a scalar chain has no coupling; its level-basis diagonal must be the
    # dual eigenvalue of its single row
    found = 0
    for n, k in [(6, 2), (6, 3), (9, 4)]:
        spec = GraphSpec(n, k)
        for label, stack, s in module_stacks(spec):
            if label.dim != 1:
                continue
            found += 1
            levels = module_admissible_levels(label, spec)
            assert len(levels) == 1
            b_star = _Astar(stack)[1][s, 0]
            assert b_star == pytest.approx(dual_eigenvalue_at_distance(label.i_min, spec))
    assert found > 0


def test_Astar_action_octahedron_spectrum():
    # similarity: distance-basis diagonal {3, 0, -3} must reappear as the
    # level-basis tridiagonal spectrum
    spec = GraphSpec(4, 2)
    stack, s = _stacked_module(spec, 2, 2)
    a_star, b_star = (x[s] for x in _Astar(stack))
    assert len(b_star) == 3
    m = np.diag(b_star) + np.diag(a_star[1:], 1) + np.diag(a_star[1:], -1)
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), [-3.0, 0.0, 3.0], atol=1e-10)


def test_Astar_boundary_weight_vanishes():
    spec = GraphSpec(8, 4)
    for label, stack, s in module_stacks(spec):
        if label.dim < 2:
            continue
        a_star = _Astar(stack)[0][s, 0]
        assert a_star == pytest.approx(0.0, abs=1e-12)


def test_Astar_range_check():
    # the scalar reference refuses a level outside the coupling range; the
    # stacked A* is only ever evaluated at each module's admissible levels
    spec = GraphSpec(4, 2)
    with pytest.raises(ValueError):
        Astar_coefficients(6, _module(spec, 2, 2), spec)
    for n, k in [(4, 2), (7, 3), (12, 5)]:
        spec = GraphSpec(n, k)
        for label, stack, s in module_stacks(spec):
            assert _levels_x2(stack)[s].tolist() == module_admissible_levels(label, spec)


def test_heun_spec_validation():
    spec = GraphSpec(6, 3)
    heun_spec(spec, 0, 0)
    with pytest.raises(ValueError):
        heun_spec(spec, 3, 0)  # cut must stay inside the graph
    with pytest.raises(ValueError):
        heun_spec(spec, 0, 6)  # top level cannot be the filling cut
    with pytest.raises(ValueError):
        heun_spec(spec, 0, 1)  # parity


def test_T_cut_coupling_is_exactly_zero():
    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    for n_cut in range(4):
        for j0 in labels[:-1]:
            hs = heun_spec(spec, n_cut, j0)
            for label in enumerate_modules(spec):
                t = build_T(label, hs, spec)
                for offset, i in enumerate(range(label.i_min, label.i_max)):
                    if i == n_cut:
                        assert t[offset, offset + 1] == t[offset + 1, offset] == 0.0  # exact zero, not small
                stack, s = _stacked_module(spec, label.j1_x2, label.j2_x2)
                weights = (np.full(len(stack.n), hs.mu), np.full(len(stack.n), hs.nu))
                t_lvl = heun._tridiagonal(*_level_T_stack(stack.n, stack.k, stack.j1_x2, stack.j2_x2, _levels_x2(stack), *weights))[s]
                levels = module_admissible_levels(label, spec)
                for pos, j_x2 in enumerate(levels[:-1]):
                    if j_x2 == j0:
                        assert t_lvl[pos, pos + 1] == t_lvl[pos + 1, pos] == 0.0


def test_one_T_stack_across_graphs_equals_each_graphs_own_build():
    # four-row blocks of four graphs, each under its own weights, shuffled
    # into one call against one call per graph; each window holds rows
    # n_cut - 1 .. n_cut + 2
    parts = []
    for n, k in [(12, 6), (29, 13), (30, 15), (66, 33)]:
        spec = GraphSpec(n, k)
        table = module_table(spec)
        n_cut = k // 2
        hs = heun_spec(spec, n_cut, level_labels_x2(spec)[k // 3])
        ms = np.flatnonzero((table.i_min <= n_cut - 1) & (table.i_max >= n_cut + 2))
        assert len(ms) > 0, (n, k)
        rows = np.broadcast_to(np.arange(n_cut - 1, n_cut + 3), (len(ms), 4))
        mu, nu = np.full(len(ms), hs.mu), np.full(len(ms), hs.nu)
        own = heun._T_stack(n, k, table.j1_x2[ms], table.j2_x2[ms], rows, mu, nu)
        parts.append((np.full(len(ms), n), np.full(len(ms), k), table.j1_x2[ms], table.j2_x2[ms], rows, mu, nu, *own))
    columns = [np.concatenate(column) for column in zip(*parts)]
    order = np.random.default_rng(7).permutation(len(columns[0]))
    diag, off = heun._T_stack(*(column[order] for column in columns[:7]))
    assert diag.tobytes() == columns[7][order].tobytes()
    assert off.tobytes() == columns[8][order].tobytes()
    assert np.all(off[:, 1] == 0.0)  # the coupling of n_cut to n_cut + 1: an exact zero, not small
    assert np.all(off[:, [0, 2]] != 0.0)


def test_T_one_dimensional_module_is_scalar():
    spec = GraphSpec(6, 2)
    hs = heun_spec(spec, 0, 2)
    label = _module(spec, 2, 0)
    t = build_T(label, hs, spec)
    assert t.shape == (1, 1)


def test_T_basis_spectra_agree():
    assert check_t_basis_similarity([(6, 3, 1, 1), (9, 4, 1, 1)]).passed


def test_commutant_control_skips_only_all_scalar_blocks():
    # every restricted T block of J(n, 1) is 1x1, so the perturbed-mu control
    # has nothing to break; the check must skip it, not fail
    result = check_heun_commutant([(2, 1, 0, 0), (3, 1, 0, 0)])
    assert result.passed, result
    assert "control skipped on 2 of 2 configurations" in result.detail
    mixed = check_heun_commutant([(3, 1, 0, 0), (8, 4, 1, 1)])
    assert mixed.passed and "skipped on 1 of 2 configurations" in mixed.detail


def test_spectrum_via_heun_matches_other_routes():
    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    x0 = default_base_vertex(spec)
    for n_cut in (0, 1, 2):
        for j0_pos in range(4):
            hs = heun_spec(spec, n_cut, labels[j0_pos])
            filling = FillingSpec(frozenset(labels[: j0_pos + 1]))
            sub = SubsystemSpec(frozenset(range(n_cut + 1)), x0)
            via_t = spectrum_via_heun(spec, hs)
            direct = assemble_spectrum(spec, filling, sub)
            oracle = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
            assert spectra_max_diff(via_t, direct) <= 1e-8
            assert spectra_max_diff(via_t, oracle) <= 1e-8


def test_spectrum_via_heun_large_scale():
    # J(30, 15), ball of radius 7, four occupied levels: no dense objects
    spec = GraphSpec(30, 15)
    labels = level_labels_x2(spec)
    hs = heun_spec(spec, 7, labels[3])
    spectrum = spectrum_via_heun(spec, hs)
    expected_modes = sum(math.comb(15, i) ** 2 for i in range(8))
    assert spectrum.total_multiplicity == expected_modes
    from johnson_entanglement.entropy import von_neumann

    s = von_neumann(spectrum)
    assert 0.0 < s <= expected_modes * math.log(2.0)


def test_spectrum_via_heun_full_filling_is_flat():
    # every admissible level below the cut occupied in a graph where the cut
    # leaves nothing mixed: subsystem = whole graph minus outer shells with
    # all levels filled is not representable, so check the simplest flat case
    spec = GraphSpec(6, 3)
    labels = level_labels_x2(spec)
    hs = heun_spec(spec, 2, labels[-2])
    filling = FillingSpec(frozenset(labels[:-1]))
    sub = SubsystemSpec(frozenset(range(3)), default_base_vertex(spec))
    via_t = spectrum_via_heun(spec, hs)
    oracle = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
    assert spectra_max_diff(via_t, oracle) <= 1e-8


def test_cluster_fallback_reproduces_spectrum(monkeypatch):
    # force every T eigenvalue into one cluster: the projection fallback then
    # rediagonalizes the correlation block in the full T eigenbasis and must
    # reproduce the plain spectrum
    import johnson_entanglement.heun as heun_module

    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    hs = heun_spec(spec, 2, labels[1])
    expected = spectrum_via_heun(spec, hs)
    monkeypatch.setattr(heun_module, "CLUSTER_REL_TOL", float("inf"))
    forced = heun_module.spectrum_via_heun(spec, hs)
    assert spectra_max_diff(expected, forced) <= 1e-8


def test_restriction_sizes():
    spec = GraphSpec(8, 4)
    hs = heun_spec(spec, 1, level_labels_x2(spec)[0])
    total = 0
    for label in enumerate_modules(spec):
        rows = [i for i in label.distances if i <= hs.n_cut]
        t = build_T(label, hs, spec)[: len(rows), : len(rows)]
        total += len(t) * label.degeneracy
    assert total == neighborhood_size(spec, 0) + neighborhood_size(spec, 1)
