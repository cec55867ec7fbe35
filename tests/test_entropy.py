import math
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_entanglement.entropy import EntropyReport, binary_entropy, entropies, report, von_neumann
from johnson_entanglement.scheme import GraphSpec, default_base_vertex, neighborhood_size
from johnson_entanglement.spectral import (
    CorrelationSpectrum,
    FillingSpec,
    SubsystemSpec,
    level_labels_x2,
)
from johnson_entanglement.terwilliger import assemble_spectrum


def test_pure_modes_carry_no_entropy():
    assert von_neumann(CorrelationSpectrum(((0.0, 7),))) == 0.0
    assert von_neumann(CorrelationSpectrum(((1.0, 3),))) == 0.0


def test_maximal_single_mode():
    assert von_neumann(CorrelationSpectrum(((0.5, 1),))) == pytest.approx(math.log(2.0))


def test_one_third_mode():
    s = von_neumann(CorrelationSpectrum(((1.0 / 3.0, 1),)))
    assert s == pytest.approx(0.636514, abs=1e-6)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_entropy_perturbation_spot_checks():
    # |dS/dlam| = |ln(lam/(1-lam))|; finite differences at a few points
    eps = 1e-7
    for lam in (0.1, 0.5, 0.9):
        fd = (binary_entropy(lam + eps) - binary_entropy(lam - eps)) / (2 * eps)
        assert fd == pytest.approx(math.log((1 - lam) / lam), rel=1e-5)


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 5)), min_size=1, max_size=20))
def test_entropy_bounds(pairs):
    spectrum = CorrelationSpectrum(tuple(pairs))
    s = von_neumann(spectrum)
    assert 0.0 <= s <= spectrum.total_multiplicity * math.log(2.0) * (1 + 1e-12)


def test_report_whole_graph_is_pure():
    spec = GraphSpec(6, 3)
    labels = level_labels_x2(spec)
    sub = SubsystemSpec(frozenset(range(4)), default_base_vertex(spec))
    spectrum = assemble_spectrum(spec, FillingSpec(frozenset(labels[:2])), sub)
    rep = report(spec, sub, spectrum)
    assert rep.entropy_nats == pytest.approx(0.0, abs=1e-12)
    assert rep.subsystem_size == spec.vertex_count


def test_report_sizes_and_ratios():
    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    sub = SubsystemSpec(frozenset({0, 1, 2}), default_base_vertex(spec))
    spectrum = assemble_spectrum(spec, FillingSpec(frozenset(labels[:2])), sub)
    rep = report(spec, sub, spectrum)
    expected_size = sum(neighborhood_size(spec, i) for i in (0, 1, 2))
    assert rep.subsystem_size == expected_size
    assert rep.boundary_size == neighborhood_size(spec, 2)  # contiguous: outer shell
    assert rep.ratio_subsystem == pytest.approx(rep.entropy_nats / expected_size)
    assert rep.ratio_boundary == pytest.approx(rep.entropy_nats / rep.boundary_size)


def test_report_scattered_distances_boundary_is_everything():
    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    sub = SubsystemSpec(frozenset({0, 2}), default_base_vertex(spec))
    spectrum = assemble_spectrum(spec, FillingSpec(frozenset(labels[:1])), sub)
    rep = report(spec, sub, spectrum)
    assert rep.boundary_size == rep.subsystem_size


def test_report_large_scale_sizes():
    spec = GraphSpec(30, 15)
    assert neighborhood_size(spec, 7) == math.comb(15, 7) ** 2 == 41409225


def test_mirror_symmetry_balanced():
    # single-shell entropies are symmetric about k/2 when k = n/2
    for n in (8, 12):
        spec = GraphSpec(n, n // 2)
        labels = level_labels_x2(spec)
        filling = FillingSpec(frozenset(labels[:2]))
        x0 = default_base_vertex(spec)
        values = [
            von_neumann(assemble_spectrum(spec, filling, SubsystemSpec(frozenset({i}), x0)))
            for i in range(spec.k + 1)
        ]
        for i in range(spec.k + 1):
            assert values[i] == pytest.approx(values[spec.k - i], abs=1e-8)


@given(st.lists(st.tuples(st.floats(0, 1), st.integers(1, 2**70)), min_size=1, max_size=40))
def test_entropy_terms_add_strictly_left_to_right(pairs):
    spectrum = CorrelationSpectrum(tuple(pairs))
    assert von_neumann(spectrum) == reduce(add, (m * binary_entropy(lam) for lam, m in pairs), 0.0)


_RUNS = st.lists(
    st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), st.integers(1, 2**70)), max_size=8),
    max_size=150,
)


@given(_RUNS)
def test_entropies_of_many_runs_equal_each_runs_left_to_right_sum(runs):
    # exact 0/1 values, multiplicities beyond int64, and enough runs for the
    # vector steps of the segment sum
    values = [lam for run in runs for lam, _ in run]
    mults = np.array([m for run in runs for _, m in run], dtype=object)
    bounds = np.cumsum([0] + [len(run) for run in runs])
    got = entropies(values, mults, bounds).tolist()
    want = [reduce(add, (m * binary_entropy(lam) for lam, m in run), 0.0) for run in runs]
    assert [s.hex() for s in got] == [s.hex() for s in want]


def test_entropies_of_200_long_runs_take_the_vector_steps_bit_for_bit():
    rng = np.random.default_rng(5)
    lengths = rng.integers(0, 40, size=200)
    values = rng.random(lengths.sum()) ** 3
    values[::7] = 0.0
    values[::11] = 1.0
    mults = rng.integers(1, 2**40, size=len(values))
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    got = entropies(values, mults, bounds).tolist()
    for s, lo, hi in zip(got, bounds[:-1], bounds[1:]):
        want = reduce(add, (int(m) * binary_entropy(lam) for lam, m in zip(values[lo:hi].tolist(), mults[lo:hi])), 0.0)
        assert s.hex() == want.hex()


def test_entropies_refuse_an_occupation_outside_the_unit_interval():
    for bad in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError):
            entropies([0.5, bad], [1, 1], [0, 2])


def test_report_cut_is_every_shell_next_to_the_other_side():
    spec = GraphSpec(10, 5)
    x0 = default_base_vertex(spec)
    shells = [neighborhood_size(spec, i) for i in range(6)]
    cuts = {
        frozenset(range(3)): shells[2] + shells[3],  # a ball: its outer shell and the next
        frozenset({0}): shells[0] + shells[1],
        frozenset({3}): shells[2] + shells[3] + shells[4],
        frozenset({5}): shells[4] + shells[5],
        frozenset({0, 2}): sum(shells[:4]),
        frozenset(range(6)): 0,  # the whole graph has no cut
    }
    filling = FillingSpec(frozenset(level_labels_x2(spec)[:2]))
    for distances, cut in cuts.items():
        sub = SubsystemSpec(distances, x0)
        rep = report(spec, sub, assemble_spectrum(spec, filling, sub))
        assert rep.cut_size == cut, sorted(distances)
        assert rep.ratio_cut == (rep.entropy_nats / cut if cut else 0.0)
