"""The stacked structured routes against a per-module reference, at paper
scale and beyond the int64 range of the module multiplicities, and their
many-point batches against one-point calls."""

import itertools
import math
import time

import numpy as np
import pytest

from johnson_entanglement.cli import _heun_spectra
from johnson_entanglement.heun import heun_spec, spectra_via_heun, spectrum_via_heun
from johnson_entanglement.scheme import GraphSpec, default_base_vertex, neighborhood_size
from johnson_entanglement.spectral import (
    CorrelationSpectrum,
    FillingSpec,
    SubsystemSpec,
    clamp_unit_interval,
    level_labels_x2,
)
from johnson_entanglement.terwilliger import (
    assemble_spectra,
    assemble_spectrum,
    enumerate_modules,
    module_correlation_block,
)
from johnson_entanglement.verify import DEFAULT_SIZES, graph_sizes, spectra_max_diff

from merge_reference import group_spectrum_reference


def _ball(spec, n_cut):
    return SubsystemSpec(frozenset(range(n_cut + 1)), default_base_vertex(spec))


def _bottom(spec, fill):
    return FillingSpec(frozenset(level_labels_x2(spec)[:fill]))


def _per_module_reference(spec, filling, sub):
    pairs = []
    for label in enumerate_modules(spec):
        block = module_correlation_block(label, filling, sub, spec).matrix
        if block.shape[0]:
            pairs.extend((lam, label.degeneracy) for lam in clamp_unit_interval(np.linalg.eigvalsh(block)))
    return CorrelationSpectrum(group_spectrum_reference(pairs))


@pytest.mark.parametrize("n,k", list(DEFAULT_SIZES) + [(12, 6), (16, 8)])
def test_stacked_routes_match_per_module_reference(n, k):
    spec = GraphSpec(n, k)
    for fill, n_cut in itertools.product(range(1, k + 2), range(k + 1)):
        filling, sub = _bottom(spec, fill), _ball(spec, n_cut)
        reference = _per_module_reference(spec, filling, sub)
        assert spectra_max_diff(assemble_spectrum(spec, filling, sub), reference) <= 1e-10, (fill, n_cut)
        if fill <= k and n_cut < k:
            hs = heun_spec(spec, n_cut, level_labels_x2(spec)[fill - 1])
            assert spectra_max_diff(spectrum_via_heun(spec, hs), reference) <= 1e-10, (fill, n_cut)


@pytest.mark.parametrize("n", range(2, 15))
def test_batches_equal_one_point_calls_on_the_figure_grids(n):
    # every (fill, cut) of the fig3a/fig3b ball grids, closed-form T-readout
    # points included, and every (shell, fill) of the fig2b grid, one grid
    # row per batch as the sweeps hand them over
    for _, k in graph_sizes(n, n):
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        fills = range(1, k + 2)
        for fill in fills:
            row = [(_bottom(spec, fill), _ball(spec, n_cut)) for n_cut in range(k)]
            batch = _heun_spectra(spec, row)
            assert [s.entries for s in batch] == [_heun_spectra(spec, [pt])[0].entries for pt in row]
            batch = assemble_spectra(spec, row)
            assert [s.entries for s in batch] == [assemble_spectrum(spec, *pt).entries for pt in row]
        for i in range(k + 1):
            row = [(_bottom(spec, fill), SubsystemSpec(frozenset({i}), x0)) for fill in fills]
            batch = assemble_spectra(spec, row)
            assert [s.entries for s in batch] == [assemble_spectrum(spec, *pt).entries for pt in row]


def test_multiplicities_beyond_int64_stay_exact():
    spec = GraphSpec(76, 38)
    filling, sub = _bottom(spec, 2), _ball(spec, 19)
    size = sum(neighborhood_size(spec, i) for i in range(20))
    modules = assemble_spectrum(spec, filling, sub)
    heun = spectrum_via_heun(spec, heun_spec(spec, 19, level_labels_x2(spec)[1]))
    for spectrum in (modules, heun):
        assert spectrum.total_multiplicity == size
        assert max(mult for _, mult in spectrum.entries) > 2**63
    assert spectra_max_diff(modules, heun) <= 1e-8


def test_spectra_max_diff_at_paper_scale_never_expands():
    # 77,558,760 modes in a few dozen distinct values
    spec = GraphSpec(30, 15)
    modules = assemble_spectrum(spec, _bottom(spec, 2), _ball(spec, 7))
    heun = spectrum_via_heun(spec, heun_spec(spec, 7, level_labels_x2(spec)[1]))
    assert modules.total_multiplicity == 77_558_760
    start = time.perf_counter()
    gap = spectra_max_diff(modules, heun)
    assert time.perf_counter() - start < 0.1
    assert gap <= 1e-8


def test_spectra_max_diff_walks_interleaved_runs():
    a = CorrelationSpectrum(((0.1, 2), (0.5, 1)))
    b = CorrelationSpectrum(((0.1, 1), (0.2, 2)))
    # expanded: [0.1, 0.1, 0.5] against [0.1, 0.2, 0.2]
    assert spectra_max_diff(a, b) == pytest.approx(0.3)
    assert spectra_max_diff(b, a) == spectra_max_diff(a, b)
    assert spectra_max_diff(a, a) == 0.0
    assert spectra_max_diff(a, CorrelationSpectrum(((0.1, 3),))) == pytest.approx(0.4)
    assert math.isinf(spectra_max_diff(a, CorrelationSpectrum(((0.1, 2),))))
    assert spectra_max_diff(CorrelationSpectrum(()), CorrelationSpectrum(())) == 0.0


def test_forced_clusters_reach_the_projection_fallback(monkeypatch):
    # with an infinite tolerance every block of two or more rows is one T
    # cluster, so each must go through the per-block projection readout
    import johnson_entanglement.heun as heun_module

    spec = GraphSpec(8, 4)
    hs = heun_spec(spec, 2, level_labels_x2(spec)[1])
    expected = spectrum_via_heun(spec, hs)
    seen = []
    original = heun_module._cluster_readout

    def spy(w, q, c_block):
        seen.append(len(w))
        return original(w, q, c_block)

    monkeypatch.setattr(heun_module, "_cluster_readout", spy)
    monkeypatch.setattr(heun_module, "CLUSTER_REL_TOL", float("inf"))
    forced = heun_module.spectrum_via_heun(spec, hs)
    sizes = [min(m.i_max, hs.n_cut) - m.i_min + 1 for m in enumerate_modules(spec)]
    assert sorted(seen) == sorted(s for s in sizes if s > 1)
    assert spectra_max_diff(expected, forced) <= 1e-8


def test_forced_clusters_reach_the_projection_fallback_in_a_batch(monkeypatch):
    # the same forcing through one many-point batch: every point's blocks go
    # through the per-block readout, and each result lands in its own point
    import johnson_entanglement.heun as heun_module

    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    hss = [heun_spec(spec, n_cut, labels[j0]) for n_cut, j0 in ((2, 1), (1, 0), (3, 2), (2, 2))]
    expected = [spectrum_via_heun(spec, hs) for hs in hss]
    assert min(spectra_max_diff(a, b) for a, b in itertools.combinations(expected, 2)) > 1e-3
    seen = []
    original = heun_module._cluster_readout

    def spy(w, q, c_block):
        seen.append(len(w))
        return original(w, q, c_block)

    monkeypatch.setattr(heun_module, "_cluster_readout", spy)
    monkeypatch.setattr(heun_module, "CLUSTER_REL_TOL", float("inf"))
    forced = spectra_via_heun(spec, hss)
    sizes = [min(m.i_max, hs.n_cut) - m.i_min + 1 for hs in hss for m in enumerate_modules(spec)]
    assert sorted(seen) == sorted(s for s in sizes if s > 1)
    for want, got in zip(expected, forced, strict=True):
        assert spectra_max_diff(want, got) <= 1e-8
