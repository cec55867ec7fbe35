"""The stacked structured routes against a per-module reference, at paper
scale and beyond the int64 range of the module multiplicities, and their
many-point batches against one-point calls."""

import itertools
import math
import time

import numpy as np
import pytest

from johnson_entanglement.heun import HeunSpec, heun_spec, plan, spectra, spectra_via_heun, spectrum_via_heun
from johnson_entanglement.scheme import GraphSpec, default_base_vertex, neighborhood_size
from johnson_entanglement.spectral import (
    CorrelationSpectrum,
    FillingSpec,
    SubsystemSpec,
    clamp_unit_interval,
    level_labels_x2,
)
from johnson_entanglement.terwilliger import (
    ModuleTable,
    assemble_spectra,
    assemble_spectrum,
    enumerate_modules,
    level_degeneracy,
    module_correlation_block,
    stacked_spectra,
)
from johnson_entanglement.verify import DEFAULT_SIZES, graph_sizes, spectra_max_diff

from block_reference import solve_every_block
from merge_reference import group_spectrum_reference
from verify_reference import module_admissible_levels


def _ball(spec, n_cut):
    return SubsystemSpec(frozenset(range(n_cut + 1)), default_base_vertex(spec))


def _bottom(spec, fill):
    return FillingSpec(frozenset(level_labels_x2(spec)[:fill]))


def _paper_scale_points(n):
    """Every J(30,15) shell and ball with at most 2,000 rows on its smaller side, at two fillings; the ball 0..1 at fill 10 beyond."""
    spec = GraphSpec(n, n // 2)
    if n > 30:
        return spec, [(_bottom(spec, 10), _ball(spec, 1))]
    cuts = {frozenset({d}) for d in range(16)} | {frozenset(range(c + 1)) for c in range(16)}
    sizes = {cut: sum(neighborhood_size(spec, d) for d in cut) for cut in cuts}
    small = sorted((cut for cut in cuts if min(sizes[cut], spec.vertex_count - sizes[cut]) <= 2000), key=sorted)
    return spec, [(_bottom(spec, fill), SubsystemSpec(cut, default_base_vertex(spec))) for fill in (4, 10) for cut in small]


@pytest.mark.parametrize("n", [30, 60, 100])
def test_kernel_agrees_with_both_structured_routes_at_paper_scale(n):
    # the dense cap is lifted to C(n, k): the kernel solves each cut on at most
    # 2,501 rows; the T readout takes the balls, the module route every cut
    spec, points = _paper_scale_points(n)
    oracle = list(spectra([(spec, points)], "oracle", spec.vertex_count))
    for route in ("modules", "heun"):
        keep = [p for p, point in enumerate(points) if route == "modules" or not isinstance(plan(spec, *point), str)]
        assert len(keep) >= (8 if n == 30 else 1)
        got = spectra([(spec, [points[p] for p in keep])], route)
        for p, spectrum in zip(keep, got):
            assert spectra_max_diff(oracle[p], spectrum) <= 1e-8, (route, sorted(points[p][1].distances))


def _per_module_reference(spec, filling, sub):
    pairs = []
    for label in enumerate_modules(spec):
        block = module_correlation_block(label, filling, sub, spec)
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
    # every (fill, cut) of the fig3a/fig3b ball grids, the full filling that
    # needs no T included, and every (shell, fill) of the fig2b grid, each
    # whole grid in one batch as the sweeps hand it over
    for _, k in graph_sizes(n, n):
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        fills = range(1, k + 2)
        grid = [(_bottom(spec, fill), _ball(spec, n_cut)) for fill in fills for n_cut in range(k)]
        batch = spectra_via_heun([(spec, grid)])
        assert [s.entries for s in batch] == [next(spectra_via_heun([(spec, [pt])])).entries for pt in grid]
        batch = assemble_spectra([(spec, grid)])
        assert [s.entries for s in batch] == [assemble_spectrum(spec, *pt).entries for pt in grid]
        grid = [(_bottom(spec, fill), SubsystemSpec(frozenset({i}), x0)) for i in range(k + 1) for fill in fills]
        batch = assemble_spectra([(spec, grid)])
        assert [s.entries for s in batch] == [assemble_spectrum(spec, *pt).entries for pt in grid]


def _scattered_fillings(spec):
    labels = level_labels_x2(spec)
    return [FillingSpec(frozenset(labels[::2])), FillingSpec(frozenset(labels[1::3] + labels[-1:]))]


@pytest.mark.parametrize("n", range(2, 11))
def test_counted_exact_blocks_match_solving_every_block(n, monkeypatch):
    # both routes, bit for bit, against the pass that solves every block:
    # every lowest-M filling and two scattered ones, every ball and every
    # single shell (the T readout takes the balls under a lowest filling)
    import johnson_entanglement.heun as heun_module
    import johnson_entanglement.terwilliger as terwilliger_module

    for _, k in graph_sizes(n, n):
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        fillings = [_bottom(spec, fill) for fill in range(k + 2)] + _scattered_fillings(spec)
        subs = [_ball(spec, n_cut) for n_cut in range(k + 1)]
        subs += [SubsystemSpec(frozenset({i}), x0) for i in range(1, k + 1)]
        configs = [(filling, sub) for filling in fillings for sub in subs]
        balls = [(_bottom(spec, fill), _ball(spec, n_cut)) for fill in range(1, k + 1) for n_cut in range(k)]
        counted = [s.entries for s in assemble_spectra([(spec, configs)])]
        counted_heun = [s.entries for s in spectra_via_heun([(spec, balls)])]
        with monkeypatch.context() as patch:
            patch.setattr(terwilliger_module, "stacked_spectra", solve_every_block)
            patch.setattr(heun_module, "stacked_spectra", solve_every_block)
            solved = [s.entries for s in assemble_spectra([(spec, configs)])]
            solved_heun = [s.entries for s in spectra_via_heun([(spec, balls)])]
        assert counted == solved and repr(counted) == repr(solved), (n, k)
        assert counted_heun == solved_heun and repr(counted_heun) == repr(solved_heun), (n, k)


def _figure_groups(figure, graphs):
    """The (graph, points) groups of a figure sweep's grid, for the graphs among ``graphs``."""
    from types import SimpleNamespace

    from johnson_entanglement import cli

    groups = []
    for n, k in graphs:
        args = SimpleNamespace(figure=figure, n=n, k=k, fill_levels=None)
        for spec, points in {"fig2a": cli._fig2a, "fig2b": cli._fig2b, "fig3b": cli._fig3b}[figure](args):
            if (spec.n, spec.k) in graphs and all(g[0] != spec for g in groups):
                x0 = default_base_vertex(spec)
                groups.append((spec, [(_bottom(spec, fill), SubsystemSpec(frozenset(d), x0)) for fill, d, _ in points]))
    return groups


@pytest.mark.parametrize(
    "figure, graphs",
    [
        ("fig2a", graph_sizes(8, 14)),
        ("fig2b", graph_sizes(2, 14)),
        ("fig3b", graph_sizes(2, 14)),
        ("fig3b", [(30, 15)]),
    ],
)
def test_stacked_spectra_equal_solving_every_block_on_the_figure_grids(figure, graphs, monkeypatch):
    # each twin block takes its owner's values: the spectra are those of
    # solving every block, repr for repr, on both routes (heun on the balls)
    import johnson_entanglement.heun as heun_module
    import johnson_entanglement.terwilliger as terwilliger_module

    groups = _figure_groups(figure, graphs)
    assert groups
    runs = [("modules", groups)]
    if figure == "fig3b":
        # the whole filling has no T weights; the reference would hand its exact blocks to the T readout
        runs.append(("heun", [(spec, [p for p in configs if plan(spec, *p) is not None]) for spec, configs in groups]))
    got = [[s.entries for s in spectra(points, route)] for route, points in runs]
    monkeypatch.setattr(terwilliger_module, "stacked_spectra", solve_every_block)
    monkeypatch.setattr(heun_module, "stacked_spectra", solve_every_block)
    want = [[s.entries for s in spectra(points, route)] for route, points in runs]
    assert repr(got) == repr(want)


@pytest.mark.parametrize("figure", ["fig2b", "fig3b"])
def test_stacks_split_into_many_chunks_equal_solving_every_block(figure, monkeypatch):
    # a 256-byte stack budget splits each block size into chunks of 32
    # blocks at one row down to one block from 5 rows, so chunk edges fall
    # inside runs of one window width and between widths: every chunk's
    # slice of the sorted blocks and of their column offsets must still be
    # its own, repr for repr, on both routes (heun on the points it plans T for)
    import johnson_entanglement.heun as heun_module
    import johnson_entanglement.terwilliger as terwilliger_module

    groups = _figure_groups(figure, graph_sizes(2, 14) + [(30, 15)])
    heun_groups = [(spec, [p for p in configs if isinstance(plan(spec, *p), HeunSpec)]) for spec, configs in groups]
    runs = [("modules", groups), ("heun", heun_groups)]
    chunks = []
    gram = terwilliger_module._gram

    def spy(store, offsets, rows, widths):
        chunks.append((rows.shape[1], len(set(widths.tolist()))))
        return gram(store, offsets, rows, widths)

    with monkeypatch.context() as patch:
        patch.setattr(terwilliger_module, "STACK_BYTES", 256)
        patch.setattr(terwilliger_module, "_gram", spy)
        got = [[s.entries for s in spectra(points, route)] for route, points in runs]
    per_size = {size: sum(s == size for s, _ in chunks) for size, _ in chunks}
    assert min(per_size.values()) >= 2 and max(per_size.values()) > 100
    assert any(widths > 1 for _, widths in chunks)
    monkeypatch.setattr(terwilliger_module, "stacked_spectra", solve_every_block)
    monkeypatch.setattr(heun_module, "stacked_spectra", solve_every_block)
    want = [[s.entries for s in spectra(points, route)] for route, points in runs]
    assert repr(got) == repr(want)


@pytest.mark.parametrize(
    "figure, graphs",
    [("fig2b", graph_sizes(2, 14)), ("fig3b", graph_sizes(2, 14)), ("fig2b", [(30, 15)]), ("fig3b", [(30, 15)])],
)
def test_every_correlation_block_of_the_figure_grids_is_exactly_symmetric(figure, graphs, monkeypatch):
    # numpy forms G G^T by BLAS syrk and copies the triangle, so the blocks
    # need no symmetrization; fig3b's grid goes through both routes
    import johnson_entanglement.terwilliger as terwilliger_module

    seen = []
    gram = terwilliger_module._gram

    def spy(*args):
        seen.append(gram(*args))
        return seen[-1]

    monkeypatch.setattr(terwilliger_module, "_gram", spy)
    groups = _figure_groups(figure, graphs)
    list(spectra(groups, "modules"))
    if figure == "fig3b":
        list(spectra([(spec, [p for p in configs if plan(spec, *p) is not None]) for spec, configs in groups], "heun"))
    assert sum(len(c) for c in seen) > 100
    for c in seen:
        assert np.array_equal(c, c.swapaxes(1, 2))


@pytest.mark.parametrize("n", range(2, 11))
def test_heun_counts_the_points_that_need_no_T(n, monkeypatch):
    # the whole graph under every lowest filling, and every ball under the
    # empty and the full filling: only exact 0/1 blocks, so no T is built
    import johnson_entanglement.heun as heun_module

    monkeypatch.setattr(heun_module, "_T_stack", None)
    for _, k in graph_sizes(n, n):
        spec = GraphSpec(n, k)
        labels = level_labels_x2(spec)
        points = [(_bottom(spec, fill), _ball(spec, k)) for fill in range(k + 2)]
        points += [(_bottom(spec, fill), _ball(spec, n_cut)) for fill in (0, k + 1) for n_cut in range(k + 1)]
        for (filling, sub), got in zip(points, spectra([(spec, points)], "heun"), strict=True):
            size = sum(neighborhood_size(spec, i) for i in sub.distances)
            occ = size if filling.occupied == set(labels) else 0
            if len(sub.distances) == k + 1:
                occ = sum(level_degeneracy(j, spec) for j in filling.occupied)
            want = tuple((lam, mult) for lam, mult in ((0.0, size - occ), (1.0, occ)) if mult)
            assert got.entries == want and repr(got.entries) == repr(want), (n, k, filling, sub)


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


def _block_sizes(spec, hss, keep):
    """Sizes over one row of the solved ball blocks of every point, for the modules ``keep(label, hs)`` selects.

    At n = 2k a (j1, j2) block with j1 > j2 is its (j2, j1) owner's block
    and is not solved again.
    """
    owners = [m for m in enumerate_modules(spec) if spec.n != 2 * spec.k or m.j1_x2 <= m.j2_x2]
    sizes = [min(m.i_max, hs.n_cut) - m.i_min + 1 for hs in hss for m in owners if keep(m, hs)]
    return sorted(s for s in sizes if s > 1)


def _crossing_block_sizes(spec, hss):
    """Ball blocks that cross both cuts: some but not all admissible levels filled, part of the chain inside.

    Every other block is an exact 0/1 projection, counted without a solve.
    """

    def crossing(m, hs):
        levels = module_admissible_levels(m, spec)
        return levels[0] <= hs.j0_x2 < levels[-1] and m.i_min <= hs.n_cut < m.i_max

    return _block_sizes(spec, hss, crossing)


def _forced_cluster_readouts(monkeypatch, spec, hss):
    """Spectra with every block of two or more rows forced into one T cluster.

    Also the blocks the per-block projection readout saw, as (size, distance
    of the correlation block from a projector).
    """
    import johnson_entanglement.heun as heun_module

    seen = []
    original = heun_module._cluster_readout

    def spy(w, q, c_block):
        seen.append((len(w), float(np.max(np.abs(c_block @ c_block - c_block)))))
        return original(w, q, c_block)

    monkeypatch.setattr(heun_module, "_cluster_readout", spy)
    monkeypatch.setattr(heun_module, "CLUSTER_REL_TOL", float("inf"))
    labels = level_labels_x2(spec)
    configs = [(_bottom(spec, labels.index(hs.j0_x2) + 1), _ball(spec, hs.n_cut)) for hs in hss]
    return list(spectra_via_heun([(spec, configs)])), seen


def test_forced_clusters_reach_the_projection_fallback(monkeypatch):
    # with an infinite tolerance every solved block of two or more rows is one
    # T cluster, so each must go through the per-block projection readout;
    # the exact 0/1 blocks are counted and never reach it
    spec = GraphSpec(8, 4)
    hs = heun_spec(spec, 2, level_labels_x2(spec)[1])
    expected = spectrum_via_heun(spec, hs)
    (forced,), seen = _forced_cluster_readouts(monkeypatch, spec, [hs])
    assert sorted(size for size, _ in seen) == _crossing_block_sizes(spec, [hs])
    assert min(gap for _, gap in seen) > 1e-6
    assert spectra_max_diff(expected, forced) <= 1e-8


def test_forced_clusters_reach_the_projection_fallback_in_a_batch(monkeypatch):
    # the same forcing through one many-point batch: every point's solved
    # blocks, and no exact 0/1 block, go through the per-block readout, and
    # each result lands in its own point
    spec = GraphSpec(8, 4)
    labels = level_labels_x2(spec)
    hss = [heun_spec(spec, n_cut, labels[j0]) for n_cut, j0 in ((2, 1), (1, 0), (3, 2), (2, 2))]
    expected = [spectrum_via_heun(spec, hs) for hs in hss]
    assert min(spectra_max_diff(a, b) for a, b in itertools.combinations(expected, 2)) > 1e-3
    forced, seen = _forced_cluster_readouts(monkeypatch, spec, hss)
    crossing = _crossing_block_sizes(spec, hss)
    assert sorted(size for size, _ in seen) == crossing
    assert crossing != _block_sizes(spec, hss, lambda *_: True)
    # a block with an eigenvalue strictly inside (0, 1) is no projector
    assert min(gap for _, gap in seen) > 1e-6
    for want, got in zip(expected, forced, strict=True):
        assert spectra_max_diff(want, got) <= 1e-8


def _default_fill(spec):
    return max(1, math.ceil((spec.k + 1) / 10))


def _fig2a_grid(n):
    spec = GraphSpec(n, n // 2)
    x0 = default_base_vertex(spec)
    return spec, [(_bottom(spec, _default_fill(spec)), SubsystemSpec(frozenset({spec.k // d}), x0)) for d in (2, 4, 8)]


def _fig3a_grid(n, k):
    spec = GraphSpec(n, k)
    return spec, [(_bottom(spec, _default_fill(spec)), _ball(spec, n_cut)) for n_cut in range(k)]


@pytest.mark.parametrize("n", [*range(9, 15), 30])
def test_cross_graph_batches_equal_per_graph_calls_on_the_figure_grids(n):
    # the fig3a grid of every k at this n, and the fig2a grids up to n, each
    # whole sweep in one call as the sweeps hand it over, bit for bit against
    # one call per graph
    sweeps = [
        ("heun", [_fig3a_grid(n, k) for k in range(1, n // 2 + 1)]),
        ("modules", [_fig2a_grid(m) for m in range(8, n + 1, 2)]),
    ]
    for route, groups in sweeps:
        together = [s.entries for s in spectra(groups, route)]
        apart = [s.entries for group in groups for s in spectra([group], route)]
        assert together == apart and repr(together) == repr(apart), (n, route)
        assert len(together) == sum(len(configs) for _, configs in groups)


def test_cross_graph_batches_mix_int64_and_exact_multiplicities():
    # J(64,32) counts in int64 and J(66,33) in Python ints; one batch of both
    # merges each point as its own graph's call does
    groups = [_fig3a_grid(64, 32), _fig3a_grid(66, 33)]
    groups = [(spec, configs[:2]) for spec, configs in groups]
    together = [s.entries for s in spectra(groups, "modules")]
    assert together == [s.entries for group in groups for s in spectra([group], "modules")]
    assert all(type(mult) is int for entries in together for _, mult in entries)


def test_corrupted_module_table_trips_the_covered_modes_check():
    spec = GraphSpec(12, 6)
    configs = [(_bottom(spec, 2), _ball(spec, n_cut)) for n_cut in range(6)]
    for corrupt in ("degeneracies", "i_min"):
        table = ModuleTable(spec)
        assert list(stacked_spectra([(table, configs)], lambda stack, c: np.linalg.eigvalsh(c)))
        m = int(np.argmax(table.dim))
        getattr(table, corrupt)[m] += 1
        with pytest.raises(ArithmeticError, match="module rows cover"):
            stacked_spectra([(table, configs)], lambda stack, c: np.linalg.eigvalsh(c))
