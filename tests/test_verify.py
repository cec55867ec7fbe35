"""The battery's stacked per-module checks against their one-module references in ``verify_reference``."""

import numpy as np
import pytest

from johnson_entanglement import heun, spectral, terwilliger, verify
from johnson_entanglement.scheme import GraphSpec
from johnson_entanglement.verify import DEFAULT_SIZES, QUICK_SIZES, graph_sizes

import verify_reference as ref

SMALL = graph_sizes(2, 30)


def _points(spec):
    """Three (n_cut, j0_x2) cut points of the graph, or every one when it has fewer."""
    labels = spectral.level_labels_x2(spec)
    k = spec.k
    points = {(0, labels[0]), (k - 1, labels[k - 1]), (k // 2, labels[(k - 1) // 2]), (0, labels[k - 1])}
    return sorted(points)[:3] if len(points) >= 3 else sorted(points)


def test_every_graph_up_to_30_has_three_cut_points_unless_k_is_1():
    assert all(len(_points(GraphSpec(n, k))) >= (3 if k > 1 else 1) for n, k in SMALL)


def test_stacked_A_action_equals_the_reference_on_every_module():
    specs = [GraphSpec(n, k) for n, k in SMALL]
    tables = [terwilliger.module_table(spec) for spec in specs]
    starts = _first_rows(tables)
    checked = 0
    for at, stack in verify._chain_groups(tables):
        got = verify._A_stack(stack)
        for s, p in enumerate(stack.pts.tolist()):
            label = tables[p].labels[at[s] - starts[p]]
            assert got[s].tobytes() == ref.A_action(label, specs[p]).tobytes(), (specs[p], label)
            checked += 1
    assert checked == sum(len(t.dim) for t in tables)


def _first_rows(tables):
    """Where each table's modules start in the end-to-end order of ``verify._module_columns``."""
    return np.cumsum([0] + [len(t.dim) for t in tables])


@pytest.mark.parametrize("point", range(3))
def test_stacked_level_basis_T_equals_the_reference_on_every_module(point):
    # every graph with n <= 30 in one call, each under its own cut point
    specs = [GraphSpec(n, k) for n, k in SMALL]
    tables = [terwilliger.module_table(spec) for spec in specs]
    weights = []
    for spec in specs:
        n_cut, j0_x2 = _points(spec)[min(point, len(_points(spec)) - 1)]
        weights.append(heun.heun_spec(spec, n_cut, j0_x2))
    mu, nu = np.array([(hs.mu, hs.nu) for hs in weights]).T
    starts = _first_rows(tables)
    checked = 0
    for at, stack in verify._chain_groups(tables):
        p = stack.pts
        labels = (stack.n, stack.k, stack.j1_x2, stack.j2_x2, verify._levels_x2(stack))
        got = heun._tridiagonal(*verify._level_T_stack(*labels, mu[p], nu[p]))
        a_star, b_star = verify._Astar_stack(*labels)
        for s, g in enumerate(p.tolist()):
            label = tables[g].labels[at[s] - starts[g]]
            want = ref.T_level_basis(label, weights[g], specs[g])
            assert got[s].tobytes() == want.tobytes(), (specs[g], label, weights[g])
            levels = ref.module_admissible_levels(label, specs[g])
            coefficients = np.array([ref.Astar_coefficients(j_x2, label, specs[g]) for j_x2 in levels]).T
            assert np.stack([a_star[s], b_star[s]]).tobytes() == coefficients.tobytes(), (specs[g], label)
            checked += 1
    assert checked == sum(len(t.dim) for t in tables)


def test_stacked_hahn_residuals_equal_the_reference_on_every_module():
    specs = [GraphSpec(n, k) for n, k in SMALL]
    tables = [terwilliger.module_table(spec) for spec in specs]
    starts = _first_rows(tables)
    checked = 0
    for at, stack in verify._chain_groups(tables):
        h2, h3 = verify._hahn_stack(stack)
        for s, p in enumerate(stack.pts.tolist()):
            label = tables[p].labels[at[s] - starts[p]]
            want2, want3 = ref.hahn_residuals(label, specs[p])
            assert h2[s].tobytes() == want2.tobytes() and h3[s].tobytes() == want3.tobytes(), (specs[p], label)
            checked += 1
    assert checked == sum(len(t.dim) for t in tables)


@pytest.mark.parametrize("n,k", [(401, 1), (450, 4), (700, 350), (2001, 3)])
def test_stacked_Astar_stays_exact_past_the_int64_float_bound(n, k):
    # past n = 400 the stack forms P in Python ints; at n = 2k, P passes 2^53 from about n = 626
    spec = GraphSpec(n, k)
    labels = terwilliger.enumerate_modules(spec)
    biggest = 0
    for label in labels[:: max(1, len(labels) // 150)] + labels[-1:]:
        levels = ref.module_admissible_levels(label, spec)
        got = verify._Astar_stack([n], [k], [label.j1_x2], [label.j2_x2], np.array([levels]))
        want = np.array([ref.Astar_coefficients(j_x2, label, spec) for j_x2 in levels]).T
        assert np.concatenate(got).tobytes() == want.tobytes(), label
        mm, j1, j2 = n - 2 * k, label.j1_x2, label.j2_x2
        biggest = max(biggest, *((j * j - mm * mm) * (j * j - (j1 - j2) ** 2) * ((j1 + j2 + 2) ** 2 - j * j) for j in levels))
    assert n != 700 or biggest >= 2**53


SIZE_SETS = [DEFAULT_SIZES, QUICK_SIZES, ((5, 2),), ((7, 3),), ((13, 6),)]


@pytest.mark.parametrize("sizes", SIZE_SETS, ids=str)
def test_each_stacked_check_reads_the_reference_loops_worst(sizes):
    # grids as run_battery passes them
    similarity_grid = [(n, k, c, j) for n, k in sizes for c in (0, k - 1) for j in (0, k - 1)]
    commutant_grid = [(n, k, min(1, k - 1), min(1, k - 1)) for n, k in sizes]
    pairs = [
        (verify.check_action_convention(sizes), ref.action_convention_worst(sizes)),
        (verify.check_t_basis_similarity(similarity_grid), ref.t_basis_similarity_worst(similarity_grid)),
        (verify.check_hahn_algebra(sizes), ref.hahn_algebra_worst(sizes)),
        (verify.check_level_degeneracies(sizes, None), ref.level_degeneracies_worst(sizes)),
        (verify._check_cg_orthonormality(sizes), ref.cg_orthonormality_worst(sizes)),
        (verify._check_mirror_symmetry(sizes), ref.mirror_symmetry_worst(sizes)),
    ]
    for result, worst in pairs:
        assert result.passed and result.worst == worst, (result, worst)
    commutant = verify.check_heun_commutant(commutant_grid)
    cuts_zero, worst = ref.heun_commutant_worst(commutant_grid)
    assert cuts_zero and commutant.passed and commutant.worst == worst, (commutant, worst)


def test_a_nonzero_level_basis_cut_fails_the_commutant_check(monkeypatch):
    grid = [(n, k, min(1, k - 1), min(1, k - 1)) for n, k in DEFAULT_SIZES]
    assert verify.check_heun_commutant(grid).passed
    real = verify._level_T_stack

    def shifted(*args):
        diag, off = real(*args)
        return diag, off + 1e-300

    monkeypatch.setattr(verify, "_level_T_stack", shifted)
    assert not verify.check_heun_commutant(grid).passed
