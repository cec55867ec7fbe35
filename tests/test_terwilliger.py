import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_entanglement.scheme import GraphSpec, default_base_vertex
from johnson_entanglement.specfn import cg_column
from johnson_entanglement.spectral import (
    FillingSpec,
    SubsystemSpec,
    chopped_correlation_oracle,
    level_labels_x2,
    spectrum_oracle,
)
from johnson_entanglement import terwilliger
from johnson_entanglement.terwilliger import (
    ModuleLabel,
    ModuleTable,
    assemble_spectrum,
    enumerate_modules,
    level_degeneracy,
    module_correlation_block,
    module_grid,
    stacked_spectra,
)
from johnson_entanglement import heun, verify
from johnson_entanglement.verify import spectra_max_diff

from verify_reference import module_admissible_levels, stacked_hahn_maxima


def _by_spins(spec):
    return {(m.j1_x2, m.j2_x2): m for m in enumerate_modules(spec)}


def module_degeneracy(spec, j1_x2, j2_x2):
    """Reference multiplicity D_(j1, j2) = (2j1+1)(2j2+1) C(n-k+1, s) C(k+1, t) / ((n-k+1)(k+1)), one module at a time.

    s and t are the depths (n-k)/2 - j1 and k/2 - j2; the exact division
    must leave no remainder.
    """
    n, k = spec.n, spec.k
    s = ((n - k) - j1_x2) // 2
    t = (k - j2_x2) // 2
    d, rem = divmod((j1_x2 + 1) * (j2_x2 + 1) * math.comb(n - k + 1, s) * math.comb(k + 1, t), (n - k + 1) * (k + 1))
    assert rem == 0, (spec, j1_x2, j2_x2)
    return d


def _enumerate_modules_scan(spec):
    """Reference: scan every j1, keep the modules with a nonempty chain."""
    n, k = spec.n, spec.k
    labels = []
    for j1_x2 in range((n - k) % 2, n - k + 1, 2):
        s = ((n - k) - j1_x2) // 2
        for j2_x2 in range(k % 2, k + 1, 2):
            t = (k - j2_x2) // 2
            i_min = max(s, t)
            i_max = min(n - k - s, k - t)
            if i_min > i_max:
                continue
            labels.append(
                ModuleLabel(j1_x2, j2_x2, module_degeneracy(spec, j1_x2, j2_x2), i_min, i_max)
            )
    labels.sort(key=lambda m: (m.j1_x2, m.j2_x2))
    return tuple(labels)


def test_enumerate_modules_matches_full_scan():
    for n, k in verify.graph_sizes(2, 40):
        spec = GraphSpec(n, k)
        assert enumerate_modules(spec) == _enumerate_modules_scan(spec), (n, k)


def _grid_labels(grid, g):
    """Graph g's modules of ``grid`` as labels."""
    rows = slice(grid.bounds[g], grid.bounds[g + 1])
    columns = (grid.j1_x2, grid.j2_x2, grid.degeneracy, grid.i_min, grid.i_max)
    return tuple(map(ModuleLabel, *(column[rows].tolist() for column in columns)))


def test_module_grid_matches_full_scan():
    # every graph with n <= 40 in one int64 pass, then three Python-int passes
    specs = [GraphSpec(n, k) for n, k in verify.graph_sizes(2, 40)]
    grid = module_grid(specs)
    assert grid.failed == () and grid.degeneracy.dtype == np.int64
    assert len(grid.bounds) == len(specs) + 1
    for g, spec in enumerate(specs):
        assert _grid_labels(grid, g) == _enumerate_modules_scan(spec), spec
    for spec in (GraphSpec(64, 32), GraphSpec(66, 33), GraphSpec(1000, 500)):
        grid = module_grid([spec])
        assert grid.failed == () and grid.degeneracy.dtype == object
        assert _grid_labels(grid, 0) == _enumerate_modules_scan(spec), spec


def test_module_grid_reports_the_graphs_that_fail_a_check(monkeypatch):
    # a remainder fails the divisibility check, a changed quotient the completeness sum
    specs = [GraphSpec(7, 3), GraphSpec(8, 4), GraphSpec(9, 4)]
    real = terwilliger._multiplicities
    for broken in (lambda d, r, hit: (d, r + hit), lambda d, r, hit: (d + hit, r)):
        def step(n, k, g, s, t):
            return broken(*real(n, k, g, s, t), (n[g] == 8) & (s == 0) & (t == 0))

        monkeypatch.setattr(terwilliger, "_multiplicities", step)
        assert module_grid(specs).failed == (1,)
        with pytest.raises(ArithmeticError):
            ModuleTable(GraphSpec(8, 4))
    monkeypatch.undo()
    assert module_grid(specs).failed == ()


def test_modules_octahedron():
    spec = GraphSpec(4, 2)
    mods = _by_spins(spec)
    dims = {(j1, j2): m.dim for (j1, j2), m in mods.items()}
    assert dims == {(2, 2): 3, (2, 0): 1, (0, 2): 1, (0, 0): 1}
    assert all(m.degeneracy == 1 for m in mods.values())
    assert sum(m.dim * m.degeneracy for m in mods.values()) == 6


def test_modules_complete_graph_total():
    for n in (4, 6, 9):
        spec = GraphSpec(n, 1)
        assert sum(m.dim * m.degeneracy for m in enumerate_modules(spec)) == n


def test_modules_unbalanced_case_with_short_chain():
    # J(6, 2): the (j1, j2) = (1, 1) chain only reaches neighborhoods 1..2,
    # and the (0, 0) label has no admissible rows at all
    spec = GraphSpec(6, 2)
    mods = _by_spins(spec)
    assert (0, 0) not in mods
    assert mods[(2, 2)].dim == 2
    assert mods[(2, 2)].degeneracy == 3
    assert sum(m.dim * m.degeneracy for m in mods.values()) == 15


def test_module_completeness_up_to_30():
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            spec = GraphSpec(n, k)
            total = sum(m.dim * m.degeneracy for m in enumerate_modules(spec))
            assert total == spec.vertex_count, (n, k)


def test_module_degeneracy_positive_integers():
    for n in (17, 24, 30):
        for k in range(1, n // 2 + 1):
            spec = GraphSpec(n, k)
            for m in enumerate_modules(spec):
                assert m.degeneracy >= 1
                assert module_degeneracy(spec, m.j1_x2, m.j2_x2) == m.degeneracy


def test_level_degeneracy_octahedron():
    spec = GraphSpec(4, 2)
    assert [level_degeneracy(j, spec) for j in (4, 2, 0)] == [1, 3, 2]


def test_level_degeneracy_top_is_one():
    for n, k in [(4, 2), (7, 3), (12, 5)]:
        assert level_degeneracy(n, GraphSpec(n, k)) == 1


def test_level_degeneracy_classical_formula():
    # D_j = C(n, u) - C(n, u-1) with u = (n - j_x2) / 2, which must equal the
    # total multiplicity of the modules whose chain couples to j
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            spec = GraphSpec(n, k)
            for j_x2 in level_labels_x2(spec):
                u = (n - j_x2) // 2
                expected = math.comb(n, u) - (math.comb(n, u - 1) if u else 0)
                coupled = [m for m in enumerate_modules(spec) if abs(m.j1_x2 - m.j2_x2) <= j_x2 <= m.j1_x2 + m.j2_x2]
                assert level_degeneracy(j_x2, spec) == expected == sum(m.degeneracy for m in coupled), (n, k, j_x2)


def test_chain_length_equals_the_admissible_level_count():
    # the coupling matrix of every module is square, which the exact 0/1 block count relies on
    modules = 0
    for n in range(2, 61):
        for k in range(1, n // 2 + 1):
            for m in enumerate_modules(GraphSpec(n, k)):
                assert m.dim == len(module_admissible_levels(m, GraphSpec(n, k))), (n, k, m)
                modules += 1
    assert modules == 57_755


def test_level_degeneracy_sums_to_vertex_count():
    for n, k in [(8, 4), (10, 5), (30, 15)]:
        spec = GraphSpec(n, k)
        assert sum(level_degeneracy(j, spec) for j in level_labels_x2(spec)) == spec.vertex_count


def test_level_degeneracy_range_check():
    with pytest.raises(ValueError):
        level_degeneracy(1, GraphSpec(4, 2))


def test_block_identity_when_all_filled():
    spec = GraphSpec(6, 3)
    filling = FillingSpec(frozenset(level_labels_x2(spec)))
    sub = SubsystemSpec(frozenset(range(4)), default_base_vertex(spec))
    for label in enumerate_modules(spec):
        block = module_correlation_block(label, filling, sub, spec)
        assert np.allclose(block, np.eye(label.dim), atol=1e-12)


def test_block_empty_filling_is_zero():
    spec = GraphSpec(6, 3)
    sub = SubsystemSpec(frozenset({1}), default_base_vertex(spec))
    for label in enumerate_modules(spec):
        block = module_correlation_block(label, FillingSpec(frozenset()), sub, spec)
        assert np.allclose(block, 0.0)


def test_block_octahedron_single_site():
    spec = GraphSpec(4, 2)
    label = _by_spins(spec)[(2, 2)]
    block = module_correlation_block(
        label, FillingSpec(frozenset({0})), SubsystemSpec(frozenset({0}), default_base_vertex(spec)), spec
    )
    assert block.shape == (1, 1)
    assert block[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_block_dimension_matches_formula():
    spec = GraphSpec(9, 4)
    x0 = default_base_vertex(spec)
    filling = FillingSpec(frozenset(level_labels_x2(spec)[:2]))
    for dset in ({0, 2}, {1, 3, 4}, {2}):
        sub = SubsystemSpec(frozenset(dset), x0)
        for label in enumerate_modules(spec):
            block = module_correlation_block(label, filling, sub, spec)
            expected = sum(
                1
                for i in dset
                if abs((spec.n - spec.k) - 2 * i) <= label.j1_x2 and abs(2 * i - spec.k) <= label.j2_x2
            )
            assert block.shape == (expected, expected)


def _one_row(label, i, filling, spec):
    return module_correlation_block(label, filling, SubsystemSpec(frozenset({i}), default_base_vertex(spec)), spec)


def test_single_neighborhood_eigenvalues():
    # a one-row block is its own eigenvalue, the sum of c^2 over the occupied levels
    spec = GraphSpec(4, 2)
    label = _by_spins(spec)[(2, 2)]
    filling = FillingSpec(frozenset({0}))
    assert _one_row(label, 0, filling, spec)[0, 0] == pytest.approx(1.0 / 3.0)
    full = FillingSpec(frozenset(level_labels_x2(spec)))
    assert _one_row(label, 1, full, spec)[0, 0] == pytest.approx(1.0)
    complement = FillingSpec(frozenset(level_labels_x2(spec)) - frozenset({0}))
    assert _one_row(label, 0, filling, spec)[0, 0] + _one_row(label, 0, complement, spec)[0, 0] == pytest.approx(1.0)


def test_single_neighborhood_out_of_chain():
    spec = GraphSpec(6, 2)
    label = _by_spins(spec)[(2, 2)]  # chain covers 1..2 only
    assert _one_row(label, 0, FillingSpec(frozenset({2})), spec).shape == (0, 0)


def test_assemble_matches_oracle_battery():
    for n, k in [(4, 2), (5, 2), (6, 3), (8, 4)]:
        spec = GraphSpec(n, k)
        labels = level_labels_x2(spec)
        x0 = default_base_vertex(spec)
        fillings = [frozenset(labels[:1]), frozenset(labels[:2]), frozenset(labels[::2])]
        dsets = [frozenset({0}), frozenset({1}), frozenset(range(min(2, k) + 1)), frozenset({0, k})]
        for occ in fillings:
            for dset in dsets:
                filling = FillingSpec(occ)
                sub = SubsystemSpec(dset, x0)
                direct = assemble_spectrum(spec, filling, sub)
                oracle = spectrum_oracle(chopped_correlation_oracle(spec, filling, sub))
                assert spectra_max_diff(direct, oracle) <= 1e-8, (n, k, occ, dset)


def test_assemble_whole_graph_is_projector():
    spec = GraphSpec(6, 3)
    labels = level_labels_x2(spec)
    filling = FillingSpec(frozenset(labels[:2]))
    sub = SubsystemSpec(frozenset(range(spec.k + 1)), default_base_vertex(spec))
    spectrum = assemble_spectrum(spec, filling, sub)
    values = {round(l, 12) for l, _ in spectrum.entries}
    assert values <= {0.0, 1.0}
    occ = sum(level_degeneracy(j, spec) for j in labels[:2])
    by_value = {l: m for l, m in spectrum.entries}
    assert by_value[1.0] == occ
    assert by_value[0.0] == spec.vertex_count - occ


def test_assemble_multiplicity_totals():
    spec = GraphSpec(30, 15)
    labels = level_labels_x2(spec)
    filling = FillingSpec(frozenset(labels[:4]))
    sub = SubsystemSpec(frozenset({7}), default_base_vertex(spec))
    spectrum = assemble_spectrum(spec, filling, sub)
    assert spectrum.total_multiplicity == math.comb(15, 7) ** 2


@given(st.integers(4, 16), st.data())
def test_admissible_levels_count_is_dim(n, data):
    k = data.draw(st.integers(1, n // 2))
    spec = GraphSpec(n, k)
    for label in enumerate_modules(spec):
        assert len(module_admissible_levels(label, spec)) == label.dim


def test_module_table_fetches_each_new_column_once(monkeypatch):
    calls = []
    real = terwilliger.cg_column

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(terwilliger, "cg_column", spy)
    table = ModuleTable(GraphSpec(10, 5))
    wide = int(np.argmax(table.level_hi - table.level_lo))
    levels = np.arange(table.level_lo[wide], table.level_hi[wide] + 1)
    # the same module at three points of a stack, then again in a later stack
    ms = np.array([wide, wide, wide])
    rows = np.zeros((3, 1), dtype=np.intp)
    first = table.entries(ms, rows, np.array([levels[:2], levels[:2], levels[1:3]]))
    assert len(calls) == 3 == len(set(calls))
    again = table.entries(ms[:1], rows[:1], levels[None, :2])
    assert len(calls) == 3
    assert np.array_equal(again[0], first[0])


@pytest.mark.parametrize("n, k", [(10, 5), (11, 4)])
def test_blocks_stack_equals_each_block_alone_and_the_cg_product(n, k):
    """One stack per size mixes level counts 0..k+1 and whole chains; J(11,4)'s one-row stack holds whole chains too.

    Each block equals the same block built alone, bit for bit, and G G^T
    built from :func:`cg_column` to 1e-15.
    """
    spec = GraphSpec(n, k)
    table = ModuleTable(spec)
    base = n - 2 * k
    rng = np.random.default_rng(n)
    fillings = [list(range(c)) for c in range(k + 2)]
    fillings += [sorted(rng.choice(k + 1, c, replace=False).tolist()) for c in range(1, k + 1)]
    whole = set()  # the sizes whose stack holds whole chains
    for size in range(1, k + 2):
        ms, rows, levels = [], [], []
        for m, label in enumerate(table.labels):
            if label.dim >= size:
                for occupied in fillings:
                    ms.append(m)
                    rows.append(sorted(rng.choice(label.distances, size, replace=False).tolist()))
                    levels.append(occupied + [k + 1] * (k + 1 - len(occupied)))
        ms, rows, levels = np.array(ms), np.array(rows), np.array(levels)
        counts = ((levels >= table.level_lo[ms, None]) & (levels <= table.level_hi[ms, None])).sum(axis=1)
        assert set(counts.tolist()) == set(range(k + 2))
        if size in table.dim[ms]:
            whole.add(size)
        stack = table.blocks(ms, rows, levels)
        for b, (m, row, occ) in enumerate(zip(ms, rows, levels)):
            alone = table.blocks(ms[b : b + 1], rows[b : b + 1], levels[b : b + 1])[0]
            assert stack[b].tobytes() == alone.tobytes(), (size, b)
            label = table.labels[m]
            g = np.zeros((size, 0))
            for lev in occ[(occ >= table.level_lo[m]) & (occ <= table.level_hi[m])].tolist():
                column = np.array(cg_column(base + 2 * lev, label.j1_x2, label.j2_x2, base))
                g = np.column_stack([g, column[row - label.i_min]])
            assert np.max(np.abs(stack[b] - g @ g.T), initial=0.0) <= 1e-15, (size, b)
    assert whole == set(table.dim.tolist())
    assert (1 in whole) == (n == 11)


def _dense_columns(table, label):
    """``label``'s whole chain against every level 0..k: its column on admissible levels, an exact 0.0 elsewhere."""
    base = table.spec.n - 2 * table.spec.k
    m = table.row[label]
    want = np.zeros((label.dim, table.spec.k + 1))
    for lev in range(table.level_lo[m], table.level_hi[m] + 1):
        want[:, lev] = cg_column(base + 2 * lev, label.j1_x2, label.j2_x2, base)
    return want


@pytest.mark.parametrize("n", range(2, 15))
def test_coupling_store_reads_as_the_dense_table(n):
    """Each module reads its owner's columns byte for byte, and its own columns by ``==``."""
    for k in range(1, n // 2 + 1):
        table = ModuleTable(GraphSpec(n, k))
        for m, label in enumerate(table.labels):
            got = table.entries(np.array([m]), np.array([list(label.distances)]), np.arange(k + 1)[None, :])[0]
            owner = table.labels[table.owner[m]]
            assert got.tobytes() == _dense_columns(table, owner).tobytes(), (n, k, label)
            assert np.array_equal(got, _dense_columns(table, label)), (n, k, label)


def test_coupling_store_holds_each_fetched_column_once(monkeypatch):
    calls = []
    real = terwilliger.cg_column

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(terwilliger, "cg_column", spy)
    spec = GraphSpec(60, 30)
    table = ModuleTable(spec)
    point = [(FillingSpec(frozenset(level_labels_x2(spec)[:10])), SubsystemSpec(frozenset(range(16)), default_base_vertex(spec)))]
    readout = lambda stack, c: np.linalg.eigvalsh(c)
    first = list(stacked_spectra([(table, point)], readout))
    fetched = np.argwhere(table.offset >= 0)
    assert len(calls) == len(set(calls)) == len(fetched) > 0
    offsets = table.offset[fetched[:, 0], fetched[:, 1]]
    dims = table.dim[fetched[:, 0]]
    order = np.argsort(offsets)
    # the stored columns tile flat[:size] end to end: each is held once, and nowhere else
    assert np.array_equal(offsets[order], np.cumsum(dims[order]) - dims[order])
    assert table.size == dims.sum()
    base = spec.n - 2 * spec.k
    for (m, lev), at in zip(fetched.tolist(), offsets.tolist()):
        label = table.labels[m]
        assert table.flat[at : at + label.dim].tolist() == list(real(base + 2 * lev, label.j1_x2, label.j2_x2, base))
    before = table.offset.copy()
    assert list(stacked_spectra([(table, point)], readout)) == first
    assert len(calls) == len(fetched) and table.size == dims.sum()
    assert np.array_equal(table.offset, before)


def test_module_table_holds_the_only_copy_of_its_columns(monkeypatch):
    """A cold J(100,50) run keeps no more than the table's own arrays."""
    def point(spec, cut, fill):
        sub = SubsystemSpec(frozenset(range(cut + 1)), default_base_vertex(spec))
        return FillingSpec(frozenset(level_labels_x2(spec)[:fill])), sub

    assemble_spectrum(GraphSpec(12, 6), *point(GraphSpec(12, 6), 3, 2))  # numpy's first-use allocations
    tables = functools.lru_cache(maxsize=1)(ModuleTable)  # J(100,50) has no table yet
    monkeypatch.setattr(terwilliger, "module_table", tables)
    spec = GraphSpec(100, 50)
    filling, sub = point(spec, 25, 10)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assemble_spectrum(spec, filling, sub)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    table = tables(spec)
    arrays = sum(v.nbytes for v in vars(table).values() if isinstance(v, np.ndarray))
    assert table.size > 0
    assert grown <= arrays + 2**18, (grown, arrays)


def test_hahn_relations_balanced_graphs():
    for n, k in [(4, 2), (6, 3), (8, 4)]:
        for label, h2, h3 in stacked_hahn_maxima(GraphSpec(n, k)):
            assert h2 <= 1e-8, (n, k, label)
            assert h3 <= 1e-8, (n, k, label)


def test_hahn_relation_one_dimensional_modules_trivial():
    spec = GraphSpec(4, 2)
    for label, h2, h3 in stacked_hahn_maxima(spec):
        if (label.j1_x2, label.j2_x2) != (2, 2):
            # scalars commute; both sides must cancel to zero exactly
            assert label.dim == 1
            assert h2 <= 1e-12
            assert h3 <= 1e-12


def test_hahn_second_relation_holds_off_balance():
    # the pure-square relation has no balanced-only terms and stays exact
    for n, k in [(6, 2), (7, 3), (9, 4)]:
        for label, _, h3 in stacked_hahn_maxima(GraphSpec(n, k)):
            assert h3 <= 1e-8, (n, k, label)


def test_hahn_relations_hold_off_balance():
    # both relations, on every graph with n <= 12, balanced or not
    assert verify.check_hahn_algebra(verify.graph_sizes(2, 12)).passed


def _twins(table):
    """The rows of ``table`` that read another row's data."""
    return np.flatnonzero(table.owner != np.arange(len(table.dim)))


def test_owner_rows_pair_each_mirror_module():
    for n, k in verify.graph_sizes(2, 30):
        table = ModuleTable(GraphSpec(n, k))
        twins = _twins(table)
        if n != 2 * k:
            assert len(twins) == 0
            continue
        owners = table.owner[twins]
        assert np.array_equal(table.j1_x2[twins], table.j2_x2[owners])
        assert np.array_equal(table.j2_x2[twins], table.j1_x2[owners])
        assert np.all(table.j1_x2[twins] > table.j2_x2[twins])
        assert np.all(table.owner[owners] == owners)
        for name in ("i_min", "i_max", "degeneracies", "level_lo", "level_hi"):
            assert np.array_equal(getattr(table, name)[twins], getattr(table, name)[owners]), (n, name)
        assert len(twins) == np.count_nonzero(table.j1_x2 > table.j2_x2)


def test_twin_columns_equal_their_own_coupling_columns():
    # what a twin reads from its owner is its own cg_column by ==, so the
    # aliasing cannot hide a wrong column; only the sign of an exact 0 may differ
    for k in range(1, 31):
        spec = GraphSpec(2 * k, k)
        table = ModuleTable(spec)
        for m in _twins(table).tolist():
            label = table.labels[m]
            steps = np.arange(label.dim)
            got = table.entries(np.array([m]), (label.i_min + steps)[None, :], (table.level_lo[m] + steps)[None, :])[0]
            for lev, column in zip((table.level_lo[m] + steps).tolist(), got.T):
                want = cg_column(2 * lev, label.j1_x2, label.j2_x2, 0)
                assert column.tolist() == list(want), (k, label, lev)


def _unshared(spec):
    """A table in which every row reads its own columns."""
    table = ModuleTable(spec)
    table.owner = np.arange(len(table.dim))
    return table


@pytest.mark.parametrize("k", range(1, 13))
def test_twin_blocks_equal_their_owner_blocks_bit_for_bit(k):
    # every contiguous row window of every twin chain under every lowest
    # filling: C built from the twin's own columns, and T from its own labels,
    # are byte for byte the owner's
    spec = GraphSpec(2 * k, k)
    table, plain = ModuleTable(spec), _unshared(spec)
    fills = [list(range(fill)) + [k + 1] * (k + 1 - fill) for fill in range(k + 2)]
    for m in _twins(table).tolist():
        owner = int(table.owner[m])
        lo, hi = int(table.i_min[m]), int(table.i_max[m])
        for size in range(1, hi - lo + 2):
            rows = np.array([[first + r for r in range(size)] for first in range(lo, hi - size + 2) for _ in fills])
            levels = np.array(fills * (len(rows) // len(fills)))
            ms = np.full(len(rows), m)
            assert plain.blocks(ms, rows, levels).tobytes() == plain.blocks(ms * 0 + owner, rows, levels).tobytes()
            for n_cut, j0 in ((min(hi - 1, lo + size - 1), k - 1), (lo, 0)):
                if not 0 <= n_cut < k:
                    continue
                hs = heun.heun_spec(spec, n_cut, 2 * j0)
                mu, nu = np.full(len(rows), hs.mu), np.full(len(rows), hs.nu)
                t_twin = heun._T_stack(2 * k, k, table.j1_x2[m], table.j2_x2[m], rows, mu, nu)
                t_owner = heun._T_stack(2 * k, k, table.j1_x2[owner], table.j2_x2[owner], rows, mu, nu)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(t_twin, t_owner)), (k, m, size)


def test_a_whole_balanced_table_fetches_each_owner_column_once(monkeypatch):
    calls = []
    real = terwilliger.cg_column

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(terwilliger, "cg_column", spy)
    table = ModuleTable(GraphSpec(30, 15))
    for dim, ms in terwilliger.size_groups(table.dim):
        steps = np.arange(dim)
        table.entries(ms, table.i_min[ms, None] + steps, table.level_lo[ms, None] + steps)
    owners = table.owner == np.arange(len(table.dim))
    assert len(calls) == len(set(calls)) == table.dim[owners].sum() == 240
    assert table.dim.sum() == 408
    assert {(j1_x2, j2_x2) for _, j1_x2, j2_x2, _ in calls} == {
        (m.j1_x2, m.j2_x2) for m in table.labels if m.j1_x2 <= m.j2_x2
    }
