"""Irreducible-module decomposition of the vertex space of J(n, k).

The adjacency/dual-adjacency pair embeds into two commuting su(2) copies of
sizes n - k and k; the vertex space splits into modules V_(j1, j2), each a
chain visiting at most one site per neighborhood of the base vertex.  Inside
a module the correlation projector has entries built purely from
Clebsch-Gordan coefficients, so no block ever grows past (k + 1) x (k + 1).

Each graph's :class:`ModuleTable` is the one per-graph store of both
structured routes, and :func:`_gram` the one place where their correlation
blocks G G^T are formed.  :func:`stacked_spectra` counts the exact 0/1
blocks and solves the others per block size across every graph of a call:
one ragged gather of the couplings, one product per (rows, levels) shape
and one readout per size.  :meth:`ModuleTable.blocks` serves callers with
one table's blocks in hand.  The README's "Figure sweeps" section describes
the pass.

Doubled integers label all spins.  A module's chain rows are indexed by the
distance i, with m1 = (n - k)/2 - i and m2 = i - k/2.  A on a chain is
closed-form in (n, k, j1, j2, i): :func:`chain_ladder` evaluates it at the
rows a caller reads, so no table stores it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .scheme import GraphSpec, shell_sizes
from .specfn import cg_column
from .spectral import (
    STACK_BYTES,
    CorrelationSpectrum,
    FillingSpec,
    MergedSpectra,
    SubsystemSpec,
    clamp_unit_interval,
    level_degeneracy,
    merged_spectra,
)

__all__ = [
    "BlockStack",
    "ModuleGrid",
    "ModuleLabel",
    "ModuleTable",
    "enumerate_modules",
    "module_grid",
    "module_table",
    "chain_ladder",
    "size_groups",
    "level_degeneracy",
    "module_correlation_block",
    "stacked_spectra",
    "assemble_spectra",
    "assemble_spectrum",
]


@dataclass(frozen=True)
class ModuleLabel:
    """An irreducible submodule V_(j1, j2) with its multiplicity.

    ``i_min..i_max`` is the contiguous run of neighborhoods the chain
    touches: i must satisfy |(n-k)/2 - i| <= j1 and |k/2 - i| <= j2.
    """

    j1_x2: int
    j2_x2: int
    degeneracy: int
    i_min: int
    i_max: int

    @property
    def dim(self) -> int:
        return self.i_max - self.i_min + 1

    @property
    def distances(self) -> range:
        return range(self.i_min, self.i_max + 1)


class ModuleGrid:
    """The modules of a run of graphs, graph g's at rows ``bounds[g]:bounds[g + 1]``, each in ascending (j1_x2, j2_x2).

    ``failed`` lists the graphs whose multiplicities are not all integers or
    do not add up to C(n, k).  A plain class: a dataclass would cost about
    1 ms of every import.
    """

    def __init__(self, bounds, j1_x2, j2_x2, degeneracy, i_min, i_max, failed: tuple[int, ...]):
        self.bounds, self.j1_x2, self.j2_x2, self.degeneracy = bounds, j1_x2, j2_x2, degeneracy
        self.i_min, self.i_max, self.failed = i_min, i_max, failed


def module_grid(specs) -> ModuleGrid:
    """Every module with a nonempty chain of each graph, from one array pass over the closed-form (s, t) grid.

    Module (s, t) has j1 = (n-k)/2 - s and j2 = k/2 - t; its chain runs over
    i_min = max(s, t) .. i_max = min(n-k-s, k-t), so s <= k.  Multiplicities
    come from :func:`_multiplicities`; both checks, each an integer
    multiplicity and the sum of dim * degeneracy equal to C(n, k), are
    exact.
    """
    n = np.array([spec.n for spec in specs], dtype=np.int64)
    k = np.array([spec.k for spec in specs], dtype=np.int64)
    depths = np.minimum(k, (n - k) // 2) + 1
    widths = k // 2 + 1
    cells = depths * widths
    g = np.repeat(np.arange(len(n)), cells)
    c = np.arange(cells.sum()) - np.repeat(np.cumsum(cells) - cells, cells)
    # cell c of a graph's grid, by descending s then t: ascending (j1, j2)
    s, t = depths[g] - 1 - c // widths[g], widths[g] - 1 - c % widths[g]
    i_min, i_max = np.maximum(s, t), np.minimum(n[g] - k[g] - s, k[g] - t)
    keep = np.flatnonzero(i_min <= i_max)
    g, s, t, i_min, i_max = g[keep], s[keep], t[keep], i_min[keep], i_max[keep]
    degeneracy, remainder = _multiplicities(n, k, g, s, t)
    bounds = np.searchsorted(g, np.arange(len(n) + 1))
    totals = np.add.reduceat((i_max - i_min + 1) * degeneracy, bounds[:-1])
    inexact = set(g[remainder != 0].tolist())
    failed = tuple(
        at for at, (spec, total) in enumerate(zip(specs, totals)) if at in inexact or total != spec.vertex_count
    )
    return ModuleGrid(bounds, n[g] - k[g] - 2 * s, k[g] - 2 * t, degeneracy, i_min, i_max, failed)


def _multiplicities(n: np.ndarray, k: np.ndarray, g: np.ndarray, s: np.ndarray, t: np.ndarray):
    """Each module's multiplicity D = (2j1+1)(2j2+1) C(n-k+1, s) C(k+1, t) / ((n-k+1)(k+1)): quotients and remainders.

    Module r belongs to graph ``g[r]`` of the per-graph ``n`` and ``k``.  The
    binomials come from one table of the rows n - k + 1 and k + 1 that
    occur.  They are int64 while the largest numerator times k + 1 fits,
    which also bounds every graph's sum of dim * degeneracy, and Python ints
    beyond.
    """
    wide, tall = (n - k + 1).tolist(), (k + 1).tolist()
    rows = sorted(set(wide) | set(tall))
    table = [[math.comb(m, i) for i in range(rows[-1] + 1)] for m in rows]
    middle = dict(zip(rows, (row[m // 2] for m, row in zip(rows, table))))
    top = max(a * b * b * middle[a] * middle[b] for a, b in zip(wide, tall))
    table = np.array(table, dtype=np.int64 if top < 2**63 else object)
    slot = np.zeros(rows[-1] + 1, dtype=np.intp)
    slot[rows] = np.arange(len(rows))
    a, b = (n - k + 1)[g], (k + 1)[g]
    num = (a - 2 * s) * (b - 2 * t) * table[slot[a], s] * table[slot[b], t]
    return num // (a * b), num % (a * b)


def _graph_modules(spec: GraphSpec) -> ModuleGrid:
    """The :func:`module_grid` of one graph; ArithmeticError when it fails a check."""
    grid = module_grid([spec])
    if grid.failed:
        raise ArithmeticError(f"module multiplicities of J({spec.n},{spec.k}) are not integers adding up to C(n, k)")
    return grid


@lru_cache(maxsize=256)
def enumerate_modules(spec: GraphSpec) -> tuple[ModuleLabel, ...]:
    """All modules with positive multiplicity and a nonempty chain, as :func:`module_grid` lays them out.

    Ordered by ascending (j1_x2, j2_x2).  Completeness holds exactly:
    sum over modules of dim * degeneracy = C(n, k).  Memoized per graph.
    """
    grid = _graph_modules(spec)
    columns = (grid.j1_x2, grid.j2_x2, grid.degeneracy, grid.i_min, grid.i_max)
    return tuple(map(ModuleLabel, *(column.tolist() for column in columns)))


def chain_ladder(n, k, j1_x2, j2_x2, i) -> tuple[np.ndarray, np.ndarray]:
    """A on module (j1, j2)'s chain of J(n, k) at the rows i: ladder a and diagonal b, over broadcast integer arrays.

    a = sqrt((j1+m1)(j1-m1+1)(j2-m2)(j2+m2+1)) couples the row at i to the row
    at i + 1 and is 0 at the chain's last row; b = j1(j1+1) + j2(j2+1) - m1^2
    - m2^2 - n/2.  The integer products are exact in int64 while n < 220,000
    and rounded once, so each entry is the float of the scalar formula.
    """
    m1_x2 = (n - k) - 2 * i
    m2_x2 = (n - 2 * k) - m1_x2
    prod = ((j1_x2 + m1_x2) // 2) * ((j1_x2 - m1_x2) // 2 + 1) * ((j2_x2 - m2_x2) // 2) * ((j2_x2 + m2_x2) // 2 + 1)
    a = np.sqrt(np.asarray(prod, dtype=np.float64))
    return a, (j1_x2 * (j1_x2 + 2) + j2_x2 * (j2_x2 + 2) - m1_x2**2 - m2_x2**2) / 4.0 - n / 2.0


class ModuleTable:
    """Per-graph module data shared by every block and spectrum evaluation.

    Row m is module ``labels[m]``.  At n = 2k the two su(2) copies have the
    same spin, so modules (j1, j2) and (j2, j1) share one chain, one set of
    levels and one coupling matrix; row m reads the data of row
    ``owner[m]``, the (j2, j1) row when j1 > j2 there and m itself
    otherwise.  Column (m, l) holds the coupling coefficients of owner m's
    chain rows with the level of index l (doubled label n - 2k + 2l), from
    :func:`cg_column` the first time a caller asks for it.  It is stored
    once, in chain order, at ``flat[offset[m, l]:]``; ``offset`` is -1 until
    then, and ``flat`` at least doubles when full.  An inadmissible level's
    column is all zero by the triangle rule.  Use :func:`module_table`,
    which keeps one table per graph.
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        n, k = spec.n, spec.k
        grid = _graph_modules(spec)
        self.j1_x2, self.j2_x2, self.i_min, self.i_max = grid.j1_x2, grid.j2_x2, grid.i_min, grid.i_max
        # exact counts, each at most C(n, k): int64 below 2^62, Python ints beyond
        counts = np.int64 if spec.vertex_count < 2**62 else object
        self.degeneracies = grid.degeneracy.astype(counts)
        self.shells = np.array(shell_sizes(spec), dtype=counts)
        base = n - 2 * k
        self.level_lo = (np.maximum(np.abs(self.j1_x2 - self.j2_x2), base) - base) // 2
        self.level_hi = (self.j1_x2 + self.j2_x2 - base) // 2
        self.dim = self.i_max - self.i_min + 1
        if not np.array_equal(self.level_hi - self.level_lo + 1, self.dim):
            raise ArithmeticError("a module chain's length differs from its admissible-level count")
        self.owner = np.arange(len(self.dim))
        if n == 2 * k:
            # rows ascend in (j1, j2), so the key j1 (k + 1) + j2 is sorted
            twins = np.flatnonzero(self.j1_x2 > self.j2_x2)
            key = self.j1_x2 * (k + 1) + self.j2_x2
            self.owner[twins] = np.searchsorted(key, self.j2_x2[twins] * (k + 1) + self.j1_x2[twins])
        # the blocks each row's solve stands for: 0 for a twin, 1 + its twins' count for an owner
        self.copies = np.bincount(self.owner, minlength=len(self.dim))
        self.offset = np.full((len(self.dim), k + 1), -1, dtype=np.intp)
        self.flat = np.empty(0)
        self.size = 0

    @cached_property
    def labels(self) -> tuple[ModuleLabel, ...]:
        """:func:`enumerate_modules` of the graph, row by row."""
        return enumerate_modules(self.spec)

    @cached_property
    def row(self) -> dict[ModuleLabel, int]:
        """Each label's row."""
        return {m: r for r, m in enumerate(self.labels)}

    def level_index(self, levels_x2) -> np.ndarray:
        """Level indices l = (j_x2 - (n - 2k)) / 2 of doubled labels, in the given order."""
        return (np.asarray(levels_x2, dtype=np.intp) - (self.spec.n - 2 * self.spec.k)) // 2

    def entries(self, ms: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stacked G[b, r, c] = <row rows[b, r] | level cols[b, c]> of module ms[b], read off its owner's columns.

        Every row must lie on its module's chain; a level outside the
        module's admissible range reads an exact 0.
        """
        ms = self.owner[ms]
        offsets = self._offsets(np.broadcast_to(ms[:, None], cols.shape), cols)
        return self.flat[offsets[:, None, :] + (rows - self.i_min[ms, None])[:, :, None]]

    def _offsets(self, ms: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Where owner row ms[i]'s column at level index levels[i] starts in ``flat``.

        The columns not yet stored are fetched first, once each, as one
        batch; read ``flat`` only after this call, since a fetch may replace it.
        """
        offsets = self.offset[ms, levels]
        missing = offsets < 0
        if missing.any():
            wanted = np.array(list(dict.fromkeys(zip(ms[missing].tolist(), levels[missing].tolist()))))
            lengths = self.dim[wanted[:, 0]]
            ends = self.size + np.cumsum(lengths)
            if ends[-1] > len(self.flat):
                self.flat = np.concatenate((self.flat, np.empty(ends[-1])))
            base = self.spec.n - 2 * self.spec.k
            for (m, lev), end, length in zip(wanted.tolist(), ends.tolist(), lengths.tolist()):
                # cg_column orders by descending m1 = ascending i, starting at i_min.
                j1_x2, j2_x2 = int(self.j1_x2[m]), int(self.j2_x2[m])
                self.flat[end - length : end] = cg_column(base + 2 * lev, j1_x2, j2_x2, base)
            self.offset[wanted[:, 0], wanted[:, 1]] = ends - lengths
            self.size = int(ends[-1])
            offsets = self.offset[ms, levels]
        return offsets

    def _window_offsets(self, ms, levels, at, first, count) -> np.ndarray:
        """The store offsets of each block's occupied-level window, end to end, in the form :func:`_gram` reads.

        Block b's window is owner row ``ms[b]`` at the ``count[b]`` level
        indices from place ``first[b]`` of row ``at[b]`` of ``levels``; its
        columns are fetched first, by :meth:`_offsets`.
        """
        windows = levels.ravel()[_ragged(at * levels.shape[1] + first, count)]
        return self._offsets(np.repeat(ms, count), windows)

    def blocks(self, ms: np.ndarray, rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Stacked correlation blocks G G^T over the given rows and occupied levels, by :func:`_gram`.

        ``levels[b]`` holds block b's sorted occupied level indices, padded
        with k + 1; module ``ms[b]``'s G holds exactly its admissible ones.
        """
        first = (levels < self.level_lo[ms, None]).sum(axis=1)
        count = (levels <= self.level_hi[ms, None]).sum(axis=1) - first
        order = np.argsort(count, kind="stable")
        ms, count = self.owner[ms[order]], count[order]
        offsets = self._window_offsets(ms, levels, order, first[order], count)
        c = np.empty((len(ms),) + (rows.shape[1],) * 2)
        c[order] = _gram(self.flat, offsets, rows[order] - self.i_min[ms, None], count)
        return c

    def layout(self, configs) -> tuple[np.ndarray, ...]:
        """Each point's sorted distances and occupied level indices padded with k + 1, and each chain's run in them.

        Each distinct subsystem and filling is read once, as a 0/1 row over
        distances or levels; a chain's run starts at the count of the
        subsystem's distances below the chain and spans those up to its end.
        Each subsystem's covered modes must equal its size exactly.
        """
        width = self.spec.k + 1
        subs: dict[frozenset[int], int] = {}
        fills: dict[frozenset[int], int] = {}
        sub_of = [subs.setdefault(sub.distances, len(subs)) for _, sub in configs]
        fill_of = [fills.setdefault(filling.occupied, len(fills)) for filling, _ in configs]
        inside = _indicator_rows([list(distances) for distances in subs], width, "distances")
        occupied = _indicator_rows([self.level_index(list(occ)).tolist() for occ in fills], width, "occupied levels")
        below = np.zeros((len(subs), width + 1), dtype=np.intp)
        np.cumsum(inside, axis=1, out=below[:, 1:])
        start = below[:, self.i_min]
        sizes = below[:, self.i_max + 1] - start
        covered = self._as_counts(sizes) @ self.degeneracies
        for have, want in zip(covered.tolist(), (self._as_counts(inside) @ self.shells).tolist()):
            if have != want:
                raise ArithmeticError(f"module rows cover {have} modes, subsystem has {want}")
        return _packed(inside, 0)[sub_of], _packed(occupied, width)[fill_of], start[sub_of], sizes[sub_of]

    def _owner_blocks(self, configs) -> tuple[np.ndarray, np.ndarray, tuple]:
        """Count the exact blocks of a group's points and lay out the owner blocks left to solve.

        Returns the nonzero entries of :meth:`_exact_blocks`'s counted modes,
        their places and their counts, and the part :func:`_solve_by_size`
        reads: the raveled subsystem distances, and per owner block its
        point, module, size, occupied-window width, the place of its first
        row in the distances and, end to end, the store offsets of its
        window's columns, fetched here; None when every block is exact.
        """
        dist, levels, start, sizes = self.layout(configs)
        sizes, counted, first, count = self._exact_blocks(sizes, levels)
        keep = np.flatnonzero(counted)
        cells = np.flatnonzero(np.where(self.copies > 0, sizes, 0))
        if not len(cells):
            return keep, counted[keep], None
        pts, ms = np.divmod(cells, len(self.dim))
        width = count.ravel()[cells]
        offsets = self._window_offsets(ms, levels, pts, first.ravel()[cells], width)
        at = pts * dist.shape[1] + start.ravel()[cells]
        return keep, counted[keep], (dist.ravel(), pts, ms, sizes.ravel()[cells], width, at, offsets)

    def _as_counts(self, values: np.ndarray) -> np.ndarray:
        """Integer ``values`` in the table's exact count type, int64 or Python ints."""
        return values.astype(self.degeneracies.dtype, copy=False)

    def _exact_blocks(self, sizes: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, ...]:
        """Split the (point, module) blocks of ``sizes`` rows into exact 0/1 projections and the rest.

        A block is exact when none or all of the module's admissible levels
        are occupied, or when the subsystem holds the whole chain.  Returns
        the sizes with the exact blocks zeroed; the exact modes weighted by
        module multiplicity, entry p counting point p's 0s and entry P + p
        its 1s; and each (point, module)'s occupied-level window in the
        point's ``levels`` row: the place of its first admissible occupied
        level and their count.
        """
        width = self.spec.k + 1
        # occupied admissible levels of each (point, module), from each point's running level count
        below = np.zeros((len(levels), width + 2), dtype=np.intp)
        np.put_along_axis(below, levels + 1, 1, axis=1)
        below = np.cumsum(below[:, : width + 1], axis=1)
        count = below[:, self.level_hi + 1] - below[:, self.level_lo]
        whole = sizes == self.dim
        full = count == self.dim
        ones = np.where(full, sizes, np.where(whole, count, 0))
        exact = full | whole | (count == 0)
        counted = self._as_counts(np.concatenate([np.where(exact, sizes, 0) - ones, ones])) @ self.degeneracies
        return np.where(exact, 0, sizes), counted, below[:, self.level_lo], count


def _indicator_rows(members: list[list[int]], width: int, what: str) -> np.ndarray:
    """One 0/1 row of ``width`` per list, 1 at each of its members."""
    rows = np.zeros((len(members), width), dtype=np.intp)
    for r, cols in enumerate(members):
        if cols and not 0 <= min(cols) <= max(cols) < width:
            raise ValueError(f"{what} {sorted(cols)} outside 0..{width - 1}")
        rows[r, cols] = 1
    return rows


def _packed(rows: np.ndarray, pad: int) -> np.ndarray:
    """Each 0/1 row's positions of its 1s, ascending, padded with ``pad``."""
    out = np.full(rows.shape, pad, dtype=np.intp)
    r, c = np.nonzero(rows)
    out[r, np.cumsum(rows, axis=1)[r, c] - 1] = c
    return out


def _ragged(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs firsts[b], firsts[b] + 1, ..., of lengths[b] each, end to end."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(firsts - ends + lengths, lengths)


def _gram(store: np.ndarray, offsets: np.ndarray, rows: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Stacked G G^T of blocks in ascending width, G[b][r, c] = store[offsets[w + c] + rows[b, r]].

    Block b's ``widths[b]`` column offsets sit at its run w of ``offsets``.
    One ragged gather reads every block's G; blocks of equal width are
    multiplied by one matmul, so each product keeps its block's own shape
    and sums the same terms in the same order as a lone block would.  numpy
    forms G G^T by BLAS syrk and copies the triangle, so C is exactly
    symmetric.  A width-0 block is all zero.
    """
    count, size = rows.shape
    reps = np.repeat(widths, size)
    starts = np.repeat(np.cumsum(widths) - widths, size)
    g = store[np.repeat(rows.ravel(), reps) + offsets[_ragged(starts, reps)]]
    c = np.zeros((count, size, size))
    edges = np.flatnonzero(np.diff(widths, prepend=-1, append=-1)).tolist()
    at = 0
    for lo, hi in zip(edges, edges[1:]):
        width = int(widths[lo])
        if width:
            gw = g[at : at + (hi - lo) * size * width].reshape(hi - lo, size, width)
            c[lo:hi] = gw @ gw.swapaxes(1, 2)
            at += (hi - lo) * size * width
    return c


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays end to end; a lone array as it is, not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class BlockStack:
    """The owner blocks of one stack that :func:`stacked_spectra` hands a readout.

    Block b is module (``j1_x2[b]``, ``j2_x2[b]``) of J(``n[b]``, ``k[b]``)
    at point ``pts[b]``, numbered across the call, over the chain distances
    ``rows[b]``.
    """

    def __init__(self, n, k, j1_x2, j2_x2, pts, rows):
        self.n, self.k, self.j1_x2, self.j2_x2, self.pts, self.rows = n, k, j1_x2, j2_x2, pts, rows


def stacked_spectra(groups, readout) -> MergedSpectra:
    """Correlation spectra of (table, points) groups, point by point in order, from one stacked pass.

    Each point's exact 0/1 blocks are counted into one exact 0 and one exact
    1 entry.  Every other owner block, of every point of every group, is
    solved by :func:`_solve_by_size`, with ``readout(stack, c)`` turning a
    stack c of blocks into its (stack, size) eigenvalues, where ``stack`` is
    the :class:`BlockStack` of its blocks.  A twin's block and multiplicity
    equal its owner's at the same point, so each owner block's values are
    merged once more per twin.
    """
    values, owners, mults, parts = [], [], [], []
    points = 0
    for table, configs in groups:
        if not configs:
            continue
        keep, counted, part = table._owner_blocks(configs)
        values.append(keep // len(configs))
        owners.append(points + keep % len(configs))
        mults.append(counted)
        if part is not None:
            parts.append((table, points, part))
        points += len(configs)
    if parts:
        _solve_by_size(parts, readout, values, owners, mults)
    if not points:
        return merged_spectra(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp), 0)
    # rebinding drops each list before the merge; counts stay Python ints unless every table counts in int64
    values = clamp_unit_interval(np.concatenate(values, dtype=float))
    mults, owners = np.concatenate(mults), np.concatenate(owners)
    return merged_spectra(values, mults, owners, points)


def _solve_by_size(parts, readout, values, owners, mults) -> None:
    """Solve the owner blocks of (table, first point, :meth:`ModuleTable._owner_blocks` part) parts, size by size.

    Each size's blocks, of every table, are taken in ascending window width:
    one ragged gather reads their couplings from the tables' stores, joined
    once every table has fetched its columns, :func:`_gram` forms their C
    and one readout call solves them, in chunks of at most
    :data:`.spectral.STACK_BYTES` of C.  Each block's values, multiplicity
    and point are appended once per block it stands for.
    """
    columns, stored, placed = [], 0, 0
    for table, base, (dist, pts, ms, size, width, at, offsets) in parts:
        graph = (np.full(len(ms), table.spec.n), np.full(len(ms), table.spec.k), table.j1_x2[ms], table.j2_x2[ms])
        own = (table.i_min[ms], table.degeneracies[ms], table.copies[ms])
        columns.append((base + pts, size, width, placed + at, offsets + stored, *graph, *own))
        stored += table.size
        placed += len(dist)
    pts, size, width, at, offsets, *rest = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((width, size))
    offsets = offsets[_ragged((np.cumsum(width) - width)[order], width[order])]
    pts, size, width, at, n, k, j1, j2, i_min, deg, copies = (column[order] for column in (pts, size, width, at, *rest))
    store = _joined([table.flat[: table.size] for table, _, _ in parts])
    dist = _joined([part[0] for _, _, part in parts])
    ends = np.cumsum(width).tolist()
    edges = np.flatnonzero(np.diff(size, prepend=0, append=0)).tolist()
    for lo, hi in zip(edges, edges[1:]):
        dim = int(size[lo])
        step = max(1, STACK_BYTES // (8 * dim * dim))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            rows = dist[at[a:b, None] + np.arange(dim)]
            c = _gram(store, offsets[ends[a] - width[a] : ends[b - 1]], rows - i_min[a:b, None], width[a:b])
            lams = readout(BlockStack(n[a:b], k[a:b], j1[a:b], j2[a:b], pts[a:b], rows), c)
            values.append(np.repeat(lams, copies[a:b], axis=0).ravel())
            owners.append(np.repeat(pts[a:b], copies[a:b] * dim))
            mults.append(np.repeat(deg[a:b], copies[a:b] * dim))


@lru_cache(maxsize=32)
def module_table(spec: GraphSpec) -> ModuleTable:
    """The graph's :class:`ModuleTable`, built once and shared by every caller."""
    return ModuleTable(spec)


def size_groups(sizes: np.ndarray):
    """(size, positions) for each distinct positive size, ascending."""
    # a set, not np.unique, which imports numpy.ma on first use
    for size in sorted(set(sizes[sizes > 0].tolist())):
        yield size, np.nonzero(sizes == size)[0]


def module_correlation_block(
    label: ModuleLabel, filling: FillingSpec, sub: SubsystemSpec, spec: GraphSpec
) -> np.ndarray:
    """Correlation block sum_{j in SE} c^j_m1 c^j_m1' over the subsystem rows, by ascending distance.

    Rows outside the module's chain are absent; an empty restriction yields a
    0 x 0 block.  The block is symmetric PSD with spectrum inside [0, 1].
    """
    table = module_table(spec)
    rows = np.array([sorted(set(sub.distances) & set(label.distances))], dtype=np.intp)
    return table.blocks(np.array([table.row[label]]), rows, table.level_index(sorted(filling.occupied))[None, :])[0]


def assemble_spectra(groups) -> MergedSpectra:
    """Correlation spectra of the (filling, subsystem) points of (graph, points) groups, in order.

    :func:`stacked_spectra`, with each stack of blocks diagonalized by one ``eigvalsh`` call.
    """
    tables = [(module_table(spec), configs) for spec, configs in groups]
    return stacked_spectra(tables, lambda stack, c: np.linalg.eigvalsh(c))


def assemble_spectrum(spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec) -> CorrelationSpectrum:
    """One point's :func:`assemble_spectra`."""
    return next(assemble_spectra([(spec, [(filling, sub)])]))
