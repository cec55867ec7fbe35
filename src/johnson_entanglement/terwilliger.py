"""Irreducible-module decomposition of the vertex space of J(n, k).

The adjacency/dual-adjacency pair embeds into two commuting su(2) copies of
sizes n - k and k; the vertex space splits into modules V_(j1, j2), each a
chain visiting at most one site per neighborhood of the base vertex.  Inside
a module the correlation projector has entries built purely from
Clebsch-Gordan coefficients, which is what makes n = 30 runs cheap: no block
ever grows past (k + 1) x (k + 1).

Each graph gets one :class:`ModuleTable`, built on first use and kept, the
only per-graph store of both structured routes: the module list, exact
multiplicities, the Clebsch-Gordan column of each (module, level) pair a
filling has occupied, computed once and stored flat, and the chain layout
with the A ladder of T, built only when T first asks.
Both structured routes hand :meth:`ModuleTable.spectra` many (filling,
subsystem) points of a graph at once.  A (point, module) block that none or
all of the module's levels fill, or whose chain lies wholly in the
subsystem, holds only exact 0s and 1s and is counted, so the whole-graph,
empty and full fillings need no solve; every other block is cut out of the
stored columns, blocks of equal size are stacked across the points and each
stack is diagonalized with one LAPACK call.

Doubled integers label all spins.  A module's chain rows are indexed by the
distance i, with m1 = (n - k)/2 - i and m2 = i - k/2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .scheme import GraphSpec, neighborhood_size
from .specfn import cg_column
from .spectral import (
    CorrelationSpectrum,
    FillingSpec,
    SubsystemSpec,
    clamp_unit_interval,
    group_spectra,
    level_degeneracy,
)

__all__ = [
    "ModuleLabel",
    "ModuleTable",
    "enumerate_modules",
    "module_table",
    "size_groups",
    "module_degeneracy",
    "level_degeneracy",
    "module_admissible_levels",
    "module_correlation_block",
    "assemble_spectra",
    "assemble_spectrum",
]

# Chain rows per step of the ladder build; every graph with n <= 30 takes one step.
_LADDER_ROWS = 4096


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


def module_degeneracy(spec: GraphSpec, j1_x2: int, j2_x2: int) -> int:
    """Multiplicity D_(j1, j2) = (2j1+1)(2j2+1) C(n-k+1, s) C(k+1, t) / ((n-k+1)(k+1)).

    s and t are the depths (n-k)/2 - j1 and k/2 - j2.  The value is always a
    positive integer; exact integer division asserts that.
    """
    n, k = spec.n, spec.k
    s = ((n - k) - j1_x2) // 2
    t = (k - j2_x2) // 2
    num = (j1_x2 + 1) * (j2_x2 + 1) * math.comb(n - k + 1, s) * math.comb(k + 1, t)
    den = (n - k + 1) * (k + 1)
    d, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"non-integer multiplicity for (j1_x2={j1_x2}, j2_x2={j2_x2})")
    return d


@lru_cache(maxsize=256)
def enumerate_modules(spec: GraphSpec) -> tuple[ModuleLabel, ...]:
    """All modules with positive multiplicity and a nonempty chain.

    Ordered by ascending (j1_x2, j2_x2).  Completeness holds exactly:
    sum over modules of dim * degeneracy = C(n, k).  Memoized per graph.
    """
    n, k = spec.n, spec.k
    labels = []
    # a chain needs i_min <= i_max, so its depth s = (n-k)/2 - j1 is at most k
    for s in range(min(k, (n - k) // 2) + 1):
        j1_x2 = n - k - 2 * s
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
    if sum(m.dim * m.degeneracy for m in labels) != spec.vertex_count:
        raise ArithmeticError(f"module dimensions do not add up to C({n},{k})")
    return tuple(labels)


def module_admissible_levels(label: ModuleLabel, spec: GraphSpec) -> list[int]:
    """Doubled j labels coupled inside the module: max(|j1-j2|, n/2-k) .. j1+j2."""
    lo = max(abs(label.j1_x2 - label.j2_x2), spec.n - 2 * spec.k)
    return list(range(lo, label.j1_x2 + label.j2_x2 + 1, 2))


class ModuleTable:
    """Per-graph module data shared by every block and spectrum evaluation.

    Row m belongs to ``labels[m]``.  Column (m, l) holds the coupling
    coefficients of the chain rows with the level of index l (doubled label
    n - 2k + 2l), from :func:`cg_column` the first time a caller asks for it.
    It is stored once, in chain order, at ``flat[offset[m, l]:]``; ``offset``
    is -1 until then, and ``flat`` at least doubles when full.  An
    inadmissible level's column is all zero by the triangle rule.  Use
    :func:`module_table`, which keeps one table per graph.
    """

    def __init__(self, spec: GraphSpec):
        self.spec = spec
        self.labels = enumerate_modules(spec)
        self.row = {m: r for r, m in enumerate(self.labels)}
        self.degeneracies = np.array([m.degeneracy for m in self.labels], dtype=object)  # exact ints
        self.i_min = np.array([m.i_min for m in self.labels])
        self.i_max = np.array([m.i_max for m in self.labels])
        base = spec.n - 2 * spec.k
        self.level_lo = np.array([max(abs(m.j1_x2 - m.j2_x2), base) - base for m in self.labels]) // 2
        self.level_hi = np.array([m.j1_x2 + m.j2_x2 - base for m in self.labels]) // 2
        self.dim = self.i_max - self.i_min + 1
        if not np.array_equal(self.level_hi - self.level_lo + 1, self.dim):
            raise ArithmeticError("a module chain's length differs from its admissible-level count")
        self.offset = np.full((len(self.labels), spec.k + 1), -1, dtype=np.intp)
        self.flat = np.empty(0)
        self.size = 0

    @cached_property
    def ladder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The A ladder a, its diagonal b and each chain's start, read-only, built on first use.

        Module m's chain row at distance i sits at ``start[m] + i``; a there is
        sqrt((j1+m1)(j1-m1+1)(j2-m2)(j2+m2+1)), its coupling to the row at i + 1,
        0 at the chain ends, and b is j1(j1+1) + j2(j2+1) - m1^2 - m2^2 - n/2.
        The integer products are exact in int64 and rounded once, so each entry
        is the float of the scalar formula.
        """
        n, k = self.spec.n, self.spec.k
        ends = np.cumsum(self.dim)
        start = ends - self.dim - self.i_min
        spins = np.array([(m.j1_x2, m.j2_x2) for m in self.labels], dtype=np.int64)
        a, b = np.empty(ends[-1]), np.empty(ends[-1])
        # a fixed number of rows at a time, so the integer temporaries stay small beside a and b
        for lo in range(0, len(a), _LADDER_ROWS):
            hi = min(lo + _LADDER_ROWS, len(a))
            rows = np.arange(lo, hi)
            m = np.searchsorted(ends, rows, side="right")
            j1, j2 = spins[m].T
            m1_x2 = (n - k) - 2 * (rows - start[m])
            m2_x2 = (n - 2 * k) - m1_x2
            prod = ((j1 + m1_x2) // 2) * ((j1 - m1_x2) // 2 + 1) * ((j2 - m2_x2) // 2) * ((j2 + m2_x2) // 2 + 1)
            a[lo:hi] = np.sqrt(prod.astype(np.float64))
            b[lo:hi] = (j1 * (j1 + 2) + j2 * (j2 + 2) - m1_x2**2 - m2_x2**2) / 4.0 - n / 2.0
        for arr in (a, b, start):
            arr.flags.writeable = False
        return a, b, start

    def level_index(self, levels_x2) -> np.ndarray:
        """Level indices l = (j_x2 - (n - 2k)) / 2 of doubled labels, in the given order."""
        return (np.asarray(levels_x2, dtype=np.intp) - (self.spec.n - 2 * self.spec.k)) // 2

    def entries(self, ms: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stacked G[b, r, c] = <row rows[b, r] | level cols[b, c]> of module ms[b].

        Every row must lie on its module's chain; a level outside the
        module's admissible range reads an exact 0.
        """
        offsets = self.offset[ms[:, None], cols]
        if (offsets < 0).any():
            blocks, places = np.nonzero(offsets < 0)
            base = self.spec.n - 2 * self.spec.k
            for m, lev in dict.fromkeys(zip(ms[blocks].tolist(), cols[blocks, places].tolist())):
                label = self.labels[m]
                end = self.size + label.dim
                if end > len(self.flat):
                    self.flat = np.concatenate((self.flat, np.empty(end)))
                # cg_column orders by descending m1 = ascending i, starting at i_min.
                self.flat[self.size : end] = cg_column(base + 2 * lev, label.j1_x2, label.j2_x2, base)
                self.offset[m, lev], self.size = self.size, end
            offsets = self.offset[ms[:, None], cols]
        return self.flat[offsets[:, None, :] + (rows - self.i_min[ms, None])[:, :, None]]

    def blocks(self, ms: np.ndarray, rows: np.ndarray, levels: np.ndarray) -> np.ndarray:
        """Stacked correlation blocks G G^T over the given rows and occupied levels.

        ``levels[b]`` holds block b's sorted occupied level indices, padded
        with k + 1.  Each module's G holds exactly its admissible occupied
        levels, in order; blocks are multiplied in groups of equal level
        count, so each product sums the same terms in the same order as a
        lone module would.
        """
        start = (levels < self.level_lo[ms, None]).sum(axis=1)
        count = (levels <= self.level_hi[ms, None]).sum(axis=1) - start
        c = np.zeros((len(ms),) + (rows.shape[1],) * 2)
        for width, sel in size_groups(count):
            cols = levels[sel[:, None], start[sel, None] + np.arange(width)]
            g = self.entries(ms[sel], rows[sel], cols)
            c[sel] = g @ g.swapaxes(1, 2)
        return 0.5 * (c + c.swapaxes(1, 2))

    def spectra(self, configs, readout) -> Iterator[CorrelationSpectrum]:
        """Correlation spectra of many (filling, subsystem) points of this graph from one stacked pass.

        A module's coupling matrix is square and orthogonal, so its block
        holds only exact 0s and 1s when none or all of its admissible levels
        are occupied, or when the subsystem holds its whole chain; each
        point's such modes are counted into one exact 0 and one exact 1
        entry.  The other blocks of every (point, module) pair are stacked by
        size across the points, and ``readout(pts, ms, rows, c)`` turns a
        stack c of correlation blocks of modules ``ms`` at points ``pts`` over
        distances ``rows`` into its (stack, size) eigenvalues.  Each point's
        eigenvalues are merged with their module multiplicities.  The solve
        runs at once; the spectra are yielded one point at a time.
        """
        dist, levels, start, sizes = self.layout(configs)
        points = len(configs)
        sizes, counted = self._exact_blocks(sizes, levels)
        keep = np.flatnonzero(counted)
        # every eigenvalue of the grid in one preallocated run: the counted 0s and 1s first, then each stack's
        total = len(keep) + int(sizes.sum())
        values, owners, mults = np.empty(total), np.empty(total, dtype=np.intp), np.empty(total, dtype=object)
        values[: len(keep)], owners[: len(keep)], mults[: len(keep)] = keep // points, keep % points, counted[keep]
        pos = len(keep)
        for size, flat in size_groups(sizes.ravel()):
            pts, ms = np.divmod(flat, len(self.labels))
            rows = dist[pts[:, None], start[pts, ms][:, None] + np.arange(size)]
            run = slice(pos, pos + len(flat) * size)
            values[run] = readout(pts, ms, rows, self.blocks(ms, rows, levels[pts])).ravel()
            owners[run] = np.repeat(pts, size)
            mults[run] = np.repeat(self.degeneracies[ms], size)
            pos = run.stop
        merged = group_spectra(clamp_unit_interval(values), mults, owners, points)
        return (CorrelationSpectrum(entries) for entries in merged)

    def layout(self, configs) -> tuple[np.ndarray, ...]:
        """Each point's sorted distances and occupied level indices padded with k + 1, and each chain's run in them.

        Each point's covered modes must equal its subsystem size exactly.
        """
        width = self.spec.k + 1
        dist = np.zeros((len(configs), width), dtype=np.intp)
        levels = np.full((len(configs), width), width, dtype=np.intp)
        start = np.zeros((len(configs), len(self.labels)), dtype=np.intp)
        sizes = np.zeros_like(start)
        for p, (filling, sub) in enumerate(configs):
            distances = sorted(sub.distances)
            occupied = self.level_index(sorted(filling.occupied))
            dist[p, : len(distances)] = distances
            levels[p, : len(occupied)] = occupied
            start[p], sizes[p] = _window(distances, self.i_min, self.i_max)
        for covered, (_, sub) in zip(sizes.astype(object) @ self.degeneracies, configs):
            want = sum(neighborhood_size(self.spec, i) for i in sub.distances)
            if covered != want:
                raise ArithmeticError(f"module rows cover {covered} modes, subsystem has {want}")
        return dist, levels, start, sizes

    def _exact_blocks(self, sizes: np.ndarray, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split the (point, module) blocks of ``sizes`` rows into exact 0/1 projections and the rest.

        A block is exact when none or all of the module's admissible levels
        are occupied, or when the subsystem holds the whole chain.  Returns
        the sizes with the exact blocks zeroed, and the exact modes weighted
        by module multiplicity: entry p counts point p's 0s, entry P + p its 1s.
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
        counted = np.concatenate([np.where(exact, sizes, 0) - ones, ones]).astype(object) @ self.degeneracies
        return np.where(exact, 0, sizes), counted


def _window(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and length of the run of sorted ``values`` inside each [lo, hi]."""
    start = np.searchsorted(values, lo)
    return start, np.searchsorted(values, hi, side="right") - start


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


def assemble_spectra(spec: GraphSpec, configs) -> Iterator[CorrelationSpectrum]:
    """Correlation spectra of many (filling, subsystem) points of one graph, in order.

    :meth:`ModuleTable.spectra`, with each stack of blocks diagonalized by one ``eigvalsh`` call.
    """
    return module_table(spec).spectra(configs, lambda pts, ms, rows, c: np.linalg.eigvalsh(c))


def assemble_spectrum(spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec) -> CorrelationSpectrum:
    """One point's :func:`assemble_spectra`."""
    return next(assemble_spectra(spec, [(filling, sub)]))
