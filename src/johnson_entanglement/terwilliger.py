"""Irreducible-module decomposition of the vertex space of J(n, k).

The adjacency/dual-adjacency pair embeds into two commuting su(2) copies of
sizes n - k and k; the vertex space splits into modules V_(j1, j2), each a
chain visiting at most one site per neighborhood of the base vertex.  Inside
a module the correlation projector has entries built purely from
Clebsch-Gordan coefficients, so no block ever grows past (k + 1) x (k + 1).

Each graph's :class:`ModuleTable` is the one per-graph store of both
structured routes, and :meth:`ModuleTable.blocks` the one place where their
correlation blocks G G^T are formed.  :func:`stacked_spectra` counts the
exact 0/1 blocks and solves the others in stacks of equal size; the README's
"Figure sweeps" section describes the pass.

Doubled integers label all spins.  A module's chain rows are indexed by the
distance i, with m1 = (n - k)/2 - i and m2 = i - k/2.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .scheme import GraphSpec, shell_sizes
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
    "stacked_spectra",
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
        # exact counts, each at most C(n, k): int64 below 2^62, Python ints beyond
        counts = np.int64 if spec.vertex_count < 2**62 else object
        self.degeneracies = np.array([m.degeneracy for m in self.labels], dtype=counts)
        self.shells = np.array(shell_sizes(spec), dtype=counts)
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
        module's admissible range reads an exact 0.  A column not yet stored
        is fetched first, once.
        """
        # fetch every missing column before flat is read: a fetch may replace it
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
        """Stacked symmetrized correlation blocks G G^T over the given rows and occupied levels.

        ``levels[b]`` holds block b's sorted occupied level indices, padded
        with k + 1; module ``ms[b]``'s G holds exactly its admissible ones.
        Blocks are multiplied in groups of equal level count, so each product
        sums the same terms in the same order as a lone module would.
        """
        first = (levels < self.level_lo[ms, None]).sum(axis=1)
        count = (levels <= self.level_hi[ms, None]).sum(axis=1) - first
        c = np.zeros((len(ms),) + (rows.shape[1],) * 2)
        for width, sel in size_groups(count):
            g = self.entries(ms[sel], rows[sel], levels[sel[:, None], first[sel, None] + np.arange(width)])
            c[sel] = g @ g.swapaxes(1, 2)
        return 0.5 * (c + c.swapaxes(1, 2))

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

    def _as_counts(self, values: np.ndarray) -> np.ndarray:
        """Integer ``values`` in the table's exact count type, int64 or Python ints."""
        return values.astype(self.degeneracies.dtype, copy=False)

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
        counted = self._as_counts(np.concatenate([np.where(exact, sizes, 0) - ones, ones])) @ self.degeneracies
        return np.where(exact, 0, sizes), counted


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


def stacked_spectra(groups, readout) -> Iterator[CorrelationSpectrum]:
    """Correlation spectra of (table, points) groups, point by point in order, from one stacked pass.

    Each point's exact 0/1 blocks are counted into one exact 0 and one exact
    1 entry.  Every other block is built by its table's :meth:`ModuleTable.blocks`,
    blocks of equal size are stacked across every point of every group, and
    ``readout(parts, c)`` turns a stack c into its (stack, size)
    eigenvalues, where ``parts`` lists (table, points, modules, distances)
    of c's graphs in order, the points numbered across all groups.
    """
    values, owners, mults = [], [], []
    by_size: dict[int, list] = {}  # size -> (table, first point, dist, levels, points, modules, chain starts)
    points = 0
    for table, configs in groups:
        if not configs:
            continue
        dist, levels, start, sizes = table.layout(configs)
        sizes, counted = table._exact_blocks(sizes, levels)
        keep = np.flatnonzero(counted)
        values.append(keep // len(configs))
        owners.append(points + keep % len(configs))
        mults.append(counted[keep])
        for size, flat in size_groups(sizes.ravel()):
            pts, ms = np.divmod(flat, len(table.labels))
            by_size.setdefault(size, []).append((table, points, dist, levels, pts, ms, start[pts, ms]))
        points += len(configs)
    if not points:
        return iter(())
    for size, blocks in sorted(by_size.items()):
        parts, stack = [], []
        for table, base, dist, levels, pts, ms, start in blocks:
            rows = dist[pts[:, None], start[:, None] + np.arange(size)]
            stack.append(table.blocks(ms, rows, levels[pts]))
            parts.append((table, base + pts, ms, rows))
        values.append(readout(parts, np.concatenate(stack)).ravel())
        owners.append(np.repeat(np.concatenate([pts for _, pts, _, _ in parts]), size))
        mults.append(np.repeat(np.concatenate([table.degeneracies[ms] for table, _, ms, _ in parts]), size))
    # counts stay Python ints unless every table counts in int64
    merged = group_spectra(
        clamp_unit_interval(np.concatenate(values, dtype=float)), np.concatenate(mults), np.concatenate(owners), points
    )
    return (CorrelationSpectrum(entries) for entries in merged)


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


def assemble_spectra(groups) -> Iterator[CorrelationSpectrum]:
    """Correlation spectra of the (filling, subsystem) points of (graph, points) groups, in order.

    :func:`stacked_spectra`, with each stack of blocks diagonalized by one ``eigvalsh`` call.
    """
    tables = [(module_table(spec), configs) for spec, configs in groups]
    return stacked_spectra(tables, lambda parts, c: np.linalg.eigvalsh(c))


def assemble_spectrum(spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec) -> CorrelationSpectrum:
    """One point's :func:`assemble_spectra`."""
    return next(assemble_spectra([(spec, [(filling, sub)])]))
