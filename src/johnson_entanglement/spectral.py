"""Single-particle energies, ground-state filling and the dense oracle.

The hopping Hamiltonian sum_i alpha_i A_i is simultaneously diagonalized by
the adjacency eigenspaces; theta_j = j(j+1) - (n-2k)^2/4 - n/2 labels them by
a (half-)integer j running from n/2 - k to n/2.  The energies and the
oracle's eigenprojector kernels both read the integer eigenvalues of the A_i
(:func:`_eigenvalues`).  The oracle, the reference
for the two structured routes at dense scale, is the README's route 1:
:func:`oracle_spectra` solves a graph's points in stacks, and
:func:`chopped_correlation_oracle` and :func:`spectrum_oracle` are its
one-matrix steps.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .scheme import (
    GraphSpec,
    Vertex,
    _require_capacity,
    default_base_vertex,
    neighborhood_size,
)
from .specfn import dual_hahn_numerators

__all__ = [
    "CLAMP_SLACK",
    "GROUP_TOL",
    "HoppingProfile",
    "EnergyLevel",
    "EnergyTable",
    "FillingSpec",
    "SubsystemSpec",
    "CorrelationSpectrum",
    "level_labels_x2",
    "theta_eigenvalue",
    "level_degeneracy",
    "energy_table",
    "energy_exponential",
    "fill_ground_state",
    "eigenprojectors_oracle",
    "chopped_correlation_oracle",
    "spectrum_oracle",
    "oracle_spectra",
    "clamp_unit_interval",
    "MergedSpectra",
    "merged_spectra",
    "group_spectra",
    "group_spectrum",
    "segment_sums",
]

# Eigenvalues of a product of projectors may stray this far outside [0, 1]
# before it is treated as an upstream bug rather than roundoff.
CLAMP_SLACK = 1e-6
# Absolute tolerance when grouping eigenvalues into (value, multiplicity) runs.
GROUP_TOL = 1e-8
# Runs a summing step must cover to be taken as one vector step; fewer are summed one by one.
_VECTOR_GROUPS = 64
# Bytes one stack of chopped correlation matrices may hold; a larger matrix is solved alone.
STACK_BYTES = 8 << 20


@dataclass(frozen=True)
class HoppingProfile:
    """Hopping amplitudes alpha_0..alpha_k by distance; missing tail is zero."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        if not all(math.isfinite(a) for a in self.alphas):
            raise ValueError("hopping amplitudes must be finite")

    def padded(self, k: int) -> tuple[float, ...]:
        if len(self.alphas) > k + 1:
            raise ValueError(f"got {len(self.alphas)} amplitudes for diameter {k}")
        return self.alphas + (0.0,) * (k + 1 - len(self.alphas))


@dataclass(frozen=True)
class EnergyLevel:
    """One eigenspace; ``sign`` is the sign (-1, 0, 1) of the exact Omega."""

    j_x2: int
    theta: float
    omega: float
    degeneracy: int
    sign: int


@dataclass(frozen=True)
class EnergyTable:
    """One row per adjacency eigenspace, ascending in j."""

    rows: tuple[EnergyLevel, ...]


@dataclass(frozen=True)
class FillingSpec:
    """The occupied single-particle levels, as a set of doubled j labels."""

    occupied: frozenset[int]


@dataclass(frozen=True)
class SubsystemSpec:
    """A set of distances from the base vertex; the subsystem is their union."""

    distances: frozenset[int]
    x0: Vertex

    def __post_init__(self):
        if not self.distances:
            raise ValueError("subsystem needs at least one distance")


@dataclass(frozen=True)
class CorrelationSpectrum:
    """(eigenvalue, multiplicity) pairs of a chopped correlation matrix."""

    entries: tuple[tuple[float, int], ...]

    def __post_init__(self):
        for lam, mult in self.entries:
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"eigenvalue {lam} outside [0, 1]")
            if mult < 1:
                raise ValueError("multiplicities must be positive")

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)


def level_labels_x2(spec: GraphSpec) -> list[int]:
    """Doubled j labels n - 2k, n - 2k + 2, ..., n of the k + 1 eigenspaces."""
    return list(range(spec.n - 2 * spec.k, spec.n + 1, 2))


def theta_eigenvalue(j_x2: int, spec: GraphSpec) -> float:
    """Adjacency eigenvalue theta_j = j(j+1) - (n-2k)^2/4 - n/2."""
    return _theta(spec.n, spec.k, j_x2)


def _theta(n, k, j_x2):
    """:func:`theta_eigenvalue` over Python ints or int64 arrays; either way the numerator is rounded once."""
    return (j_x2 * (j_x2 + 2) - (n - 2 * k) ** 2) / 4.0 - n / 2.0


def level_degeneracy(j_x2: int, spec: GraphSpec) -> int:
    """Degeneracy D_j of the level j, the classical m_i = C(n, i) - C(n, i - 1) with i = n/2 - j.

    It equals the total multiplicity of the modules whose chain couples to j,
    which ``verify.check_level_degeneracies`` checks.
    """
    if j_x2 not in level_labels_x2(spec):
        raise ValueError(f"level j_x2={j_x2} outside {spec.n - 2 * spec.k}..{spec.n}")
    i = (spec.n - j_x2) // 2
    return math.comb(spec.n, i) - (math.comb(spec.n, i - 1) if i else 0)


def energy_table(spec: GraphSpec, hop: HoppingProfile) -> EnergyTable:
    """Energies Omega_j of sum_i alpha_i A_i on every adjacency eigenspace.

    Omega_j = sum_i alpha_i P_i(j), with P_i(j) the integer eigenvalue of A_i
    on the level (:func:`_eigenvalues`).  The alternating sum cancels heavily
    (e.g. fast-decaying hopping near the bottom level), so :func:`_energies`
    takes each alpha_i as its exact rational, sums exactly and rounds once.
    Degeneracies are :func:`level_degeneracy`.  For alpha = (0, 1, 0, ...)
    this collapses to Omega = theta.
    """
    return _energies(spec, [Fraction(a) for a in hop.padded(spec.k)])


def energy_exponential(spec: GraphSpec, c: float) -> EnergyTable:
    """Energies for alpha_i = z^i, z the double ``math.exp(-c)`` as an exact rational.

    Each Omega_j is the exact closed form
    (1 - z)^(n/2 - j) 2F1(n/2 - k - j, -n/2 + k - j; 1; z), rounded once.
    :func:`energy_table` at alpha_i = exp(-c i) differs: it rounds each
    alpha_i, and the alternating sum amplifies that.  At J(60, 30), c = 0.5
    the bottom level reads 7.04e-13 here, 3.35e-11 there, and at J(400, 200)
    67 of 201 levels change occupation; at large n use this form
    (``je energies --exp-hopping``).
    """
    if c < 0:
        raise ValueError("decay constant must be nonnegative")
    z = Fraction(math.exp(-c))
    return _energies(spec, [z**i for i in range(spec.k + 1)])


def _energies(spec: GraphSpec, weights: list[Fraction]) -> EnergyTable:
    """Omega_j = sum_i weights[i] P_i(j) on every level, exact and rounded once.

    Over the weights' common denominator each level is one integer dot
    product, run up to the last nonzero weight.
    """
    length = max((i + 1 for i, w in enumerate(weights) if w), default=0)
    den = math.lcm(*(w.denominator for w in weights[:length]))
    nums = [w.numerator * (den // w.denominator) for w in weights[:length]]
    rows = []
    for j_x2 in level_labels_x2(spec):
        omega = Fraction(sum(a * p for a, p in zip(nums, _eigenvalues(spec, j_x2, length))), den)
        sign = (omega > 0) - (omega < 0)
        rows.append(EnergyLevel(j_x2, theta_eigenvalue(j_x2, spec), float(omega), level_degeneracy(j_x2, spec), sign))
    return EnergyTable(tuple(rows))


def _eigenvalues(spec: GraphSpec, j_x2: int, length: int) -> list[int]:
    """Integer eigenvalues P_i(j) of A_0, ..., A_(length-1) on the level j.

    A_i = (-1)^i C(k, i) R_i(A + k; 0, n-2k, k), the degree-i dual Hahn
    expansion of A_i in A, and on the level A + k = x(x+n-2k+1) at
    x = j - (n/2 - k).  The recurrence's D_i is i! k! / (k-i)!, so C(k, i) / D_i
    is 1 / (i!)^2 and the eigenvalue is (-1)^i P_i / (i!)^2, with P_i the
    numerators of :func:`dual_hahn_numerators` at that lam: an exact division.
    """
    n, k = spec.n, spec.k
    x = (j_x2 - (n - 2 * k)) // 2
    values, fact = [], 1
    for i, p in enumerate(dual_hahn_numerators(x * (x + n - 2 * k + 1), 0, n - 2 * k, k, length)):
        fact *= i or 1
        values.append((-p if i % 2 else p) // (fact * fact))
    return values


def fill_ground_state(table: EnergyTable, include_zero_modes: bool = False) -> FillingSpec:
    """Occupied set SE = { j : Omega_j < 0 }, decided on the exact Omega.

    Exact zeros sit at a degenerate ground-state choice; they are left empty
    unless ``include_zero_modes`` asks for them.  Classifying before rounding
    makes the filling invariant under a positive rescaling of the hopping.
    """
    occ = set()
    for row in table.rows:
        if row.sign < 0 or (include_zero_modes and row.sign == 0):
            occ.add(row.j_x2)
    return FillingSpec(frozenset(occ))


@lru_cache(maxsize=64)
def _level_kernel(spec: GraphSpec, j_x2: int) -> tuple[int, ...]:
    """Integer numerator m_j P_d(j) of the eigenprojector E_j's entry at each distance d = 0..k.

    J(n, k) is distance-regular, so E_j[x, y] = m_j P_d(j) / (C(n, k) v_d)
    with d = d(x, y), v_d = C(k, d) C(n-k, d) and P_d(j) the eigenvalue of
    A_d on the level, the Eberlein value, from :func:`_eigenvalues`.  The
    denominator C(n, k) v_d is the same for every level.
    """
    m = level_degeneracy(j_x2, spec)
    return tuple(m * p for p in _eigenvalues(spec, j_x2, spec.k + 1))


@lru_cache(maxsize=32)
def _correlation_kernel(spec: GraphSpec, occupied: frozenset[int]) -> np.ndarray:
    """Read-only f with f[d] the ground-state correlation at distance d.

    The occupied levels' integer numerators are summed exactly and divided
    once by the shared denominator C(n, k) v_d: one correctly rounded quotient.
    """
    n, k, comb = spec.n, spec.k, math.comb
    f = np.array([
        sum(_level_kernel(spec, j_x2)[d] for j_x2 in occupied) / (spec.vertex_count * comb(k, d) * comb(n - k, d))
        for d in range(k + 1)
    ])
    f.flags.writeable = False
    return f


def _vertex_layout(spec: GraphSpec, x0: Vertex, distances) -> np.ndarray:
    """The 0/1 rows of R + S of every vertex at ``distances`` from x0, in colex rank order; a subset's rows keep it.

    A vertex at distance d from x0 is x0 with a d-set R of its elements
    removed and a d-set S of the others added.  The rows are set from the
    (R, S) index pairs, so no list of all C(n, k) vertices is made.
    """
    n = spec.n
    base = np.zeros(n)
    base[[e - 1 for e in x0.subset]] = 1.0
    inside, outside = np.flatnonzero(base), np.flatnonzero(base == 0.0)
    blocks = []
    for d in sorted(distances):
        removed, added = (
            np.array(combos, dtype=np.intp).reshape(len(combos), d)
            for combos in (list(combinations(inside, d)), list(combinations(outside, d)))
        )
        # row r * len(added) + s moves removed[r] out and added[s] in
        block = np.zeros((len(removed) * len(added), n))
        at = np.arange(len(block))[:, None]
        block[at, np.repeat(removed, len(added), axis=0)] = 1.0
        block[at, np.tile(added, (len(removed), 1))] = 1.0
        blocks.append(block)
    moved = np.vstack(blocks)
    # colex order compares the largest elements first: sort the vertex rows by element n, then n - 1, ...
    return moved[np.lexsort((base + moved * (1.0 - 2.0 * base)).T)]


def _layout_distances(moved: np.ndarray) -> np.ndarray:
    """Distances |R| + |R'| - |R & R'| - |S & S'| between :func:`_vertex_layout` rows, by one exact 0/1 product."""
    d = moved.sum(axis=1) / 2.0
    g = moved @ moved.T
    g *= -1.0
    g += d[:, None]
    g += d[None, :]
    return g.astype(np.intp)


def eigenprojectors_oracle(spec: GraphSpec, cap: int | None = None) -> dict[int, np.ndarray]:
    """Eigenprojectors E_j of the adjacency matrix, keyed by doubled j: each its exact kernel read off the distances."""
    _require_capacity(spec, cap)
    dist = _layout_distances(_vertex_layout(spec, default_base_vertex(spec), range(spec.k + 1)))
    return {j_x2: _correlation_kernel(spec, frozenset({j_x2}))[dist] for j_x2 in level_labels_x2(spec)}


def chopped_correlation_oracle(
    spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec, cap: int | None = None
) -> np.ndarray:
    """The ground-state correlation projector restricted to the subsystem rows.

    Entry (x, y) is the kernel f at d(x, y), so the matrix is exactly
    symmetric; at most two |A| x |A| arrays exist at once.
    """
    _require_capacity(spec, cap)
    return _correlation_kernel(spec, filling.occupied)[_layout_distances(_vertex_layout(spec, sub.x0, sub.distances))]


def clamp_unit_interval(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues to [0, 1]; beyond the slack window it is a hard error."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (values.min() < -CLAMP_SLACK or values.max() > 1.0 + CLAMP_SLACK):
        raise ValueError(
            f"spectrum [{values.min():g}, {values.max():g}] strays outside [0,1]: upstream bug"
        )
    return np.clip(values, 0.0, 1.0)


class MergedSpectra:
    """Merged spectra of points 0..P-1 as arrays, and an iterator over each point's :class:`CorrelationSpectrum`.

    Point p's entries are ``values[edges[p]:edges[p + 1]]``, ascending, each
    with the exact multiplicity at the same place of ``mults`` (int64 or
    Python ints).  A plain class: a dataclass would cost import time.
    """

    def __init__(self, values: np.ndarray, mults: np.ndarray, edges: np.ndarray):
        self.values, self.mults, self.edges = values, mults, edges
        self._spectra = None

    def entries(self) -> Iterator[tuple]:
        """Each point's entries in order, as a tuple of Python (float, int) pairs."""
        pairs = list(zip(self.values.tolist(), self.mults.tolist()))
        edges = self.edges.tolist()
        return (tuple(pairs[first:last]) for first, last in zip(edges, edges[1:]))

    def __iter__(self):
        return self

    def __next__(self) -> CorrelationSpectrum:
        if self._spectra is None:
            self._spectra = map(CorrelationSpectrum, self.entries())
        return next(self._spectra)


def merged_spectra(values, mults, owners, count: int) -> MergedSpectra:
    """Merge each point's (value, multiplicity) pairs whose values agree within :data:`GROUP_TOL`.

    Pair p belongs to point ``owners[p]`` of ``count``; multiplicities are
    int64 or Python ints of any size.  Per point, pairs are sorted by value,
    then multiplicity; a group is anchored at its first member and the
    representative is the multiplicity-weighted mean, summed in that order
    by :func:`segment_sums` and snapped to an exact 0 or 1 when it lands
    within GROUP_TOL of either endpoint.  Every point is merged at once.
    """
    products, exact, bounds, edges = _group_bounds(values, mults, owners, count)
    starts = bounds[:-1]
    mults = np.add.reduceat(exact, starts) if len(starts) else exact
    means = segment_sums(products, bounds) / mults.astype(np.float64)
    means[np.abs(means) <= GROUP_TOL] = 0.0
    means[np.abs(means - 1.0) <= GROUP_TOL] = 1.0
    return MergedSpectra(means, mults, edges)


def group_spectra(values, mults, owners, count: int) -> Iterator[tuple]:
    """Each point's entries of :func:`merged_spectra`, Python floats and ints, in order."""
    return merged_spectra(values, mults, owners, count).entries()


def _group_bounds(values, mults, owners, count: int):
    """The pairs of :func:`merged_spectra` in merge order, and where their groups start.

    Returns the sorted value * multiplicity products, the sorted exact
    multiplicities, the group starts with the end appended, and each
    point's first group with the end appended.
    """
    values = np.asarray(values, dtype=np.float64)
    owners = np.asarray(owners, dtype=np.intp)
    exact = np.asarray(mults)
    weights = exact.astype(np.float64)
    # int64 only while no point's total, which bounds its group sums, can reach 2^63
    if exact.dtype != np.int64 or np.bincount(owners, weights, minlength=count).max(initial=0) >= 2.0**62:
        exact = np.asarray(mults, dtype=object)
        weights = exact.astype(np.float64)
    order = np.lexsort((weights, values, owners))
    values, weights, exact, owners = values[order], weights[order], exact[order], owners[order]
    # a gap over GROUP_TOL always starts a group: the anchor sits at or below the previous value
    first = np.ones(len(values), dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (values[1:] - values[:-1] > GROUP_TOL)
    starts = np.flatnonzero(first)
    ends = np.append(starts, len(values))[1:]
    bounds = starts.tolist() + [len(values)]
    # a wider run splits wherever a value passes its group's anchor by more than GROUP_TOL
    wide = values[ends - 1] - values[starts] > GROUP_TOL
    for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
        run = values[a:b].tolist()
        anchor = run[0]
        for at, value in enumerate(run):
            if value - anchor > GROUP_TOL:
                bounds.append(a + at)
                anchor = value
    bounds = np.sort(bounds)
    # each point's first pair starts a group and its last pair ends one
    edges = np.searchsorted(bounds, np.searchsorted(owners, np.arange(count + 1)))
    return values * weights, exact, bounds, edges


def segment_sums(terms: np.ndarray, bounds) -> np.ndarray:
    """Sum of each run ``terms[bounds[i]:bounds[i + 1]]``, added strictly left to right from 0.0.

    Bit for bit ``reduce(add, run, 0.0)``: one vector step per member
    position over the runs that long, longest runs first, while a step
    covers at least :data:`_VECTOR_GROUPS` runs; the rest finish one by one.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    heads, lengths = bounds[:-1], bounds[1:] - bounds[:-1]
    sums = np.zeros(len(heads))
    j = 0
    if len(heads) >= _VECTOR_GROUPS:
        order = np.argsort(-lengths, kind="stable")
        first, steps = heads[order], np.zeros(len(heads))
        # longer[j]: the runs with a member j, which lead the order
        longer = np.searchsorted(-lengths[order], -np.arange(lengths.max() + 1)).tolist() + [0]
        while longer[j] >= _VECTOR_GROUPS:
            steps[: longer[j]] += terms[first[: longer[j]] + j]
            j += 1
        sums[order] = steps
    rest = np.flatnonzero(lengths > j)
    for r, total, head, end in zip(rest.tolist(), sums[rest].tolist(), heads[rest].tolist(), bounds[1:][rest].tolist()):
        for term in terms[head + j : end].tolist():
            total += term
        sums[r] = total
    return sums


def group_spectrum(values, mults) -> tuple[tuple[float, int], ...]:
    """One point's :func:`group_spectra`."""
    return next(group_spectra(values, mults, np.zeros(len(values), dtype=np.intp), 1))


def spectrum_oracle(c: np.ndarray) -> CorrelationSpectrum:
    """Eigenvalues of a chopped correlation matrix, clamped and grouped."""
    c = np.asarray(c, dtype=np.float64)
    if not np.array_equal(c, c.T):
        raise ValueError("chopped correlation matrix must be exactly symmetric")
    w = clamp_unit_interval(np.linalg.eigvalsh(c))
    return CorrelationSpectrum(group_spectrum(w, np.ones(len(w), dtype=np.int64)))


def oracle_spectra(spec: GraphSpec, configs, cap: int | None = None) -> Iterator[CorrelationSpectrum]:
    """Spectra of many (filling, subsystem) points of one graph, in order, each solved on its own chopped matrix.

    Each base vertex's :func:`_vertex_layout` is built once over every
    distance its subsystems take, and each distinct subsystem's distances
    are read off its own rows of it.  Each of a subsystem's distinct
    fillings' matrices is read off those distances into a stack of at most
    :data:`STACK_BYTES` (one matrix when a matrix is larger).  Each stack is
    checked for exact symmetry and solved by one ``eigvalsh`` call, and every
    point is merged by one :func:`group_spectra`, so a point's entries equal
    :func:`spectrum_oracle` of its :func:`chopped_correlation_oracle`.  The
    solve runs at once; the spectra are yielded one point at a time.
    """
    _require_capacity(spec, cap)
    slots: dict[tuple, int] = {}
    sides: dict[SubsystemSpec, list[frozenset[int]]] = {}
    for filling, sub in configs:
        if (sub, filling.occupied) not in slots:
            slots[sub, filling.occupied] = len(slots)
            sides.setdefault(sub, []).append(filling.occupied)
    sizes = {sub: sum(neighborhood_size(spec, d) for d in sub.distances) for sub in sides}
    total = sum(size * len(sides[sub]) for sub, size in sizes.items())
    values, owners = np.empty(total), np.empty(total, dtype=np.intp)
    reach: dict[Vertex, set[int]] = {}
    for sub in sides:
        reach.setdefault(sub.x0, set()).update(sub.distances)
    layouts = {x0: _vertex_layout(spec, x0, distances) for x0, distances in reach.items()}
    pos = 0
    for sub, fillings in sides.items():
        # the side's rows: those whose |R + S| / 2, the distance from x0, is one of its distances
        member, moved = np.zeros(2 * spec.k + 1, dtype=bool), layouts[sub.x0]
        member[[2 * d for d in sub.distances]] = True
        dist, size = _layout_distances(moved[member[moved.sum(axis=1).astype(np.intp)]]), sizes[sub]
        per_stack = max(1, STACK_BYTES // (8 * size * size))
        for lo in range(0, len(fillings), per_stack):
            part = fillings[lo : lo + per_stack]
            stack = np.empty((len(part), size, size))
            for i, occupied in enumerate(part):
                np.take(_correlation_kernel(spec, occupied), dist, out=stack[i], mode="clip")
            if lo + per_stack >= len(fillings):
                del dist  # the side's last stack: its distances are not held through the solve
            if not np.array_equal(stack, stack.swapaxes(1, 2)):
                raise ValueError("chopped correlation matrix must be exactly symmetric")
            run = slice(pos, pos + len(part) * size)
            values[run] = np.linalg.eigvalsh(stack).ravel()
            owners[run] = np.repeat([slots[sub, occupied] for occupied in part], size)
            pos = run.stop
            del stack  # before the next stack or distance matrix is made
    merged = list(group_spectra(clamp_unit_interval(values), np.ones(total, dtype=np.int64), owners, len(slots)))
    return (CorrelationSpectrum(merged[slots[sub, filling.occupied]]) for filling, sub in configs)
