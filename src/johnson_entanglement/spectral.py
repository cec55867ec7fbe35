"""Single-particle energies, ground-state filling and the dense oracle.

The hopping Hamiltonian sum_i alpha_i A_i is simultaneously diagonalized by
the adjacency eigenspaces; theta_j = j(j+1) - (n-2k)^2/4 - n/2 labels them by
a (half-)integer j running from n/2 - k to n/2.  The oracle path diagonalizes
the adjacency matrix once per graph, one sector of the element-pair swaps
(1 2), (3 4), ... at a time, and chops the ground-state correlation
projector to a vertex subset level by level, at dense scale only, as the
reference for the two structured routes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from operator import add
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .scheme import (
    CapacityError,
    GraphSpec,
    Vertex,
    _indicators,
    _require_capacity,
    adjacency_matrix,
    dense_cap,
    distances_from,
)
from .specfn import _dual_hahn_run, _hyp2f1_rational

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
    "symmetric_eigen",
    "eigenprojectors_oracle",
    "eigenprojector_traces",
    "chopped_correlation_oracle",
    "spectrum_oracle",
    "adjacency_polynomial_slabs",
    "clamp_unit_interval",
    "group_spectra",
    "group_spectrum",
]

# Eigenvalues of a product of projectors may stray this far outside [0, 1]
# before it is treated as an upstream bug rather than roundoff.
CLAMP_SLACK = 1e-6
# Absolute tolerance when grouping eigenvalues into (value, multiplicity) runs.
GROUP_TOL = 1e-8
# Row height of the slabs over which symmetric_eigen checks its reconstruction,
# the oracle cuts its level blocks and adjacency_polynomial_slabs rebuilds the
# distance matrices.
_SLAB_ROWS = 128


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
    n, k = spec.n, spec.k
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

    Omega_j = sum_i alpha_i (-1)^i C(k, i) R_i(theta_j + k; 0, n-2k, k), the
    degree-i dual Hahn expansion of A_i in A, where theta_j + k = x(x+n-2k+1)
    at x = j - (n/2 - k).  The alternating sum cancels heavily (e.g.
    fast-decaying hopping near the bottom level), so it is accumulated in
    exact rational arithmetic, with every R_i of a level from one pass of the
    degree recurrence, and rounded once.  Degeneracies are
    :func:`level_degeneracy`.  For alpha = (0, 1, 0, ...) this collapses to
    Omega = theta.
    """
    n, k = spec.n, spec.k
    weights = [(i, (-1) ** i * math.comb(k, i) * Fraction(a)) for i, a in enumerate(hop.padded(k)) if a]
    top = max((i for i, _ in weights), default=0)
    rows = []
    for j_x2 in level_labels_x2(spec):
        x = (j_x2 - (n - 2 * k)) // 2
        r = _dual_hahn_run(top, x * (x + n - 2 * k + 1), 0, n - 2 * k, k)
        omega = sum((w * r[i] for i, w in weights), Fraction(0))
        rows.append(_energy_level(j_x2, spec, omega))
    return EnergyTable(tuple(rows))


def energy_exponential(spec: GraphSpec, c: float) -> EnergyTable:
    """Energies for alpha_i = exp(-c i), via the closed hypergeometric form.

    Omega_j = (1 - e^-c)^(n/2 - j) 2F1(n/2 - k - j, -n/2 + k - j; 1; e^-c);
    both numerator parameters are nonpositive integers, so the sum
    terminates.  Evaluated exactly over the rational value of e^-c, which
    makes it agree with :func:`energy_table` at alpha_i = exp(-c i) to the
    final rounding.
    """
    if c < 0:
        raise ValueError("decay constant must be nonnegative")
    n, k = spec.n, spec.k
    z = Fraction(math.exp(-c))
    rows = []
    for j_x2 in level_labels_x2(spec):
        a = (n - 2 * k - j_x2) // 2
        b = -(n - 2 * k + j_x2) // 2
        omega = (1 - z) ** ((n - j_x2) // 2) * _hyp2f1_rational(a, b, 1, z)
        rows.append(_energy_level(j_x2, spec, omega))
    return EnergyTable(tuple(rows))


def _energy_level(j_x2: int, spec: GraphSpec, omega: Fraction) -> EnergyLevel:
    sign = (omega > 0) - (omega < 0)
    return EnergyLevel(j_x2, theta_eigenvalue(j_x2, spec), float(omega), level_degeneracy(j_x2, spec), sign)


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


def symmetric_eigen(m: np.ndarray, cap: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of an exactly symmetric matrix, ascending order.

    The reconstruction Q diag(w) Q^T is checked against the input to
    1e-9 * max|M| before returning, a slab of rows at a time, so the check
    adds no full-size temporary to the eigensolve's own.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    limit = dense_cap(cap)
    if m.shape[0] > limit:
        raise CapacityError(f"matrix dimension {m.shape[0]} over the dense cap {limit}")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not exactly symmetric")
    w, q = np.linalg.eigh(m)
    _check_reconstruction(w, q, lambda top, stop: m[top:stop, top:])
    return w, q


def _check_reconstruction(w: np.ndarray, q: np.ndarray, rows) -> None:
    """Raise unless Q diag(w) Q^T matches a symmetric M to 1e-9 * max|M|, slab by slab.

    ``rows(top, stop)`` returns M's rows top:stop from column top on.  Q
    diag(w) Q^T is symmetric for any Q, and M is exactly symmetric, so the
    error below the diagonal only repeats the error above it up to roundoff.
    Each slab is therefore compared from its first row's column on, which
    covers every unordered entry pair, so every entry of M or its mirror,
    and reads only the slab's own square twice.  A wrong entry of row i of
    Q still shows, at least on the diagonal entry (i, i).
    """
    err = scale = 0.0
    for top in range(0, len(w), _SLAB_ROWS):
        stop = top + _SLAB_ROWS
        m = rows(top, stop)
        err = max(err, np.max(np.abs((q[top:stop] * w) @ q[top:].T - m)))
        scale = max(scale, np.max(np.abs(m)))
    if err > 1e-9 * max(scale, 1.0):
        raise ArithmeticError(f"eigendecomposition reconstruction error {err:g}")


class _Sectors(NamedTuple):
    """Row layout that splits the adjacency matrix by pair-swap characters.

    The swaps (1 2), (3 4), ... of the elements commute with A.  A vertex
    holding one element of s pairs lies in an orbit of 2^s vertices, told
    apart by which of those pairs hold their second element (the pattern).
    Row c holds vertex ``perm[c]``; rows run by orbit size, then pattern,
    then orbit, so the rows of one size form a (2^s, orbits) grid and one
    Hadamard product transforms all of its orbits.  ``groups`` holds
    (start, stop, s) per orbit size and ``weight`` the orbit size 2^s of
    each row.  After the transform, row c carries the swap character of the
    pattern of ``perm[c]``; ``sectors`` lists the rows of each character.
    """

    perm: np.ndarray
    groups: tuple[tuple[int, int, int], ...]
    weight: np.ndarray
    sectors: tuple[np.ndarray, ...]


def _pair_swap_sectors(spec: GraphSpec) -> _Sectors:
    """The pair-swap layout of J(n, k), read off the vertex indicators."""
    ind = _indicators(spec, spec.vertex_count)
    pairs = 2 * (spec.n // 2)
    first, second = ind[:, 0:pairs:2], ind[:, 1:pairs:2]
    split = first != second
    flips = second > first
    s = split.sum(axis=1)
    pattern = (flips.astype(np.int64) << (np.cumsum(split, axis=1) - split)).sum(axis=1)
    # an orbit is fixed by how many elements of each pair, and which unpaired one, it holds
    orbit = np.hstack([first + second, ind[:, pairs:]])
    perm = np.lexsort(np.vstack([orbit.T, pattern, s]))
    s = s[perm]
    bounds = [0, *(np.flatnonzero(np.diff(s)) + 1), len(s)]
    groups = tuple((int(a), int(b), int(s[a])) for a, b in zip(bounds, bounds[1:]))
    chars = flips[perm]
    order = np.lexsort(chars.T)
    starts = np.flatnonzero(np.any(chars[order][1:] != chars[order][:-1], axis=1)) + 1
    return _Sectors(perm, groups, 2.0**s, tuple(np.split(order, starts)))


def _hadamard(s: int) -> np.ndarray:
    """Sylvester's 2^s x 2^s Hadamard matrix: entry (u, v) is (-1)^popcount(u & v)."""
    h = np.ones((1, 1))
    for _ in range(s):
        h = np.block([[h, h], [h, -h]])
    return h


def _walsh_rows(m: np.ndarray, layout: _Sectors) -> None:
    """Apply every orbit's unnormalized Walsh-Hadamard transform to the rows of ``m``, in place."""
    for start, stop, s in layout.groups:
        rows = m[start:stop]
        rows[...] = (_hadamard(s) @ rows.reshape(2**s, -1)).reshape(rows.shape)


def _layout_adjacency(li: np.ndarray, k: int, top: int = 0, stop: int | None = None) -> np.ndarray:
    """Rows top:stop of the adjacency matrix from column top on, in the row order of the indicators ``li``.

    Each entry is an integer product of 0/1 indicator rows: exact.
    """
    return (li[top:stop] @ li[top:].T == k - 1).astype(np.float64)


def _pair_swap_transform(li: np.ndarray, k: int, layout: _Sectors) -> np.ndarray:
    """F^T A F for the orbits' Walsh-Hadamard transform F: small integers, exact in float64.

    A is built in the layout row order of the indicators ``li``; only the
    transposed copy ever sits next to it.
    """
    t = _layout_adjacency(li, k)
    _walsh_rows(t, layout)
    # A is symmetric, so (F^T A)^T = A F
    t = np.ascontiguousarray(t.T)
    _walsh_rows(t, layout)
    return t


def _solve_sectors(t: np.ndarray, layout: _Sectors, cap: int) -> list:
    """(rows, eigenvalues, eigenvectors) of each sector block of the transformed matrix ``t``.

    Every entry of ``t`` outside its sector blocks must be an exact zero;
    each block, normalized by the orbit sizes, goes through
    :func:`symmetric_eigen` with its own checks.  The off-sector entries of
    ``t`` are zeroed on the way.
    """
    parts = []
    for rows in layout.sectors:
        strip = t[rows]
        block = strip[:, rows]
        strip[:, rows] = 0.0
        if np.any(strip):
            raise ArithmeticError("pair-swap transform left a nonzero entry outside its sector")
        norm = np.sqrt(np.outer(layout.weight[rows], layout.weight[rows]))
        parts.append((rows, *symmetric_eigen(block / norm, cap)))
    return parts


def _lift_sectors(parts, layout: _Sectors) -> tuple[np.ndarray, np.ndarray]:
    """The sector eigenpairs, sector by sector, with the eigenvectors in layout row order."""
    w = np.concatenate([w_s for _, w_s, _ in parts])
    q = np.zeros((len(w), len(w)))
    top = 0
    for rows, w_s, v_s in parts:
        q[rows, top : top + len(w_s)] = v_s / np.sqrt(layout.weight[rows])[:, None]
        top += len(w_s)
    _walsh_rows(q, layout)
    return w, q


def _sectored_eigen(spec: GraphSpec, layout: _Sectors) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the adjacency matrix, one pair-swap sector at a time, in layout order.

    Row c of the eigenvectors belongs to vertex ``layout.perm[c]``.  A is
    built in layout order from the permuted indicators, so no vertex-order
    copy exists.  The sectors are solved by :func:`_solve_sectors`, and the
    lifted decomposition is checked against A, rebuilt exactly slab by slab
    from the same indicators.
    """
    li = _indicators(spec, spec.vertex_count)[layout.perm]
    t = _pair_swap_transform(li, spec.k, layout)
    parts = _solve_sectors(t, layout, spec.vertex_count)
    del t
    w, q = _lift_sectors(parts, layout)
    _check_reconstruction(w, q, partial(_layout_adjacency, li, spec.k))
    return w, q


def _level_masks(w: np.ndarray, spec: GraphSpec) -> dict[int, np.ndarray]:
    """The eigenvalues of each adjacency level, as a mask over ``w`` keyed by doubled j.

    Eigenvalues are grouped to the nearest theta_j within 1e-6 of the
    spectral spread; anything further from every theta is an error.
    """
    labels = level_labels_x2(spec)
    thetas = np.array([theta_eigenvalue(j_x2, spec) for j_x2 in labels])
    tol = 1e-6 * (thetas.max() - thetas.min())
    sels = [np.abs(w - t) <= tol for t in thetas]
    if sum(int(np.sum(sel)) for sel in sels) != len(w):
        raise ArithmeticError("adjacency eigenvalue did not land near a unique theta_j")
    return dict(zip(labels, sels))


def _vertex_columns(q: np.ndarray, perm: np.ndarray, sels) -> list[np.ndarray]:
    """Each mask's columns of the layout-order ``q``, with the rows back in vertex order.

    Row v of block b is row ``argsort(perm)[v]`` of ``q[:, sels[b]]``, cut a
    slab of rows at a time.  The blocks are Fortran-ordered, as a column
    cut of a vertex-order matrix is: sums over them round the same way.
    """
    inv = np.argsort(perm)
    blocks = [np.empty((len(q), int(np.sum(sel))), order="F") for sel in sels]
    for top in range(0, len(q), _SLAB_ROWS):
        rows = q[inv[top : top + _SLAB_ROWS]]
        for block, sel in zip(blocks, sels):
            block[top : top + _SLAB_ROWS] = rows[:, sel]
    return blocks


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@lru_cache(maxsize=8)
def _level_blocks(spec: GraphSpec) -> MappingProxyType:
    """Read-only eigenvector block of each adjacency level, keyed by doubled j.

    One sectored eigendecomposition per graph, in layout order; each level's
    block is then cut with its rows in vertex order.  Callers check the
    capacity before every lookup.
    """
    layout = _pair_swap_sectors(spec)
    w, q = _sectored_eigen(spec, layout)
    masks = _level_masks(w, spec)
    blocks = dict(zip(masks, _vertex_columns(q, layout.perm, masks.values())))
    for block in blocks.values():
        block.flags.writeable = False
    return MappingProxyType(blocks)


def eigenprojectors_oracle(spec: GraphSpec, cap: int | None = None) -> dict[int, np.ndarray]:
    """Exactly symmetric eigenprojectors E_j of the adjacency matrix, keyed by doubled j."""
    _require_capacity(spec, cap)
    return {j_x2: _symmetrize(b @ b.T) for j_x2, b in _level_blocks(spec).items()}


def eigenprojector_traces(spec: GraphSpec, cap: int | None = None) -> dict[int, float]:
    """trace(E_j) of each adjacency level, read as the squared norm of its cached block."""
    _require_capacity(spec, cap)
    return {j_x2: float(np.sum(b * b)) for j_x2, b in _level_blocks(spec).items()}


def subsystem_indices(spec: GraphSpec, sub: SubsystemSpec, cap: int | None = None) -> np.ndarray:
    """Canonical-order indices of the vertices at the selected distances."""
    d = distances_from(sub.x0, spec, cap)
    mask = np.isin(d, sorted(sub.distances))
    return np.nonzero(mask)[0]


def chopped_correlation_oracle(
    spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec, cap: int | None = None
) -> np.ndarray:
    """The ground-state correlation projector restricted to the subsystem rows.

    Each occupied level's eigenvector block is cut to the subsystem rows b
    before b b^T is summed in ascending level order, so no N x N array is
    formed.  numpy computes b b^T as one symmetric rank-k update, exactly
    symmetric, so only the sum is symmetrized.  A full-ball cut gives bit
    for bit the chopped sum of the symmetrized projectors; any other cut
    agrees to roundoff.
    """
    _require_capacity(spec, cap)
    blocks = _level_blocks(spec)
    idx = subsystem_indices(spec, sub, cap)
    chat = np.zeros((len(idx), len(idx)))
    for j_x2 in sorted(filling.occupied):
        b = blocks[j_x2][idx]
        chat += b @ b.T
    return _symmetrize(chat)


def clamp_unit_interval(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues to [0, 1]; beyond the slack window it is a hard error."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (values.min() < -CLAMP_SLACK or values.max() > 1.0 + CLAMP_SLACK):
        raise ValueError(
            f"spectrum [{values.min():g}, {values.max():g}] strays outside [0,1]: upstream bug"
        )
    return np.clip(values, 0.0, 1.0)


def group_spectra(values, mults, owners, count: int, tol: float = GROUP_TOL) -> Iterator[tuple]:
    """Merge each point's (value, multiplicity) pairs whose values agree within ``tol``.

    Pair p belongs to point ``owners[p]`` of ``count``; multiplicities may be
    Python ints of any size.  Per point, pairs are sorted by value, then
    multiplicity; a group is anchored at its first member and the
    representative is the multiplicity-weighted mean, summed in that order
    and snapped to an exact 0 or 1 when it lands within ``tol`` of either
    endpoint.  The sort and the group bounds are found for every point at
    once, on the first request; the Python-number phase runs one point at a
    time, and each point's entries are yielded as soon as they are merged.
    """
    yield from _merge_points(*_group_bounds(values, mults, owners, count, tol), tol)


def _group_bounds(values, mults, owners, count: int, tol: float):
    """The pairs of :func:`group_spectra` in merge order, and where their groups start.

    Returns the sorted value * multiplicity products, the sorted exact
    multiplicities, the group starts with the end appended, and per point
    the range of its pairs with the range of its bounds.
    """
    values = np.asarray(values, dtype=np.float64)
    exact = np.asarray(mults, dtype=object)
    weights = exact.astype(np.float64)
    owners = np.asarray(owners, dtype=np.intp)
    order = np.lexsort((weights, values, owners))
    values, weights, exact, owners = values[order], weights[order], exact[order], owners[order]
    # a gap over tol always starts a group: the anchor sits at or below the previous value
    first = np.ones(len(values), dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (values[1:] - values[:-1] > tol)
    starts = np.flatnonzero(first)
    ends = np.append(starts, len(values))[1:]
    bounds = starts.tolist() + [len(values)]
    # a run wider than tol splits wherever a value passes its group's anchor by more than tol
    wide = values[ends - 1] - values[starts] > tol
    for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
        while values[b - 1] - values[a] > tol:
            a += int(np.argmax(values[a:b] - values[a] > tol))
            bounds.append(a)
    bounds = np.sort(bounds)
    # each point's first pair starts a group and its last pair ends one
    cuts = np.searchsorted(owners, np.arange(count + 1)).tolist()
    edges = np.searchsorted(bounds, cuts).tolist()
    return values * weights, exact, bounds, zip(cuts, cuts[1:], edges, edges[1:])


def _merge_points(products, exact, bounds, runs, tol: float) -> Iterator[tuple]:
    """Each point's merged entries from :func:`_group_bounds`, one point at a time."""
    for lo, hi, first, last in runs:
        point_bounds = (bounds[first : last + 1] - lo).tolist()
        point_products, point_exact = products[lo:hi].tolist(), exact[lo:hi].tolist()
        entries = []
        for a, b in zip(point_bounds, point_bounds[1:]):
            mult = sum(point_exact[a:b])
            mean = reduce(add, point_products[a:b]) / mult
            if abs(mean) <= tol:
                mean = 0.0
            elif abs(mean - 1.0) <= tol:
                mean = 1.0
            entries.append((mean, mult))
        yield tuple(entries)


def group_spectrum(values, mults, tol: float = GROUP_TOL) -> tuple[tuple[float, int], ...]:
    """One point's :func:`group_spectra`."""
    return next(group_spectra(values, mults, np.zeros(len(values), dtype=np.intp), 1, tol))


def spectrum_oracle(c: np.ndarray) -> CorrelationSpectrum:
    """Eigenvalues of a chopped correlation matrix, clamped and grouped."""
    c = np.asarray(c, dtype=np.float64)
    if not np.array_equal(c, c.T):
        raise ValueError("chopped correlation matrix must be exactly symmetric")
    w = clamp_unit_interval(np.linalg.eigvalsh(c))
    return CorrelationSpectrum(group_spectrum(w, np.ones(len(w), dtype=np.int64)))


def adjacency_polynomial_slabs(spec: GraphSpec, cap: int | None = None):
    """Yield each slab of rows as its integer distances d and the same rows of every A_i rebuilt from A.

    A_i = (-1)^i C(k, i) R_i(A + k; 0, n-2k, k), expanded termwise over the
    product chain P_0 = I, P_(r+1) = P_r ((r(n-2k+1) + r^2) I - (A + k I)).
    The chain is built once per slab, as (c_r - k) P_r - P_r A, and every
    A_i is read off it; the rebuilt A_i should equal the 0/1 rows d == i.
    Every P_r is an integer matrix, exact while its entries stay below 2^53,
    so each A_i is bit for bit the one a separate product per i would give.
    """
    n, k = spec.n, spec.k
    ind = _indicators(spec, cap)
    a = adjacency_matrix(1, spec, cap)
    for top in range(0, spec.vertex_count, _SLAB_ROWS):
        dist = k - ind[top : top + _SLAB_ROWS] @ ind.T
        chain = [(dist == 0).astype(np.float64)]
        for r in range(k):
            chain.append((r * (n - 2 * k + 1) + r * r - k) * chain[-1] - chain[-1] @ a)
        polys = []
        for i in range(k + 1):
            total = chain[0]
            coef = 1.0
            for r in range(i):
                coef *= (r - i) / ((1.0 + r) * (r - k) * (r + 1.0))
                total = total + coef * chain[r + 1]
            sgn = -1.0 if i % 2 else 1.0
            polys.append(sgn * math.comb(k, i) * total)
        yield dist, polys
