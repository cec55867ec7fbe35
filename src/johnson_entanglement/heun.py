"""Commuting tridiagonal operator route for multi-neighborhood subsystems.

T = {A, A*} + mu A* + nu A is tridiagonal on every module chain, and its
weights make the couplings across the filling cut j0 and the subsystem cut N
vanish exactly (the README's route 3).  A and theta* are closed-form in
(n, k, j1, j2, i) on every chain, so the T of every block of one size, of
every point and graph, is evaluated at the rows the block reads by one
vector expression and diagonalized by one ``eigh`` call.

:func:`plan` says whether a point needs T and refuses those where T does not
exist.  :func:`spectra` is the one route dispatch for the command line, the
figure sweeps and ``verify``: it sends (graph, points) groups of
(filling, subsystem) points to the dense oracle,
:func:`.terwilliger.assemble_spectra` or here.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .scheme import ConfigError, GraphSpec, default_base_vertex, neighborhood_size
from .spectral import (
    CorrelationSpectrum,
    FillingSpec,
    MergedSpectra,
    SubsystemSpec,
    group_spectra,
    level_degeneracy,
    level_labels_x2,
    oracle_spectra,
    theta_eigenvalue,
)
from .terwilliger import ModuleLabel, assemble_spectra, chain_ladder, module_table, stacked_spectra

__all__ = [
    "ROUTES",
    "HeunSpec",
    "heun_spec",
    "plan",
    "dual_eigenvalue_at_distance",
    "build_T",
    "spectra",
    "spectra_via_heun",
    "spectrum_via_heun",
]

ROUTES = ("oracle", "modules", "heun")

# Relative gap below which neighboring T eigenvalues count as one cluster and
# the correlation matrix is rediagonalized inside the cluster span.
CLUSTER_REL_TOL = 1e-8


@dataclass(frozen=True)
class HeunSpec:
    """Cut positions and the induced operator weights.

    Use :func:`heun_spec`; mu and nu are functions of the cuts, never free.
    """

    n_cut: int
    j0_x2: int
    mu: float
    nu: float


def heun_spec(spec: GraphSpec, n_cut: int, j0_x2: int) -> HeunSpec:
    """Weights for subsystem distances 0..n_cut and occupied levels up to j0."""
    n, k = spec.n, spec.k
    if not 0 <= n_cut < k:
        raise ValueError(f"subsystem cut {n_cut} outside 0..{k - 1}")
    if not n - 2 * k <= j0_x2 < n or (j0_x2 - n) % 2:
        raise ValueError(f"filling cut j0_x2={j0_x2} invalid for n={n}, k={k}")
    mu = -(theta_eigenvalue(j0_x2 + 2, spec) + theta_eigenvalue(j0_x2, spec))
    nu = -(dual_eigenvalue_at_distance(n_cut + 1, spec) + dual_eigenvalue_at_distance(n_cut, spec))
    return HeunSpec(n_cut, j0_x2, mu, nu)


def plan(spec: GraphSpec, filling: FillingSpec, sub: SubsystemSpec) -> HeunSpec | str | None:
    """How the T-readout route treats a configuration.

    None when the subsystem is the whole graph or the filling is empty or
    full: every module block is then an exact 0/1 projection, counted
    without T.  Else the :class:`HeunSpec` of a ball 0..N with the lowest
    levels filled up to j0, or the reason T does not exist.
    """
    return _planner(spec)(filling, sub)


def _planner(spec: GraphSpec):
    """:func:`plan` for the points of one graph, with its labels and filled prefixes built once."""
    labels = level_labels_x2(spec)
    whole, full = frozenset(range(spec.k + 1)), frozenset(labels)
    # each filled prefix of the levels, neither empty nor full, and its top level j0
    tops = {frozenset(labels[:count]): labels[count - 1] for count in range(1, len(labels))}

    def planned(filling: FillingSpec, sub: SubsystemSpec) -> HeunSpec | str | None:
        distances, occupied = sub.distances, filling.occupied
        if distances == whole or not occupied or occupied == full:
            return None
        n_cut = max(distances)
        if distances != set(range(n_cut + 1)):
            return "the T-readout route needs contiguous distances 0..N"
        if occupied not in tops:
            return "the T-readout route needs the lowest levels filled contiguously"
        return heun_spec(spec, n_cut, tops[occupied])

    return planned


def dual_eigenvalue_at_distance(i: int | np.ndarray, spec: GraphSpec) -> float | np.ndarray:
    """theta* on the i-th neighborhood, or at each of an integer array's; n - 1 at i = 0, strictly decreasing.

    Affine in m1 - m2 = n - 4i, with m1 = (n - k)/2 - i and m2 = i - k/2.
    """
    return _dual_eigenvalue(spec.n, spec.k, i)


def _dual_eigenvalue(n, k, i):
    """theta*(i) of J(n, k), the one formula of :func:`dual_eigenvalue_at_distance` and of T.

    Python ints are exact up to the two divisions.  Arrays are taken in
    float64, where no product wraps; each value equals the scalar one while
    n (n - 1) and (n - 2k)^2 stay below 2^53.
    """
    if not isinstance(i, int):
        n, k, i = (np.asarray(x, dtype=np.float64) for x in (n, k, i))
    return -(n - 1) * (n - 2 * k) ** 2 / (4.0 * k * (n - k)) + n * (n - 1) * (n - 4 * i) / (4.0 * k * (n - k))


def _T_stack(n, k, j1_x2, j2_x2, rows, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """Stacked T of module (j1_x2[s], j2_x2[s]) of J(n[s], k[s]) under weights (mu[s], nu[s]), in closed form.

    Returns each block's diagonal and each row's coupling to the next at
    the distances ``rows[s]``, which must be consecutive on the chain.  A
    comes from :func:`.terwilliger.chain_ladder` and theta* from
    :func:`_dual_eigenvalue`, both at the rows read, so the cut coupling
    cancels to an exact 0 against nu.
    """
    n, k, j1_x2, j2_x2, mu, nu = (np.reshape(x, (-1, 1)) for x in (n, k, j1_x2, j2_x2, mu, nu))
    a, b = chain_ladder(n, k, j1_x2, j2_x2, rows)
    theta = _dual_eigenvalue(n, k, rows)
    diag = nu * b + mu * theta + 2.0 * b * theta
    off = a[:, :-1] * ((theta[:, 1:] + theta[:, :-1]) + nu)
    return diag, off


def _tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Stacked dense symmetric tridiagonal matrices: ``diag[s]`` on the diagonal, ``off[s]`` beside it."""
    size = diag.shape[1]
    t = np.zeros((len(diag), size, size))
    r = np.arange(size)
    t[:, r, r] = diag
    t[:, r[:-1], r[1:]] = t[:, r[1:], r[:-1]] = off
    return t


def build_T(label: ModuleLabel, hs: HeunSpec, spec: GraphSpec) -> np.ndarray:
    """Dense T on the module chain in the distance basis, rows by ascending distance.

    Off-diagonal between rows i and i+1 is a_m1(i) (theta*(i+1) + theta*(i) + nu);
    at i = n_cut the parenthesis is the defining relation for nu and cancels to
    an exact floating-point zero, which is what decouples the subsystem block:
    the rows at distances <= n_cut are the leading square of T.
    """
    rows = np.arange(label.i_min, label.i_max + 1)[None, :]
    return _tridiagonal(*_T_stack(spec.n, spec.k, label.j1_x2, label.j2_x2, rows, hs.mu, hs.nu))[0]


def _cluster_readout(w: np.ndarray, q: np.ndarray, c_block: np.ndarray) -> np.ndarray:
    """Readout for one block whose T spectrum clusters: rediagonalize C in each cluster span."""
    size = len(w)
    scale = max(1.0, float(np.max(np.abs(w))))
    pos = 0
    lams: list[float] = []
    while pos < size:
        end = pos + 1
        while end < size and w[end] - w[end - 1] < CLUSTER_REL_TOL * scale:
            end += 1
        if end - pos == 1:
            v = q[:, pos]
            lams.append(float(v @ c_block @ v))
        else:
            span = q[:, pos:end]
            small = span.T @ c_block @ span
            lams.extend(float(x) for x in np.linalg.eigvalsh(0.5 * (small + small.T)))
        pos = end
    return np.array(lams)


def spectra_via_heun(groups) -> MergedSpectra:
    """Correlation spectra of (graph, points) groups, point by point in order, with eigenvectors supplied by T.

    A point :func:`plan` refuses raises :class:`.scheme.ConfigError` with its
    reason.  :func:`.terwilliger.stacked_spectra` stacks the blocks by size;
    each stack's T, across every graph of the call, is built by one
    :func:`_T_stack` and diagonalized by one ``eigh`` call; each correlation
    eigenvalue is the Rayleigh quotient of the correlation block on a T
    eigenvector.  Blocks whose T eigenvalues
    cluster (relative gap under ``CLUSTER_REL_TOL``) fall back to
    rediagonalizing the correlation matrix inside the cluster span.  A point
    planned to None has only exact 0/1 blocks, so its NaN weights never
    reach the readout; if they did, the spectrum's range check would fail.
    """
    tables, weights = [], []
    for spec, configs in groups:
        planned = _planner(spec)
        for filling, sub in configs:
            hs = planned(filling, sub)
            if isinstance(hs, str):
                raise ConfigError(hs)
            weights.append((np.nan, np.nan) if hs is None else (hs.mu, hs.nu))
        tables.append((module_table(spec), configs))
    mu, nu = np.array(weights).reshape(-1, 2).T

    def readout(stack, c):
        labels = (stack.n, stack.k, stack.j1_x2, stack.j2_x2, stack.rows)
        t_stack = _tridiagonal(*_T_stack(*labels, mu[stack.pts], nu[stack.pts]))
        w, q = np.linalg.eigh(t_stack)
        # Rayleigh quotients v^T C v for every eigenvector v of every block, as
        # stacked (1 x size) products: the same vector-matrix-vector sums a
        # lone block takes, so the values do not depend on the stacking
        vecs = q.swapaxes(1, 2)[:, :, None, :]
        lams = ((vecs @ c[:, None]) @ vecs.swapaxes(2, 3))[:, :, 0, 0]
        scale = np.maximum(1.0, np.max(np.abs(w), axis=1))
        clustered = np.any(np.diff(w, axis=1) < CLUSTER_REL_TOL * scale[:, None], axis=1)
        for blk in np.nonzero(clustered)[0]:
            lams[blk] = _cluster_readout(w[blk], q[blk], c[blk])
        return lams

    return stacked_spectra(tables, readout)


def spectrum_via_heun(spec: GraphSpec, hs: HeunSpec) -> CorrelationSpectrum:
    """:func:`spectra_via_heun` of the ball 0..n_cut under levels up to j0, weighted as by :func:`heun_spec`."""
    filling = FillingSpec(frozenset(range(spec.n - 2 * spec.k, hs.j0_x2 + 1, 2)))
    sub = SubsystemSpec(frozenset(range(hs.n_cut + 1)), default_base_vertex(spec))
    return next(spectra_via_heun([(spec, [(filling, sub)])]))


def _oracle_spectra(spec: GraphSpec, configs, cap: int | None) -> Iterator[CorrelationSpectrum]:
    """Oracle spectra of subsystems A, each solved on the smaller of A and B, the other distances from x0.

    The correlation matrix is a projector of rank N_f, the occupied
    degeneracies summed, so each value lam of C_B in (0, 1) is a value 1 - lam
    of C_A, as often.  With q such values, A has N_f - q - (B's exact 1s)
    exact 1s and exact 0s in its other rows.  An empty B is the whole graph.
    Every side goes to :func:`.spectral.oracle_spectra` as one batch; the
    complement-solved points are then merged together.
    """
    everything = frozenset(range(spec.k + 1))
    points, sides = [], []
    for filling, sub in configs:
        size = sum(neighborhood_size(spec, d) for d in sub.distances)
        flipped = 2 * size > spec.vertex_count
        side, at = everything - sub.distances if flipped else sub.distances, None
        if side:
            at = len(sides)
            sides.append((filling, replace(sub, distances=side)))
        points.append((filling, size, flipped, at))
    solved = list(oracle_spectra(spec, sides, cap))
    pairs = []
    for p, (filling, size, flipped, at) in enumerate(points):
        if not flipped:
            continue
        entries = () if at is None else solved[at].entries
        mixed = [(1.0 - lam, mult) for lam, mult in entries if 0.0 < lam < 1.0]
        q = sum(mult for _, mult in mixed)
        rank = sum(level_degeneracy(j_x2, spec) for j_x2 in filling.occupied)
        ones = rank - q - sum(mult for lam, mult in entries if lam == 1.0)
        zeros = size - ones - q
        if min(ones, zeros) < 0:
            raise ArithmeticError(f"complement spectrum leaves {ones} exact 1s and {zeros} exact 0s")
        pairs += [(lam, mult, p) for lam, mult in [(0.0, zeros), (1.0, ones), *mixed] if mult]
    merged = group_spectra(*np.array(pairs, dtype=object).reshape(-1, 3).T, len(points))
    return (
        CorrelationSpectrum(entries) if flipped else solved[at]
        for (_, _, flipped, at), entries in zip(points, merged)
    )


def spectra(groups, route: str, cap: int | None = None) -> Iterator[CorrelationSpectrum]:
    """Spectra of the (filling, subsystem) points of (graph, points) groups along one of :data:`ROUTES`, in order.

    The structured routes solve every group in one stacked pass and return
    its :class:`.spectral.MergedSpectra`, whose arrays the figure sweeps read
    directly; ``oracle`` solves each graph's points as one batch, each on its
    smaller side, under the dense cap ``cap``.  A single graph is the
    one-group case.
    """
    if route == "oracle":
        return iter([s for spec, configs in groups for s in _oracle_spectra(spec, configs, cap)])
    if route == "modules":
        return assemble_spectra(groups)
    if route == "heun":
        return spectra_via_heun(groups)
    raise ConfigError(f"unknown route {route!r}")
