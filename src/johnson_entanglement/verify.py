"""Cross-checking battery: every structural identity the package relies on,
runnable at small sizes where the dense oracle is available.

Each check returns its worst observed metric so regressions show up as
numbers, not just booleans, and holds the only copy of its tolerance.  The
checks take their grids as input; :func:`run_battery` and the acceptance
tests pass their own.  Grids are enumerated, never sampled.  The algebra
that only the checks need (the module A and A* actions, the level-basis T,
the Hahn-relation residuals, the distance matrices as polynomials in A)
lives here, on plain arrays.  The per-module checks build every graph's modules in
closed form, a stack per chain length (:func:`_chain_groups`), each solved by one ``eigvalsh``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import accumulate

import numpy as np

from . import entropy as entropy_mod
from . import heun as heun_mod
from . import scheme, spectral, terwilliger
from .scheme import GraphSpec, default_base_vertex
from .spectral import CorrelationSpectrum, FillingSpec, SubsystemSpec

__all__ = [
    "CheckResult", "check_action_convention", "check_hahn_algebra", "check_hahn_polynomial",
    "check_heun_commutant", "check_level_degeneracies", "check_module_completeness", "check_purity_duality",
    "check_route_agreement", "check_t_basis_similarity", "graph_sizes", "run_battery", "spectra_max_diff",
]

DEFAULT_SIZES = ((4, 2), (6, 3), (8, 4))
QUICK_SIZES = ((4, 2), (6, 3))
# Row height of the slabs over which the distance matrices are rebuilt from A and the embedding is checked.
_SLAB_ROWS = 128


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "worst", float(self.worst))


def _check(name: str):
    """Turn a body that returns (passed, worst, detail) into the check ``name``, which returns a CheckResult.

    A body that raises ArithmeticError, as every table build does on a broken
    module enumeration, fails the check with worst inf instead.
    """

    def wrap(body):
        @wraps(body)
        def check(*args) -> CheckResult:
            try:
                return CheckResult(name, *body(*args))
            except ArithmeticError as err:
                return CheckResult(name, False, math.inf, f"raised ArithmeticError: {err}")

        return check

    return wrap


def spectra_max_diff(a: CorrelationSpectrum, b: CorrelationSpectrum) -> float:
    """Worst per-eigenvalue gap between two spectra; inf on a size mismatch.

    Both sorted (lambda, multiplicity) lists are compared at every point
    where the cumulative multiplicity starts a new run in either list, so
    the cost grows with the number of distinct values and multiplicities
    are never expanded.
    """
    ea, eb = sorted(a.entries), sorted(b.entries)
    if a.total_multiplicity != b.total_multiplicity:
        return math.inf
    if not ea:
        return 0.0
    ca = list(accumulate(mult for _, mult in ea))
    cb = list(accumulate(mult for _, mult in eb))
    # the pair of values only changes where a run of either list starts
    starts = {0, *ca[:-1], *cb[:-1]}
    return max(abs(ea[bisect_right(ca, t)][0] - eb[bisect_right(cb, t)][0]) for t in starts)


def graph_sizes(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every (n, k) of a Johnson graph J(n, k) with lo <= n <= hi."""
    return [(n, k) for n in range(lo, hi + 1) for k in range(1, n // 2 + 1)]


@_check("scheme_identities")
def _check_scheme_identities(sizes, cap) -> tuple[bool, float, str]:
    """Distance partition, regularity and projector resolution, one N x N matrix at a time beside the A_i sum.

    0/1 matrices that sum to the all-ones matrix are disjoint.  The
    projectors and A* are diagonal and compared as diagonals.
    """
    worst = 0.0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        total = np.zeros((spec.vertex_count,) * 2)
        for i in range(k + 1):
            a_i = scheme.adjacency_matrix(i, spec, cap)
            worst = max(worst, float(np.count_nonzero((a_i != 0) & (a_i != 1))))
            if i == 1:
                worst = max(worst, float(np.max(np.abs(a_i.sum(axis=1) - k * (n - k)))))
            total += a_i
        total -= 1.0
        worst = max(worst, float(np.max(np.abs(total))))
        x0 = default_base_vertex(spec)
        astar, off = _diagonal(scheme.dual_adjacency_matrix(x0, spec, cap))
        proj_sum = rebuilt = 0.0
        for i in range(k + 1):
            e_i, off_i = _diagonal(scheme.neighborhood_projector(x0, i, spec, cap))
            off += off_i
            proj_sum = proj_sum + e_i
            rebuilt = rebuilt + heun_mod.dual_eigenvalue_at_distance(i, spec) * e_i
        worst = max(worst, off, float(np.max(np.abs(proj_sum - 1.0))), float(np.max(np.abs(rebuilt - astar))))
    return worst <= 1e-10, worst, "distance partition, regularity, projector resolution"


def _diagonal(m: np.ndarray) -> tuple[np.ndarray, int]:
    """The diagonal of ``m`` and the count of nonzero entries off it."""
    diag = np.diagonal(m).copy()
    return diag, np.count_nonzero(m) - np.count_nonzero(diag)


@_check("hypercube_embedding")
def _check_embedding(sizes, cap) -> tuple[bool, float, str]:
    """Hamming distances |x| + |y| - 2 x.y of the 0/1 embeddings against twice the graph distances, a slab of rows at a time, in integers."""
    worst = 0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        vecs = np.array([scheme.embed_in_hypercube(v, spec) for v in scheme.enumerate_vertices(spec, cap)], dtype=np.int64)
        weights = vecs.sum(axis=1)
        for top in range(0, spec.vertex_count, _SLAB_ROWS):
            slab = slice(top, top + _SLAB_ROWS)
            ham = weights[slab, None] + weights[None, :] - 2 * (vecs[slab] @ vecs.T)
            worst = max(worst, int(np.max(np.abs(ham - 2 * scheme.distance_rows(slab, spec, cap)))))
    return worst == 0.0, worst, "hamming distance doubles graph distance"


def _adjacency_polynomial_slabs(spec: GraphSpec, cap):
    """Yield each slab of rows as its integer distances d and the same rows of every A_i rebuilt from A.

    A_i = (-1)^i C(k, i) R_i(A + k; 0, n-2k, k), expanded termwise over the
    product chain P_0 = I, P_(r+1) = P_r ((r(n-2k+1) + r^2) I - (A + k I)).
    The chain is built once per slab, as (c_r - k) P_r - P_r A, and every
    A_i is read off it; the rebuilt A_i should equal the 0/1 rows d == i.
    Every P_r is an integer matrix, exact while its entries stay below 2^53,
    so each A_i is bit for bit the one a separate product per i would give.
    """
    n, k = spec.n, spec.k
    a = scheme.adjacency_matrix(1, spec, cap)
    for top in range(0, spec.vertex_count, _SLAB_ROWS):
        dist = scheme.distance_rows(slice(top, top + _SLAB_ROWS), spec, cap)
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


@_check("hahn_polynomial_identity")
def check_hahn_polynomial(sizes, cap) -> tuple[bool, float, str]:
    worst = 0.0
    for n, k in sizes:
        for dist, polys in _adjacency_polynomial_slabs(GraphSpec(n, k), cap):
            for i, poly in enumerate(polys):
                worst = max(worst, float(np.max(np.abs((dist == i) - poly))))
    return worst <= 1e-8, worst, "A_i as a degree-i polynomial of A"


@_check("cg_orthonormality")
def _check_cg_orthonormality(sizes) -> tuple[bool, float, str]:
    """Each module's square coupling matrix G, chain rows by levels, has G^T G = G G^T = I; one stack per length."""
    probe = [GraphSpec(n, k) for n, k in sizes] + [GraphSpec(30, 15), GraphSpec(29, 13)]
    stacks: dict[int, list[np.ndarray]] = {}
    for spec in probe:
        table = terwilliger.module_table(spec)
        for dim, ms in terwilliger.size_groups(table.dim):
            steps = np.arange(dim)
            g = table.entries(ms, table.i_min[ms, None] + steps, table.level_lo[ms, None] + steps)
            stacks.setdefault(dim, []).append(g)
    worst = 0.0
    for dim, parts in stacks.items():
        g, eye = np.concatenate(parts), np.eye(dim)
        worst = max(worst, float(np.max(np.abs(g.swapaxes(1, 2) @ g - eye))))
        worst = max(worst, float(np.max(np.abs(g @ g.swapaxes(1, 2) - eye))))
    return worst <= 1e-12, worst, "coupling columns orthonormal and complete"


@_check("module_completeness")
def check_module_completeness(sizes) -> tuple[bool, float, str]:
    """The graphs whose :func:`.terwilliger.module_grid` fails its exact multiplicity or completeness check."""
    bad = _failed_graphs(tuple(sizes))
    detail = f"sum dim*degeneracy = C(n,k) for n <= {max(n for n, _ in sizes)}"
    return bad == 0, float(bad), detail


@lru_cache(maxsize=8)
def _failed_graphs(sizes: tuple) -> int:
    """How many of the (n, k) in ``sizes`` fail the grid's checks, all laid out in one :func:`.terwilliger.module_grid`."""
    return len(terwilliger.module_grid([GraphSpec(n, k) for n, k in sizes]).failed)


def _eigenprojector_traces(spec: GraphSpec, cap) -> dict[int, int]:
    """trace(E_j) of each adjacency level: the eigenvalues of one plain ``eigvalsh(A)`` near theta_j.

    It reads no kernel, so it checks the level degeneracies on its own.
    Eigenvalues are grouped to the nearest theta_j within 1e-6 of the
    spectral spread; anything further from every theta is an error.
    """
    w = np.linalg.eigvalsh(scheme.adjacency_matrix(1, spec, cap))
    labels = spectral.level_labels_x2(spec)
    thetas = [spectral.theta_eigenvalue(j_x2, spec) for j_x2 in labels]
    tol = 1e-6 * (max(thetas) - min(thetas))
    counts = {j_x2: int(np.sum(np.abs(w - t) <= tol)) for j_x2, t in zip(labels, thetas)}
    if sum(counts.values()) != len(w):
        raise ArithmeticError("adjacency eigenvalue did not land near a unique theta_j")
    return counts


@_check("level_degeneracies")
def check_level_degeneracies(sizes, cap) -> tuple[bool, float, str]:
    """The count of adjacency eigenvalues at theta_j against the modules coupling to j, which must equal the closed form."""
    worst = 0.0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        traces = _eigenprojector_traces(spec, cap)
        table = terwilliger.module_table(spec)
        levels = table.level_index(list(traces))
        coupled = (table.level_lo[None, :] <= levels[:, None]) & (levels[:, None] <= table.level_hi[None, :])
        counts = (table._as_counts(coupled) @ table.degeneracies).tolist()
        for (j_x2, trace), count in zip(traces.items(), counts):
            worst = max(worst, abs(trace - count), abs(count - terwilliger.level_degeneracy(j_x2, spec)))
    return worst < 1e-6, worst, "trace(E_j) equals the module count"


def _module_columns(tables) -> list[np.ndarray]:
    """Every module of ``tables``, end to end, as columns: its table's place, n, k, j1_x2, j2_x2, i_min and dim."""
    columns = [
        (np.full(len(t.dim), p), np.full(len(t.dim), t.spec.n), np.full(len(t.dim), t.spec.k), t.j1_x2, t.j2_x2,
         t.i_min, t.dim)
        for p, t in enumerate(tables)
    ]
    return [np.concatenate(column) for column in zip(*columns)]


def _chain_groups(tables):
    """(positions, stack) per chain length, ascending: the :class:`.terwilliger.BlockStack` of those modules.

    Module s of ``stack`` is row ``positions[s]`` of :func:`_module_columns`, of table ``stack.pts[s]``.
    """
    pts, n, k, j1_x2, j2_x2, i_min, dims = _module_columns(tables)
    for dim, at in terwilliger.size_groups(dims):
        yield at, terwilliger.BlockStack(n[at], k[at], j1_x2[at], j2_x2[at], pts[at], i_min[at, None] + np.arange(dim))


def _levels_x2(stack) -> np.ndarray:
    """Each module's doubled admissible levels max(|j1-j2|, n-2k) .. j1+j2, a row per module of ``stack``."""
    low = np.maximum(np.abs(stack.j1_x2 - stack.j2_x2), stack.n - 2 * stack.k)
    return low[:, None] + 2 * np.arange(stack.rows.shape[1])


def _A_stack(stack) -> np.ndarray:
    """A on each module chain of ``stack``, from :func:`.terwilliger.chain_ladder`, which T reads too."""
    a, b = terwilliger.chain_ladder(*(x[:, None] for x in (stack.n, stack.k, stack.j1_x2, stack.j2_x2)), stack.rows)
    return heun_mod._tridiagonal(b, a[:, :-1])


def _Astar_stack(n, k, j1_x2, j2_x2, levels_x2) -> tuple[np.ndarray, np.ndarray]:
    """A* of module (j1_x2[s], j2_x2[s]) of J(n[s], k[s]) at its admissible doubled levels ``levels_x2[s]``.

    Returns the ladder a*_j to the level below and the diagonal b*_j.  The integer under a*'s root,
    P = (j^2 - (n-2k)^2)(j^2 - (j1-j2)^2)((j1+j2+2)^2 - j^2), is 0 at a module's lowest level.  Its
    quotient is rounded once, as over Python ints: from int64 while P < 2^53, so for n <= 400, else from Python ints.
    """
    n, k, j1, j2 = (np.reshape(x, (-1, 1)) for x in (n, k, j1_x2, j2_x2))
    j = levels_x2
    n_i, k_i, j1_i, j2_i, j_i = (x if n.max(initial=0) <= 400 else x.astype(object) for x in (n, k, j1, j2, j))
    prod = (j_i**2 - (n_i - 2 * k_i) ** 2) * (j_i**2 - (j1_i - j2_i) ** 2) * ((j1_i + j2_i + 2) ** 2 - j_i**2)
    # j = 0 or 1/2 is only ever a lowest level, where P is 0
    quotient = (np.where(j > 1, prod, 0) / np.where(j > 1, (j_i**2 - 1) * j_i**2, 1)).astype(np.float64)
    a_star = n * (n - 1) / (k * (n - k)) * np.sqrt(quotient) / 8.0
    swing = n * (n - 1) * (n - 2 * k) / (2.0 * k * (n - k))
    ratio = np.divide((j1 + j2 + 2) * (j1 - j2), 2.0 * j * (j + 2), out=np.zeros(j.shape), where=j > 0)
    return a_star, -(n - 1) * (n - 2 * k) / (2.0 * k) + swing * (0.5 + ratio)


def _level_T_stack(n, k, j1_x2, j2_x2, levels_x2, mu, nu) -> tuple[np.ndarray, np.ndarray]:
    """:func:`.heun._T_stack` in the level basis, at the consecutive admissible doubled levels ``levels_x2[s]``.

    There A is theta_j and A* is :func:`_Astar_stack`'s, so T's couplings are
    a*_j (theta_j + theta_(j-1) + mu), the one from j0 up being the filling cut.
    """
    mu, nu = np.reshape(mu, (-1, 1)), np.reshape(nu, (-1, 1))
    a_star, b_star = _Astar_stack(n, k, j1_x2, j2_x2, levels_x2)
    theta = spectral._theta(np.reshape(n, (-1, 1)), np.reshape(k, (-1, 1)), levels_x2)
    return mu * b_star + nu * theta + 2.0 * b_star * theta, a_star[:, 1:] * ((theta[:, 1:] + theta[:, :-1]) + mu)


@_check("action_convention")
def check_action_convention(sizes) -> tuple[bool, float, str]:
    """Each module's A action against theta_j on its levels: matching spectra pin the ladder's direction."""
    worst = 0.0
    for _, stack in _chain_groups([terwilliger.module_table(GraphSpec(n, k)) for n, k in sizes]):
        got = np.linalg.eigvalsh(_A_stack(stack))
        want = spectral._theta(stack.n[:, None], stack.k[:, None], _levels_x2(stack))
        scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
        worst = max(worst, float(np.max(np.max(np.abs(got - want), axis=1) / scale)))
    return worst <= 1e-8, worst, "module A action reproduces theta_j"


@_check("t_basis_similarity")
def check_t_basis_similarity(grid) -> tuple[bool, float, str]:
    """Distance- and level-basis T per module at each (n, k, n_cut, j0_pos) of ``grid``, one ``eigvalsh`` per length."""
    tables, weights = [], []
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        tables.append(terwilliger.module_table(spec))
        weights.append(heun_mod.heun_spec(spec, n_cut, spectral.level_labels_x2(spec)[j0_pos]))
    mu, nu = np.array([(hs.mu, hs.nu) for hs in weights]).T
    worst = 0.0
    for _, stack in _chain_groups(tables):
        labels, at = (stack.n, stack.k, stack.j1_x2, stack.j2_x2), stack.pts
        chain = heun_mod._T_stack(*labels, stack.rows, mu[at], nu[at])
        level = _level_T_stack(*labels, _levels_x2(stack), mu[at], nu[at])
        bases = [heun_mod._tridiagonal(*chain), heun_mod._tridiagonal(*level)]
        w1, w2 = np.split(np.linalg.eigvalsh(np.concatenate(bases)), 2)
        scale = np.maximum(1.0, np.max(np.abs(w1), axis=1))
        worst = max(worst, float(np.max(np.max(np.abs(w1 - w2), axis=1) / scale)))
    return worst <= 1e-8, worst, "distance- and level-basis T agree spectrally"


@_check("route_agreement")
def check_route_agreement(sizes, cap) -> tuple[bool, float, str]:
    """Oracle against both structured routes at every ball cut and bottom-run filling.

    Every graph's grid goes to each route in one :func:`.heun.spectra` call;
    the structured routes take it as one batch.
    """
    groups = []
    for n, k in sizes:
        spec = GraphSpec(n, k)
        labels = spectral.level_labels_x2(spec)
        x0 = default_base_vertex(spec)
        configs = [
            (FillingSpec(frozenset(labels[: j0_pos + 1])), SubsystemSpec(frozenset(range(n_cut + 1)), x0))
            for j0_pos in range(k)
            for n_cut in range(k)
        ]
        groups.append((spec, configs))
    worst = 0.0
    for s_o, s_mod, s_t in zip(*(heun_mod.spectra(groups, r, cap) for r in heun_mod.ROUTES)):
        worst = max(worst, spectra_max_diff(s_o, s_mod), spectra_max_diff(s_o, s_t))
    return worst <= 1e-8, worst, "oracle, module and T-readout spectra agree"


def _hahn_stack(stack) -> tuple[np.ndarray, np.ndarray]:
    """Residual matrices of the two quadratic commutator relations on each module of ``stack``.

    With K1 = 2k(n-k)/(n(n-1)) A*, K2 = A and K3 = [K1, K2], evaluates

        [K2, K3] = a {K1, K2} + b K2 + c1 K1 + d1
        [K3, K1] = a K1^2     + b K1 + c2 K2 + d2

    per module, with a = -2, b = -2(n-2k)^2/n, c1 = -2n - (n-2k)^2, c2 = -4
    and central offsets d1 = -b c1/4 + 2(n-2k)(cas1 - cas2) and d2 built from
    the two Casimir values, which are constants on a module.  The module
    actions, and so the relations, are the same for every base vertex.
    """
    n, k, j1, j2 = (x[:, None, None] for x in (stack.n, stack.k, stack.j1_x2, stack.j2_x2))
    a = -2.0
    b = -2.0 * (n - 2 * k) ** 2 / n
    c1 = -2.0 * n - (n - 2 * k) ** 2
    c2 = -4.0
    k2 = _A_stack(stack)
    astar = heun_mod._dual_eigenvalue(stack.n[:, None], stack.k[:, None], stack.rows)
    k1 = heun_mod._tridiagonal((2.0 * k * (n - k) / (n * (n - 1)))[:, 0] * astar, np.zeros_like(astar[:, 1:]))
    k3 = k1 @ k2 - k2 @ k1
    cas1 = j1 * (j1 + 2) / 4.0
    cas2 = j2 * (j2 + 2) / 4.0
    d1 = -b * c1 / 4.0 + 2.0 * (n - 2 * k) * (cas1 - cas2)
    d2 = -2.0 * n + 4.0 * (cas1 + cas2) - b * b / 8.0 + b * n / 4.0
    eye = np.eye(stack.rows.shape[1])
    h2 = (k2 @ k3 - k3 @ k2) - (a * (k1 @ k2 + k2 @ k1) + b * k2 + c1 * k1 + d1 * eye)
    h3 = (k3 @ k1 - k1 @ k3) - (a * (k1 @ k1) + b * k1 + c2 * k2 + d2 * eye)
    return h2, h3


@_check("hahn_algebra_residuals")
def check_hahn_algebra(sizes) -> tuple[bool, float, str]:
    worst = 0.0
    for _, stack in _chain_groups([terwilliger.module_table(GraphSpec(n, k)) for n, k in sizes]):
        h2, h3 = _hahn_stack(stack)
        worst = max(worst, float(np.max(np.abs(h2))), float(np.max(np.abs(h3))))
    return worst <= 1e-8, worst, "quadratic commutator relations per module"


def _commutator(c: np.ndarray, t: np.ndarray) -> float:
    """max |[C, T]| over the entries."""
    return float(np.max(np.abs(c @ t - t @ c)))


@_check("heun_commutant")
def check_heun_commutant(grid) -> tuple[bool, float, str]:
    """[C, T] on each module block at every (n, k, n_cut, j0_pos) of ``grid``.

    The cut couplings of T must be exact zeros in both bases.  Raising mu by 1
    must break [C, T] (above 1e-3) on every configuration with a T block over
    1x1; one without skips only that control, and the detail counts the skips.
    """
    configs = []
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        labels = spectral.level_labels_x2(spec)
        hs = heun_mod.heun_spec(spec, n_cut, labels[j0_pos])
        filling = FillingSpec(frozenset(labels[: j0_pos + 1]))
        sub = SubsystemSpec(frozenset(range(n_cut + 1)), default_base_vertex(spec))
        if heun_mod.plan(spec, filling, sub) != hs:
            raise ValueError("filling and subsystem do not plan to these cuts")
        configs.append((hs, filling, terwilliger.module_table(spec)))
    heun_specs, _, tables = zip(*configs)
    # configuration p's weights, then at P + p the negative control's, mu raised by 1
    mu, nu = np.array([(hs.mu, hs.nu) for hs in heun_specs] + [(hs.mu + 1.0, hs.nu) for hs in heun_specs]).T
    t_stacks = {}
    for _, stack in _chain_groups(tables * 2):
        p = stack.pts
        t = heun_mod._tridiagonal(*heun_mod._T_stack(stack.n, stack.k, stack.j1_x2, stack.j2_x2, stack.rows, mu[p], nu[p]))
        t_stacks.update({(q, t.shape[1]): t[p == q] for q in dict.fromkeys(p.tolist())})
    # the level-basis coupling from j0 up, of every module whose levels pass j0, in one evaluation
    p, n, k, j1_x2, j2_x2, _, _ = _module_columns(tables)
    j0 = np.array([hs.j0_x2 for hs in heun_specs])[p]
    cut = np.flatnonzero((np.maximum(np.abs(j1_x2 - j2_x2), n - 2 * k) <= j0) & (j0 < j1_x2 + j2_x2))
    labels = (n[cut], k[cut], j1_x2[cut], j2_x2[cut], j0[cut, None] + np.array([0, 2]))
    cuts_zero = bool(np.all(_level_T_stack(*labels, mu[p[cut]], nu[p[cut]])[1] == 0.0))
    worst = 0.0
    control_ok = True
    skipped = 0
    for count, (hs, filling, table) in enumerate(configs, 1):
        controls = []
        occupied = table.level_index(sorted(filling.occupied))[None, :]
        # the subsystem rows of each chain are the leading ones
        sizes = np.minimum(table.i_max, hs.n_cut) - table.i_min + 1
        for dim, ms in terwilliger.size_groups(table.dim):
            t, t_perturbed = t_stacks[count - 1, dim], t_stacks[len(tables) + count - 1, dim]
            for size, sel in terwilliger.size_groups(sizes[ms]):
                if size < dim:
                    cuts_zero = cuts_zero and bool(np.all(t[sel, size - 1, size] == 0.0))
                rows = table.i_min[ms[sel], None] + np.arange(size)
                c_blocks = table.blocks(ms[sel], rows, np.repeat(occupied, len(sel), axis=0))
                worst = max(worst, _commutator(c_blocks, t[sel][:, :size, :size]))
                if size > 1:
                    controls.append(_commutator(c_blocks, t_perturbed[sel][:, :size, :size]))
        if controls:
            control_ok = control_ok and max(controls) > 1e-3
        else:
            skipped += 1
    detail = "[C, T] residual tiny; perturbed mu breaks it (negative control)"
    if skipped:
        detail += f"; control skipped on {skipped} of {count} configurations, no T block over 1x1"
    return worst <= 1e-9 and cuts_zero and control_ok, worst, detail


@_check("purity_duality")
def check_purity_duality(sizes, cap) -> tuple[bool, float, str]:
    """S(A) = S(B) for complementary subsystems, each solved directly on its own kernel matrix.

    The oracle route solves a cut on its smaller side by this very duality,
    so the check never goes through it: both sides of every configuration of
    a graph go to :func:`.spectral.oracle_spectra` as one batch.
    """
    worst = 0.0
    count = 0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        labels = spectral.level_labels_x2(spec)
        x0 = default_base_vertex(spec)
        distance_sets = [frozenset({0}), frozenset({1}), frozenset(range(2)), frozenset({0, 2}), frozenset(range(k))]
        configs = [
            (FillingSpec(se), SubsystemSpec(side, x0))
            for sd in distance_sets
            for se in (frozenset(labels[:1]), frozenset(labels[:2]), frozenset(labels[::2]))
            for side in (sd, frozenset(range(k + 1)) - sd)
        ]
        entropies = [entropy_mod.von_neumann(s) for s in spectral.oracle_spectra(spec, configs, cap)]
        count += len(configs) // 2
        worst = max([worst, *(abs(s_a - s_b) for s_a, s_b in zip(entropies[::2], entropies[1::2]))])
    return worst <= 1e-7 and count >= 20, worst, f"S(SV) = S(complement) on {count} configurations"


@_check("mirror_symmetry")
def _check_mirror_symmetry(sizes) -> tuple[bool, float, str]:
    groups = []
    for n, k in sizes:
        if n != 2 * k:
            continue
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        filling = FillingSpec(frozenset(spectral.level_labels_x2(spec)[: max(1, (k + 1) // 3)]))
        groups.append((spec, [(filling, SubsystemSpec(frozenset({i}), x0)) for i in range(k + 1)]))
    merged = terwilliger.assemble_spectra(groups)
    entropies = iter(entropy_mod.entropies(merged.values, merged.mults, merged.edges).tolist())
    worst = 0.0
    for spec, shells in groups:
        values = [next(entropies) for _ in shells]
        worst = max([worst, *(abs(s_i - s_mirror) for s_i, s_mirror in zip(values, values[::-1]))])
    return worst <= 1e-8, worst, "S(i) = S(k-i) on balanced graphs"


def run_battery(sizes=None, quick: bool = False, cap: int | None = None) -> list[CheckResult]:
    """Run the battery; ``quick`` restricts to the fast subset of sizes/checks."""
    if sizes is None:
        sizes = QUICK_SIZES if quick else DEFAULT_SIZES
    results = [
        _check_scheme_identities(sizes, cap),
        _check_embedding(sizes, cap),
        check_hahn_polynomial(sizes, cap),
        _check_cg_orthonormality(sizes),
        check_module_completeness(graph_sizes(2, 30)),
        check_level_degeneracies(sizes, cap),
        check_action_convention(sizes),
        check_t_basis_similarity([(n, k, c, j) for n, k in sizes for c in (0, k - 1) for j in (0, k - 1)]),
        check_route_agreement(sizes, cap),
        check_hahn_algebra(sizes),
        check_heun_commutant([(n, k, min(1, k - 1), min(1, k - 1)) for n, k in sizes]),
        _check_mirror_symmetry(sizes),
    ]
    if not quick:
        results.append(check_purity_duality(((6, 3), (8, 4)), cap))
    return results
