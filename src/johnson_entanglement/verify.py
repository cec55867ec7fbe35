"""Cross-checking battery: every structural identity the package relies on,
runnable at small sizes where the dense oracle is available.

Each check returns its worst observed metric so regressions show up as
numbers, not just booleans, and holds the only copy of its tolerance.  The
checks take their grids as input; :func:`run_battery` and the acceptance
tests pass their own.  Grids are enumerated, never sampled.  The algebra
that only the checks need (the module A and A* actions, the level-basis T,
the Hahn-relation residuals, the distance matrices as polynomials in A)
lives here, on plain arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
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
    worst = 0.0
    probe = [GraphSpec(n, k) for n, k in sizes] + [GraphSpec(30, 15), GraphSpec(29, 13)]
    for spec in probe:
        table = terwilliger.module_table(spec)
        for dim, ms in terwilliger.size_groups(table.dim):
            # each module's whole square coupling matrix, stacked by chain length:
            # every chain row against every admissible level
            steps = np.arange(dim)
            g = table.entries(ms, table.i_min[ms, None] + steps, table.level_lo[ms, None] + steps)
            eye = np.eye(dim)
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
        for j_x2, trace in _eigenprojector_traces(spec, cap).items():
            count = sum(
                m.degeneracy
                for m in terwilliger.enumerate_modules(spec)
                if abs(m.j1_x2 - m.j2_x2) <= j_x2 <= m.j1_x2 + m.j2_x2
            )
            worst = max(worst, abs(trace - count), abs(count - terwilliger.level_degeneracy(j_x2, spec)))
    return worst < 1e-6, worst, "trace(E_j) equals the module count"


def _A_action(label, spec: GraphSpec) -> np.ndarray:
    """A on the module chain by ascending distance, from :func:`.terwilliger.chain_ladder`, which T reads too."""
    a, b = terwilliger.chain_ladder(spec.n, spec.k, label.j1_x2, label.j2_x2, np.array(label.distances))
    return heun_mod._tridiagonal(b[None], a[None, :-1])[0]


def _Astar_coefficients(j_x2: int, label, spec: GraphSpec) -> tuple[float, float]:
    """Ladder weight a*_j and diagonal b*_j of A* in the module's level basis.

    a*_j couples j to j - 1 and carries the square root of a product that
    vanishes at the admissible-range edges, so no coupling ever leaves the
    module.  For a one-row chain only b* is meaningful and it equals the
    dual eigenvalue of that single row.
    """
    n, k = spec.n, spec.k
    j1, j2 = label.j1_x2, label.j2_x2
    if not abs(j1 - j2) <= j_x2 <= j1 + j2:
        raise ValueError(f"level j_x2={j_x2} outside the module's coupling range")
    pref = n * (n - 1) / (k * (n - k))
    mm = n - 2 * k
    num = (
        (j_x2**2 - mm**2)
        * (j_x2**2 - (j1 - j2) ** 2)
        * ((j1 + j2 + 2) ** 2 - j_x2**2)
    )
    if j_x2 <= 1 or num <= 0:
        # j = 0 or 1/2 can only be a chain's lowest level, where the
        # vanishing numerator factor already means "no coupling below"
        a_star = 0.0
    else:
        a_star = pref * math.sqrt(num / ((j_x2**2 - 1) * j_x2**2)) / 8.0
    base = -(n - 1) * (n - 2 * k) / (2.0 * k)
    swing = n * (n - 1) * (n - 2 * k) / (2.0 * k * (n - k))
    if j_x2 == 0:
        ratio = 0.0
    else:
        ratio = (j1 + j2 + 2) * (j1 - j2) / (2.0 * j_x2 * (j_x2 + 2))
    b_star = base + swing * (0.5 + ratio)
    return a_star, b_star


def _T_level_basis(label, hs, spec: GraphSpec) -> np.ndarray:
    """T on the module in the level basis, where its cut sits after j0; similar to :func:`.heun.build_T`."""
    levels = terwilliger.module_admissible_levels(label, spec)
    a_star, b_star = np.array([_Astar_coefficients(j_x2, label, spec) for j_x2 in levels]).T
    th = np.array([spectral.theta_eigenvalue(j_x2, spec) for j_x2 in levels])
    diag, off = hs.mu * b_star + hs.nu * th + 2.0 * b_star * th, a_star[1:] * ((th[1:] + th[:-1]) + hs.mu)
    return heun_mod._tridiagonal(diag[None], off[None])[0]


@_check("action_convention")
def check_action_convention(sizes) -> tuple[bool, float, str]:
    """Each module's A action against theta_j over its admissible levels.

    The ladder indexing admits a transcription mirror; matching the spectra
    pins the convention.
    """
    worst = 0.0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        for label in terwilliger.enumerate_modules(spec):
            got = np.linalg.eigvalsh(_A_action(label, spec))
            levels = terwilliger.module_admissible_levels(label, spec)
            want = np.sort([spectral.theta_eigenvalue(j, spec) for j in levels])
            worst = max(worst, float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want)))))
    return worst <= 1e-8, worst, "module A action reproduces theta_j"


def _chain_T(pairs) -> dict[tuple[int, int], np.ndarray]:
    """{(p, dim): the stacked :func:`.heun.build_T` of pair p's modules with ``dim`` chain rows, in row order}.

    Pair p is a (table, HeunSpec); each chain length's T, of every pair, is
    built by one :func:`.heun._T_stack` call.
    """
    columns = [
        (np.full(len(t.dim), p), np.full(len(t.dim), t.spec.n), np.full(len(t.dim), t.spec.k), t.j1_x2, t.j2_x2,
         t.i_min, t.dim, np.full(len(t.dim), hs.mu), np.full(len(t.dim), hs.nu))
        for p, (t, hs) in enumerate(pairs)
    ]
    pair, n, k, j1_x2, j2_x2, i_min, dims, mu, nu = (np.concatenate(column) for column in zip(*columns))
    stacks = {}
    for dim, at in terwilliger.size_groups(dims):
        rows = i_min[at, None] + np.arange(dim)
        t = heun_mod._tridiagonal(*heun_mod._T_stack(n[at], k[at], j1_x2[at], j2_x2[at], rows, mu[at], nu[at]))
        stacks.update({(p, dim): t[pair[at] == p] for p in dict.fromkeys(pair[at].tolist())})
    return stacks


@_check("t_basis_similarity")
def check_t_basis_similarity(grid) -> tuple[bool, float, str]:
    """Distance- and level-basis T per module, at each (n, k, n_cut, j0_pos) of ``grid``.

    Both bases of every module with one chain length are solved by one
    ``eigvalsh`` call, after :func:`_chain_T` has built the grid's distance-basis T.
    """
    pairs = []
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        hs = heun_mod.heun_spec(spec, n_cut, spectral.level_labels_x2(spec)[j0_pos])
        pairs.append((terwilliger.module_table(spec), hs))
    t_stacks = _chain_T(pairs)
    worst = 0.0
    for p, (table, hs) in enumerate(pairs):
        for dim, ms in terwilliger.size_groups(table.dim):
            level_basis = [_T_level_basis(table.labels[m], hs, table.spec) for m in ms]
            w1, w2 = np.split(np.linalg.eigvalsh(np.concatenate([t_stacks[p, dim], level_basis])), 2)
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


def _hahn_residuals(spec: GraphSpec):
    """(label, h2, h3) per module: the worst entries of the two quadratic commutator relations.

    With K1 = 2k(n-k)/(n(n-1)) A*, K2 = A and K3 = [K1, K2], evaluates

        [K2, K3] = a {K1, K2} + b K2 + c1 K1 + d1
        [K3, K1] = a K1^2     + b K1 + c2 K2 + d2

    per module, with a = -2, b = -2(n-2k)^2/n, c1 = -2n - (n-2k)^2, c2 = -4
    and central offsets d1 = -b c1/4 + 2(n-2k)(cas1 - cas2) and d2 built from
    the two Casimir values, which are constants on a module.  The module
    actions, and so the relations, are the same for every base vertex.
    """
    n, k = spec.n, spec.k
    a = -2.0
    b = -2.0 * (n - 2 * k) ** 2 / n
    c1 = -2.0 * n - (n - 2 * k) ** 2
    c2 = -4.0
    for label in terwilliger.enumerate_modules(spec):
        k2 = _A_action(label, spec)
        astar = [heun_mod.dual_eigenvalue_at_distance(i, spec) for i in label.distances]
        k1 = (2.0 * k * (n - k) / (n * (n - 1))) * np.diag(astar)
        k3 = k1 @ k2 - k2 @ k1
        cas1 = label.j1_x2 * (label.j1_x2 + 2) / 4.0
        cas2 = label.j2_x2 * (label.j2_x2 + 2) / 4.0
        d1 = -b * c1 / 4.0 + 2.0 * (n - 2 * k) * (cas1 - cas2)
        d2 = -2.0 * n + 4.0 * (cas1 + cas2) - b * b / 8.0 + b * n / 4.0
        eye = np.eye(label.dim)
        h2 = (k2 @ k3 - k3 @ k2) - (a * (k1 @ k2 + k2 @ k1) + b * k2 + c1 * k1 + d1 * eye)
        h3 = (k3 @ k1 - k1 @ k3) - (a * (k1 @ k1) + b * k1 + c2 * k2 + d2 * eye)
        yield label, float(np.max(np.abs(h2))), float(np.max(np.abs(h3)))


@_check("hahn_algebra_residuals")
def check_hahn_algebra(sizes) -> tuple[bool, float, str]:
    worst = 0.0
    for n, k in sizes:
        for _, h2, h3 in _hahn_residuals(GraphSpec(n, k)):
            worst = max(worst, h2, h3)
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
    configs, pairs = [], []
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        labels = spectral.level_labels_x2(spec)
        hs = heun_mod.heun_spec(spec, n_cut, labels[j0_pos])
        filling = FillingSpec(frozenset(labels[: j0_pos + 1]))
        sub = SubsystemSpec(frozenset(range(n_cut + 1)), default_base_vertex(spec))
        if heun_mod.plan(spec, filling, sub) != hs:
            raise ValueError("filling and subsystem do not plan to these cuts")
        table = terwilliger.module_table(spec)
        configs.append((spec, hs, filling, table))
        pairs += [(table, hs), (table, replace(hs, mu=hs.mu + 1.0))]
    t_stacks = _chain_T(pairs)
    worst = 0.0
    cuts_zero = control_ok = True
    skipped = 0
    for count, (spec, hs, filling, table) in enumerate(configs, 1):
        controls = []
        for label in terwilliger.enumerate_modules(spec):
            levels = terwilliger.module_admissible_levels(label, spec)
            if hs.j0_x2 in levels[:-1]:
                pos = levels.index(hs.j0_x2)
                cuts_zero = cuts_zero and _T_level_basis(label, hs, spec)[pos, pos + 1] == 0.0
        occupied = table.level_index(sorted(filling.occupied))[None, :]
        # the subsystem rows of each chain are the leading ones
        sizes = np.minimum(table.i_max, hs.n_cut) - table.i_min + 1
        for dim, ms in terwilliger.size_groups(table.dim):
            t, t_perturbed = t_stacks[2 * count - 2, dim], t_stacks[2 * count - 1, dim]
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
    entropies = iter([entropy_mod.von_neumann(s) for s in terwilliger.assemble_spectra(groups)])
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
