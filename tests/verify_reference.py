"""Per-module references for the stacked checks of ``johnson_entanglement.verify``.

The battery evaluates every module of one chain length, across all the
graphs a check is given, as one array stack.  These are the scalar forms it
replaced, one module at a time and on Python ints where the formulas are
integer:

* :func:`module_admissible_levels`: a module's doubled levels, one list;
* :func:`A_action`, :func:`Astar_coefficients` and :func:`T_level_basis`:
  A on a module chain, A* and T in the module's level basis;
* :func:`hahn_residuals`: the two quadratic commutator relations' residual
  matrices on one module;
* the ``*_worst`` functions: each rewritten check's loop over graphs, modules
  and configurations, returning the worst metric (and for the commutant, the
  cut verdict), which the stacked check must equal with ``==``.
"""

import math

import numpy as np

from johnson_entanglement import entropy as entropy_mod
from johnson_entanglement import heun as heun_mod
from johnson_entanglement import spectral, terwilliger
from johnson_entanglement.scheme import GraphSpec, default_base_vertex
from johnson_entanglement.spectral import FillingSpec, SubsystemSpec


def module_admissible_levels(label, spec: GraphSpec) -> list[int]:
    """Doubled j labels coupled inside the module: max(|j1-j2|, n/2-k) .. j1+j2."""
    lo = max(abs(label.j1_x2 - label.j2_x2), spec.n - 2 * spec.k)
    return list(range(lo, label.j1_x2 + label.j2_x2 + 1, 2))


def A_action(label, spec: GraphSpec) -> np.ndarray:
    """A on the module chain by ascending distance, from :func:`.terwilliger.chain_ladder`."""
    a, b = terwilliger.chain_ladder(spec.n, spec.k, label.j1_x2, label.j2_x2, np.array(label.distances))
    return heun_mod._tridiagonal(b[None], a[None, :-1])[0]


def Astar_coefficients(j_x2: int, label, spec: GraphSpec) -> tuple[float, float]:
    """Ladder weight a*_j and diagonal b*_j of A* in the module's level basis, over Python ints.

    a*_j couples j to j - 1 and carries the square root of a product that
    vanishes at the admissible-range edges.  For a one-row chain only b* is
    meaningful and it equals the dual eigenvalue of that single row.
    """
    n, k = spec.n, spec.k
    j1, j2 = label.j1_x2, label.j2_x2
    if not abs(j1 - j2) <= j_x2 <= j1 + j2:
        raise ValueError(f"level j_x2={j_x2} outside the module's coupling range")
    pref = n * (n - 1) / (k * (n - k))
    mm = n - 2 * k
    num = (j_x2**2 - mm**2) * (j_x2**2 - (j1 - j2) ** 2) * ((j1 + j2 + 2) ** 2 - j_x2**2)
    if j_x2 <= 1 or num <= 0:
        a_star = 0.0
    else:
        a_star = pref * math.sqrt(num / ((j_x2**2 - 1) * j_x2**2)) / 8.0
    base = -(n - 1) * (n - 2 * k) / (2.0 * k)
    swing = n * (n - 1) * (n - 2 * k) / (2.0 * k * (n - k))
    ratio = 0.0 if j_x2 == 0 else (j1 + j2 + 2) * (j1 - j2) / (2.0 * j_x2 * (j_x2 + 2))
    return a_star, base + swing * (0.5 + ratio)


def T_level_basis(label, hs, spec: GraphSpec) -> np.ndarray:
    """T on the module in the level basis, where its cut sits after j0."""
    levels = module_admissible_levels(label, spec)
    a_star, b_star = np.array([Astar_coefficients(j_x2, label, spec) for j_x2 in levels]).T
    th = np.array([spectral.theta_eigenvalue(j_x2, spec) for j_x2 in levels])
    diag, off = hs.mu * b_star + hs.nu * th + 2.0 * b_star * th, a_star[1:] * ((th[1:] + th[:-1]) + hs.mu)
    return heun_mod._tridiagonal(diag[None], off[None])[0]


def hahn_residuals(label, spec: GraphSpec) -> tuple[np.ndarray, np.ndarray]:
    """Residual matrices H2, H3 of [K2, K3] = a {K1, K2} + b K2 + c1 K1 + d1 and [K3, K1] = a K1^2 + b K1 + c2 K2 + d2."""
    n, k = spec.n, spec.k
    a = -2.0
    b = -2.0 * (n - 2 * k) ** 2 / n
    c1 = -2.0 * n - (n - 2 * k) ** 2
    c2 = -4.0
    k2 = A_action(label, spec)
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
    return h2, h3


def action_convention_worst(sizes) -> float:
    worst = 0.0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        for label in terwilliger.enumerate_modules(spec):
            got = np.linalg.eigvalsh(A_action(label, spec))
            levels = module_admissible_levels(label, spec)
            want = np.sort([spectral.theta_eigenvalue(j, spec) for j in levels])
            worst = max(worst, float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want)))))
    return worst


def t_basis_similarity_worst(grid) -> float:
    worst = 0.0
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        hs = heun_mod.heun_spec(spec, n_cut, spectral.level_labels_x2(spec)[j0_pos])
        for label in terwilliger.enumerate_modules(spec):
            w1 = np.linalg.eigvalsh(heun_mod.build_T(label, hs, spec))
            w2 = np.linalg.eigvalsh(T_level_basis(label, hs, spec))
            worst = max(worst, float(np.max(np.abs(w1 - w2))) / max(1.0, float(np.max(np.abs(w1)))))
    return worst


def hahn_algebra_worst(sizes) -> float:
    worst = 0.0
    for n, k in sizes:
        spec = GraphSpec(n, k)
        for label in terwilliger.enumerate_modules(spec):
            h2, h3 = hahn_residuals(label, spec)
            worst = max(worst, float(np.max(np.abs(h2))), float(np.max(np.abs(h3))))
    return worst


def level_degeneracies_worst(sizes, cap=None) -> float:
    from johnson_entanglement.verify import _eigenprojector_traces

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
    return worst


def cg_orthonormality_worst(sizes) -> float:
    worst = 0.0
    for spec in [GraphSpec(n, k) for n, k in sizes] + [GraphSpec(30, 15), GraphSpec(29, 13)]:
        table = terwilliger.module_table(spec)
        for dim, ms in terwilliger.size_groups(table.dim):
            steps = np.arange(dim)
            g = table.entries(ms, table.i_min[ms, None] + steps, table.level_lo[ms, None] + steps)
            eye = np.eye(dim)
            worst = max(worst, float(np.max(np.abs(g.swapaxes(1, 2) @ g - eye))))
            worst = max(worst, float(np.max(np.abs(g @ g.swapaxes(1, 2) - eye))))
    return worst


def heun_commutant_worst(grid) -> tuple[bool, float]:
    """Whether every cut coupling of T, in both bases, is an exact zero, and the worst [C, T] residual, one module at a time."""
    worst = 0.0
    cuts_zero = True
    for n, k, n_cut, j0_pos in grid:
        spec = GraphSpec(n, k)
        labels = spectral.level_labels_x2(spec)
        hs = heun_mod.heun_spec(spec, n_cut, labels[j0_pos])
        filling = FillingSpec(frozenset(labels[: j0_pos + 1]))
        sub = SubsystemSpec(frozenset(range(n_cut + 1)), default_base_vertex(spec))
        for label in terwilliger.enumerate_modules(spec):
            levels = module_admissible_levels(label, spec)
            if hs.j0_x2 in levels[:-1]:
                pos = levels.index(hs.j0_x2)
                cuts_zero = cuts_zero and T_level_basis(label, hs, spec)[pos, pos + 1] == 0.0
            size = min(label.i_max, n_cut) - label.i_min + 1
            if size <= 0:
                continue
            t = heun_mod.build_T(label, hs, spec)
            if size < label.dim:
                cuts_zero = cuts_zero and t[size - 1, size] == 0.0
            c = terwilliger.module_correlation_block(label, filling, sub, spec)
            worst = max(worst, float(np.max(np.abs(c @ t[:size, :size] - t[:size, :size] @ c))))
    return cuts_zero, worst


def mirror_symmetry_worst(sizes) -> float:
    worst = 0.0
    for n, k in sizes:
        if n != 2 * k:
            continue
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        filling = FillingSpec(frozenset(spectral.level_labels_x2(spec)[: max(1, (k + 1) // 3)]))
        values = [
            entropy_mod.von_neumann(terwilliger.assemble_spectrum(spec, filling, SubsystemSpec(frozenset({i}), x0)))
            for i in range(k + 1)
        ]
        worst = max([worst, *(abs(s_i - s_mirror) for s_i, s_mirror in zip(values, values[::-1]))])
    return worst



def module_stacks(spec: GraphSpec):
    """(label, stack, s) for every module of the graph: its chain-length stack in ``verify._chain_groups`` and its place there."""
    from johnson_entanglement.verify import _chain_groups

    table = terwilliger.module_table(spec)
    for at, stack in _chain_groups([table]):
        for s, m in enumerate(at.tolist()):
            yield table.labels[m], stack, s


def stacked_hahn_maxima(spec: GraphSpec):
    """(label, worst |H2|, worst |H3|) of every module of the graph, from the battery's stacked residuals."""
    from johnson_entanglement.verify import _hahn_stack

    for label, stack, s in module_stacks(spec):
        h2, h3 = (float(np.max(np.abs(h[s]))) for h in _hahn_stack(stack))
        yield label, h2, h3
