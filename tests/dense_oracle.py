"""Dense references for the distance-kernel oracle, its chop and the distances.

:func:`level_blocks_reference` diagonalizes the whole C(n, k) x C(n, k)
adjacency matrix with one plain ``np.linalg.eigh`` call, in vertex order,
and cuts the eigenvectors by level.  :func:`chopped_correlation_reference`
sums the occupied blocks' products b b^T on the subsystem rows.  It shares
nothing with :func:`johnson_entanglement.spectral.chopped_correlation_oracle`,
which reads each entry off the exact kernel at the pair's distance.  Each
reference entry is a sum of at most C(n, k) products of unit-norm row
entries, so the two agree to within 2 C(n, k) 2^-53.

:func:`subsystem_indices` cuts the subsystem rows out of the canonical
vertex order, from :func:`johnson_entanglement.scheme.distances_from`.

:func:`pairwise_distances` is the full integer distance matrix, which
:func:`johnson_entanglement.scheme.distances_from` and
:func:`johnson_entanglement.scheme.adjacency_matrix` must reproduce exactly.

:func:`indicator_sum_distances` is the subsystem distance matrix built the
earlier way, each moved-element row summed from rows of ``np.eye(n)``;
:func:`johnson_entanglement.spectral._vertex_layout` sets the rows from
the combination indices, :func:`johnson_entanglement.spectral._layout_distances`
takes their product, and the two must match it exactly.

:func:`adjacency_via_polynomial` rebuilds one A_i as its own product of i
full-size factors; the battery's ``verify._adjacency_polynomial_slabs``
reads every A_i off one product chain and must match it bit for bit.

:func:`level_kernel_numerators` is the numerator m_j P_d(i) of the
eigenprojector E_j at each distance, summed as the Eberlein sum, which the
oracle's kernel must equal exactly.  :func:`level_kernel_reference` divides
it into an exact ``Fraction`` per level, and
:func:`correlation_kernel_reference` sums the occupied ones in ``Fraction``
and rounds each distance once; the oracle's kernel sums integer numerators
over their shared denominator and must give the same floats.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from johnson_entanglement.scheme import adjacency_matrix, distances_from, enumerate_vertices
from johnson_entanglement.spectral import level_degeneracy, level_labels_x2, theta_eigenvalue


@lru_cache(maxsize=4)
def level_blocks_reference(spec) -> dict[int, np.ndarray]:
    """Each level's eigenvector block, keyed by doubled j, from one plain eigh of A in vertex order."""
    w, q = np.linalg.eigh(adjacency_matrix(1, spec))
    thetas = {j_x2: theta_eigenvalue(j_x2, spec) for j_x2 in level_labels_x2(spec)}
    nearest = np.array(list(thetas))[np.argmin(np.abs(w[:, None] - np.array(list(thetas.values()))), axis=1)]
    return {j_x2: q[:, nearest == j_x2] for j_x2 in thetas}


def subsystem_indices(spec, sub) -> np.ndarray:
    """Canonical-order indices of the vertices at the selected distances."""
    return np.flatnonzero(np.isin(distances_from(sub.x0, spec), sorted(sub.distances)))


def chopped_correlation_reference(spec, filling, sub) -> np.ndarray:
    """The summed occupied eigenvector products, restricted to the subsystem rows and symmetrized."""
    blocks = level_blocks_reference(spec)
    idx = subsystem_indices(spec, sub)
    chat = np.zeros((len(idx), len(idx)))
    for j_x2 in sorted(filling.occupied):
        b = blocks[j_x2][idx]
        chat += b @ b.T
    return 0.5 * (chat + chat.T)


def pairwise_distances(spec) -> np.ndarray:
    """C(n, k) x C(n, k) matrix of d(x, y) = k - |x intersect y|, by integer matmul."""
    verts = enumerate_vertices(spec, spec.vertex_count)
    ind = np.zeros((len(verts), spec.n), dtype=np.int64)
    for v in verts:
        ind[v.index, [e - 1 for e in v.subset]] = 1
    return spec.k - ind @ ind.T


def indicator_sum_distances(spec, sub) -> np.ndarray:
    """The subsystem's integer distance matrix, rows in colex rank order, from (C x d x n) indicator sums."""
    n = spec.n
    x0 = np.zeros(n)
    x0[[e - 1 for e in sub.x0.subset]] = 1.0

    def subsets(elements, d):
        combos = list(combinations(elements, d))
        return np.eye(n)[np.array(combos, dtype=np.intp).reshape(len(combos), d)].sum(axis=1)

    inside, outside = np.flatnonzero(x0), np.flatnonzero(x0 == 0.0)
    moved = np.vstack(
        [(subsets(inside, d)[:, None] + subsets(outside, d)).reshape(-1, n) for d in sorted(sub.distances)]
    )
    moved = moved[np.lexsort((x0 + moved * (1.0 - 2.0 * x0)).T)]
    d = moved.sum(axis=1) / 2.0
    return (d[:, None] + d[None, :] - moved @ moved.T).astype(np.intp)


def adjacency_via_polynomial(i: int, spec, cap=None) -> np.ndarray:
    """A_i rebuilt as the degree-i dual Hahn polynomial of A, as matrices.

    A_i = (-1)^i C(k, i) R_i(A + k; 0, n-2k, k), expanded termwise so the
    product sweeps matrix factors (l(n-2k+1) + l^2) - (A + k).
    """
    n, k = spec.n, spec.k
    if not 0 <= i <= k:
        raise ValueError(f"distance index {i} outside 0..{k}")
    a = adjacency_matrix(1, spec, cap)
    dim = a.shape[0]
    eye = np.eye(dim)
    shifted = a + k * eye
    total = np.eye(dim)
    prod = np.eye(dim)
    coef = 1.0
    for r in range(i):
        coef *= (r - i) / ((1.0 + r) * (r - k) * (r + 1.0))
        prod = prod @ ((r * (n - 2 * k + 1) + r * r) * eye - shifted)
        total = total + coef * prod
    sgn = -1.0 if i % 2 else 1.0
    return sgn * math.comb(k, i) * total


def level_kernel_numerators(spec, j_x2: int) -> tuple[int, ...]:
    """m_j P_d(i) at each distance d = 0..k, with i = n/2 - j and the Eberlein sum
    P_d(i) = sum_t (-1)^t C(i, t) C(k-i, d-t) C(n-k-i, d-t)."""
    n, k, comb = spec.n, spec.k, math.comb
    i = (n - j_x2) // 2
    m = level_degeneracy(j_x2, spec)
    return tuple(
        m * sum((-1) ** t * comb(i, t) * comb(k - i, d - t) * comb(n - k - i, d - t) for t in range(d + 1))
        for d in range(k + 1)
    )


def level_kernel_reference(spec, j_x2: int) -> tuple[Fraction, ...]:
    """E_j's entry m_j P_d(i) / (C(n, k) C(k, d) C(n-k, d)) at each distance d = 0..k, as exact Fractions."""
    n, k, comb = spec.n, spec.k, math.comb
    return tuple(
        Fraction(p, spec.vertex_count * comb(k, d) * comb(n - k, d))
        for d, p in enumerate(level_kernel_numerators(spec, j_x2))
    )


def correlation_kernel_reference(spec, occupied) -> list[float]:
    """The occupied levels' :func:`level_kernel_reference` summed in Fraction, rounded once per distance."""
    kernels = [level_kernel_reference(spec, j_x2) for j_x2 in occupied]
    return [float(sum((f[d] for f in kernels), Fraction(0))) for d in range(spec.k + 1)]
