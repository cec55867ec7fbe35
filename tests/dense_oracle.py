"""Dense-oracle references for the level-by-level chop and the distances.

:func:`chopped_correlation_reference` sums every occupied eigenprojector
into the full C(n, k) x C(n, k) correlation projector and chops it once.
:func:`johnson_entanglement.spectral.chopped_correlation_oracle` cuts each
occupied level's eigenvector block to the subsystem rows before its product.
On a full-ball cut every entry takes the same floating-point operations, so
the two agree bit for bit; on any other cut each entry is a different sum of
at most C(n, k) products of unit-norm row entries, so they agree to within
2 C(n, k) 2^-53.

:func:`pairwise_distances` is the full integer distance matrix, which
:func:`johnson_entanglement.scheme.distances_from` and
:func:`johnson_entanglement.scheme.adjacency_matrix` must reproduce exactly.

:func:`adjacency_via_polynomial` rebuilds one A_i as its own product of i
full-size factors; :func:`johnson_entanglement.spectral.adjacency_polynomial_slabs`
reads every A_i off one product chain and must match it bit for bit.

:func:`level_blocks_reference` runs the sectored eigensolve from a
vertex-order A, lifts the eigenvectors straight back to vertex order and
checks them on the full square.  The cached blocks of
:func:`johnson_entanglement.spectral._level_blocks`, solved in layout order
throughout, must equal its blocks bit for bit and in memory order.
"""

import math

import numpy as np

from johnson_entanglement import spectral
from johnson_entanglement.scheme import adjacency_matrix, enumerate_vertices
from johnson_entanglement.spectral import eigenprojectors_oracle, subsystem_indices


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def chopped_correlation_reference(spec, filling, sub, cap=None) -> np.ndarray:
    """The summed ground-state projector restricted to the subsystem rows."""
    projectors = eigenprojectors_oracle(spec, cap)
    dim = spec.vertex_count
    chat = np.zeros((dim, dim))
    for j_x2 in sorted(filling.occupied):
        chat += projectors[j_x2]
    idx = subsystem_indices(spec, sub, cap)
    return _symmetrize(chat[np.ix_(idx, idx)])


def pairwise_distances(spec) -> np.ndarray:
    """C(n, k) x C(n, k) matrix of d(x, y) = k - |x intersect y|, by integer matmul."""
    verts = enumerate_vertices(spec, spec.vertex_count)
    ind = np.zeros((len(verts), spec.n), dtype=np.int64)
    for v in verts:
        ind[v.index, [e - 1 for e in v.subset]] = 1
    return spec.k - ind @ ind.T


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


def level_blocks_reference(spec) -> dict[int, np.ndarray]:
    """Each level's eigenvector block, keyed by doubled j, from a vertex-order pipeline.

    A is gathered into the pair-swap layout for the transform, and the
    lifted eigenvectors are scattered back to vertex order, checked against
    A on every entry and cut by level as columns of that matrix.
    """
    a = adjacency_matrix(1, spec)
    layout = spectral._pair_swap_sectors(spec)
    t = a[layout.perm]
    spectral._walsh_rows(t, layout)
    # A is symmetric, so (F^T A[perm])^T = A[:, perm] F, and its rows perm are A[perm][:, perm] F
    t = t.T[layout.perm]
    spectral._walsh_rows(t, layout)
    w, qt = spectral._lift_sectors(spectral._solve_sectors(t, layout, spec.vertex_count), layout)
    q = np.empty_like(qt)
    q[layout.perm] = qt
    if np.max(np.abs((q * w) @ q.T - a)) > 1e-9:
        raise ArithmeticError("eigendecomposition reconstruction error")
    return {j_x2: q[:, sel] for j_x2, sel in spectral._level_masks(w, spec).items()}
