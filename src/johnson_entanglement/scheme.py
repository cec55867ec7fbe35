"""Johnson graph J(n, k) combinatorics.

Vertices are the k-subsets of {1..n}; two vertices are adjacent when their
subsets differ by a single element, and d(x, y) = k - |x intersect y|.  Every
dense matrix in the package is indexed by one fixed vertex order:
colexicographic, whose rank is O(k).  Dense objects are only built
below a configurable cap; the module-decomposition routes never need them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "DEFAULT_DENSE_CAP",
    "DENSE_CAP_ENV",
    "CapacityError",
    "ConfigError",
    "GraphSpec",
    "Vertex",
    "dense_cap",
    "rank_colex",
    "enumerate_vertices",
    "vertex_from_subset",
    "default_base_vertex",
    "distance",
    "distances_from",
    "distance_rows",
    "adjacency_matrix",
    "dual_adjacency_matrix",
    "neighborhood_projector",
    "embed_in_hypercube",
    "neighborhood_size",
    "shell_sizes",
]

DEFAULT_DENSE_CAP = 20_000
DENSE_CAP_ENV = "JE_DENSE_CAP"


class CapacityError(RuntimeError):
    """An oracle-scale dense object would exceed the configured cap."""


class ConfigError(ValueError):
    """Invalid command configuration (exit code 2)."""


def dense_cap(override: int | None = None) -> int:
    """Effective dense-matrix cap: explicit override, else env, else default."""
    if override is not None:
        return override
    env = os.environ.get(DENSE_CAP_ENV)
    try:
        return int(env) if env else DEFAULT_DENSE_CAP
    except ValueError:
        raise ConfigError(f"{DENSE_CAP_ENV} must be an integer, got {env!r}") from None


@dataclass(frozen=True)
class GraphSpec:
    """The pair (n, k) defining J(n, k), with 1 <= k <= n/2."""

    n: int
    k: int

    def __post_init__(self):
        if self.k < 1 or 2 * self.k > self.n:
            raise ValueError(f"need 1 <= k <= n/2, got n={self.n}, k={self.k}")

    @property
    def vertex_count(self) -> int:
        return math.comb(self.n, self.k)


@dataclass(frozen=True)
class Vertex:
    """A k-subset of {1..n} together with its colexicographic rank."""

    subset: tuple[int, ...]
    index: int


def rank_colex(subset: tuple[int, ...]) -> int:
    """Colexicographic rank of a strictly increasing subset of {1..n}."""
    return sum(math.comb(c - 1, t + 1) for t, c in enumerate(subset))


def _require_capacity(spec: GraphSpec, cap: int | None) -> None:
    limit = dense_cap(cap)
    if spec.vertex_count > limit:
        raise CapacityError(
            f"J({spec.n},{spec.k}) has {spec.vertex_count} vertices, over the dense cap {limit}"
        )


def enumerate_vertices(spec: GraphSpec, cap: int | None = None) -> list[Vertex]:
    """All C(n, k) vertices in colexicographic order; index equals position."""
    _require_capacity(spec, cap)
    subsets = sorted(combinations(range(1, spec.n + 1), spec.k), key=lambda s: s[::-1])
    return [Vertex(s, r) for r, s in enumerate(subsets)]


def vertex_from_subset(subset, spec: GraphSpec) -> Vertex:
    """Canonical Vertex for an iterable of k distinct elements of {1..n}."""
    s = tuple(sorted(subset))
    if len(s) != spec.k or len(set(s)) != spec.k:
        raise ValueError(f"subset {s!r} is not a {spec.k}-subset")
    if s[0] < 1 or s[-1] > spec.n:
        raise ValueError(f"subset {s!r} has elements outside 1..{spec.n}")
    return Vertex(s, rank_colex(s))


def default_base_vertex(spec: GraphSpec) -> Vertex:
    """The colex-first vertex {1..k}; any other choice is a relabeling."""
    return Vertex(tuple(range(1, spec.k + 1)), 0)


def distance(x: Vertex, y: Vertex, spec: GraphSpec) -> int:
    """Graph distance k - |x intersect y|."""
    return spec.k - len(set(x.subset) & set(y.subset))


@lru_cache(maxsize=8)
def _vertex_indicators(n: int, k: int) -> np.ndarray:
    """Read-only C(n, k) x n 0/1 matrix: row x marks the elements of vertex x.

    |x intersect y| is the dot product of two rows, so every distance comes
    from one float64 BLAS product of integers at most k: exact.  The capacity
    check is :func:`_indicators`'s.
    """
    spec = GraphSpec(n, k)
    elements = np.array([v.subset for v in enumerate_vertices(spec, spec.vertex_count)]) - 1
    ind = np.zeros((len(elements), n))
    ind[np.arange(len(elements))[:, None], elements] = 1.0
    ind.flags.writeable = False
    return ind


def _indicators(spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    _require_capacity(spec, cap)
    return _vertex_indicators(spec.n, spec.k)


def distances_from(x0: Vertex, spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Integer vector of d(x0, x) over all vertices in canonical order."""
    ind = _indicators(spec, cap)
    return (spec.k - ind @ ind[x0.index]).astype(np.int64)


def distance_rows(rows: slice, spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Integer distances d(x, y) from each vertex x of ``rows``, a slice of the canonical order, to every vertex y."""
    ind = _indicators(spec, cap)
    return (spec.k - ind[rows] @ ind.T).astype(np.int64)


def adjacency_matrix(i: int, spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """i-th distance matrix A_i: entry 1 where d(x, y) = i.  A_0 is the identity."""
    if not 0 <= i <= spec.k:
        raise ValueError(f"distance index {i} outside 0..{spec.k}")
    ind = _indicators(spec, cap)
    return (ind @ ind.T == spec.k - i).astype(np.float64)


def dual_adjacency_matrix(x0: Vertex, spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Dual adjacency relative to x0: diagonal with entries affine in d(x0, x).

    The eigenvalue on a vertex at distance d is n - 1 - n(n-1) d / (k(n-k)),
    so the entry at x0 itself is n - 1 and there are k + 1 distinct values.
    """
    n, k = spec.n, spec.k
    d = distances_from(x0, spec, cap).astype(np.float64)
    return np.diag(n - 1.0 - n * (n - 1.0) / (k * (n - k)) * d)


def neighborhood_projector(x0: Vertex, i: int, spec: GraphSpec, cap: int | None = None) -> np.ndarray:
    """Diagonal 0/1 projector onto the vertices at distance i from x0."""
    if not 0 <= i <= spec.k:
        raise ValueError(f"distance index {i} outside 0..{spec.k}")
    d = distances_from(x0, spec, cap)
    return np.diag((d == i).astype(np.float64))


def embed_in_hypercube(x: Vertex, spec: GraphSpec) -> tuple[int, ...]:
    """Indicator tuple of length n; Hamming distance doubles graph distance."""
    chosen = set(x.subset)
    return tuple(1 if pos in chosen else 0 for pos in range(1, spec.n + 1))


def neighborhood_size(spec: GraphSpec, i: int) -> int:
    """|Gamma_i(x0)| = C(k, i) C(n-k, i), with no dense enumeration."""
    if not 0 <= i <= spec.k:
        raise ValueError(f"distance index {i} outside 0..{spec.k}")
    return math.comb(spec.k, i) * math.comb(spec.n - spec.k, i)


@lru_cache(maxsize=256)
def shell_sizes(spec: GraphSpec) -> tuple[int, ...]:
    """Every :func:`neighborhood_size` of the graph, i = 0..k, computed once per graph."""
    return tuple(neighborhood_size(spec, i) for i in range(spec.k + 1))
