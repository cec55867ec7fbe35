import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_entanglement import scheme, verify
from johnson_entanglement.scheme import (
    CapacityError,
    GraphSpec,
    adjacency_matrix,
    default_base_vertex,
    dense_cap,
    distance,
    distances_from,
    dual_adjacency_matrix,
    embed_in_hypercube,
    enumerate_vertices,
    neighborhood_projector,
    neighborhood_size,
    rank_colex,
    vertex_from_subset,
)
from johnson_entanglement.verify import graph_sizes

from dense_oracle import pairwise_distances


def unrank_colex(rank: int, n: int, k: int) -> tuple[int, ...]:
    """Inverse of :func:`rank_colex` for k-subsets of {1..n}."""
    out = []
    c = n
    r = rank
    for t in range(k, 0, -1):
        while math.comb(c - 1, t) > r:
            c -= 1
        r -= math.comb(c - 1, t)
        out.append(c)
        c -= 1
    return tuple(reversed(out))


def test_spec_validation():
    GraphSpec(4, 2)
    with pytest.raises(ValueError):
        GraphSpec(4, 3)
    with pytest.raises(ValueError):
        GraphSpec(4, 0)


def test_enumerate_singletons():
    verts = enumerate_vertices(GraphSpec(3, 1))
    assert [v.subset for v in verts] == [(1,), (2,), (3,)]


def test_enumerate_colex_extremes():
    verts = enumerate_vertices(GraphSpec(4, 2))
    assert len(verts) == 6
    assert verts[0].subset == (1, 2)
    assert verts[-1].subset == (3, 4)


def test_enumerate_count_8_4():
    assert len(enumerate_vertices(GraphSpec(8, 4))) == math.comb(8, 4)


def test_enumerate_index_matches_rank():
    for v in enumerate_vertices(GraphSpec(7, 3)):
        assert v.index == rank_colex(v.subset)


def test_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_vertices(GraphSpec(30, 15))
    assert dense_cap(100) == 100
    spec = GraphSpec(6, 3)
    adjacency_matrix(1, spec)  # the cached indicators do not skip the check
    with pytest.raises(CapacityError):
        adjacency_matrix(1, spec, cap=10)
    with pytest.raises(CapacityError):
        distances_from(default_base_vertex(spec), spec, cap=10)


@given(st.integers(1, 12), st.integers(1, 6), st.data())
def test_colex_roundtrip(n, k, data):
    if k > n // 2:
        return
    r = data.draw(st.integers(0, math.comb(n, k) - 1))
    subset = unrank_colex(r, n, k)
    assert len(subset) == k
    assert rank_colex(subset) == r


def test_distance_examples():
    spec = GraphSpec(4, 2)
    x, y = vertex_from_subset({1, 2}, spec), vertex_from_subset({3, 4}, spec)
    assert distance(x, x, spec) == 0
    assert distance(x, y, spec) == 2
    spec6 = GraphSpec(7, 3)
    a = vertex_from_subset({1, 2, 3}, spec6)
    b = vertex_from_subset({1, 4, 5}, spec6)
    assert distance(a, b, spec6) == 2


def test_adjacency_identity_and_complete_graph():
    spec = GraphSpec(4, 2)
    assert np.array_equal(adjacency_matrix(0, spec), np.eye(6))
    k3 = adjacency_matrix(1, GraphSpec(3, 1))
    assert np.array_equal(k3, np.ones((3, 3)) - np.eye(3))


def test_adjacency_antipodal_rows():
    # J(4, 2) is the octahedron: exactly one vertex at distance 2 from each
    a2 = adjacency_matrix(2, GraphSpec(4, 2))
    assert np.array_equal(a2.sum(axis=1), np.full(6, 1.0))


def test_adjacency_partition_and_regularity():
    for n, k in [(5, 2), (6, 3), (7, 2)]:
        spec = GraphSpec(n, k)
        total = sum(adjacency_matrix(i, spec) for i in range(k + 1))
        assert np.array_equal(total, np.ones((spec.vertex_count,) * 2))
        assert np.all(adjacency_matrix(1, spec).sum(axis=1) == k * (n - k))


@pytest.mark.parametrize("n,k", graph_sizes(2, 9) + [(13, 6)])
def test_indicator_distances_match_distance_matrix(n, k):
    spec = GraphSpec(n, k)
    dist = pairwise_distances(spec)
    for v in enumerate_vertices(spec):
        got = distances_from(v, spec)
        assert got.dtype == dist.dtype and np.array_equal(got, dist[v.index])
    for i in range(k + 1):
        assert np.array_equal(adjacency_matrix(i, spec), (dist == i).astype(np.float64))


def test_adjacency_bad_index():
    with pytest.raises(ValueError):
        adjacency_matrix(3, GraphSpec(4, 2))


def test_dual_adjacency_values():
    spec = GraphSpec(4, 2)
    x0 = default_base_vertex(spec)
    diag = np.diag(dual_adjacency_matrix(x0, spec))
    assert diag[x0.index] == pytest.approx(3.0)  # n - 1 at distance 0
    verts = enumerate_vertices(spec)
    for v in verts:
        d = distance(x0, v, spec)
        expected = {0: 3.0, 1: 0.0, 2: -3.0}[d]
        assert diag[v.index] == pytest.approx(expected)
    assert len(set(np.round(diag, 9))) == spec.k + 1


def test_neighborhood_projectors():
    spec = GraphSpec(4, 2)
    x0 = default_base_vertex(spec)
    total = np.zeros((6, 6))
    for i in range(3):
        e_i = neighborhood_projector(x0, i, spec)
        total += e_i
        assert np.array_equal(e_i @ e_i, e_i)
    assert np.array_equal(total, np.eye(6))
    assert np.trace(neighborhood_projector(x0, 1, spec)) == 4.0
    assert np.trace(neighborhood_projector(x0, 0, spec)) == 1.0


def test_neighborhood_sizes_match_projector_traces():
    for n, k in [(6, 3), (7, 2), (8, 4)]:
        spec = GraphSpec(n, k)
        x0 = default_base_vertex(spec)
        for i in range(k + 1):
            assert neighborhood_size(spec, i) == int(
                np.trace(neighborhood_projector(x0, i, spec))
            )
        assert sum(neighborhood_size(spec, i) for i in range(k + 1)) == spec.vertex_count


def test_embedding_examples():
    assert embed_in_hypercube(vertex_from_subset({3}, GraphSpec(3, 1)), GraphSpec(3, 1)) == (0, 0, 1)
    spec = GraphSpec(4, 2)
    assert embed_in_hypercube(vertex_from_subset({1, 2}, spec), spec) == (1, 1, 0, 0)


@pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (8, 4)])
def test_embedding_doubles_distance(n, k):
    spec = GraphSpec(n, k)
    verts = enumerate_vertices(spec)
    vecs = [embed_in_hypercube(v, spec) for v in verts]
    for a in range(len(verts)):
        for b in range(a, len(verts)):
            hamming = sum(x != y for x, y in zip(vecs[a], vecs[b]))
            assert hamming == 2 * distance(verts[a], verts[b], spec)


def test_embedding_check_catches_one_wrong_distance(monkeypatch):
    sizes = ((6, 3), (7, 2))
    assert verify._check_embedding(sizes, None).passed
    real = scheme.distance_rows

    def corrupted(rows, spec, cap=None):
        d = real(rows, spec, cap)
        if (spec.n, spec.k) == (7, 2) and rows.start <= 11 < rows.stop:
            d[11 - rows.start, 4] += 1
        return d

    monkeypatch.setattr(scheme, "distance_rows", corrupted)
    result = verify._check_embedding(sizes, None)
    assert not result.passed
    assert result.worst == 2.0


def test_scheme_identity_check_holds_a_few_matrices_at_a_time():
    # one N x N matrix is built at a time next to the running sum of the A_i
    # (about 3.1 N x N arrays at the peak); pairwise A_i products and N x N
    # projector sums held 9
    spec = GraphSpec(12, 6)
    scheme._vertex_indicators(12, 6)
    tracemalloc.start()
    try:
        result = verify._check_scheme_identities(((12, 6),), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 4 * 8 * spec.vertex_count**2, peak


@pytest.mark.parametrize("fault", ["split entry", "off-diagonal projector"])
def test_scheme_identity_check_catches_a_broken_partition(fault, monkeypatch):
    # A_2 and A_3 sharing a distance-2 entry as 0.5 + 0.5 still sum to J,
    # so only the 0/1 test sees it; a projector entry off the diagonal is
    # counted, as the diagonals alone resolve the identity
    sizes = ((6, 3),)
    assert verify._check_scheme_identities(sizes, None).worst <= 1e-10
    real_adjacency, real_projector = scheme.adjacency_matrix, scheme.neighborhood_projector
    y = int(np.flatnonzero(real_adjacency(2, GraphSpec(6, 3))[0])[0])

    def split(i, spec, cap=None):
        a = real_adjacency(i, spec, cap)
        if i in (2, 3):
            a[0, y] = a[y, 0] = 0.5
        return a

    def leaky(x0, i, spec, cap=None):
        e = real_projector(x0, i, spec, cap)
        e[0, 1] = 1.0 if i == 0 else 0.0
        return e

    if fault == "split entry":
        monkeypatch.setattr(scheme, "adjacency_matrix", split)
    else:
        monkeypatch.setattr(scheme, "neighborhood_projector", leaky)
    assert not verify._check_scheme_identities(sizes, None).passed


@given(st.integers(2, 10), st.integers(1, 5), st.data())
def test_distance_symmetry_and_bounds(n, k, data):
    if k > n // 2:
        return
    spec = GraphSpec(n, k)
    count = spec.vertex_count
    i = data.draw(st.integers(0, count - 1))
    j = data.draw(st.integers(0, count - 1))
    x = vertex_from_subset(unrank_colex(i, n, k), spec)
    y = vertex_from_subset(unrank_colex(j, n, k), spec)
    d = distance(x, y, spec)
    assert d == distance(y, x, spec)
    assert 0 <= d <= k
    assert (d == 0) == (x.subset == y.subset)
