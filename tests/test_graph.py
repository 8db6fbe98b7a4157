"""Graph construction, normalization, and spmm against a dense oracle.

The oracle path never touches the CSR code: it builds a dense 0/1 matrix
straight from the edge list, normalizes it with dense degree arithmetic,
and multiplies with np.matmul.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from scalegnn import graph
from scalegnn.graph import (
    Graph,
    DataSplit,
    LabelVector,
    _csr_from_pairs,
    _index_dtype,
    add_self_loops,
    build_graph,
    csr_matmul,
    induced_subgraph,
    normalize_adjacency,
    spmm,
)
from scalegnn.instrument import op_counter
from scalegnn.samplers import partition_graph


def dense_from_edges(edges, n, symmetrize=False):
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        if symmetrize:
            a[v, u] = 1.0
    return a


def dense_normalize(a, kind, with_self_loops=True):
    a = a.copy()
    if with_self_loops:
        np.fill_diagonal(a, 1.0)
    d_out = a.sum(axis=1)
    d_in = a.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "row":
            out = np.where(d_out[:, None] > 0, a / d_out[:, None], 0.0)
        elif kind == "col":
            out = np.where(d_in[None, :] > 0, a / d_in[None, :], 0.0)
        else:
            s_out = np.where(d_out > 0, 1.0 / np.sqrt(d_out), 0.0)
            s_in = np.where(d_in > 0, 1.0 / np.sqrt(d_in), 0.0)
            out = s_out[:, None] * a * s_in[None, :]
    return out


def to_dense(adj):
    return adj.to_scipy().toarray()


def random_edges(rng, n, m):
    return rng.integers(0, n, size=(m, 2))


def test_build_symmetrize():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]
    assert g.is_symmetric


def test_build_dedup():
    g = build_graph([(0, 1), (0, 1)], 2)
    assert g.num_edges == 1


def test_build_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 3\)"):
        build_graph([(0, 3)], 3)


def test_build_sorted_rows():
    g = build_graph([(0, 5), (0, 2), (0, 4), (3, 1), (3, 0)], 6)
    assert list(g.neighbors(0)) == [2, 4, 5]
    assert list(g.neighbors(3)) == [0, 1]


def test_symmetry_detected_without_flag():
    g = build_graph([(0, 1), (1, 0), (1, 2), (2, 1)], 3)
    assert g.is_symmetric
    g2 = build_graph([(0, 1), (1, 2)], 3)
    assert not g2.is_symmetric


def test_self_loops_empty_graph():
    g = add_self_loops(build_graph([], 3))
    assert g.num_edges == 3
    assert all(list(g.neighbors(i)) == [i] for i in range(3))


def test_self_loops_idempotent():
    g = build_graph([(0, 0), (0, 1)], 2)
    g2 = add_self_loops(g)
    assert list(g2.neighbors(0)) == [0, 1]
    g3 = add_self_loops(g2)
    assert np.array_equal(g2.col_indices, g3.col_indices)


def test_self_loops_path():
    g = add_self_loops(build_graph([(0, 1)], 2, symmetrize=True))
    got = {(u, v) for u in range(2) for v in g.neighbors(u)}
    assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}


def reference_csr(n, src, dst):
    """Reference CSR from Python's sorted set of the (src, dst) pairs."""
    pairs = sorted(set(zip(src.tolist(), dst.tolist())))
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount([u for u, _ in pairs], minlength=n), out=row_offsets[1:])
    return row_offsets, np.array([v for _, v in pairs], dtype=np.int64)


def reference_self_loops(g):
    src = np.repeat(np.arange(g.num_nodes), np.diff(g.row_offsets))
    loops = np.arange(g.num_nodes)
    return reference_csr(g.num_nodes, np.concatenate([src, loops]),
                       np.concatenate([g.col_indices, loops]))


def assert_csr_equal(got, want):
    # every graph here is far below 2^31 nodes and entries: int32 indices
    for a, b in zip(got, want):
        assert a.dtype == np.int32 and np.array_equal(a, b)


@pytest.mark.parametrize("seed", range(12))
def test_self_loops_match_reference(seed):
    # random rows with some loops already present and the last nodes isolated
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 40))
    edges = random_edges(rng, n - 3, int(rng.integers(0, 4 * n)))
    loops = rng.choice(n - 3, size=(n - 3) // 2, replace=False)
    edges = np.concatenate([edges, np.stack([loops, loops], 1)])
    g = build_graph(edges, n, symmetrize=bool(seed % 2))
    got = add_self_loops(g)
    want = reference_self_loops(g)
    assert_csr_equal((got.row_offsets, got.col_indices), want)
    assert got.is_symmetric == g.is_symmetric
    again = add_self_loops(got)
    assert_csr_equal((again.row_offsets, again.col_indices), want)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_self_loops_edgeless_matches_reference(n):
    g = build_graph([], n)
    got = add_self_loops(g)
    assert_csr_equal((got.row_offsets, got.col_indices), reference_self_loops(g))


def test_self_loops_unsorted_rows_fall_back_to_sort():
    # a Graph built directly with unsorted, duplicate columns in its rows
    g = Graph(3, np.array([0, 3, 3, 6]), np.array([2, 0, 2, 1, 1, 0]))
    got = add_self_loops(g)
    want = (np.array([0, 2, 3, 6], dtype=np.int32), np.array([0, 2, 1, 0, 1, 2], dtype=np.int32))
    assert_csr_equal((got.row_offsets, got.col_indices), want)
    assert_csr_equal(want, reference_self_loops(g))


def test_csr_from_pairs_sorted_and_unsorted_match_reference():
    rng = np.random.default_rng(7)
    n = 30
    pairs = np.unique(random_edges(rng, n, 200), axis=0)  # strictly increasing
    want = reference_csr(n, pairs[:, 0], pairs[:, 1])
    assert_csr_equal(_csr_from_pairs(n, pairs[:, 0], pairs[:, 1]), want)
    shuffled = np.concatenate([pairs, pairs[:40]])[rng.permutation(pairs.shape[0] + 40)]
    assert_csr_equal(_csr_from_pairs(n, shuffled[:, 0], shuffled[:, 1]), want)
    repeated = np.repeat(pairs, 2, axis=0)  # sorted, but not strictly
    assert_csr_equal(_csr_from_pairs(n, repeated[:, 0], repeated[:, 1]), want)
    empty = np.zeros(0, dtype=np.int64)
    assert_csr_equal(_csr_from_pairs(4, empty, empty), (np.zeros(5, dtype=np.int64), empty))


def test_sym_norm_two_node_half():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    adj = normalize_adjacency(g, "sym", with_self_loops=True)
    assert np.allclose(adj.values, 0.5)
    assert adj.values.size == 4


def test_row_norm_edgeless_identity():
    adj = normalize_adjacency(build_graph([], 3), "row", with_self_loops=True)
    assert np.allclose(to_dense(adj), np.eye(3))


def test_row_norm_star():
    g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    adj = normalize_adjacency(g, "row", with_self_loops=False)
    dense = to_dense(adj)
    assert np.allclose(dense[0, 1:], 1.0 / 3.0)


def test_norm_sums_random():
    rng = np.random.default_rng(11)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        g = build_graph(random_edges(rng, n, int(rng.integers(0, 4 * n))), n)
        for kind in ("row", "col"):
            adj = normalize_adjacency(g, kind, with_self_loops=bool(trial % 2))
            dense = to_dense(adj)
            sums = dense.sum(axis=1) if kind == "row" else dense.sum(axis=0)
            nonzero = sums[np.abs(sums) > 0]
            assert np.all(np.abs(nonzero - 1.0) < 1e-9)


def test_sym_norm_symmetric_values_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        g = build_graph(random_edges(rng, n, 2 * n), n, symmetrize=True)
        dense = to_dense(normalize_adjacency(g, "sym", with_self_loops=True))
        assert np.array_equal(dense, dense.T)


def test_isolated_nodes_zero():
    g = build_graph([(0, 1), (1, 0)], 4)
    for kind in ("row", "col", "sym"):
        dense = to_dense(normalize_adjacency(g, kind, with_self_loops=False))
        assert np.all(dense[2:] == 0)
        assert np.all(dense[:, 2:] == 0)


def test_spmm_identity():
    g = add_self_loops(build_graph([], 5))
    adj = normalize_adjacency(g, "row", with_self_loops=False)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.array_equal(spmm(adj, x), x)


def test_spmm_two_node_half():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    adj = normalize_adjacency(g, "sym", with_self_loops=True)
    out = spmm(adj, np.eye(2))
    assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]])


def test_spmm_shape_mismatch():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    adj = normalize_adjacency(g, "sym")
    with pytest.raises(ValueError, match="mismatch"):
        spmm(adj, np.zeros((3, 2)))


def test_spmm_dense_oracle_50():
    rng = np.random.default_rng(3)
    edges = random_edges(rng, 50, 300)
    g = build_graph(edges, 50)
    x = rng.normal(size=(50, 7))
    for kind in ("row", "col", "sym"):
        adj = normalize_adjacency(g, kind, with_self_loops=True)
        oracle = dense_normalize(dense_from_edges(edges, 50), kind) @ x
        assert np.max(np.abs(spmm(adj, x) - oracle)) < 1e-12


def test_spmm_float32_dtype():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    adj = normalize_adjacency(g, "sym")
    out = spmm(adj, np.ones((2, 3), dtype=np.float32))
    assert out.dtype == np.float32


class _KernelSpy:
    """Stands in for scipy's _sparsetools in graph: records the rows each
    CSR kernel call covers, then runs the real kernel."""

    def __init__(self):
        from scipy.sparse import _sparsetools
        self.real, self.rows = _sparsetools, []

    def csr_matvec(self, n_row, *args):
        self.rows.append(n_row)
        self.real.csr_matvec(n_row, *args)

    def csr_matvecs(self, n_row, *args):
        self.rows.append(n_row)
        self.real.csr_matvecs(n_row, *args)


@pytest.fixture(params=[1, 2, 4], ids=["pool1", "pool2", "pool4"])
def split_all(request, monkeypatch):
    """Every eligible CSR product splits, whatever its size, on a product
    pool of the param's width (4 is more workers than the reference box's
    cores), with threads switching as often as they can. Yields (width,
    kernel spy)."""
    spy = _KernelSpy()
    monkeypatch.setattr(graph, "_SPLIT_MADDS", 1)
    monkeypatch.setattr(graph, "_pool_width", lambda: request.param)
    monkeypatch.setattr(graph, "_sparsetools", spy)
    graph._product_pool.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param, spy
    finally:
        sys.setswitchinterval(interval)
        if (pool := graph._product_pool()) is not None:
            pool.shutdown()
        graph._product_pool.cache_clear()


def _split_test_adjacency():
    """300 nodes without self-loops: node 0 links to every node up to 200,
    so row 0 holds over a quarter of the nnz and the first block cuts fall
    inside it; nodes 250 and up link to nothing, so their rows are empty."""
    rng = np.random.default_rng(11)
    star = [(0, v) for v in range(1, 200)]
    edges = np.concatenate([star, rng.integers(0, 250, size=(120, 2))])
    g = build_graph(edges, 300, symmetrize=True)
    return normalize_adjacency(g, "sym", with_self_loops=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 5, 128])
def test_split_spmm_matches_plain_product(split_all, dtype, width):
    pool_width, spy = split_all
    a = _split_test_adjacency()
    mat = a.to_scipy(dtype)
    assert np.diff(mat.indptr)[250:].max() == 0 and np.diff(mat.indptr)[0] > mat.nnz // 4
    x = np.random.default_rng(width).standard_normal((300, width)).astype(dtype)
    out = spmm(a, x)
    assert out.dtype == dtype and np.array_equal(out, mat @ x)
    if pool_width == 1:
        assert spy.rows == []
    else:  # blocks tile the rows; the cuts inside row 0 collapse
        assert sum(spy.rows) == 300 and 1 < len(spy.rows) <= 4 * pool_width


def test_split_spmm_vector_and_noncontiguous_x(split_all):
    a = _split_test_adjacency()
    x = np.random.default_rng(2).standard_normal((300, 16))
    for operand in (x[:, ::3], np.asfortranarray(x), x[:, 4]):
        assert not operand.flags.c_contiguous or operand.ndim == 1
        want = a.to_scipy() @ operand
        assert np.array_equal(spmm(a, operand), want)
        assert np.array_equal(csr_matmul(a.to_scipy(), operand), want)


def test_split_skips_csc_and_mixed_dtype(split_all):
    _, spy = split_all
    a = _split_test_adjacency()
    mat = a.to_scipy(np.float32)
    x = np.random.default_rng(4).standard_normal((300, 8))
    assert np.array_equal(csr_matmul(mat.T, x), mat.T.astype(np.float64) @ x)
    assert np.array_equal(spmm(a, x.astype(np.int64)), a.to_scipy() @ x.astype(np.int64))
    assert spy.rows == []


def test_split_counts_one_op_per_call(split_all):
    a = _split_test_adjacency()
    mat = a.to_scipy()
    x = np.ones((300, 5))
    op_counter.reset()
    spmm(a, x)
    csr_matmul(mat, x)
    spmm(a, x[:, 0])
    assert op_counter.snapshot() == {"spmm_calls": 3,
                                     "spmm_madds": mat.nnz * (5 + 5 + 1)}


def test_induced_triangle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3, symmetrize=True)
    sub, mapping = induced_subgraph(g, [0, 1])
    assert sub.num_nodes == 2 and sub.num_edges == 2
    assert list(sub.neighbors(0)) == [1]
    assert mapping[2] == -1


def test_induced_identity():
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3, symmetrize=True)
    sub, _ = induced_subgraph(g, np.arange(3))
    assert np.array_equal(sub.row_offsets, g.row_offsets)
    assert np.array_equal(sub.col_indices, g.col_indices)


def test_induced_disconnects():
    g = build_graph([(0, 1), (1, 2)], 3, symmetrize=True)
    sub, _ = induced_subgraph(g, [0, 2])
    assert sub.num_nodes == 2 and sub.num_edges == 0


def test_induced_composition():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 50))
        g = build_graph(random_edges(rng, n, 3 * n), n)
        outer = rng.permutation(n)[: int(rng.integers(2, n))]
        inner_pos = np.sort(rng.permutation(outer.size)[: max(1, outer.size // 2)])
        sub1, _ = induced_subgraph(g, outer)
        sub2, _ = induced_subgraph(sub1, inner_pos)
        direct, _ = induced_subgraph(g, outer[inner_pos])
        assert np.array_equal(sub2.row_offsets, direct.row_offsets)
        assert np.array_equal(sub2.col_indices, direct.col_indices)


def test_induced_empty():
    g = build_graph([(0, 1)], 2, symmetrize=True)
    sub, mapping = induced_subgraph(g, [])
    assert sub.num_nodes == 0 and sub.num_edges == 0
    assert np.all(mapping == -1)


def test_label_vector_bounds():
    LabelVector(np.array([0, 1, 2]), 3)
    with pytest.raises(ValueError):
        LabelVector(np.array([0, 3]), 3)


def test_split_disjoint():
    DataSplit(np.array([0, 1]), np.array([2]), np.array([3]))
    with pytest.raises(ValueError, match="overlap"):
        DataSplit(np.array([0, 1]), np.array([1]), np.array([3]))


# ------------------------------------------------------------ index dtypes


def test_index_dtype_is_int32_below_2_31_and_int64_from_it():
    # sizes only: nothing of that size is allocated
    assert _index_dtype(0, 0) == np.int32
    assert _index_dtype(2**31 - 1, 2**31 - 1) == np.int32
    assert _index_dtype(2**31, 5) == np.int64
    assert _index_dtype(5, 2**31) == np.int64
    assert _index_dtype(2**40, 2**40) == np.int64


def test_graph_indices_are_int32_and_shared_with_scipy():
    rng = np.random.default_rng(3)
    g = build_graph(random_edges(rng, 50, 200), 50)
    a = normalize_adjacency(g, "sym")
    sub, _ = induced_subgraph(g, np.arange(0, 50, 2))
    for h in (g, a.structure, sub):
        assert h.row_offsets.dtype == np.int32 and h.col_indices.dtype == np.int32
    for dtype in (np.float32, np.float64):
        mat = a.to_scipy(dtype)
        assert np.shares_memory(mat.indices, a.structure.col_indices)
        assert np.shares_memory(mat.indptr, a.structure.row_offsets)


def _scipy_pattern(n, src, dst):
    """Canonical 0/1 scipy CSR of the pairs (sorted, duplicates summed)."""
    m = sp.csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    m.sum_duplicates()
    m.data[:] = 1.0
    return m


def _assert_pattern(g, m):
    assert np.array_equal(g.row_offsets, m.indptr)
    assert np.array_equal(g.col_indices, m.indices)


@pytest.mark.parametrize("symmetric", [True, False])
def test_past_int32_keys_match_scipy_and_int64(symmetric):
    # n > 46341, where u * n + v no longer fits int32
    n, rng = 100_000, np.random.default_rng(5)
    edges = rng.integers(0, n, size=(2 * n, 2))
    if symmetric:
        edges = np.concatenate([edges, edges[:, ::-1]])
    g = build_graph(edges, n)  # the symmetry check decides
    m = _scipy_pattern(n, edges[:, 0], edges[:, 1])
    _assert_pattern(g, m)
    assert g.is_symmetric == symmetric == ((m != m.T).nnz == 0)

    _assert_pattern(add_self_loops(g), _scipy_pattern(
        n, np.concatenate([edges[:, 0], np.arange(n)]),
        np.concatenate([edges[:, 1], np.arange(n)])))

    nodes = np.sort(rng.choice(n, size=n // 3, replace=False))
    sub, mapping = induced_subgraph(g, nodes)
    want = m[nodes][:, nodes].tocsr()
    want.sort_indices()
    _assert_pattern(sub, want)
    assert np.array_equal(mapping[nodes], np.arange(nodes.size))

    wide = Graph(n, g.row_offsets.astype(np.int64), g.col_indices.astype(np.int64),
                 is_symmetric=g.is_symmetric)
    assert np.array_equal(partition_graph(g, 4).assignment,
                          partition_graph(wide, 4).assignment)
