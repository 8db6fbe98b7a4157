"""CSR graph storage, adjacency normalization, and sparse-dense products.

A graph's CSR index arrays (row offsets and column indices) are int32
when its node count and its number of entries are both below 2^31, and
int64 otherwise (_index_dtype), so a graph holds 4 bytes per entry until
it needs 8. Products of index values (the symmetry check's u * n + v keys)
are formed in int64. Graphs are plain CSR structure (no weights); weights
only ever come from normalization and live in NormalizedAdjacency. Both
types are frozen after construction and safe to share.

spmm and csr_matmul run a large CSR product (at least _SPLIT_MADDS
multiply-adds, nnz x width, with x already in the matrix's dtype) as row
blocks of about equal nnz on a thread pool: each block runs scipy's own
CSR kernel, which releases the GIL, into its rows of one output allocated
by the caller. Every row keeps its kernel and summation order, so the
result is bit-identical to mat @ x. Every other product (CSC, 1-D, mixed
dtype, small) is plain mat @ x. The pool is built on the first product
that splits, and again in a forked child. Its width is the number of
usable cores, capped by OMP_NUM_THREADS when that is set (as
SCALEGNN_NUM_THREADS sets it); at width 1 there is no pool and nothing
splits.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from scalegnn.instrument import op_counter


@dataclass(frozen=True)
class Graph:
    num_nodes: int
    # int32, or int64 at 2^31 nodes or entries and up (_index_dtype)
    row_offsets: np.ndarray  # len num_nodes+1
    col_indices: np.ndarray  # len num_edges
    is_symmetric: bool = False

    @property
    def num_edges(self) -> int:
        return int(self.col_indices.shape[0])

    def neighbors(self, u: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[u]:self.row_offsets[u + 1]]


@dataclass(frozen=True)
class NormalizedAdjacency:
    structure: Graph
    # float64 whatever the features' dtype, aligned with structure.col_indices:
    # sampling distributions are built from these
    values: np.ndarray
    norm_kind: str  # "sym" | "row" | "col"
    _scipy: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return self.structure.num_nodes

    def to_scipy(self, dtype=np.float64) -> sp.csr_matrix:
        """The matrix as scipy CSR with values in dtype, built on the first
        call per dtype and shared after it, so callers must not modify it.
        The forms of all dtypes share one set of index arrays: the
        structure's own, which scipy keeps as they are because their dtype
        is the one it would pick (a hand-built Graph's int64 indices are
        converted once, by the first form)."""
        dtype = np.dtype(dtype)
        mat = self._scipy.get(dtype)
        if mat is None:
            g, shape = self.structure, (self.num_nodes, self.num_nodes)
            held = next(iter(self._scipy.values()), None)
            indices, indptr = ((g.col_indices, g.row_offsets) if held is None
                               else (held.indices, held.indptr))
            mat = self._scipy[dtype] = sp.csr_matrix(
                (self.values.astype(dtype, copy=False), indices, indptr), shape=shape)
        return mat


@dataclass(frozen=True)
class LabelVector:
    labels: np.ndarray  # int64 class index per node
    num_classes: int

    def __post_init__(self):
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.size and (lab.min() < 0 or lab.max() >= self.num_classes):
            raise ValueError("label outside [0, num_classes)")
        object.__setattr__(self, "labels", lab)


@dataclass(frozen=True)
class DataSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        combined = np.concatenate([self.train, self.val, self.test])
        if combined.size != np.unique(combined).size:
            raise ValueError("split sets overlap")
        if combined.size and combined.min() < 0:
            raise ValueError("negative node index in split")


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """The dtype of a CSR structure's index arrays: int32 when its node
    count and its number of entries both fit below 2^31, int64 otherwise."""
    return np.dtype(np.int32 if max(num_nodes, nnz) < 2**31 else np.int64)


def _strictly_increasing(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether the (src, dst) pairs are in strictly increasing lexicographic
    order, i.e. already sorted and free of duplicates. O(E), with boolean
    temporaries only."""
    up = src[1:] > src[:-1]
    up |= (src[1:] == src[:-1]) & (dst[1:] > dst[:-1])
    return bool(up.all())


def _csr_from_pairs(num_nodes: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort by (src, dst), drop duplicates, return (row_offsets, col_indices)
    in _index_dtype.

    Pairs that are already strictly increasing skip the sort and the dedup.
    """
    if src.size and not _strictly_increasing(src, dst):
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    dtype = _index_dtype(num_nodes, src.size)
    row_offsets = np.zeros(num_nodes + 1, dtype=dtype)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=row_offsets[1:])
    return row_offsets, dst.astype(dtype)


def _check_symmetry(num_nodes: int, row_offsets: np.ndarray, col_indices: np.ndarray) -> bool:
    """Whether a sorted, deduplicated CSR (as _csr_from_pairs returns it)
    holds the reverse of every edge. The u * n + v keys are int64 whatever
    the index dtype (they pass 2^31 from n = 46341 on), built in place."""
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(row_offsets))
    rev = col_indices.astype(np.int64)
    rev *= num_nodes
    rev += src
    rev.sort()
    fwd = src  # already increasing
    fwd *= num_nodes
    fwd += col_indices
    return bool(np.array_equal(fwd, rev))


def build_graph(edge_list, num_nodes: int, symmetrize: bool = False) -> Graph:
    """Build a sorted, deduplicated CSR graph from an iterable/array of (u, v).

    With symmetrize=True every reverse edge is added before deduplication.
    Endpoint validation happens first and names the offending pair. The
    index arrays are in _index_dtype; an int64 edge array is used as it is
    and dropped once the CSR is built, before the symmetry check.
    """
    edges = np.asarray(list(edge_list) if not isinstance(edge_list, np.ndarray) else edge_list,
                       dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError("edge_list must be pairs of node indices")
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        u, v = edges[((edges < 0) | (edges >= num_nodes)).any(axis=1)][0]
        raise ValueError(f"edge ({u}, {v}) has endpoint outside [0, {num_nodes})")
    src, dst = edges[:, 0], edges[:, 1]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    row_offsets, col_indices = _csr_from_pairs(num_nodes, src, dst)
    # the pairs (a loaded bundle's whole edge file) are not needed past here
    del edge_list, edges, src, dst
    is_sym = True if symmetrize else _check_symmetry(num_nodes, row_offsets, col_indices)
    return Graph(num_nodes, row_offsets, col_indices, is_symmetric=is_sym)


def add_self_loops(g: Graph) -> Graph:
    """Return a graph where every node has its (v, v) edge. Idempotent.

    When every row is strictly increasing (as build_graph leaves it), each
    missing loop is inserted at its sorted position in one O(E) pass; other
    graphs are re-sorted and deduplicated.
    """
    n = g.num_nodes
    counts = np.diff(g.row_offsets)
    src = np.repeat(np.arange(n, dtype=_index_dtype(n, g.num_edges)), counts)
    dst = g.col_indices
    if not _strictly_increasing(src, dst):
        loops = np.arange(n, dtype=src.dtype)
        row_offsets, col_indices = _csr_from_pairs(
            n, np.concatenate([src, loops]), np.concatenate([dst, loops]))
        return Graph(n, row_offsets, col_indices, is_symmetric=g.is_symmetric)
    has_loop = np.zeros(n, dtype=bool)
    has_loop[src[dst == src]] = True
    missing = np.flatnonzero(~has_loop)
    # a row's loop goes after its columns below v
    below = np.bincount(src[dst < src], minlength=n)
    dtype = _index_dtype(n, g.num_edges + missing.size)
    col_indices = np.insert(dst.astype(dtype, copy=False),
                            g.row_offsets[missing] + below[missing], missing)
    row_offsets = np.zeros(n + 1, dtype=dtype)
    np.cumsum(counts + ~has_loop, out=row_offsets[1:])
    return Graph(n, row_offsets, col_indices, is_symmetric=g.is_symmetric)


def normalize_adjacency(g: Graph, kind: str, with_self_loops: bool = True) -> NormalizedAdjacency:
    """Weight the edges of g by degree.

    kind="row" divides each row by its out-degree, "col" divides each column
    by its in-degree, "sym" scales edge (u, v) by 1/sqrt(d_out(u) * d_in(v)).
    Self-loops, when requested, are added before degrees are computed.
    Isolated nodes get all-zero rows/columns instead of a division error.
    """
    if kind not in ("sym", "row", "col"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if with_self_loops:
        g = add_self_loops(g)
    values = degree_weights(g.row_offsets, g.col_indices, kind, g.is_symmetric)
    return NormalizedAdjacency(g, values, kind)


def degree_weights(row_offsets: np.ndarray, col_indices: np.ndarray, kind: str,
                   symmetric: bool = False) -> np.ndarray:
    """float64 weight of every entry of a CSR structure under norm kind
    (see normalize_adjacency), from its own out- and in-degrees. A
    symmetric structure's in-degrees are its row lengths, so it skips
    counting them."""
    n = row_offsets.size - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_offsets))
    dst = col_indices
    d_out = np.diff(row_offsets).astype(np.float64)
    d_in = d_out if symmetric else np.bincount(dst, minlength=n).astype(np.float64)
    with np.errstate(divide="ignore"):
        if kind == "row":
            inv = np.where(d_out > 0, 1.0 / d_out, 0.0)
            values = inv[src]
        elif kind == "col":
            inv = np.where(d_in > 0, 1.0 / d_in, 0.0)
            values = inv[dst]
        else:
            inv_out = np.where(d_out > 0, 1.0 / np.sqrt(d_out), 0.0)
            inv_in = np.where(d_in > 0, 1.0 / np.sqrt(d_in), 0.0)
            values = inv_out[src] * inv_in[dst]
    return values


# products below this many multiply-adds cost less than handing out blocks
_SPLIT_MADDS = 1 << 20
# several blocks per worker, handed out as workers free up, so a worker
# slowed by another thread (OpenBLAS's idle spin) takes fewer of them
_BLOCKS_PER_WORKER = 4


def _pool_width() -> int:
    """Usable cores, capped by OMP_NUM_THREADS when it holds a number."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    cap = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return max(1, min(cores, int(cap))) if cap.isdigit() else cores


@functools.cache
def _product_pool() -> ThreadPoolExecutor | None:
    """The product pool, None at width 1; built on first use."""
    width = _pool_width()
    return ThreadPoolExecutor(width, thread_name_prefix="scalegnn-spmm") if width > 1 else None


# a forked child has none of its parent's pool threads
os.register_at_fork(after_in_child=_product_pool.cache_clear)


def _csr_product(mat: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """mat @ x, split into row blocks on the product pool when mat is CSR,
    x is 2-D in mat's dtype and the product has at least _SPLIT_MADDS
    multiply-adds. A block calls the kernel mat @ x calls (csr_matvec at
    width 1, csr_matvecs otherwise) on its slice of indptr, with the full
    indices and data, and writes its rows of the one output."""
    width = x.shape[1] if x.ndim == 2 else 0
    if (mat.format != "csr" or x.dtype != mat.dtype or x.shape[0] != mat.shape[1]
            or mat.nnz * width < _SPLIT_MADDS or (pool := _product_pool()) is None):
        return mat @ x
    (m, n), indptr, nnz = mat.shape, mat.indptr, mat.nnz
    xs = np.ascontiguousarray(x).reshape(-1)
    out = np.zeros((m, width), dtype=x.dtype)
    flat = out.reshape(-1)
    blocks = _BLOCKS_PER_WORKER * _pool_width()
    cuts = np.searchsorted(indptr, np.arange(1, blocks) * (nnz / blocks))
    bounds = np.unique(np.concatenate(([0], cuts, [m])))

    def block(lo, hi):
        ptr = indptr[lo:hi + 1]
        if width == 1:
            _sparsetools.csr_matvec(hi - lo, n, ptr, mat.indices, mat.data, xs, flat[lo:hi])
        else:
            _sparsetools.csr_matvecs(hi - lo, n, width, ptr, mat.indices, mat.data, xs,
                                     flat[lo * width:hi * width])

    for done in [pool.submit(block, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]:
        done.result()
    return out


def _compute_dtype(x: np.ndarray) -> np.dtype:
    """The dtype a product with x runs in: x's own for float32 and float64
    (non-float input promotes to float64)."""
    return np.promote_types(x.dtype, np.float32)


def spmm(a: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product a @ x in x's dtype (float32 in, float32 out),
    with a's scipy form of that dtype (built once per adjacency and dtype).
    A large product runs as row blocks on the product pool (see the module
    docstring), bit-identical to the plain product. Counts one op on the
    global op counter."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[:, None]
        squeeze = True
    else:
        squeeze = False
    if x.shape[0] != a.num_nodes:
        raise ValueError(f"spmm shape mismatch: adjacency has {a.num_nodes} nodes, x has {x.shape[0]} rows")
    out = _csr_product(a.to_scipy(_compute_dtype(x)), x)
    op_counter.record_spmm(a.structure.num_edges, x.shape[1])
    return out[:, 0] if squeeze else out


def csr_matmul(mat: sp.spmatrix, x: np.ndarray) -> np.ndarray:
    """Sparse block @ dense in x's dtype, with the same op accounting as
    spmm. Samplers build blocks in the features' dtype, so the cast here
    only runs for a caller that mixes dtypes. A large CSR product splits
    as spmm's does; a CSC one (a block's transpose) does not."""
    dtype = _compute_dtype(x)
    if mat.dtype != dtype:
        mat = mat.astype(dtype)
    out = _csr_product(mat, x)
    op_counter.record_spmm(mat.nnz, x.shape[1] if x.ndim > 1 else 1)
    return out


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, np.ndarray]:
    """Vertex-induced subgraph on `nodes`, relabeled densely in given order.

    Returns (subgraph, mapping) where mapping[old] = new index or -1.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size != np.unique(nodes).size:
        raise ValueError("duplicate node in subgraph node set")
    if nodes.size and (nodes.min() < 0 or nodes.max() >= g.num_nodes):
        raise ValueError("subgraph node outside graph")
    mapping = np.full(g.num_nodes, -1, dtype=np.int64)
    mapping[nodes] = np.arange(nodes.size, dtype=np.int64)
    counts = (g.row_offsets[nodes + 1] - g.row_offsets[nodes]) if nodes.size else np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    if total:
        starts = g.row_offsets[nodes]
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        cols = g.col_indices[np.repeat(starts, counts) + offsets]
        rows_new = np.repeat(np.arange(nodes.size, dtype=np.int64), counts)
        cols_new = mapping[cols]
        keep = cols_new >= 0
        src, dst = rows_new[keep], cols_new[keep]
    else:
        src = dst = np.zeros(0, dtype=np.int64)
    row_offsets, col_indices = _csr_from_pairs(nodes.size, src, dst)
    return Graph(nodes.size, row_offsets, col_indices, is_symmetric=g.is_symmetric), mapping
