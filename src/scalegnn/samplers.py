"""Mini-batch samplers: node-wise fanout, layer-wise importance, subgraph-wise.

Every sampler returns a BatchPlan: per-layer node sets B_0..B_K plus sparse
blocks mapping features on B_{l+1} to aggregated features on B_l. Blocks are
scipy CSR with importance/normalization weights baked into the values, so a
model's forward pass is just block @ h per layer. The weights are computed
from the adjacency's float64 values and stored in the block's dtype (the
features' dtype in a trial, float64 by default); the draws never depend
on it.

Both sampled block stacks are unbiased estimates of Â's aggregation,
as their papers define them. Node-wise sampling (GraphSAGE) keeps
min(Q, deg) of a row's deg entries, uniformly, and scales each kept
entry by deg / min(Q, deg), the inverse of its inclusion probability.
Layer-wise sampling draws Q nodes per layer from the neighbourhood
N(B_l) of the layer below: by the global squared row norms of Â
(FastGCN), or by q(v) proportional to sum over u in B_l of Â[u, v]^2,
which follows the layer (LADIES). Its node selection uses randomized
systematic sampling with target inclusion probability min(1, Q * p(v))
(certainty units clamped and the remainder re-solved). That makes the
per-node inclusion probability exact, so the 1/(Q p(v)) importance
weights give an exactly unbiased estimate of the full aggregation, which
plain sequential without-replacement draws do not (their realized
inclusion probabilities drift from Q*p for skewed p).

A trial builds what its sampler draws from once, in trainers._plan_source:
the clustergcn partition, or the table (fastgcn's layer distribution,
saint-node CDF, saint-edge table) it passes prebuilt to every draw. Called
one-shot without it, a sampler builds its own table. LADIES has no such
table: its distribution is a layer's, built from the entries the layer
gathers.

Blocks are built as CSR directly, with no COO -> CSR conversion: columns
come from a rank lookup (rank[node_set] = arange) into the next node set,
row pointers from the per-row kept counts (node-wise) or, for a block
restricted to a column set, from where each row starts among the kept
entries. A subgraph plan's block is such a restriction of the normalized
adjacency's structure (self-loops included when it has them) to the node
set, re-weighted by the subgraph's own degrees, so no subgraph graph or
adjacency is built. The
partitioner's farthest-point sweep prunes each BFS to the nodes it brings
closer, and its growth and rebalance passes are vectorized (see
partition_graph).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from scalegnn.graph import Graph, NormalizedAdjacency, build_graph, degree_weights


@dataclass
class BatchPlan:
    node_sets: list  # B_0..B_K, global node ids, each sorted unique
    blocks: list  # blocks[l]: csr of shape (|B_l|, |B_{l+1}|)
    shared: bool = False  # subgraph-wise: one node set, one block for all layers

    @property
    def target_nodes(self) -> np.ndarray:
        return self.node_sets[0]

    def nodes(self, l: int) -> np.ndarray:
        return self.node_sets[0] if self.shared else self.node_sets[l]

    def block(self, l: int) -> sp.csr_matrix:
        return self.blocks[0] if self.shared else self.blocks[l]

    def self_positions(self, l: int) -> np.ndarray:
        """Position of each node of B_l inside B_{l+1}, -1 where absent."""
        lower = self.nodes(l)
        if self.shared:
            return np.arange(lower.size, dtype=np.int64)
        upper = self.nodes(l + 1)
        size = int(max(lower.max(initial=-1), upper.max(initial=-1))) + 1
        return _rank(upper, size)[lower]


@dataclass
class Partitioning:
    assignment: np.ndarray  # per-node cluster id
    num_clusters: int

    def cluster_nodes(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == c).astype(np.int64)


def _gather_neighborhood(g: Graph, rows: np.ndarray):
    """(per-row entry counts, data indices) of the given CSR rows' entries,
    in row order, vectorized. The row of each entry is np.repeat(rows,
    counts) and its column g.col_indices[data indices], which a caller
    gathers only for the entries it needs."""
    counts = g.row_offsets[rows + 1] - g.row_offsets[rows]
    total = int(counts.sum())
    if total == 0:
        return counts, np.zeros(0, dtype=np.int64)
    first = np.cumsum(counts) - counts  # where each row's entries start in the gather
    return counts, np.arange(total) + np.repeat(g.row_offsets[rows] - first, counts)


def _unique_nodes(nodes: np.ndarray, num_nodes: int) -> np.ndarray:
    """np.unique(nodes) for node ids below num_nodes, by marking, sort-free."""
    mark = np.zeros(num_nodes, dtype=bool)
    mark[nodes] = True
    return np.flatnonzero(mark)


def _rank(nodes: np.ndarray, size: int) -> np.ndarray:
    """Lookup table over node ids below size: rank[nodes[i]] = i, -1 elsewhere."""
    rank = np.full(size, -1, dtype=np.int64)
    rank[nodes] = np.arange(nodes.size)
    return rank


def _indptr(per_row: np.ndarray) -> np.ndarray:
    """CSR row pointers from per-row entry counts."""
    indptr = np.zeros(per_row.size + 1, dtype=np.int64)
    np.cumsum(per_row, out=indptr[1:])
    return indptr


def _restrict(struct: Graph, rows: np.ndarray, cols: np.ndarray):
    """(indices, indptr, data positions) of the CSR block of struct's
    entries from `rows` into `cols` (both sorted unique node ids)."""
    counts, didx = _gather_neighborhood(struct, rows)
    pos = _rank(cols, struct.num_nodes)[struct.col_indices[didx]]
    kept = np.flatnonzero(pos >= 0)  # taking by position is faster than by mask
    indptr = kept.searchsorted(_indptr(counts))  # kept entries before each row's first
    return pos[kept], indptr, didx[kept]


def _restrict_block(a: NormalizedAdjacency, rows: np.ndarray, cols: np.ndarray,
                    col_weights=None, dtype=np.float64) -> sp.csr_matrix:
    """CSR block of a with all edges from `rows` into `cols` (both sorted
    unique node ids), optionally scaling column v by col_weights[v-position],
    with values in dtype."""
    indices, indptr, didx = _restrict(a.structure, rows, cols)
    data = a.values[didx]
    if col_weights is not None:
        # equivalent to block @ diag(col_weights) without the sparse matmul
        data *= np.asarray(col_weights, dtype=np.float64)[indices]
    return sp.csr_matrix((data.astype(dtype, copy=False), indices, indptr),
                         shape=(rows.size, cols.size))


def _smallest_per_row(counts: np.ndarray, keys: np.ndarray, Q: int) -> np.ndarray:
    """Mask over row-grouped keys (row i holds counts[i] consecutive entries)
    that keeps each row's min(Q, count) smallest keys.

    Rows with count <= Q are kept whole. Longer rows are grouped by count
    rounded up to a power of two, padded with inf and argpartitioned per
    group, so the padded work stays under twice the entries.
    """
    keep = np.repeat(counts <= Q, counts)
    big = np.flatnonzero(counts > Q)
    if Q < 1 or big.size == 0:
        return keep
    starts = (np.cumsum(counts) - counts)[big]
    widths = 1 << np.ceil(np.log2(counts[big])).astype(np.int64)
    for w in np.unique(widths):
        rows = widths == w
        start, count = starts[rows], counts[big[rows]]
        slot = np.arange(w)
        valid = slot < count[:, None]
        pos = start[:, None] + slot
        padded = np.full(pos.shape, np.inf)
        padded[valid] = keys[pos[valid]]
        part = np.argpartition(padded, Q - 1, axis=1)[:, :Q]
        keep[np.take_along_axis(pos, part, axis=1)] = True
    return keep


def node_wise_sample(g: Graph, a: NormalizedAdjacency, seeds, Q: int, K: int,
                     rng: np.random.Generator, dtype=np.float64) -> BatchPlan:
    """Fixed-fanout recursive neighbor sampling.

    Per node of B_l, min(Q, deg) neighbors are drawn uniformly without
    replacement from the normalized adjacency's neighbor lists; B_{l+1} is
    B_l plus everything sampled, and the block holds the normalized values
    on exactly the sampled edges, each scaled by deg / min(Q, deg), so that
    block @ h is an unbiased estimate of (Â h)[B_l] (Hamilton et al.). At
    full fanout the factor is 1 and the block is Â[B_l, B_{l+1}]. Each
    block is built as CSR directly: row pointers from the per-row kept
    counts min(Q, deg), columns from a rank lookup into B_{l+1}.
    """
    if Q < 0:
        raise ValueError(f"node-wise fanout must be >= 0, got fanout={Q}")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("node_wise_sample needs non-empty seeds")
    struct = a.structure
    node_sets = [seeds]
    blocks = []
    for _ in range(K):
        b = node_sets[-1]
        counts, didx = _gather_neighborhood(struct, b)
        if didx.size:
            # uniform without replacement per source: keep the Q smallest
            # random keys within each row segment
            didx = didx[np.flatnonzero(_smallest_per_row(counts, rng.random(didx.size), Q))]
        dst = struct.col_indices[didx]
        upper = _unique_nodes(np.concatenate([b, dst]), struct.num_nodes)
        kept = np.minimum(counts, Q)  # each row keeps min(Q, deg)
        data = a.values[didx] * np.repeat(counts / np.maximum(kept, 1), kept)
        blocks.append(sp.csr_matrix(
            (data.astype(dtype, copy=False), _rank(upper, struct.num_nodes)[dst],
             _indptr(kept)), shape=(b.size, upper.size)))
        node_sets.append(upper)
    return BatchPlan(node_sets, blocks)


def _norm_probs(weights: np.ndarray, what: str) -> np.ndarray:
    total = weights.sum()
    if not total > 0:
        raise ValueError(f"degenerate distribution: {what} has zero total mass")
    return weights / total


def fastgcn_layer_probs(a: NormalizedAdjacency) -> np.ndarray:
    """Importance distribution p(u) proportional to the squared row norm of
    the normalized adjacency."""
    src = np.repeat(np.arange(a.num_nodes, dtype=np.int64), np.diff(a.structure.row_offsets))
    sums = np.bincount(src, weights=a.values ** 2, minlength=a.num_nodes)
    return _norm_probs(sums, "squared row norms")


def saint_node_probs(a: NormalizedAdjacency) -> np.ndarray:
    """Node-sampler distribution proportional to squared column norms."""
    sums = np.bincount(a.structure.col_indices, weights=a.values ** 2, minlength=a.num_nodes)
    return _norm_probs(sums, "squared column norms")


def pps_systematic(probs: np.ndarray, q: int, rng: np.random.Generator):
    """Randomized systematic sampling with target inclusion min(1, q*p).

    Returns (selected indices, inclusion probability per selected index).
    Certainty units (q*p >= 1) are clamped to probability 1 and the budget
    re-solved over the rest until all targets are < 1, so first-order
    inclusion probabilities are exact.
    """
    probs = np.asarray(probs, dtype=np.float64)
    m = probs.size
    if q >= m:
        raise ValueError("pps_systematic expects q < pool size")
    pi = np.zeros(m)
    remaining = np.flatnonzero(probs > 0)
    budget = q
    while budget > 0 and remaining.size:
        target = budget * probs[remaining] / probs[remaining].sum()
        over = target >= 1.0
        if not over.any():
            pi[remaining] = target
            break
        certain = remaining[over]
        pi[certain] = 1.0
        budget -= certain.size
        remaining = remaining[~over]

    selected = [np.flatnonzero(pi == 1.0)]
    frac = np.flatnonzero((pi > 0) & (pi < 1))
    n_frac = int(round(pi[frac].sum()))
    if n_frac > 0:
        perm = rng.permutation(frac)
        cum = np.cumsum(pi[perm])
        cum[-1] = n_frac  # kill fp drift so every grid point lands
        points = rng.random() + np.arange(n_frac)
        hit = np.searchsorted(cum, points, side="right")
        selected.append(perm[hit])
    idx = np.concatenate(selected)
    idx.sort()
    return idx, pi[idx]


def layer_wise_sample(g: Graph, a: NormalizedAdjacency, B0, Q: int, K: int,
                      variant: str, rng: np.random.Generator,
                      p_global: np.ndarray | None = None,
                      dtype=np.float64) -> BatchPlan:
    """Layer-wise importance sampling of Q nodes per layer.

    The candidate pool of layer l is N(B_l), which holds B_l where Â has
    self-loops. fastgcn draws from the global row-norm distribution
    p_global restricted to the pool and renormalized; p_global is
    fastgcn_layer_probs(a), built here when not passed. ladies draws from
    its layer's own distribution, q(v) proportional to the sum over u in
    B_l of Â[u, v]^2, from the entries the layer gathers; it reads no
    p_global. Sampled columns are reweighted by 1/(Q * p(v)) via exact
    inclusion probabilities; when Q covers the whole pool, the pool is taken
    whole, each node with inclusion probability 1 and so weight 1: the
    block is Â[B_l, pool] exactly.
    """
    if variant not in ("fastgcn", "ladies"):
        raise ValueError(f"unknown layer-wise variant {variant!r}")
    if Q < 1:
        raise ValueError(f"layer-wise fanout must be >= 1, got fanout={Q}")
    B0 = np.unique(np.asarray(B0, dtype=np.int64))
    if B0.size == 0:
        raise ValueError("layer_wise_sample needs non-empty B0")
    if p_global is None and variant == "fastgcn":
        p_global = fastgcn_layer_probs(a)
    struct = a.structure
    node_sets = [B0]
    blocks = []
    for _ in range(K):
        b = node_sets[-1]
        didx = _gather_neighborhood(struct, b)[1]
        nbrs = struct.col_indices[didx]
        pool = _unique_nodes(nbrs, struct.num_nodes)
        if pool.size == 0:
            raise ValueError("layer-wise candidate pool is empty")
        if Q >= pool.size:  # every pool node is taken with probability 1
            chosen, w = pool, None
        else:
            mass = (p_global[pool] if variant == "fastgcn" else
                    np.bincount(nbrs, weights=a.values[didx] ** 2)[pool])
            p_pool = _norm_probs(mass, "restricted layer distribution")
            sel, incl = pps_systematic(p_pool, Q, rng)
            chosen = pool[sel]
            w = 1.0 / incl
        blocks.append(_restrict_block(a, b, chosen, col_weights=w, dtype=dtype))
        node_sets.append(chosen)
    return BatchPlan(node_sets, blocks)


def probs_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that Generator.choice(p=p) builds: cumsum scaled to end at 1."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def draw_from_cdf(cdf: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """size i.i.d. draws from probs_cdf(p): the same indices as
    rng.choice(p.size, size, replace=True, p=p), leaving rng in the same
    state, without rebuilding the CDF on every call."""
    return cdf.searchsorted(rng.random(size), side="right")


def saint_node_sample(a: NormalizedAdjacency, batch_size: int,
                      rng: np.random.Generator, cdf: np.ndarray | None = None) -> np.ndarray:
    """batch_size i.i.d. draws from saint_node_probs; returns the node set.
    cdf is probs_cdf(saint_node_probs(a)), built here when not passed."""
    if cdf is None:
        cdf = probs_cdf(saint_node_probs(a))
    return np.unique(draw_from_cdf(cdf, batch_size, rng))


def undirected_edge_probs(g: Graph):
    """(CSR positions, probabilities) of the undirected edges u <= v, with
    P(u,v) proportional to 1/deg(u) + 1/deg(v). A non-symmetric graph keeps
    every entry."""
    if g.num_edges == 0:
        raise ValueError("graph has no edges")
    deg = np.diff(g.row_offsets)
    src = np.repeat(np.arange(g.num_nodes, dtype=np.int64), deg)
    if g.is_symmetric:
        pos = np.flatnonzero(src <= g.col_indices)
        src = src[pos]
    else:
        pos = np.arange(g.num_edges, dtype=np.int64)
    deg = deg.astype(np.float64)
    weight = 1.0 / deg[src]
    weight += 1.0 / deg[g.col_indices[pos]]
    return pos, _norm_probs(weight, "edge weights")


def edge_endpoints(g: Graph, pos: np.ndarray):
    """(row, column) of the CSR entries at positions pos."""
    return np.searchsorted(g.row_offsets, pos, side="right") - 1, g.col_indices[pos]


def saint_edge_table(g: Graph):
    """(CSR positions of the undirected edges, CDF of their probabilities):
    what saint_edge_sample draws from."""
    pos, p = undirected_edge_probs(g)
    return pos, probs_cdf(p)


def saint_edge_sample(g: Graph, batch_size: int, rng: np.random.Generator,
                      table=None) -> np.ndarray:
    """batch_size independent edge draws, degree-inverse weighted; returns
    the set of endpoints for subgraph induction. table is
    saint_edge_table(g), built here when not passed."""
    pos, cdf = saint_edge_table(g) if table is None else table
    src, dst = edge_endpoints(g, pos[draw_from_cdf(cdf, batch_size, rng)])
    return np.unique(np.concatenate([src, dst]))


def random_walk_sample(g: Graph, num_roots: int, walk_length: int,
                       rng: np.random.Generator) -> np.ndarray:
    """num_roots uniform roots, each walking walk_length uniform-neighbor
    steps; dead ends stop early. Returns the set of visited nodes."""
    if walk_length < 0:
        raise ValueError("walk_length must be >= 0")
    roots = rng.integers(0, g.num_nodes, size=num_roots)
    visited = [roots]
    cur = roots.copy()
    deg = np.diff(g.row_offsets)
    for _ in range(walk_length):
        d = deg[cur]
        alive = d > 0
        if not alive.any():
            break
        step = (rng.random(cur.size) * d).astype(np.int64)
        nxt = g.col_indices[g.row_offsets[cur[alive]] + step[alive]]
        cur = cur[alive]
        cur[:] = nxt
        visited.append(nxt)
    return np.unique(np.concatenate(visited))


def _shed(g: Graph, assignment: np.ndarray, sizes: np.ndarray, c: int, cap: int) -> int:
    """Walk c's members' edges in CSR order, moving each member along its
    first edge into a cluster below cap until c is down to cap; returns the
    number moved. Receivers only fill, so the walk runs as vectorized passes,
    each cut at the move that fills a receiver or ends it: k + 1 at most."""
    members = np.flatnonzero(assignment == c)
    counts, didx = _gather_neighborhood(g, members)
    src, to = np.repeat(members, counts), assignment[g.col_indices[didx]]
    src, to = src[to != c], to[to != c]
    start, before = 0, sizes[c]
    while sizes[c] > cap:
        e = start + np.flatnonzero(sizes[to[start:]] < cap)
        if e.size == 0:
            break
        e = e[np.r_[True, src[e[1:]] != src[e[:-1]]]]  # each member's first such edge
        # receiver r fills at its (cap - sizes[r])-th move of the pass
        per, room = np.bincount(to[e], minlength=sizes.size), cap - sizes
        full = np.flatnonzero((per > 0) & (per >= room))
        fills = np.argsort(to[e], kind="stable")[(np.cumsum(per) - per + room - 1)[full]]
        e = e[:min(sizes[c] - cap, fills.min() + 1 if fills.size else e.size)]
        assignment[src[e]] = to[e]
        sizes += np.bincount(to[e], minlength=sizes.size)
        sizes[c] -= e.size
        start = np.searchsorted(src, src[e[-1]], side="right")
    return before - sizes[c]


def partition_graph(g: Graph, num_clusters: int) -> Partitioning:
    """Deterministic locality-biased partitioner.

    Seeds come from a farthest-point sweep (start at node 0; repeatedly take
    the node farthest from the current seed set, unreachable components
    first, ties to the lowest index) over one distance array, which each
    seed lowers by a BFS pruned to the nodes it brings closer (exact, as
    distance to a seed set is 1-Lipschitz along edges). Clusters grow by
    multi-source BFS in round-robin level order, nodes of seedless
    components go one by one to the smallest cluster, then oversized
    clusters shed boundary nodes (_shed) until every size is within 2x of
    balanced.
    """
    n = g.num_nodes
    if num_clusters > n:
        raise ValueError("more clusters than nodes")
    if not g.is_symmetric:
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_offsets))
        g = build_graph(np.stack([src, g.col_indices], 1), n, symmetrize=True)

    dist = np.full(n, n, dtype=np.int64)  # n: unreached, above every distance
    seeds = []
    for _ in range(num_clusters):
        seeds.append(int(np.argmax(dist)))  # argmax takes the lowest index on ties
        dist[seeds[-1]], frontier, level = 0, np.array(seeds[-1:]), 0
        while frontier.size:
            level += 1
            nbrs = g.col_indices[_gather_neighborhood(g, frontier)[1]]
            frontier = _unique_nodes(nbrs[dist[nbrs] > level], n)
            dist[frontier] = level

    # a round's newly reached node joins the lowest-indexed cluster whose
    # previous round reached a neighbor of it
    frontier, first = np.unique(seeds, return_index=True)
    assignment = np.full(n, -1, dtype=np.int64)
    assignment[frontier] = first
    while frontier.size:
        counts, didx = _gather_neighborhood(g, frontier)
        src, nbrs = np.repeat(frontier, counts), g.col_indices[didx]
        free = assignment[nbrs] < 0
        claim = np.full(n, num_clusters)
        np.minimum.at(claim, nbrs[free], assignment[src[free]])
        frontier = np.flatnonzero(claim < num_clusters)
        assignment[frontier] = claim[frontier]
    leftovers = np.flatnonzero(assignment < 0)
    if leftovers.size:
        sizes = np.bincount(assignment[assignment >= 0], minlength=num_clusters)
        for v in leftovers:
            c = int(np.argmin(sizes))
            assignment[v] = c
            sizes[c] += 1

    cap = int(np.ceil(2.0 * n / num_clusters))
    sizes = np.bincount(assignment, minlength=num_clusters)
    while (sizes > cap).any():
        c = int(np.argmax(sizes))
        if not _shed(g, assignment, sizes, c, cap):
            # whole-component cluster with no eligible boundary: move by index
            assignment[np.flatnonzero(assignment == c)[: sizes[c] - cap]] = np.argmin(sizes)
            sizes = np.bincount(assignment, minlength=num_clusters)
    return Partitioning(assignment, num_clusters)


def subgraph_batch(g: Graph, a: NormalizedAdjacency, node_set,
                   dtype=np.float64) -> BatchPlan:
    """Shared-block plan on node_set (any order, duplicates allowed): Â's
    structure, self-loops included when Â has them, restricted to the node
    set and re-weighted by the subgraph's own degrees with Â's norm kind.
    That equals inducing the subgraph from g and normalizing it the way Â
    was, without building either; g is kept for the signature."""
    struct = a.structure
    node_set = np.asarray(node_set, dtype=np.int64)
    if node_set.size == 0:
        raise ValueError("subgraph_batch needs a non-empty node set")
    if node_set.min() < 0 or node_set.max() >= struct.num_nodes:
        raise ValueError("subgraph node outside graph")
    nodes = _unique_nodes(node_set, struct.num_nodes)
    indices, indptr, _ = _restrict(struct, nodes, nodes)
    values = degree_weights(indptr, indices, a.norm_kind, struct.is_symmetric)
    block = sp.csr_matrix((values.astype(dtype, copy=False), indices, indptr),
                          shape=(nodes.size, nodes.size))
    return BatchPlan([nodes], [block], shared=True)
