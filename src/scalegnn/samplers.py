"""Mini-batch samplers: node-wise fanout, layer-wise importance, subgraph-wise.

Every sampler returns a BatchPlan: per-layer node sets B_0..B_K plus sparse
blocks mapping features on B_{l+1} to aggregated features on B_l. Blocks are
scipy CSR with importance/normalization weights baked into the values, so a
model's forward pass is just block @ h per layer. The weights are computed
from the adjacency's float64 values and stored in the block's dtype (the
features' dtype in a trial, float64 by default); the draws never depend
on it.

Layer-wise node selection uses randomized systematic sampling with target
inclusion probability min(1, Q * p(v)) (certainty units clamped and the
remainder re-solved). That makes the per-node inclusion probability exact,
so the 1/(Q p(v)) importance weights give an exactly unbiased estimate of
the full aggregation, which plain sequential without-replacement draws do
not (their realized inclusion probabilities drift from Q*p for skewed p).

A trial builds what its sampler draws from once, in trainers._plan_source:
the clustergcn partition, or the table (layer-wise distribution, saint-node
CDF, saint-edge table) it passes prebuilt to every draw. Called one-shot
without it, a sampler builds its own table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from scalegnn.graph import Graph, NormalizedAdjacency, induced_subgraph, normalize_adjacency


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
        if upper.size == 0:
            return np.full(lower.size, -1, dtype=np.int64)
        pos = np.clip(np.searchsorted(upper, lower), 0, upper.size - 1)
        return np.where(upper[pos] == lower, pos, -1).astype(np.int64)


@dataclass
class Partitioning:
    assignment: np.ndarray  # per-node cluster id
    num_clusters: int

    def cluster_nodes(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == c).astype(np.int64)


def _gather_neighborhood(g: Graph, rows: np.ndarray):
    """All (row, col, data-index) triples of the given CSR rows, vectorized."""
    counts = g.row_offsets[rows + 1] - g.row_offsets[rows]
    total = int(counts.sum())
    if total == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    starts = np.repeat(g.row_offsets[rows], counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    data_idx = starts + offsets
    src = np.repeat(rows, counts)
    return src, g.col_indices[data_idx], data_idx


def _unique_nodes(nodes: np.ndarray, num_nodes: int) -> np.ndarray:
    """np.unique(nodes) for node ids below num_nodes, by marking, sort-free."""
    mark = np.zeros(num_nodes, dtype=bool)
    mark[nodes] = True
    return np.flatnonzero(mark)


def _restrict_block(a: NormalizedAdjacency, rows: np.ndarray, cols: np.ndarray,
                    col_weights=None, dtype=np.float64) -> sp.csr_matrix:
    """CSR block of a with all edges from `rows` into `cols` (both sorted
    unique node ids), optionally scaling column v by col_weights[v-position],
    with values in dtype."""
    src, dst, didx = _gather_neighborhood(a.structure, rows)
    pos = np.searchsorted(cols, dst)
    keep = pos < cols.size
    keep[keep] = cols[pos[keep]] == dst[keep]
    indices = pos[keep]
    data = a.values[didx[keep]]
    if col_weights is not None:
        # equivalent to block @ diag(col_weights) without the sparse matmul
        data *= np.asarray(col_weights, dtype=np.float64)[indices]
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.searchsorted(rows, src[keep]), minlength=rows.size), out=indptr[1:])
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
    B_l plus everything sampled, and the block keeps the full normalized
    values on exactly the sampled edges.
    """
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ValueError("node_wise_sample needs non-empty seeds")
    struct = a.structure
    node_sets = [seeds]
    edge_layers = []
    for _ in range(K):
        b = node_sets[-1]
        src, dst, didx = _gather_neighborhood(struct, b)
        if src.size:
            # uniform without replacement per source: keep the Q smallest
            # random keys within each row segment
            keys = rng.random(src.size)
            counts = struct.row_offsets[b + 1] - struct.row_offsets[b]
            keep = _smallest_per_row(counts, keys, Q)
            src_s, dst_s, didx_s = src[keep], dst[keep], didx[keep]
        else:
            src_s = dst_s = didx_s = np.zeros(0, dtype=np.int64)
        edge_layers.append((src_s, dst_s, a.values[didx_s]))
        node_sets.append(_unique_nodes(np.concatenate([b, dst_s]), struct.num_nodes))
    blocks = []
    for l in range(K):
        b_l, b_next = node_sets[l], node_sets[l + 1]
        src_s, dst_s, vals = edge_layers[l]
        r = np.searchsorted(b_l, src_s)
        c = np.searchsorted(b_next, dst_s)
        blocks.append(sp.csr_matrix((vals.astype(dtype, copy=False), (r, c)),
                                    shape=(b_l.size, b_next.size)))
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
    """Layer-wise importance sampling.

    Candidate pool per layer is N(B_l) (fastgcn) or N(B_l) ∪ B_l (ladies),
    with the global row-norm distribution restricted to the pool and
    renormalized. Sampled columns are reweighted by 1/(Q * p(v)) via exact
    inclusion probabilities; when Q covers the whole pool, the pool is taken
    whole with weights 1/(|pool| * p(v)). p_global is fastgcn_layer_probs(a),
    built here when not passed.
    """
    if variant not in ("fastgcn", "ladies"):
        raise ValueError(f"unknown layer-wise variant {variant!r}")
    B0 = np.unique(np.asarray(B0, dtype=np.int64))
    if B0.size == 0:
        raise ValueError("layer_wise_sample needs non-empty B0")
    if p_global is None:
        p_global = fastgcn_layer_probs(a)
    struct = a.structure
    node_sets = [B0]
    blocks = []
    for _ in range(K):
        b = node_sets[-1]
        _, nbrs, _ = _gather_neighborhood(struct, b)
        pool = _unique_nodes(np.concatenate([nbrs, b]) if variant == "ladies" else nbrs,
                             struct.num_nodes)
        if pool.size == 0:
            raise ValueError("layer-wise candidate pool is empty")
        p_pool = _norm_probs(p_global[pool], "restricted layer distribution")
        if Q >= pool.size:
            chosen = pool
            with np.errstate(divide="ignore"):
                w = np.where(p_pool > 0, 1.0 / (pool.size * p_pool), 0.0)
        else:
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


def _bfs_distances(g: Graph, sources: np.ndarray) -> np.ndarray:
    dist = np.full(g.num_nodes, -1, dtype=np.int64)
    dist[sources] = 0
    frontier = np.asarray(sources, dtype=np.int64)
    level = 0
    while frontier.size:
        _, nbrs, _ = _gather_neighborhood(g, frontier)
        fresh = _unique_nodes(nbrs[dist[nbrs] < 0], g.num_nodes)
        level += 1
        dist[fresh] = level
        frontier = fresh
    return dist


def partition_graph(g: Graph, num_clusters: int) -> Partitioning:
    """Deterministic locality-biased partitioner.

    Seeds come from a farthest-point sweep (start at node 0; repeatedly take
    the node farthest from the current seed set, unreachable components
    first, ties to the lowest index). Clusters grow by multi-source BFS in
    round-robin level order, then oversized clusters shed boundary nodes
    until every size is within 2x of balanced.
    """
    n = g.num_nodes
    if num_clusters > n:
        raise ValueError("more clusters than nodes")
    if not g.is_symmetric:
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_offsets))
        both = np.concatenate([np.stack([src, g.col_indices], 1),
                               np.stack([g.col_indices, src], 1)])
        from scalegnn.graph import build_graph
        g = build_graph(both, n, symmetrize=True)

    seeds = [0]
    dist = _bfs_distances(g, np.array([0]))
    for _ in range(num_clusters - 1):
        unreached = dist < 0
        if unreached.any():
            nxt = int(np.flatnonzero(unreached)[0])
        else:
            nxt = int(np.argmax(dist))  # argmax takes the lowest index on ties
        seeds.append(nxt)
        d2 = _bfs_distances(g, np.array([nxt]))
        merged = np.where(dist < 0, d2, np.where(d2 < 0, dist, np.minimum(dist, d2)))
        dist = merged

    assignment = np.full(n, -1, dtype=np.int64)
    frontiers = []
    for c, s in enumerate(seeds):
        if assignment[s] < 0:
            assignment[s] = c
            frontiers.append(np.array([s], dtype=np.int64))
        else:
            frontiers.append(np.zeros(0, dtype=np.int64))
    active = True
    while active:
        active = False
        for c in range(num_clusters):
            if frontiers[c].size == 0:
                continue
            _, nbrs, _ = _gather_neighborhood(g, frontiers[c])
            fresh = _unique_nodes(nbrs[assignment[nbrs] < 0], n)
            assignment[fresh] = c
            frontiers[c] = fresh
            if fresh.size:
                active = True
    # nodes in components containing no seed: hand them to the smallest clusters
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
        members = np.flatnonzero(assignment == c)
        moved = False
        src, nbrs, _ = _gather_neighborhood(g, members)
        outside = assignment[nbrs] != c
        for u, other in zip(src[outside], assignment[nbrs[outside]]):
            if sizes[other] < cap and assignment[u] == c:
                assignment[u] = other
                sizes[c] -= 1
                sizes[other] += 1
                moved = True
                if sizes[c] <= cap:
                    break
        if not moved:
            # whole-component cluster with no eligible boundary: move by index
            recv = int(np.argmin(sizes))
            take = members[: sizes[c] - cap]
            assignment[take] = recv
            sizes[recv] += take.size
            sizes[c] -= take.size
    return Partitioning(assignment, num_clusters)


def subgraph_batch(g: Graph, a: NormalizedAdjacency, node_set,
                   dtype=np.float64) -> BatchPlan:
    """Shared-block plan: induce the subgraph on node_set from the raw graph
    and re-normalize it with the pipeline's norm kind and self-loop flag."""
    node_set = np.unique(np.asarray(node_set, dtype=np.int64))
    if node_set.size == 0:
        raise ValueError("subgraph_batch needs a non-empty node set")
    sub, _ = induced_subgraph(g, node_set)
    sub_norm = normalize_adjacency(sub, a.norm_kind, a.self_loops_added)
    return BatchPlan([node_set], [sub_norm.to_scipy(dtype)], shared=True)
