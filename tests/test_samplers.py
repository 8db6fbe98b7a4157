"""Sampler distributions, unbiasedness, partitioning, and plan invariants."""

import numpy as np
import pytest
import scipy.sparse as sp

from scalegnn import trainers
from scalegnn.graph import build_graph, induced_subgraph, normalize_adjacency
from scalegnn.rng import make_rng
from scalegnn.samplers import (
    BatchPlan,
    _gather_neighborhood,
    _restrict_block,
    _smallest_per_row,
    draw_from_cdf,
    edge_endpoints,
    fastgcn_layer_probs,
    layer_wise_sample,
    node_wise_sample,
    partition_graph,
    pps_systematic,
    probs_cdf,
    random_walk_sample,
    saint_edge_sample,
    saint_edge_table,
    saint_node_probs,
    saint_node_sample,
    subgraph_batch,
    undirected_edge_probs,
)
from scalegnn.synth import SyntheticSpec, generate_sbm
from scalegnn.trainers import dataset_from_sbm, run_trial


def edge_exists(g, u, v):
    row = g.col_indices[g.row_offsets[u]:g.row_offsets[u + 1]]
    i = np.searchsorted(row, v)
    return i < row.size and row[i] == v


def assert_plan_edges_in_graph(plan, struct, depth):
    for l in range(depth):
        block = plan.block(l).tocoo()
        b_l, b_next = plan.nodes(l), plan.nodes(l + 1)
        for r, c in zip(block.row, block.col):
            assert edge_exists(struct, b_l[r], b_next[c])


def ring_graph(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n, symmetrize=True)


def test_node_wise_full_fanout_is_neighborhood():
    g = ring_graph(8)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    plan = node_wise_sample(g, a, [0, 1], Q=100, K=2, rng=make_rng(0))
    expect = np.unique(np.concatenate([a.structure.neighbors(0), a.structure.neighbors(1)]))
    assert np.array_equal(plan.nodes(1), expect)
    assert plan.nodes(2).size >= plan.nodes(1).size


def test_node_wise_star_exact_fanout():
    g = build_graph([(0, i) for i in range(1, 6)], 6, symmetrize=True)
    a = normalize_adjacency(g, "row", with_self_loops=False)
    plan = node_wise_sample(g, a, [0], Q=2, K=1, rng=make_rng(3))
    assert plan.nodes(1).size == 3  # center itself + 2 sampled leaves
    assert plan.block(0).nnz == 2


def test_node_wise_uniform_inclusion():
    g = build_graph([(0, i) for i in range(1, 6)], 6, symmetrize=True)
    a = normalize_adjacency(g, "row", with_self_loops=False)
    rng = make_rng(7)
    counts = np.zeros(6)
    trials = 20_000
    for _ in range(trials):
        plan = node_wise_sample(g, a, [0], Q=2, K=1, rng=rng)
        cols = plan.nodes(1)[plan.block(0).tocoo().col]
        counts[cols] += 1
    freq = counts[1:] / trials
    assert np.all(np.abs(freq - 0.4) < 0.015)


def test_node_wise_values_from_full_normalization():
    """Each kept entry is Â's value scaled by deg / min(Q, deg), the inverse
    of its inclusion probability: 3 / 2 on a ring with self-loops at Q=2."""
    g = ring_graph(10)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    dense = a.to_scipy().toarray()
    plan = node_wise_sample(g, a, [2, 3, 4], Q=2, K=2, rng=make_rng(5))
    for l in range(2):
        block = plan.block(l).tocoo()
        b_l, b_next = plan.nodes(l), plan.nodes(l + 1)
        for r, c, v in zip(block.row, block.col, block.data):
            assert v == dense[b_l[r], b_next[c]] * (3 / 2)
    assert_plan_edges_in_graph(plan, a.structure, 2)


def test_fastgcn_probs_cycle_uniform():
    a = normalize_adjacency(ring_graph(6), "row", with_self_loops=False)
    p = fastgcn_layer_probs(a)
    assert np.allclose(p, 1.0 / 6.0, atol=1e-12)


def test_fastgcn_probs_hand_computed():
    # rows (no self-loops, row norm): 0 -> {1,2} at 1/2 each, 1 -> {2} at 1,
    # 2 -> {} so squared row norms are [0.5, 1.0, 0.0]
    g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
    a = normalize_adjacency(g, "row", with_self_loops=False)
    p = fastgcn_layer_probs(a)
    assert np.max(np.abs(p - np.array([1 / 3, 2 / 3, 0.0]))) < 1e-12


def test_fastgcn_probs_degenerate():
    g = build_graph([], 4)
    with pytest.raises(ValueError, match="degenerate"):
        fastgcn_layer_probs(normalize_adjacency(g, "row", with_self_loops=False))


def test_saint_node_probs_symmetric_matches_row_version():
    g = ring_graph(9)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    assert np.allclose(saint_node_probs(a), fastgcn_layer_probs(a), atol=1e-12)


def test_saint_node_probs_hand_computed():
    # row-normalized columns: col1 gets 0.5, col2 gets 0.5 and 1.0
    # squared column norms [0, 0.25, 1.25]
    g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
    a = normalize_adjacency(g, "row", with_self_loops=False)
    p = saint_node_probs(a)
    assert np.max(np.abs(p - np.array([0.0, 1 / 6, 5 / 6]))) < 1e-12


def test_saint_node_probs_sum_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(3, 30))
        g = build_graph(rng.integers(0, n, size=(4 * n, 2)), n)
        a = normalize_adjacency(g, "sym", with_self_loops=True)
        assert abs(saint_node_probs(a).sum() - 1.0) < 1e-12


def test_pps_inclusion_probabilities():
    p = np.array([0.45, 0.3, 0.15, 0.1])
    rng = make_rng(11)
    trials = 50_000
    counts = np.zeros(4)
    for _ in range(trials):
        idx, incl = pps_systematic(p, 2, rng)
        assert idx.size == 2
        counts[idx] += 1
        assert np.allclose(incl, 2 * p[idx])
    assert np.max(np.abs(counts / trials - 2 * p)) < 0.01


def test_pps_certainty_clamping():
    p = np.array([0.9, 0.05, 0.05])
    rng = make_rng(1)
    for _ in range(200):
        idx, incl = pps_systematic(p, 2, rng)
        assert 0 in idx
        assert incl[np.searchsorted(idx, 0)] == 1.0
        assert idx.size == 2


def test_layer_wise_exhaustive_weights():
    """A budget that covers the pool takes every pool node with probability
    1, so each weight is 1 and every block is Â[B_l, pool] exactly, on a
    degree-skewed graph where 1/(|pool| p(v)) is far from 1."""
    g = build_graph([(0, v) for v in range(1, 8)] + [(1, 2), (2, 3), (8, 9)], 10,
                    symmetrize=True)  # a hub, a path through its leaves, a pair
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    p = fastgcn_layer_probs(a)
    assert p.max() > 2 * p.min()
    dense = a.to_scipy().toarray()
    for variant in ("fastgcn", "ladies"):
        plan = layer_wise_sample(g, a, [1, 3], Q=50, K=2, variant=variant, rng=make_rng(2))
        for l in range(2):
            rows = plan.nodes(l)
            pool = np.flatnonzero(dense[rows].any(axis=0))  # N(B_l); B_l by the self-loops
            assert np.array_equal(plan.nodes(l + 1), pool), variant
            assert np.array_equal(plan.block(l).toarray(), dense[np.ix_(rows, pool)]), variant


def test_layer_wise_cap():
    g = ring_graph(20)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    plan = layer_wise_sample(g, a, np.arange(10), Q=4, K=3, variant="fastgcn", rng=make_rng(4))
    for l in range(1, 4):
        assert plan.nodes(l).size <= 4
    assert_plan_edges_in_graph(plan, a.structure, 3)


def test_ladies_isolated_seed_self_loop_rescue():
    g = build_graph([(1, 2)], 3, symmetrize=True)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    plan = layer_wise_sample(g, a, [0], Q=3, K=1, variant="ladies", rng=make_rng(6))
    assert 0 in plan.nodes(1)


def test_layer_wise_empty_pool_error():
    g = build_graph([(1, 2)], 3, symmetrize=True)
    a = normalize_adjacency(g, "sym", with_self_loops=False)
    with pytest.raises(ValueError, match="empty"):
        layer_wise_sample(g, a, [0], Q=2, K=1, variant="fastgcn", rng=make_rng(0))


@pytest.mark.parametrize("method, fanout", [
    ("graphsage", -1), ("graphsage", -3), ("fastgcn", 0), ("fastgcn", -1),
    ("ladies", 0), ("ladies", -2)])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_bad_fanout_named_before_training(method, fanout, num_layers, monkeypatch):
    ds = dataset_from_sbm(SyntheticSpec(300, 3, 0.1, 0.01, feature_dim=8, seed=0))
    g, a = ds.graph, normalize_adjacency(ds.graph, "sym")
    seeds = ds.split.train[:20]
    with pytest.raises(ValueError, match=f"fanout={fanout}"):
        if method == "graphsage":
            node_wise_sample(g, a, seeds, fanout, num_layers, make_rng(0))
        else:
            layer_wise_sample(g, a, seeds, fanout, num_layers, method, make_rng(0))

    def no_step(*_):
        raise AssertionError("a training step ran before the fanout was rejected")

    monkeypatch.setattr(trainers, "adam_step", no_step)
    with pytest.raises(ValueError, match=f"fanout={fanout}"):
        run_trial(method, dict(fanout=fanout, num_layers=num_layers, epochs=2,
                               hidden_dim=8, batch_size=64), ds)


def test_layer_wise_unbiased_small():
    # quick version of the acceptance check: one layer, mean of sampled
    # aggregations approaches the exact one
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (3, 4), (2, 4)]
    g = build_graph(edges, 5, symmetrize=True)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    rng = make_rng(8)
    x = np.random.default_rng(1).normal(size=(5, 3))
    b0 = np.array([0, 1, 2, 3, 4])
    exact = a.to_scipy().toarray() @ x
    acc = np.zeros_like(exact)
    trials = 20_000
    for _ in range(trials):
        plan = layer_wise_sample(g, a, b0, Q=2, K=1, variant="fastgcn", rng=rng)
        acc += plan.block(0) @ x[plan.nodes(1)]
    rel = np.linalg.norm(acc / trials - exact) / np.linalg.norm(exact)
    assert rel < 0.03


@pytest.mark.parametrize("kind", ["sym", "row", "col"])
def test_restrict_block_matches_scipy_indexing(kind):
    rng = np.random.default_rng(3)
    g = build_graph(rng.integers(0, 60, size=(300, 2)), 64, symmetrize=kind == "sym")
    a = normalize_adjacency(g, kind, with_self_loops=kind != "col")
    for _ in range(10):
        rows = np.unique(rng.integers(0, 64, size=int(rng.integers(1, 30))))
        cols = np.unique(rng.integers(0, 64, size=int(rng.integers(1, 40))))
        w = rng.random(cols.size)
        for weights in (None, w):
            got = _restrict_block(a, rows, cols, col_weights=weights)
            want = a.to_scipy()[rows][:, cols].tocsr()
            if weights is not None:
                want.data *= weights[want.indices]
            assert got.shape == want.shape
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)


def test_saint_edge_hand_ratio():
    # edge A joins two degree-1 nodes, edge B two degree-2 nodes
    g = build_graph([(0, 1), (2, 3), (2, 4), (3, 5)], 6, symmetrize=True)
    pos, p = undirected_edge_probs(g)
    src, dst = edge_endpoints(g, pos)
    def prob_of(u, v):
        m = (src == u) & (dst == v)
        return p[m][0]
    assert abs(prob_of(0, 1) / prob_of(2, 3) - 2.0) < 1e-12


def test_saint_edge_regular_uniform():
    g = ring_graph(8)
    _, p = undirected_edge_probs(g)
    assert np.allclose(p, 1.0 / p.size, atol=1e-12)


def test_saint_edge_sample_returns_endpoints():
    g = ring_graph(8)
    nodes = saint_edge_sample(g, 3, make_rng(9))
    assert nodes.size >= 2
    assert np.array_equal(nodes, np.unique(nodes))


def test_saint_node_sample_tv_small():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 4, symmetrize=True)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    p = saint_node_probs(a)
    rng = make_rng(10)
    counts = np.zeros(4)
    trials = 20_000
    for _ in range(trials):
        counts[saint_node_sample(a, 1, rng)] += 1
    tv = 0.5 * np.abs(counts / trials - p).sum()
    assert tv < 0.02


def test_random_walk_zero_length():
    g = ring_graph(5)
    nodes = random_walk_sample(g, 4, 0, make_rng(0))
    assert nodes.size <= 4


def test_random_walk_path_endpoint():
    g = build_graph([(0, 1), (1, 2)], 3, symmetrize=True)
    rng = make_rng(1)
    for _ in range(20):
        visited = random_walk_sample(g, 1, 1, rng)
        if 0 in visited:
            assert set(visited.tolist()) <= {0, 1}


def test_random_walk_count_bound():
    g = ring_graph(30)
    for seed in range(5):
        nodes = random_walk_sample(g, 3, 4, make_rng(seed))
        assert nodes.size <= 3 * 5


def test_random_walk_dead_end_truncates():
    g = build_graph([(0, 1)], 3)  # node 1 and 2 have no outgoing edges
    visited = random_walk_sample(g, 3, 5, make_rng(2))
    assert set(visited.tolist()) <= {0, 1, 2}


def test_partition_singletons():
    g = ring_graph(6)
    part = partition_graph(g, 6)
    assert np.array_equal(np.sort(part.assignment), np.arange(6))


def test_partition_single_cluster():
    g = ring_graph(6)
    part = partition_graph(g, 1)
    assert np.all(part.assignment == 0)


def test_partition_two_cliques_zero_cut():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i, j) for i in range(4, 8) for j in range(i + 1, 8)]
    g = build_graph(edges, 8, symmetrize=True)
    part = partition_graph(g, 2)
    assert len(set(part.assignment[:4].tolist())) == 1
    assert len(set(part.assignment[4:].tolist())) == 1
    assert part.assignment[0] != part.assignment[4]


def test_partition_cover_balance_deterministic():
    rng = np.random.default_rng(3)
    for trial in range(8):
        n = int(rng.integers(10, 80))
        g = build_graph(rng.integers(0, n, size=(3 * n, 2)), n, symmetrize=True)
        k = int(rng.integers(2, min(9, n)))
        part = partition_graph(g, k)
        sizes = np.bincount(part.assignment, minlength=k)
        assert sizes.sum() == n
        assert sizes.max() <= int(np.ceil(2.0 * n / k))
        part2 = partition_graph(g, k)
        assert np.array_equal(part.assignment, part2.assignment)


def test_subgraph_batch_full_set():
    g = ring_graph(7)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    plan = subgraph_batch(g, a, np.arange(7))
    assert plan.shared
    assert np.array_equal(plan.nodes(0), plan.nodes(3))
    assert np.max(np.abs(plan.block(0).toarray() - a.to_scipy().toarray())) < 1e-12


def test_subgraph_batch_renormalizes():
    # dense oracle: induce first, then normalize densely
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    g = build_graph(edges, 4, symmetrize=True)
    a = normalize_adjacency(g, "row", with_self_loops=True)
    nodes = np.array([0, 1, 3])
    plan = subgraph_batch(g, a, nodes)
    dense = np.zeros((4, 4))
    for u, v in edges:
        dense[u, v] = dense[v, u] = 1.0
    sub = dense[np.ix_(nodes, nodes)].copy()
    np.fill_diagonal(sub, 1.0)
    sub = sub / sub.sum(axis=1, keepdims=True)
    assert np.max(np.abs(plan.block(0).toarray() - sub)) < 1e-12


def _subgraph_test_graphs():
    rng = np.random.default_rng(11)
    n = 60
    edges = rng.integers(0, n, size=(240, 2))
    loops = np.stack([np.arange(0, n, 4)] * 2, axis=1)  # some nodes hold a self-loop
    return {"symmetric-with-loops": build_graph(np.concatenate([edges, loops]), n,
                                                symmetrize=True),
            "directed": build_graph(edges, n)}


@pytest.mark.parametrize("graph", ["symmetric-with-loops", "directed"])
@pytest.mark.parametrize("kind", ["sym", "row", "col"])
@pytest.mark.parametrize("loops", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_subgraph_batch_equals_induce_then_normalize(graph, kind, loops, dtype):
    """The block cut from Â's structure equals inducing the subgraph from g
    and normalizing it, array for array, for an unsorted node set with
    duplicates (clustergcn concatenates its clusters)."""
    g = _subgraph_test_graphs()[graph]
    assert g.is_symmetric == (graph == "symmetric-with-loops")
    a = normalize_adjacency(g, kind, loops)
    rng = np.random.default_rng(5)
    for size in (1, 7, 35, 60):
        node_set = rng.integers(0, g.num_nodes, size=size)
        node_set = np.concatenate([node_set, node_set[: size // 2]])
        nodes = np.unique(node_set)
        plan = subgraph_batch(g, a, node_set, dtype)
        want = normalize_adjacency(induced_subgraph(g, nodes)[0], kind, loops).to_scipy(dtype)
        got = plan.block(0)
        assert plan.shared and np.array_equal(plan.nodes(0), nodes)
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        for x, y in ((got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr)):
            assert np.array_equal(x, y)


def test_subgraph_batch_rejects_nodes_outside_graph():
    g = ring_graph(5)
    a = normalize_adjacency(g, "sym")
    for bad in ([0, 5], [-1, 2]):
        with pytest.raises(ValueError, match="outside graph"):
            subgraph_batch(g, a, bad)


def test_plan_self_positions():
    g = ring_graph(6)
    a = normalize_adjacency(g, "sym", with_self_loops=True)
    plan = node_wise_sample(g, a, [1, 4], Q=1, K=1, rng=make_rng(12))
    pos = plan.self_positions(0)
    # node-wise keeps B_l inside B_{l+1}
    assert np.all(pos >= 0)
    assert np.array_equal(plan.nodes(1)[pos], plan.nodes(0))
    # layer-wise sets need not nest: absent nodes get -1
    plan = BatchPlan([np.array([1, 3, 5]), np.array([0, 3, 4]), np.zeros(0, np.int64)],
                     [None, None])
    assert plan.self_positions(0).tolist() == [-1, 1, -1]
    assert plan.self_positions(1).tolist() == [-1, -1, -1]


def test_cdf_draws_match_generator_choice():
    # the prebuilt-CDF draw must reproduce Generator.choice(p=) exactly, and
    # leave the generator where choice leaves it, or seeded curves change
    for seed in range(6):
        gen = np.random.default_rng(100 + seed)
        weights = gen.random(int(gen.integers(1, 60))) ** 3
        weights[gen.random(weights.size) < 0.2] = 0.0
        weights[0] += 1e-3
        p = weights / weights.sum()
        cdf = probs_cdf(p)
        ours, ref = make_rng(seed), make_rng(seed)
        for size in (1, 7, 500):
            assert np.array_equal(draw_from_cdf(cdf, size, ours),
                                  ref.choice(p.size, size=size, replace=True, p=p))
        np.testing.assert_equal(ours.bit_generator.state, ref.bit_generator.state)
        assert ours.random() == ref.random()


def test_saint_edge_table_endpoints_are_the_undirected_edges():
    rng = np.random.default_rng(4)
    g = build_graph(rng.integers(0, 30, size=(70, 2)), 33, symmetrize=True)  # 30..32 isolated
    pos, cdf = saint_edge_table(g)
    src, dst = edge_endpoints(g, pos)
    want = sorted((u, int(v)) for u in range(g.num_nodes) for v in g.neighbors(u) if u <= v)
    assert list(zip(src.tolist(), dst.tolist())) == want
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) > 0)


def _smallest_per_row_lexsort(counts, keys, Q):
    """Reference: sort each row's keys with a global lexsort, keep rank < Q."""
    src = np.repeat(np.arange(counts.size), counts)
    order = np.lexsort((keys, src))
    rank = np.empty(keys.size, dtype=np.int64)
    rank[order] = np.arange(keys.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return rank < Q


def test_smallest_per_row_matches_lexsort():
    Q = 5
    # deg 0, deg < Q, deg = Q, and rows over Q in widths 8, 32, 128 and 1024,
    # one of them an exact power of two
    counts = np.array([0, 3, 5, 6, 0, 8, 17, 100, 5, 1000, 1, 33], dtype=np.int64)
    for seed in range(4):
        keys = np.random.default_rng(seed).random(int(counts.sum()))
        got = _smallest_per_row(counts, keys, Q)
        assert np.array_equal(got, _smallest_per_row_lexsort(counts, keys, Q))
        kept = np.add.reduceat(got, np.cumsum(counts) - counts)[counts > 0]
        assert np.array_equal(kept, np.minimum(counts, Q)[counts > 0])
    keys = np.random.default_rng(9).random(int(counts.sum()))
    for q in (0, 1, 2, 1000, 2000):
        assert np.array_equal(_smallest_per_row(counts, keys, q),
                              _smallest_per_row_lexsort(counts, keys, q))


def _partition_graph_unique(g, num_clusters):
    """Reference: partition_graph as it was written with np.unique on every
    BFS and cluster-growth frontier."""
    n = g.num_nodes
    if not g.is_symmetric:
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.row_offsets))
        both = np.concatenate([np.stack([src, g.col_indices], 1),
                               np.stack([g.col_indices, src], 1)])
        g = build_graph(both, n, symmetrize=True)

    def bfs(sources):
        dist = np.full(n, -1, dtype=np.int64)
        dist[sources] = 0
        frontier, level = sources, 0
        while frontier.size:
            nbrs = np.unique(g.col_indices[_gather_neighborhood(g, frontier)[1]])
            fresh = nbrs[dist[nbrs] < 0]
            level += 1
            dist[fresh] = level
            frontier = fresh
        return dist

    seeds, dist = [0], bfs(np.array([0]))
    for _ in range(num_clusters - 1):
        unreached = dist < 0
        nxt = int(np.flatnonzero(unreached)[0]) if unreached.any() else int(np.argmax(dist))
        seeds.append(nxt)
        d2 = bfs(np.array([nxt]))
        dist = np.where(dist < 0, d2, np.where(d2 < 0, dist, np.minimum(dist, d2)))
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
            nbrs = np.unique(g.col_indices[_gather_neighborhood(g, frontiers[c])[1]])
            fresh = nbrs[assignment[nbrs] < 0]
            assignment[fresh] = c
            frontiers[c] = fresh
            if fresh.size:
                active = True
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
        counts, didx = _gather_neighborhood(g, members)
        src, nbrs = np.repeat(members, counts), g.col_indices[didx]
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
            recv = int(np.argmin(sizes))
            take = members[: sizes[c] - cap]
            assignment[take] = recv
            sizes[recv] += take.size
            sizes[c] -= take.size
    return assignment


def _acceptance_sbm():
    return generate_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                      separation=0.6, noise=1.0, seed=0))[0]


def test_partition_matches_unique_frontier_reference():
    rng = np.random.default_rng(11)
    graphs = []
    for _ in range(6):  # sparse random graphs: several components, isolated nodes
        n = int(rng.integers(20, 90))
        graphs.append(build_graph(rng.integers(0, n, size=(n // 2 + 3, 2)), n, symmetrize=True))
    for _ in range(4):  # directed edges only
        n = int(rng.integers(20, 90))
        graphs.append(build_graph(rng.integers(0, n, size=(2 * n, 2)), n))
    edges = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    graphs.append(build_graph(edges + [(12, 13)], 16, symmetrize=True))  # one clique holds most
    for g in graphs:
        for k in (2, 3, 5, min(8, g.num_nodes)):
            assert np.array_equal(partition_graph(g, k).assignment,
                                  _partition_graph_unique(g, k)), (g.num_nodes, k)
    # four dense components of unequal size and six isolated nodes: below
    # the component count the leftover pass hands whole components out,
    # above it every component is seeded and the big ones shed nodes
    sizes, parts, base = (60, 25, 12, 5), [], 0
    for size in sizes:
        parts.append(base + rng.integers(0, size, size=(4 * size, 2)))
        base += size
    g = build_graph(np.concatenate(parts), base + 6, symmetrize=True)
    for k in (2, 3, 6, 9, 16, 40):
        assert np.array_equal(partition_graph(g, k).assignment,
                              _partition_graph_unique(g, k)), k
    # the acceptance SBM: the rebalance moves nodes into many receivers,
    # in several passes cut where a receiver fills
    g = _acceptance_sbm()
    for k in (16, 32):
        assert np.array_equal(partition_graph(g, k).assignment,
                              _partition_graph_unique(g, k)), k


def _node_wise_sample_coo(g, a, seeds, Q, K, rng, dtype=np.float64):
    """Reference: node_wise_sample as it was written, with sampled edges
    kept as COO triples, each value scaled by its row's deg / min(Q, deg),
    positions found by np.searchsorted and each block built by scipy's
    COO -> CSR conversion."""
    from scalegnn.samplers import _unique_nodes
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    struct = a.structure
    node_sets, edge_layers = [seeds], []
    for _ in range(K):
        b = node_sets[-1]
        counts, didx = _gather_neighborhood(struct, b)
        dst = struct.col_indices[didx]
        src = np.repeat(b, counts)
        if src.size:
            keys = rng.random(src.size)
            keep = _smallest_per_row(counts, keys, Q)
            src_s, dst_s, didx_s = src[keep], dst[keep], didx[keep]
        else:
            src_s = dst_s = didx_s = np.zeros(0, dtype=np.int64)
        deg = np.diff(struct.row_offsets)[src_s]
        edge_layers.append((src_s, dst_s, a.values[didx_s] * (deg / np.minimum(deg, Q))))
        node_sets.append(_unique_nodes(np.concatenate([b, dst_s]), struct.num_nodes))
    blocks = []
    for l in range(K):
        src_s, dst_s, vals = edge_layers[l]
        r = np.searchsorted(node_sets[l], src_s)
        c = np.searchsorted(node_sets[l + 1], dst_s)
        blocks.append(sp.csr_matrix((vals.astype(dtype, copy=False), (r, c)),
                                    shape=(node_sets[l].size, node_sets[l + 1].size)))
    return node_sets, blocks


def _plain(state):
    """A bit generator's state with its arrays as lists, comparable by ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def test_node_wise_sample_matches_coo_reference():
    g = _acceptance_sbm()
    a = normalize_adjacency(g, "sym")
    deg = np.diff(a.structure.row_offsets)
    seeds = np.random.default_rng(4).choice(g.num_nodes, 300, replace=False)
    for Q in (3, 10, int(deg.max()) + 1):
        for K in (1, 2, 3):
            for dtype in (np.float32, np.float64):
                rng, ref_rng = make_rng(Q + K), make_rng(Q + K)
                plan = node_wise_sample(g, a, seeds, Q, K, rng, dtype)
                ref_sets, ref_blocks = _node_wise_sample_coo(g, a, seeds, Q, K, ref_rng, dtype)
                assert len(plan.node_sets) == K + 1 and len(plan.blocks) == K
                for got, want in zip(plan.node_sets, ref_sets):
                    assert np.array_equal(got, want)
                for got, want in zip(plan.blocks, ref_blocks):
                    assert got.shape == want.shape
                    for name in ("indptr", "indices", "data"):
                        x, y = getattr(got, name), getattr(want, name)
                        assert x.dtype == y.dtype and np.array_equal(x, y), name
                assert _plain(rng.bit_generator.state) == _plain(ref_rng.bit_generator.state)


# Exhaustive budgets, under which each sampled method trains full-batch GCN:
# a SAINT subgraph that draws every node, full fanout, one batch of all seeds
LIMIT_CONFIGS = {
    "saint-node": dict(batch_size=10**5), "saint-edge": dict(batch_size=10**5),
    "saint-rw": dict(walk_length=2, batch_size=3 * 10**5),
    "graphsage": dict(fanout=1000), "fastgcn": dict(fanout=10**6),
    "ladies": dict(fanout=10**6)}
# subgraph plans induce the same whole-graph block; block stacks sum in
# another order and so round differently
EXACT_IN_THE_LIMIT = ("saint-node", "saint-edge", "saint-rw")


@pytest.fixture(scope="module")
def full_batch_gcn():
    """The 3k SBM and, on it, clustergcn with one cluster: full-batch GCN."""
    ds = dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                        separation=0.6, noise=1.0, seed=0))
    base = dict(epochs=10, dropout=0.0, batch_size=3000)
    return ds, base, run_trial("clustergcn", dict(base, num_clusters=1), ds, seed=0)


@pytest.mark.parametrize("method", sorted(LIMIT_CONFIGS))
def test_sampled_method_is_full_batch_gcn_in_the_limit(full_batch_gcn, method):
    ds, base, ref = full_batch_gcn
    r = run_trial(method, {**base, **LIMIT_CONFIGS[method]}, ds, seed=0)
    assert r.val_acc_curve == ref.val_acc_curve
    if method in EXACT_IN_THE_LIMIT:
        assert r.loss_curve == ref.loss_curve
    else:
        np.testing.assert_allclose(r.loss_curve, ref.loss_curve, rtol=1e-6, atol=0)


# One first-layer BatchPlan per sampler, drawn on a graph g, its adjacency
# a, a fixed batch of seeds (the subgraph samplers draw as many nodes) and
# rng. Budgets are nodes per layer as the samplers take them; fastgcn and
# ladies at 10 would be dominated by variance at these draw counts.
BIAS_DRAWS = {
    "graphsage": lambda g, a, batch, rng: node_wise_sample(g, a, batch, 10, 1, rng),
    "fastgcn": lambda g, a, batch, rng: layer_wise_sample(g, a, batch, 500, 1, "fastgcn", rng),
    "ladies": lambda g, a, batch, rng: layer_wise_sample(g, a, batch, 500, 1, "ladies", rng),
    "saint-node": lambda g, a, batch, rng: subgraph_batch(
        g, a, saint_node_sample(a, batch.size, rng)),
    "saint-edge": lambda g, a, batch, rng: subgraph_batch(
        g, a, saint_edge_sample(g, batch.size // 2, rng)),
    "saint-rw": lambda g, a, batch, rng: subgraph_batch(
        g, a, random_walk_sample(g, batch.size // 3, 2, rng)),
}
SAINT_NORMALIZATION = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: GraphSAINT's subgraphs are renormalized by "
                        "their own degrees, not by the paper's alpha and lambda")


@pytest.fixture(scope="module")
def sbm3k_aggregate():
    """The 3k SBM, its sym adjacency, its features, Â X and a fixed batch
    of 1000 nodes."""
    ds = dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                        separation=0.6, noise=1.0, seed=0))
    a = normalize_adjacency(ds.graph, "sym")
    x = ds.features.astype(np.float64)
    batch = np.sort(np.random.default_rng(0).choice(ds.num_nodes, 1000, replace=False))
    return ds.graph, a, x, a.to_scipy() @ x, batch


@pytest.mark.parametrize("sampler", [
    pytest.param(m, marks=SAINT_NORMALIZATION) if m.startswith("saint") else m
    for m in BIAS_DRAWS])
def test_sampled_aggregate_is_unbiased(sbm3k_aggregate, sampler):
    """The mean over draws of a first-layer block @ X[B_1] tends to
    (Â X)[B_0] on the rows the draws cover: its relative error at 4M draws
    is at most 0.6x the error at M. Noise falls as 1/sqrt(draws), to 0.5x;
    a bias does not fall. (clustergcn renormalizes per cluster by design.)"""
    g, a, x, exact, batch = sbm3k_aggregate
    rng, total, count, errors = make_rng(0), np.zeros_like(exact), np.zeros(g.num_nodes), []
    for draws in range(1, 401):
        plan = BIAS_DRAWS[sampler](g, a, batch, rng)
        rows = plan.target_nodes
        total[rows] += plan.block(0) @ x[plan.nodes(1)]
        count[rows] += 1
        if draws in (100, 400):
            seen = count > 0
            errors.append(np.linalg.norm(total[seen] / count[seen, None] - exact[seen])
                          / np.linalg.norm(exact[seen]))
    assert errors[1] <= 0.6 * errors[0], errors
