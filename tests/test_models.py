"""Precompute predictors and sampled GNN against oracles and gradchecks."""

import tracemalloc

import numpy as np
import pytest

from scalegnn.graph import build_graph, csr_matmul, normalize_adjacency, spmm
from scalegnn.instrument import op_counter
from scalegnn.models import (
    HopFeatures,
    HopConfig,
    SampledGNNConfig,
    init_sagn,
    init_sampled_gnn,
    init_sign,
    precompute_hops,
    sagn_backward,
    sagn_forward,
    sampled_gnn_backward,
    sampled_gnn_forward,
    sgc_backward,
    sgc_forward,
    sign_backward,
    sign_forward,
)
from scalegnn.nn import (MLPConfig, MLPParams, cross_entropy, gradcheck, init_mlp,
                         mlp_forward, predict)
from scalegnn.rng import make_rng
from scalegnn.samplers import BatchPlan, node_wise_sample, subgraph_batch
from scalegnn.trainers import full_plan

RNG = np.random.default_rng(42)


def small_graph(n=6, extra=8, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [tuple(e) for e in rng.integers(0, n, size=(extra, 2))]
    return build_graph(edges, n, symmetrize=True)


def test_hops_k0():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 3))
    hops = precompute_hops(a, x, 0)
    assert hops.K == 0 and len(hops.hops) == 1
    assert hops.hops[0] is x


def test_hops_identity_adjacency():
    g = build_graph([], 5)
    a = normalize_adjacency(g, "row", with_self_loops=True)  # identity
    x = RNG.normal(size=(5, 2))
    hops = precompute_hops(a, x, 3)
    for h in hops.hops:
        assert np.allclose(h, x, atol=1e-15)


def test_hops_double_application():
    g = small_graph(4, 4, seed=1)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(4, 3))
    hops = precompute_hops(a, x, 2)
    assert np.max(np.abs(hops.hops[2] - spmm(a, spmm(a, x)))) < 1e-12
    dense = a.to_scipy().toarray()
    assert np.max(np.abs(hops.hops[2] - dense @ dense @ x)) < 1e-12


def test_hops_negative_k():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    with pytest.raises(ValueError):
        precompute_hops(a, np.zeros((6, 2)), -1)


def test_hops_metered():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = np.zeros((6, 256))
    tracemalloc.start()
    try:
        hops = precompute_hops(a, x, 3)
        live, peak = tracemalloc.get_traced_memory()
        hops.release()
        released, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # X^1..X^3 are new and all resident; release drops them (X^0 is x)
    assert 3 * x.nbytes <= live <= peak < 3.25 * x.nbytes
    assert hops.hops == [] and released < 0.25 * x.nbytes


def test_sgc_identity_readout():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 4))
    hops = precompute_hops(a, x, 2)
    params = MLPParams([np.eye(4)], [np.zeros(4)])
    assert np.array_equal(sgc_forward(hops, params, MLPConfig([4, 4]))[0], hops.hops[2])


def test_sgc_k0_is_linear_model():
    x = RNG.normal(size=(5, 3))
    hops = HopFeatures([x], 0)
    config = MLPConfig([3, 2], seed=1)
    params = init_mlp(config)
    logits, _ = sgc_forward(hops, params, config)
    assert np.allclose(logits, x @ params.weights[0] + params.biases[0])


@pytest.mark.parametrize("mode", ["eval", "train"])
def test_sgc_forward_is_mlp_forward_on_hop_k(mode):
    hops = precompute_hops(normalize_adjacency(small_graph(), "sym"),
                           RNG.normal(size=(6, 3)), 2)
    config = MLPConfig([3, 4], seed=7)
    params = init_mlp(config)
    want = mlp_forward(params, config, hops.hops[2], mode)[0]
    assert np.array_equal(sgc_forward(hops, params, config, mode)[0], want)


def test_sgc_hop_mismatch():
    x = RNG.normal(size=(5, 3))
    hops = HopFeatures([x], 0)
    config = MLPConfig([4, 2])
    with pytest.raises(ValueError, match="input has 3 features, config expects 4"):
        sgc_forward(hops, init_mlp(config), config)


def test_sgc_gradcheck():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    hops = precompute_hops(a, RNG.normal(size=(6, 3)), 2)
    config = MLPConfig([3, 3], seed=2)
    params = init_mlp(config)
    y = RNG.integers(0, 3, size=6)

    def f(_):
        logits, trace = sgc_forward(hops, params, config, mode="train")
        loss, gl = cross_entropy(logits, y)
        return loss, sgc_backward(hops, params, config, trace, gl)

    assert gradcheck(f, params.trainable())["max_rel_err"] < 1e-6


def test_sign_identity_collapse():
    x = np.abs(RNG.normal(size=(5, 3)))  # non-negative: ReLU passes it through
    hops = HopFeatures([x], 0)
    config = HopConfig(K=0, in_dim=3, hidden=3, num_classes=3)
    params = init_sign(config)
    params.omegas[0][:] = np.eye(3)
    params.head.weights[0][:] = np.eye(3)
    params.head.biases[0][:] = 0
    logits, _ = sign_forward(hops, params, config)
    assert np.allclose(logits, x, atol=1e-15)


def test_sign_zeroed_hops_ignore_propagation():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 3))
    hops = precompute_hops(a, x, 2)
    config = HopConfig(K=2, in_dim=3, hidden=4, num_classes=3, seed=3)
    params = init_sign(config)
    for k in range(1, 3):
        params.omegas[k][:] = 0.0
    logits, _ = sign_forward(hops, params, config)
    corrupted = HopFeatures([x, RNG.normal(size=(6, 3)), RNG.normal(size=(6, 3))], 2)
    logits2, _ = sign_forward(corrupted, params, config)
    assert np.array_equal(logits, logits2)


def test_sign_gradcheck():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    hops = precompute_hops(a, RNG.normal(size=(6, 3)), 2)
    config = HopConfig(K=2, in_dim=3, hidden=4, num_classes=3, seed=4)
    params = init_sign(config)
    y = RNG.integers(0, 3, size=6)

    def f(_):
        logits, trace = sign_forward(hops, params, config, mode="train")
        loss, gl = cross_entropy(logits, y)
        return loss, sign_backward(hops, params, config, trace, gl)

    assert gradcheck(f, params.trainable())["max_rel_err"] < 1e-5


def test_sign_eval_keeps_no_trace_and_matches_train():
    g = small_graph()
    hops = precompute_hops(normalize_adjacency(g, "sym"), RNG.normal(size=(6, 3)), 2)
    config = HopConfig(K=2, in_dim=3, hidden=4, num_classes=3, seed=5)
    params = init_sign(config)
    logits, trace = sign_forward(hops, params, config)
    assert trace is None
    assert np.array_equal(logits, sign_forward(hops, params, config, mode="train")[0])


def test_sagn_eval_keeps_no_trace_and_matches_train():
    g = small_graph()
    hops = precompute_hops(normalize_adjacency(g, "sym"), RNG.normal(size=(6, 3)), 2)
    config = HopConfig(K=2, in_dim=3, hidden=4, num_classes=3, seed=5)
    params = init_sagn(config)
    logits, trace = sagn_forward(hops, params, config)
    assert trace is None
    assert np.array_equal(logits, sagn_forward(hops, params, config, mode="train")[0])


def test_sagn_k1_attention_trivial():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 3))
    hops = precompute_hops(a, x, 1)
    config = HopConfig(K=1, in_dim=3, hidden=4, num_classes=2, seed=5)
    params = init_sagn(config)
    _, trace = sagn_forward(hops, params, config, mode="train")
    assert np.allclose(trace["t"], 1.0)
    assert np.allclose(trace["mlp_in"], hops.hops[1] + x @ params.skip, atol=1e-12)


def test_sagn_zero_vectors_uniform_attention():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 3))
    hops = precompute_hops(a, x, 3)
    config = HopConfig(K=3, in_dim=3, hidden=4, num_classes=2, seed=6)
    params = init_sagn(config)
    params.att_u[:] = 0
    for v in params.att_v:
        v[:] = 0
    _, trace = sagn_forward(hops, params, config, mode="train")
    assert np.allclose(trace["t"], 1.0 / 3.0, atol=1e-12)
    mean_hops = (hops.hops[1] + hops.hops[2] + hops.hops[3]) / 3.0
    assert np.allclose(trace["mlp_in"], mean_hops + x @ params.skip, atol=1e-12)


def test_sagn_attention_rows_sum_one():
    g = small_graph(8, 10, seed=2)
    a = normalize_adjacency(g, "sym")
    hops = precompute_hops(a, RNG.normal(size=(8, 5)), 2)
    config = HopConfig(K=2, in_dim=5, hidden=6, num_classes=3, seed=7)
    _, trace = sagn_forward(hops, init_sagn(config), config, mode="train")
    assert np.allclose(trace["t"].sum(axis=1), 1.0, atol=1e-9)


def test_sagn_requires_hops():
    with pytest.raises(ValueError, match="K >= 1"):
        init_sagn(HopConfig(K=0, in_dim=3, hidden=4, num_classes=2))


def test_sagn_gradcheck_through_attention():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    hops = precompute_hops(a, RNG.normal(size=(6, 3)), 2)
    config = HopConfig(K=2, in_dim=3, hidden=4, num_classes=3, seed=8)
    params = init_sagn(config)
    y = RNG.integers(0, 3, size=6)

    def f(_):
        logits, trace = sagn_forward(hops, params, config, mode="train")
        loss, gl = cross_entropy(logits, y)
        return loss, sagn_backward(hops, params, config, trace, gl)

    report = gradcheck(f, params.trainable())
    assert report["max_rel_err"] < 1e-5, report["worst"]


def dense_gnn_forward(dense_a, x, params):
    h = x
    depth = len(params.w_self)
    for i in range(depth):
        z = h @ params.w_self[i] + (dense_a @ h) @ params.w_neigh[i] + params.bias[i]
        h = np.maximum(z, 0.0) if i < depth - 1 else z
    return h


def test_sampled_gnn_full_batch_equals_dense():
    g = small_graph(8, 12, seed=3)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(8, 4))
    plan = node_wise_sample(g, a, np.arange(8), Q=8, K=2, rng=make_rng(9))
    config = SampledGNNConfig([4, 5, 3], seed=10)
    params = init_sampled_gnn(config)
    logits, _ = sampled_gnn_forward(plan, x, params, config)
    oracle = dense_gnn_forward(a.to_scipy().toarray(), x, params)
    assert np.max(np.abs(logits - oracle)) < 1e-10


def test_sampled_gnn_eval_keeps_no_trace_and_matches_train():
    """Eval equals train bit for bit while no layer narrows; a narrowing
    layer multiplies Â at its output width in eval, so only rounding moves."""
    g = small_graph(8, 12, seed=3)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(8, 4))
    for dims, K in (([4, 5, 6], 2), ([4, 5, 5, 3], 3)):
        plan = node_wise_sample(g, a, [0, 3, 5], Q=2, K=K, rng=make_rng(9))
        config = SampledGNNConfig(dims, seed=10)
        params = init_sampled_gnn(config)
        logits, trace = sampled_gnn_forward(plan, x, params, config)
        assert trace is None
        train_logits = sampled_gnn_forward(plan, x, params, config, mode="train")[0]
        if all(a <= b for a, b in zip(dims, dims[1:])):  # no layer narrows
            assert np.array_equal(logits, train_logits)
        else:
            assert np.max(np.abs(logits - train_logits)) <= 1e-12


def test_sampled_gnn_eval_full_plan_multiplies_at_class_width():
    """On the trainers' shared full plan, eval multiplies Â at width d in the
    widening first layer and at the class width C, not H, in the last."""
    n, d, H, C = 30, 4, 9, 3
    g = small_graph(n, 60, seed=7)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(n, d))
    config = SampledGNNConfig([d, H, C], seed=14)
    params = init_sampled_gnn(config)
    dense_a = a.to_scipy().toarray()
    op_counter.reset()
    logits, _ = sampled_gnn_forward(full_plan(a), x, params, config)
    assert op_counter.spmm_madds == np.count_nonzero(dense_a) * (d + C)
    oracle = dense_gnn_forward(dense_a, x, params)
    assert np.max(np.abs(logits - oracle)) < 1e-10


def test_sampled_gnn_zero_neighbor_weights_ignore_plan():
    g = small_graph(8, 12, seed=4)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(8, 4))
    config = SampledGNNConfig([4, 5, 3], seed=11)
    params = init_sampled_gnn(config)
    for w in params.w_neigh:
        w[:] = 0.0
    p1 = node_wise_sample(g, a, np.arange(8), Q=1, K=2, rng=make_rng(1))
    p2 = node_wise_sample(g, a, np.arange(8), Q=2, K=2, rng=make_rng(2))
    l1, _ = sampled_gnn_forward(p1, x, params, config)
    l2, _ = sampled_gnn_forward(p2, x, params, config)
    assert np.allclose(l1, l2, atol=1e-12)


def test_sampled_gnn_depth_mismatch():
    g = small_graph()
    a = normalize_adjacency(g, "sym")
    plan = node_wise_sample(g, a, [0], Q=2, K=1, rng=make_rng(3))
    config = SampledGNNConfig([3, 4, 2])
    with pytest.raises(ValueError, match="depth"):
        sampled_gnn_forward(plan, np.zeros((6, 3)), init_sampled_gnn(config), config)


def test_sampled_gnn_permuted_targets():
    g = small_graph(7, 9, seed=5)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(7, 3))
    plan = node_wise_sample(g, a, np.arange(7), Q=7, K=1, rng=make_rng(4))
    config = SampledGNNConfig([3, 2], seed=12)
    params = init_sampled_gnn(config)
    logits, _ = sampled_gnn_forward(plan, x, params, config)
    perm = np.random.default_rng(0).permutation(7)
    permuted = BatchPlan([plan.node_sets[0][perm], plan.node_sets[1]],
                         [plan.blocks[0][perm]])
    logits_p, _ = sampled_gnn_forward(permuted, x, params, config)
    assert np.allclose(logits_p, logits[perm], atol=1e-12)


def test_sampled_gnn_gradcheck():
    g = small_graph(6, 6, seed=6)
    a = normalize_adjacency(g, "sym")
    x = RNG.normal(size=(6, 3))
    plan = node_wise_sample(g, a, [0, 2, 4], Q=2, K=2, rng=make_rng(5))
    config = SampledGNNConfig([3, 4, 3], seed=13)
    params = init_sampled_gnn(config)
    y = RNG.integers(0, 3, size=3)

    def f(_):
        logits, trace = sampled_gnn_forward(plan, x, params, config, mode="train")
        loss, gl = cross_entropy(logits, y)
        return loss, sampled_gnn_backward(plan, params, config, trace, gl)

    report = gradcheck(f, params.trainable())
    assert report["max_rel_err"] < 1e-5, report["worst"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [[4, 9, 3], [4, 9, 9, 3], [6, 4, 3]])
def test_sampled_gnn_eval_memo_matches_uncached_eval(dtype, dims):
    """Evaluations sharing a memo reuse the first layer's Â x and give the
    logits of an evaluation without it, bit for bit, as the parameters
    move; a narrowing first layer multiplies Â after W_neigh and keeps
    nothing."""
    n = 30
    g = small_graph(n, 60, seed=7)
    plan = full_plan(normalize_adjacency(g, "sym"), dtype)
    x = RNG.normal(size=(n, dims[0])).astype(dtype)
    config = SampledGNNConfig(dims, seed=14)
    params = init_sampled_gnn(config, dtype)
    memo = {}
    for step in range(3):
        cached = sampled_gnn_forward(plan, x, params, config, memo=memo)[0]
        plain = sampled_gnn_forward(plan, x, params, config)[0]
        assert cached.dtype == dtype and np.array_equal(cached, plain)
        for w in params.w_self + params.w_neigh:
            w *= dtype(0.9)
    if dims[1] >= dims[0]:
        assert np.array_equal(memo["agg0"], csr_matmul(plan.block(0), x))
    else:
        assert memo == {}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dims", [[4, 9, 3], [4, 9, 9, 3], [4, 9, 9, 9, 3],
                                  [12, 5, 3], [12, 5, 5, 3], [4, 6, 6]])
@pytest.mark.parametrize("chunk", [7, 30, 64])
def test_sampled_gnn_blocked_eval_matches_unblocked(dtype, dims, chunk):
    """Row blocks (7 does not divide n = 30; 30 and 64 cover it) give the
    logits of one whole-matrix block within rounding and the same
    predictions, through every eval path: a hidden layer built in full
    (the next layer widens or keeps its width), one fused into the narrowing
    layer after it, and a narrowing first layer; the sparse products keep
    their multiply-adds, less the first layer's Â x, which later
    evaluations sharing a memo reuse."""
    n = 30
    g = small_graph(n, 60, seed=7)
    a = normalize_adjacency(g, "sym")
    plan = full_plan(a, dtype)
    x = RNG.normal(size=(n, dims[0])).astype(dtype)
    config = SampledGNNConfig(dims, seed=17)
    params = init_sampled_gnn(config, dtype)
    op_counter.reset()
    whole = sampled_gnn_forward(plan, x, params, config)[0]
    madds = op_counter.spmm_madds
    memo, counts = {}, []
    for _ in range(2):
        op_counter.reset()
        blocked = sampled_gnn_forward(plan, x, params, config, memo=memo, chunk=chunk)[0]
        counts.append(op_counter.spmm_madds)
    memoized = a.structure.num_edges * dims[0] if dims[1] >= dims[0] else 0
    assert counts == [madds, madds - memoized]
    assert blocked.dtype == dtype and blocked.shape == whole.shape
    tol = 50 * np.finfo(dtype).eps * max(1.0, np.abs(whole).max())
    assert np.max(np.abs(blocked - whole)) <= tol
    assert np.array_equal(predict(blocked), predict(whole))
    oracle = dense_gnn_forward(a.to_scipy().toarray(), x.astype(np.float64), params)
    assert np.max(np.abs(blocked - oracle)) <= 1e3 * tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sampled_gnn_shared_backward_matches_scatter_path(dtype):
    """A shared subgraph plan's backward (CSC view of Â^T, self part added
    in place) equals, bit for bit, the same plan given as separate
    per-layer blocks, whose backward scatters the self part by position."""
    g = small_graph(40, 90, seed=8)
    a = normalize_adjacency(g, "row")
    plan = subgraph_batch(g, a, np.arange(3, 35), dtype)
    depth = 3
    split = BatchPlan([plan.nodes(0)] * (depth + 1), [plan.block(0)] * depth)
    x = RNG.normal(size=(40, 5)).astype(dtype)
    config = SampledGNNConfig([5, 8, 8, 3], dropout=0.3, seed=15)
    params = init_sampled_gnn(config, dtype)
    y = RNG.integers(0, 3, size=plan.nodes(0).size)
    grads = []
    for p in (plan, split):
        logits, trace = sampled_gnn_forward(p, x, params, config, mode="train",
                                            rng=make_rng(2))
        _, gl = cross_entropy(logits, y)
        grads.append(sampled_gnn_backward(p, params, config, trace, gl.astype(dtype)))
    assert grads[0].keys() == grads[1].keys()
    for k in grads[0]:
        assert grads[0][k].dtype == dtype and np.array_equal(grads[0][k], grads[1][k]), k
    block_t = plan.block(0).T
    v = RNG.normal(size=(block_t.shape[1], 4)).astype(dtype)
    assert np.array_equal(csr_matmul(block_t, v), csr_matmul(block_t.tocsr(), v))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("keep", [0.5, 0.8, 0.9])
def test_sampled_gnn_dropout_mask_one_pass(dtype, keep):
    """The train forward's one-pass mask has the values and draws of
    (u < keep).astype(dtype) / keep."""
    g = small_graph(12, 20, seed=9)
    plan = full_plan(normalize_adjacency(g, "sym"), dtype)
    x = RNG.normal(size=(12, 4)).astype(dtype)
    config = SampledGNNConfig([4, 6, 6, 3], dropout=1.0 - keep, seed=16)
    params = init_sampled_gnn(config, dtype)
    rng = make_rng(4)
    _, trace = sampled_gnn_forward(plan, x, params, config, mode="train", rng=rng)
    ref = make_rng(4)
    for rec in trace["layers"][:-1]:
        want = (ref.random(rec["mask"].shape) < 1.0 - config.dropout).astype(dtype) \
            / (1.0 - config.dropout)
        assert rec["mask"].dtype == want.dtype == dtype
        assert np.array_equal(rec["mask"], want)
    assert rng.random() == ref.random()
