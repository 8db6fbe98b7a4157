"""End-to-end acceptance checks, one test per claim.

Each test verifies one headline property of the toolkit against an
independent oracle (dense linear algebra, finite differences, analytic
distributions, Monte-Carlo averages) or a locked qualitative pattern, and
prints a single summary line with the realized margins. The final test
exercises a user-converted real-data bundle and skips when none is supplied.
"""

import os
import time
import tracemalloc

import numpy as np
import pytest

from scalegnn.graph import (
    DataSplit,
    LabelVector,
    build_graph,
    normalize_adjacency,
    spmm,
)
from scalegnn.harness import (
    Axis,
    HPSpace,
    estimate_activation_memory,
    greedy_search,
    record_convergence,
)
from scalegnn.labelprop import lp_iterate, residual_error_iterate
from scalegnn.models import (
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
from scalegnn.nn import (
    MLPConfig,
    cross_entropy,
    gradcheck,
    init_mlp,
    mlp_backward,
    mlp_forward,
    one_hot,
)
from scalegnn.rng import make_rng
from scalegnn.samplers import (
    layer_wise_sample,
    node_wise_sample,
    saint_edge_sample,
    saint_node_sample,
)
from scalegnn.synth import SyntheticSpec, generate_sbm
from scalegnn.trainers import Dataset, dataset_from_sbm, run_trial


# --------------------------------------------------------------- helpers


def dense_normalized(n, pairs, symmetrize, kind):
    """Dense normalized adjacency built straight from the edge pairs with
    numpy only: binary matrix, self loops, then the degree scaling."""
    d = np.zeros((n, n))
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        d[pairs[:, 0], pairs[:, 1]] = 1.0
        if symmetrize:
            d[pairs[:, 1], pairs[:, 0]] = 1.0
    np.fill_diagonal(d, 1.0)
    d_out = d.sum(axis=1)
    d_in = d.sum(axis=0)
    if kind == "row":
        return d / d_out[:, None]
    if kind == "col":
        return d / d_in[None, :]
    return np.outer(1.0 / np.sqrt(d_out), 1.0 / np.sqrt(d_in)) * d


def simple_edges(seed, n, m):
    """m distinct undirected pairs (u < v), no self loops."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = sorted(rng.integers(0, n, size=2))
        if u != v:
            edges.add((int(u), int(v)))
    return sorted(edges)


def announce(capsys, num, message):
    with capsys.disabled():
        print(f"\n[acceptance {num}] PASS {message}")


# ------------------------------------------------- 1: sparse vs dense


def test_01_sparse_matmul_matches_dense_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 101))
        m = int(rng.integers(1, 4 * n))
        pairs = rng.integers(0, n, size=(m, 2))
        symmetrize = bool(rng.integers(0, 2))
        g = build_graph(pairs, n, symmetrize=symmetrize)
        x = rng.standard_normal((n, int(rng.integers(1, 6))))
        for kind in ("row", "col", "sym"):
            a = normalize_adjacency(g, kind)
            oracle = dense_normalized(n, pairs, symmetrize, kind) @ x
            worst = max(worst, float(np.max(np.abs(spmm(a, x) - oracle))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    announce(capsys, 1, f"200 graphs x 3 norms, max |spmm - dense| = "
                        f"{worst:.2e} <= 1e-12 ({elapsed:.1f}s < 10s)")


# ------------------------------------------------- 2: gradient suite


def test_02_gradient_suite_finite_differences(capsys):
    t0 = time.perf_counter()
    errs = {}

    for i, dims in enumerate(([4, 5, 3], [3, 6, 4, 2], [5, 2])):
        rng = np.random.default_rng(210 + i)
        config = MLPConfig(dims, seed=210 + i)
        params = init_mlp(config)
        x = rng.standard_normal((6, dims[0]))
        y = rng.integers(0, dims[-1], size=6)

        def f(_, params=params, config=config, x=x, y=y):
            logits, trace = mlp_forward(params, config, x, mode="train")
            loss, gl = cross_entropy(logits, y)
            return loss, mlp_backward(params, config, trace, gl)[0]

        errs[f"mlp[{i}]"] = gradcheck(f, params.trainable())["max_rel_err"]

    for i, (n, k, d, c) in enumerate(((6, 2, 3, 3), (8, 3, 4, 2))):
        rng = np.random.default_rng(230 + i)
        g = build_graph(rng.integers(0, n, size=(3 * n, 2)), n, symmetrize=True)
        a = normalize_adjacency(g, "sym")
        hops = precompute_hops(a, rng.standard_normal((n, d)), k)
        y = rng.integers(0, c, size=n)

        sgc_config = MLPConfig([d, c], seed=230 + i)
        sgc_params = init_mlp(sgc_config)

        def f_sgc(_, hops=hops, params=sgc_params, config=sgc_config, y=y):
            logits, trace = sgc_forward(hops, params, config, mode="train")
            loss, gl = cross_entropy(logits, y)
            return loss, sgc_backward(hops, params, config, trace, gl)

        errs[f"sgc[{i}]"] = gradcheck(f_sgc, sgc_params.trainable())["max_rel_err"]

        sign_config = HopConfig(K=k, in_dim=d, hidden=4, num_classes=c,
                                seed=240 + i)
        sign_params = init_sign(sign_config)

        def f_sign(_, hops=hops, params=sign_params, config=sign_config, y=y):
            logits, trace = sign_forward(hops, params, config, mode="train")
            loss, gl = cross_entropy(logits, y)
            return loss, sign_backward(hops, params, config, trace, gl)

        errs[f"sign[{i}]"] = gradcheck(f_sign, sign_params.trainable())["max_rel_err"]

        sagn_config = HopConfig(K=k, in_dim=d, hidden=4, num_classes=c,
                                seed=250 + i)
        sagn_params = init_sagn(sagn_config)

        def f_sagn(_, hops=hops, params=sagn_params, config=sagn_config, y=y):
            logits, trace = sagn_forward(hops, params, config, mode="train")
            loss, gl = cross_entropy(logits, y)
            return loss, sagn_backward(hops, params, config, trace, gl)

        errs[f"sagn[{i}]"] = gradcheck(f_sagn, sagn_params.trainable())["max_rel_err"]

    for i, (n, q, k) in enumerate(((6, 2, 2), (8, 3, 3))):
        rng = np.random.default_rng(260 + i)
        g = build_graph(rng.integers(0, n, size=(3 * n, 2)), n, symmetrize=True)
        a = normalize_adjacency(g, "sym")
        x = rng.standard_normal((n, 3))
        seeds = rng.choice(n, size=3, replace=False)
        plan = node_wise_sample(g, a, seeds, Q=q, K=k, rng=make_rng(260 + i))
        config = SampledGNNConfig([3] + [4] * (k - 1) + [3], seed=260 + i)
        params = init_sampled_gnn(config)
        y = rng.integers(0, 3, size=plan.target_nodes.size)

        def f_gnn(_, plan=plan, x=x, params=params, config=config, y=y):
            logits, trace = sampled_gnn_forward(plan, x, params, config,
                                                mode="train")
            loss, gl = cross_entropy(logits, y)
            return loss, sampled_gnn_backward(plan, params, config, trace, gl)

        errs[f"sampled_gnn[{i}]"] = gradcheck(f_gnn, params.trainable())["max_rel_err"]

    elapsed = time.perf_counter() - t0
    worst_name = max(errs, key=errs.get)
    assert errs[worst_name] < 1e-5, (worst_name, errs[worst_name])
    assert elapsed < 60.0
    announce(capsys, 2, f"{len(errs)} gradchecks over 5 model families, worst "
                        f"rel err {errs[worst_name]:.2e} ({worst_name}) < 1e-5 "
                        f"({elapsed:.1f}s < 60s)")


# -------------------------------------------- 3: diffusion fixed point


def test_03_label_propagation_fixed_point(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n, m, kind, seed in ((12, 20, "sym", 300), (20, 34, "row", 301)):
        pairs = simple_edges(seed, n, m)
        g = build_graph(pairs, n, symmetrize=True)
        a = normalize_adjacency(g, kind)
        dense = dense_normalized(n, pairs, True, kind)
        rng = np.random.default_rng(seed)
        labels = LabelVector(rng.integers(0, 3, size=n), 3)
        perm = rng.permutation(n)
        split = DataSplit(np.sort(perm[: n // 3]),
                          np.sort(perm[n // 3: n // 2]),
                          np.sort(perm[n // 2:]))
        src = np.zeros((n, 3))
        src[split.train] = one_hot(labels.labels[split.train], 3)
        z = rng.standard_normal((n, 3))
        e = np.zeros_like(z)
        e[split.train] = z[split.train] - one_hot(labels.labels[split.train], 3)
        for alpha in (0.5, 0.75, 0.9, 0.99):
            solve = np.linalg.solve(np.eye(n) - alpha * dense, np.hstack([src, e]))
            target_y = (1 - alpha) * solve[:, :3]
            target_e = (1 - alpha) * solve[:, 3:]
            got_y = lp_iterate(a, src, src, alpha, 8000, tol=1e-13)
            got_e = residual_error_iterate(a, z, labels, split, alpha, 8000,
                                           tol=1e-13)
            worst = max(worst,
                        float(np.max(np.abs(got_y - target_y))),
                        float(np.max(np.abs(got_e - target_e))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    announce(capsys, 3, f"iterative vs dense solve, alphas 0.5-0.99, max "
                        f"inf-norm gap {worst:.2e} <= 1e-8 ({elapsed:.1f}s < 10s)")


# ------------------------------------- 4: sampler distribution suite


def test_04_sampler_distributions_and_unbiasedness(capsys):
    t0 = time.perf_counter()
    n = 8
    pairs = simple_edges(7, n, 12)
    g = build_graph(pairs, n, symmetrize=True)
    a = normalize_adjacency(g, "sym")
    dense = dense_normalized(n, pairs, True, "sym")
    draws = 100_000

    p_fast = (dense ** 2).sum(axis=1)
    p_fast /= p_fast.sum()
    rng = make_rng(41)
    counts = np.zeros(n)
    for _ in range(draws):
        plan = layer_wise_sample(g, a, np.arange(n), 1, 1, "fastgcn", rng)
        counts[plan.node_sets[1]] += 1
    tv_fast = 0.5 * float(np.abs(counts / draws - p_fast).sum())

    p_node = (dense ** 2).sum(axis=0)
    p_node /= p_node.sum()
    rng = make_rng(42)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[saint_node_sample(a, 1, rng)] += 1
    tv_node = 0.5 * float(np.abs(counts / draws - p_node).sum())

    deg = np.zeros(n)
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    p_edge = np.array([1.0 / deg[u] + 1.0 / deg[v] for u, v in pairs])
    p_edge /= p_edge.sum()
    edge_index = {e: i for i, e in enumerate(pairs)}
    rng = make_rng(43)
    counts = np.zeros(len(pairs))
    for _ in range(draws):
        endpoints = saint_edge_sample(g, 1, rng)
        counts[edge_index[(int(endpoints[0]), int(endpoints[1]))]] += 1
    tv_edge = 0.5 * float(np.abs(counts / draws - p_edge).sum())

    assert tv_fast <= 0.02 and tv_node <= 0.02 and tv_edge <= 0.02

    n2 = 10
    pairs2 = simple_edges(21, n2, 18)
    g2 = build_graph(pairs2, n2, symmetrize=True)
    a2 = normalize_adjacency(g2, "sym")
    dense2 = dense_normalized(n2, pairs2, True, "sym")
    x = np.random.default_rng(3).standard_normal((n2, 3))
    targets = np.array([0, 4, 7])
    exact = dense2[targets] @ x
    rng = make_rng(44)
    plans = 200_000
    acc = np.zeros_like(exact)
    for _ in range(plans):
        plan = layer_wise_sample(g2, a2, targets, 2, 1, "fastgcn", rng)
        acc += plan.block(0) @ x[plan.nodes(1)]
    rel = float(np.max(np.abs(acc / plans - exact)) / np.max(np.abs(exact)))
    elapsed = time.perf_counter() - t0
    assert rel <= 0.01
    assert elapsed < 120.0
    announce(capsys, 4, f"TV at 1e5 draws: row-norm {tv_fast:.4f}, node "
                        f"{tv_node:.4f}, edge {tv_edge:.4f} <= 0.02; weighted "
                        f"aggregation rel err {rel:.4f} <= 0.01 over 2e5 plans "
                        f"({elapsed:.0f}s < 120s)")


# ------------------------------------------ 5: full-batch equivalence


def test_05_node_wise_full_fanout_matches_dense_gnn(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for i, (n, m, hidden) in enumerate(((9, 14, [5]), (12, 20, [4, 6]))):
        pairs = simple_edges(500 + i, n, m)
        g = build_graph(pairs, n, symmetrize=True)
        a = normalize_adjacency(g, "sym")
        dense = dense_normalized(n, pairs, True, "sym")
        rng = np.random.default_rng(510 + i)
        x = rng.standard_normal((n, 4))
        config = SampledGNNConfig([4] + hidden + [3], seed=510 + i)
        params = init_sampled_gnn(config)
        q_max = int(np.diff(a.structure.row_offsets).max())
        plan = node_wise_sample(g, a, np.arange(n), Q=q_max, K=config.depth,
                                rng=make_rng(520 + i))
        logits, _ = sampled_gnn_forward(plan, x, params, config)
        h = x
        for l in range(config.depth):
            z = h @ params.w_self[l] + (dense @ h) @ params.w_neigh[l] + params.bias[l]
            h = np.maximum(z, 0.0) if l < config.depth - 1 else z
        worst = max(worst, float(np.max(np.abs(logits - h))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 10.0
    announce(capsys, 5, f"fanout >= max degree vs dense forward, max gap "
                        f"{worst:.2e} <= 1e-10 ({elapsed:.1f}s < 10s)")


# ------------------------------------------- 6: stage-ensemble pattern


def test_06_stagewise_ensemble_vote_pattern(capsys):
    t0 = time.perf_counter()
    good_seeds = 0
    margins = []
    for seed in range(5):
        spec = SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                             separation=0.6, noise=1.0,
                             split_fractions=(0.1, 0.2, 0.7), seed=seed)
        config = dict(threshold=0.9, num_layers=3, epochs=15, hidden_dim=64,
                      dropout=0.5, batch_size=512, learning_rate=0.01,
                      weight_decay=0.0, warm_start=True)
        r = run_trial("engcn", config, Dataset(*generate_sbm(spec)), seed=seed)
        vote = r.test_acc
        stages = r.extras["stage_test_acc"]
        sizes = r.extras["pseudo_sizes"] + [r.extras["final_pseudo_size"]]
        beats_stages = vote >= max(stages) - 0.005
        beats_first = vote >= stages[0] + 0.05
        monotone = all(b >= a for a, b in zip(sizes, sizes[1:]))
        good_seeds += beats_stages and beats_first and monotone
        margins.append(vote - max(stages))
    elapsed = time.perf_counter() - t0
    assert good_seeds >= 4, margins
    assert elapsed < 180.0
    announce(capsys, 6, f"vote >= stages - 0.5pp, >= stage0 + 5pp, monotone "
                        f"pseudo sizes on {good_seeds}/5 seeds (worst vote "
                        f"margin {min(margins):+.4f}) ({elapsed:.1f}s < 180s)")


# ------------------------------------------ 7: greedy-search contract


def test_07_greedy_search_contract(capsys):
    t0 = time.perf_counter()
    spec = SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16, separation=0.6,
                         noise=1.0, seed=0)
    ds = dataset_from_sbm(spec)
    space = HPSpace((
        Axis("learning_rate", (1e-2, 1e-3), 1e-2),
        Axis("epochs", (20, 30), 30),
        Axis("num_layers", (2, 3), 2),
    ))
    log = greedy_search("sgc", space, ds, seed=0)
    rerun = greedy_search("sgc", space, ds, seed=0)
    elapsed = time.perf_counter() - t0

    expected = sum(len(ax.candidates) for ax in space.axes)
    assert log.trial_count == expected == 6
    assert log.complete
    assert all(log.final_val_acc >= t.val_acc for t in log.trials)
    assert all(name in log.final_config for name in space.axis_names())
    assert [t.val_acc for t in rerun.trials] == [t.val_acc for t in log.trials]
    assert [v.chosen for v in rerun.axis_visits] == [v.chosen for v in log.axis_visits]
    assert rerun.final_config == log.final_config
    assert rerun.final_val_acc == log.final_val_acc
    assert elapsed < 300.0
    announce(capsys, 7, f"{log.trial_count} trials = sum of candidates, final "
                        f"val {log.final_val_acc:.4f} >= all trials, rerun "
                        f"identical ({elapsed:.1f}s < 300s)")


# ------------------------------------------- 8: efficiency patterns


def test_08_efficiency_patterns(capsys):
    t0 = time.perf_counter()
    spec = SyntheticSpec(50_000, 5, 0.002, 0.0002, feature_dim=16,
                         separation=0.8, noise=1.0, seed=0)
    ds = dataset_from_sbm(spec)

    sgc = run_trial("sgc", {"epochs": 1, "batch_size": 1000}, ds, seed=0)
    assert estimate_activation_memory("sgc", 1000, 10, 2, 128, 4) == 0
    assert sgc.activation_bytes == 0

    sage = run_trial("graphsage", {"epochs": 1, "batch_size": 1000,
                                   "hidden_dim": 128, "fanout": 10 ** 6,
                                   "num_layers": 2}, ds, seed=0)
    t_sgc = float(np.mean(sgc.epoch_seconds))
    t_sage = float(np.mean(sage.epoch_seconds))
    assert t_sgc < t_sage

    wins = 0
    pre_epochs, sub_epochs = [], []
    for seed in range(5):
        pre = run_trial("sign", {"epochs": 10, "batch_size": 1000,
                                 "hidden_dim": 64, "dropout": 0.2}, ds, seed=seed)
        sub = run_trial("saint-node", {"epochs": 10, "batch_size": 2000,
                                       "hidden_dim": 64}, ds, seed=seed)
        e_pre = record_convergence(pre).epochs_to_fraction_of_final(0.95)
        e_sub = record_convergence(sub).epochs_to_fraction_of_final(0.95)
        pre_epochs.append(e_pre)
        sub_epochs.append(e_sub)
        wins += e_pre <= e_sub
    assert wins >= 4, (pre_epochs, sub_epochs)

    sub_base = estimate_activation_memory("saint-node", 2000, 10, 2, 64, 4)
    assert estimate_activation_memory("saint-node", 2000, 10, 4, 64, 4) == 2 * sub_base
    assert estimate_activation_memory("saint-node", 2000, 10, 6, 64, 4) == 3 * sub_base
    for depth in (1, 2, 3):
        grown = estimate_activation_memory("graphsage", 1000, 4, depth + 1, 64, 4)
        assert grown == 4 * estimate_activation_memory("graphsage", 1000, 4, depth, 64, 4)

    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    announce(capsys, 8, f"sgc activation bytes 0; epoch {t_sgc:.3f}s < "
                        f"full-fanout {t_sage:.3f}s; 95%-of-final epochs "
                        f"{pre_epochs} <= {sub_epochs} on {wins}/5 seeds; "
                        f"estimator linear/geometric scaling exact "
                        f"({elapsed:.0f}s < 600s)")


# ---------------------------------------- 9: feature-memory high water


def traced_peak(fn) -> int:
    """Peak bytes fn allocates, measured by tracemalloc (arrays that exist
    before the call are not counted)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_09_stagewise_memory_flat_vs_precomputed_hops_linear(capsys):
    # 128-dim features keep the label-width vote cache (4 classes, one
    # matrix per stage) small next to a feature matrix, so the flat-vs-
    # linear shape is not hidden by it.
    t0 = time.perf_counter()
    spec = SyntheticSpec(2000, 4, 0.01, 0.002, feature_dim=128, seed=0)
    g, x, labels, split = generate_sbm(spec)
    x = x.astype(np.float64)
    matrix_bytes = x.nbytes
    ds = Dataset(g, x, labels, split)

    # from 2 stages on, each propagation overlaps two matrices the run owns
    # (a single stage propagates from the caller's x and peaks lower), so
    # flat means no growth from 2 to 6 stages
    stage_peaks = {}
    for k in (2, 4, 6):
        config = dict(threshold=0.9, num_layers=k, epochs=2, hidden_dim=16,
                      dropout=0.0, batch_size=512, learning_rate=0.01,
                      weight_decay=0.0, warm_start=True)
        peak = traced_peak(lambda: run_trial("engcn", config, ds, seed=0))
        stage_peaks[k] = peak / matrix_bytes
    assert stage_peaks[6] - stage_peaks[2] < 0.25, stage_peaks
    assert stage_peaks[6] <= 3.0, stage_peaks

    a = normalize_adjacency(g, "sym")
    cache_peaks = {k: traced_peak(lambda: precompute_hops(a, x, k)) / matrix_bytes
                   for k in (1, 3, 5)}
    assert all(abs(cache_peaks[k] - cache_peaks[1] - (k - 1)) <= 0.1
               for k in (1, 3, 5)), cache_peaks

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    announce(capsys, 9, "stage-wise peak " + "/".join(
        f"{stage_peaks[k]:.2f}" for k in (2, 4, 6)) + " feature matrices at "
        "2/4/6 stages; hop cache peak " + "/".join(
        f"{cache_peaks[k]:.2f}" for k in (1, 3, 5)) + " at K = 1/3/5 "
        f"(tracemalloc, {elapsed:.1f}s < 120s)")


# ------------------------------------------------ 10: real-data stretch


def test_10_real_data_stretch(capsys):
    """Optional large check on a user-converted Flickr bundle.

    Point SCALEGNN_FLICKR_BUNDLE at a directory written by save_bundle or
    bundle_from_csv; expect tens of minutes of CPU time when enabled.
    """
    bundle_dir = os.environ.get("SCALEGNN_FLICKR_BUNDLE", "")
    if not bundle_dir or not os.path.isdir(bundle_dir):
        pytest.skip("no converted real-data bundle supplied "
                    "(set SCALEGNN_FLICKR_BUNDLE)")
    from scalegnn.bundle import load_bundle

    t0 = time.perf_counter()
    g, x, labels, split = load_bundle(bundle_dir)
    ds = Dataset(g, x, labels, split, name="flickr")

    sgc = run_trial("sgc", {"num_layers": 2, "epochs": 50,
                            "learning_rate": 1e-2, "weight_decay": 1e-4,
                            "batch_size": 5000}, ds, seed=0)
    engcn = run_trial("engcn", {"num_layers": 4, "epochs": 50,
                                "hidden_dim": 512, "dropout": 0.2,
                                "learning_rate": 1e-2, "weight_decay": 0.0,
                                "batch_size": 5000, "threshold": 0.9},
                      ds, seed=0)
    elapsed = time.perf_counter() - t0
    assert abs(sgc.test_acc - 0.5035) <= 0.015, sgc.test_acc
    assert engcn.test_acc >= 0.54, engcn.test_acc
    announce(capsys, 10, f"real-data bundle: sgc test {sgc.test_acc:.4f} "
                         f"within 1.5pp of 0.5035, stage-ensemble test "
                         f"{engcn.test_acc:.4f} >= 0.54 ({elapsed:.0f}s)")
