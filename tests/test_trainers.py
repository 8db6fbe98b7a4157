"""End-to-end trainers: per-method smoke accuracy against a majority-class
baseline, configuration merging, determinism, instrumentation."""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from scalegnn import engcn, samplers, trainers
from scalegnn.graph import (DataSplit, LabelVector, induced_subgraph,
                            normalize_adjacency)
from scalegnn.harness import METHODS, default_space, estimate_activation_memory
from scalegnn.models import (HopConfig, precompute_hops, sagn_forward,
                             sgc_forward, sign_forward)
from scalegnn.nn import MLPConfig, accuracy, shuffled_batches
from scalegnn.synth import SyntheticSpec
from scalegnn.rng import make_rng
from scalegnn.samplers import (layer_wise_sample, node_wise_sample,
                               partition_graph, random_walk_sample,
                               saint_edge_sample, saint_node_sample,
                               subgraph_batch)
from scalegnn.trainers import (Dataset, _plan_source, _subset_hops,
                               dataset_from_sbm, default_config, full_plan,
                               run_trial)

SMOKE_CONFIGS = {
    "graphsage": dict(epochs=8, hidden_dim=32, batch_size=64),
    "fastgcn": dict(epochs=8, hidden_dim=32, batch_size=64, fanout=32),
    "ladies": dict(epochs=8, hidden_dim=32, batch_size=64, fanout=32),
    "clustergcn": dict(epochs=8, hidden_dim=32, batch_size=64, num_clusters=8),
    "saint-node": dict(epochs=8, hidden_dim=32, batch_size=96),
    "saint-edge": dict(epochs=8, hidden_dim=32, batch_size=96),
    "saint-rw": dict(epochs=8, hidden_dim=32, batch_size=96),
    "sgc": dict(epochs=25, batch_size=64),
    "sign": dict(epochs=20, hidden_dim=32, batch_size=64),
    "sagn": dict(epochs=20, hidden_dim=32, batch_size=64),
    "lp": dict(num_propagations=20),
    "cs": dict(epochs=30, hidden_dim=32, batch_size=64, num_propagations=10),
    "engcn": dict(epochs=6, hidden_dim=32, batch_size=64, num_layers=2),
}


@pytest.fixture(scope="module")
def dataset():
    return dataset_from_sbm(SyntheticSpec(300, 3, 0.1, 0.01, feature_dim=16,
                                          separation=2.0, seed=5))


@pytest.fixture(scope="module")
def majority_baseline(dataset):
    y_test = dataset.labels.labels[dataset.split.test]
    return np.bincount(y_test).max() / y_test.size


class TestDataset:
    def test_properties(self, dataset):
        assert dataset.num_nodes == 300
        assert dataset.num_classes == 3
        assert dataset.feature_dim == 16
        assert dataset.name == "sbm-300"

    def test_trial_records_its_dataset(self, dataset):
        r = run_trial("lp", {"num_propagations": 2}, dataset, seed=0)
        assert r.dataset == "sbm-300" and r.to_dict()["dataset"] == "sbm-300"

    def test_split_covers_all_nodes(self, dataset):
        s = dataset.split
        joined = np.concatenate([s.train, s.val, s.test])
        assert np.array_equal(np.sort(joined), np.arange(300))


class TestDefaultConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            default_config("gat")

    def test_gnn_defaults_filled(self):
        cfg = default_config("graphsage")
        assert cfg["learning_rate"] == 1e-2
        assert cfg["epochs"] == 50
        assert cfg["num_layers"] == 2
        assert cfg["batch_size"] == 1000
        assert cfg["fanout"] == 10
        assert cfg["norm_kind"] == "sym"

    def test_precompute_gets_unsearched_batch_size(self):
        cfg = default_config("sgc")
        assert cfg["batch_size"] == 1000

    def test_labelprop_defaults(self):
        cfg = default_config("cs")
        assert cfg["alpha"] == 0.75
        assert cfg["autoscale"] is True
        assert cfg["hidden_dim"] == 64  # base predictor knobs present
        assert cfg["epochs"] == 30
        # plain label propagation: only the diffusion knobs, no base MLP
        assert default_config("lp") == {"num_propagations": 20, "alpha": 0.75,
                                        "norm_kind": "sym"}

    def test_engcn_extras(self):
        cfg = default_config("engcn")
        assert cfg["threshold"] == 0.9
        assert cfg["warm_start"] is True

    def test_clustergcn_and_rw_extras(self):
        assert default_config("clustergcn")["num_clusters"] == 16
        assert default_config("saint-rw")["walk_length"] == 2


class TestRunTrialValidation:
    def test_unknown_method(self, dataset):
        with pytest.raises(ValueError, match="unknown method"):
            run_trial("gcn2", {}, dataset)

    def test_sagn_needs_hops(self, dataset):
        with pytest.raises(ValueError, match="num_layers"):
            run_trial("sagn", dict(num_layers=0, epochs=1), dataset)

    def test_mismatched_dataset(self, dataset):
        bad = Dataset(dataset.graph, dataset.features[:-1], dataset.labels,
                      dataset.split)
        with pytest.raises(ValueError, match="node count"):
            run_trial("sgc", dict(epochs=1), bad)
        # a graph smaller than the features and labels: a sampled method
        # would otherwise index past the graph's nodes
        keep = np.arange(dataset.graph.num_nodes - 50)
        small = Dataset(induced_subgraph(dataset.graph, keep)[0], dataset.features,
                        dataset.labels, dataset.split)
        for method in ("graphsage", "clustergcn"):
            with pytest.raises(ValueError, match="node count"):
                run_trial(method, dict(epochs=1), small)


@pytest.mark.parametrize("method,knob,value", [
    ("graphsage", "batch_size", 0), ("sign", "batch_size", 0), ("cs", "batch_size", 0),
    ("saint-node", "batch_size", 0), ("fastgcn", "batch_size", -4),
    ("clustergcn", "num_clusters", 0), ("saint-rw", "walk_length", -1),
    ("sgc", "epochs", 0), ("cs", "epochs", 0), ("engcn", "epochs", -1),
    ("graphsage", "hidden_dim", 0), ("sign", "hidden_dim", 0), ("engcn", "hidden_dim", 0),
    ("graphsage", "num_layers", 0), ("clustergcn", "num_layers", -2),
    ("saint-node", "num_layers", 0), ("sagn", "num_layers", 0),
    ("sgc", "num_layers", -1), ("sign", "num_layers", -1), ("engcn", "num_layers", -1),
    ("cs", "num_mlp_layers", 0)])
def test_bad_size_knob_named_before_building(dataset, monkeypatch, method, knob, value):
    def no_build(*_):
        raise AssertionError("the trial built its inputs before rejecting the knob")

    for name in ("normalize_adjacency", "precompute_hops"):
        monkeypatch.setattr(trainers, name, no_build)
    with pytest.raises(ValueError, match=f"{knob} must be >= .*, got {knob}={value}"):
        run_trial(method, {**SMOKE_CONFIGS[method], knob: value}, dataset)


@pytest.mark.parametrize("method", ["sgc", "sign"])
def test_zero_hops_train_on_the_features(dataset, method):
    """num_layers 0 is a valid size where the model can read X^0 alone."""
    r = run_trial(method, {**SMOKE_CONFIGS[method], "num_layers": 0}, dataset)
    assert len(r.loss_curve) == SMOKE_CONFIGS[method]["epochs"]


@pytest.mark.parametrize("method", sorted(SMOKE_CONFIGS))
def test_method_beats_majority_class(method, dataset, majority_baseline):
    r = run_trial(method, SMOKE_CONFIGS[method], dataset, seed=0)
    assert r.method == method
    assert r.test_acc >= majority_baseline + 0.05
    assert 0.0 <= r.val_acc <= 1.0
    assert len(r.loss_curve) == len(r.val_acc_curve) > 0
    assert all(np.isfinite(v) for v in r.val_acc_curve)


@pytest.fixture(scope="module")
def without_val(dataset):
    """The 300-node SBM with its val rows moved to test."""
    split = dataset.split
    moved = DataSplit(split.train, np.zeros(0, dtype=np.int64),
                      np.concatenate([split.test, split.val]))
    return Dataset(dataset.graph, dataset.features, dataset.labels, moved)


@pytest.mark.parametrize("method", sorted(SMOKE_CONFIGS))
def test_split_without_val_scores_val_zero(method, without_val):
    """Every method reports val 0.0 on a split without val rows, and so
    does every point of its val curve and every val figure in extras."""
    r = run_trial(method, SMOKE_CONFIGS[method], without_val, seed=0)
    assert r.val_acc == 0.0
    assert r.val_acc_curve and set(r.val_acc_curve) == {0.0}
    for key in ("base_val_acc", "stage_val_acc"):
        assert set(np.atleast_1d(r.extras.get(key, 0.0))) == {0.0}
    assert np.isfinite(r.test_acc)


class TestTrialSemantics:
    def test_val_acc_is_best_epoch_value(self, dataset):
        r = run_trial("sgc", SMOKE_CONFIGS["sgc"], dataset, seed=0)
        assert r.val_acc == pytest.approx(max(r.val_acc_curve))
        assert r.val_acc_curve[r.best_epoch] == pytest.approx(r.val_acc)

    def test_deterministic_given_seed(self, dataset):
        a = run_trial("graphsage", SMOKE_CONFIGS["graphsage"], dataset, seed=4)
        b = run_trial("graphsage", SMOKE_CONFIGS["graphsage"], dataset, seed=4)
        assert a.val_acc == b.val_acc and a.test_acc == b.test_acc
        assert a.loss_curve == b.loss_curve
        assert a.extras["param_checksum"] == b.extras["param_checksum"]

    def test_seed_changes_model(self, dataset):
        a = run_trial("sign", SMOKE_CONFIGS["sign"], dataset, seed=0)
        b = run_trial("sign", SMOKE_CONFIGS["sign"], dataset, seed=1)
        assert a.extras["param_checksum"] != b.extras["param_checksum"]

    def test_instrument_off_does_not_change_training(self, dataset):
        on = run_trial("sgc", SMOKE_CONFIGS["sgc"], dataset, seed=0,
                       instrument=True)
        off = run_trial("sgc", SMOKE_CONFIGS["sgc"], dataset, seed=0,
                        instrument=False)
        assert off.iterations_per_second == 0.0
        assert all(s == 0.0 for s in off.epoch_seconds)
        assert on.val_acc == off.val_acc
        assert on.extras["param_checksum"] == off.extras["param_checksum"]

    def test_instrument_off_zeroes_precompute_seconds(self, dataset):
        assert dataset.num_nodes == 300
        on = run_trial("sgc", SMOKE_CONFIGS["sgc"], dataset, seed=0)
        off = run_trial("sgc", SMOKE_CONFIGS["sgc"], dataset, seed=0,
                        instrument=False)
        assert on.extras["precompute_seconds"] > 0.0
        assert off.extras["precompute_seconds"] == 0.0
        assert off.extras["eval_seconds"] == 0.0
        assert on.extras["param_checksum"] == off.extras["param_checksum"]

    def test_activation_bytes_match_estimator(self, dataset):
        cfg = dict(SMOKE_CONFIGS["graphsage"])
        r = run_trial("graphsage", cfg, dataset, seed=0)
        merged = default_config("graphsage")
        merged.update(cfg)
        want = estimate_activation_memory(
            "graphsage", b=merged["batch_size"], r=merged["fanout"],
            L=merged["num_layers"], D=merged["hidden_dim"],
            itemsize=dataset.features.itemsize)
        assert dataset.features.itemsize == 4  # float32 features: 4 bytes a scalar
        assert r.activation_bytes == want

    def test_extras_annotate_category(self, dataset):
        r = run_trial("saint-rw", SMOKE_CONFIGS["saint-rw"], dataset, seed=0)
        assert r.extras["category"] == "subgraph-wise"
        assert r.extras["active_input_nodes"] > 0

    def test_precompute_timing_split_out(self, dataset):
        r = run_trial("sign", SMOKE_CONFIGS["sign"], dataset, seed=0)
        assert r.extras["precompute_seconds"] >= 0.0

    def test_evaluation_timed_apart_from_training(self, dataset):
        r = run_trial("sign", SMOKE_CONFIGS["sign"], dataset, seed=0)
        assert r.extras["eval_seconds"] > 0.0
        assert len(r.epoch_seconds) == SMOKE_CONFIGS["sign"]["epochs"]


def test_sgc_space_names_no_axis_its_trainer_ignores(dataset):
    space = default_space("sgc")
    base = run_trial("sgc", {}, dataset, seed=0).extras["param_checksum"]
    for axis in space.axes:
        other = next(c for c in axis.candidates if c != axis.default)
        r = run_trial("sgc", {axis.name: other}, dataset, seed=0)
        assert r.extras["param_checksum"] != base, axis.name
    # the knobs left out are ones sgc's trainer never reads
    ignored = run_trial("sgc", {"dropout": 0.7, "hidden_dim": 512}, dataset,
                        seed=0)
    assert ignored.extras["param_checksum"] == base


class TestLabelDiffusionTrainer:
    def test_zero_propagations_single_row_curve(self, dataset):
        r = run_trial("lp", dict(num_propagations=0), dataset, seed=0)
        assert len(r.loss_curve) == 1
        assert r.loss_curve[0] == 0.0  # no step taken, delta is zero

    def test_step_deltas_shrink(self, dataset):
        r = run_trial("lp", dict(alpha=0.5, num_propagations=15), dataset,
                      seed=0)
        assert r.loss_curve[-1] < r.loss_curve[0]
        assert all(d >= 0.0 for d in r.loss_curve)

    def test_cs_reports_base_val(self, dataset):
        r = run_trial("cs", SMOKE_CONFIGS["cs"], dataset, seed=0)
        assert "base_val_acc" in r.extras
        assert r.val_acc >= r.extras["base_val_acc"] - 0.05

    def test_lp_and_cs_run_their_own_pipelines(self):
        # the acceptance tests' 3k SBM, each method at its default config
        ds = dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                            separation=0.6, noise=1.0, seed=0))
        lp = run_trial("lp", {}, ds, seed=0)
        cs = run_trial("cs", {}, ds, seed=0)
        assert lp.loss_curve != cs.loss_curve
        assert lp.val_acc_curve != cs.val_acc_curve
        # correct-and-smooth beats its own base MLP by a wide margin
        assert cs.val_acc >= 0.99
        assert cs.val_acc > cs.extras["base_val_acc"]
        assert set(lp.config) == {"num_propagations", "alpha", "norm_kind"}
        assert "base_val_acc" not in lp.extras


# short precompute configs whose val rows span several batch-sized chunks
PRECOMPUTE = {"sgc": dict(epochs=8, batch_size=256),
              "sign": dict(epochs=8, hidden_dim=32, batch_size=256, dropout=0.2),
              "sagn": dict(epochs=8, hidden_dim=32, batch_size=256, dropout=0.2)}


@pytest.fixture(scope="module")
def sbm3k():
    """The acceptance tests' 3k-node SBM."""
    return dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                          separation=0.6, noise=1.0, seed=0))


def _full_graph_logits(method, cfg, hops, ds):
    """params -> eval-mode logits of every node from one forward of the
    model over all of hops."""
    K, d, c = int(cfg["num_layers"]), ds.feature_dim, ds.num_classes
    if method == "sgc":
        return lambda p: sgc_forward(hops, p, MLPConfig([d, c]))[0]
    if method == "sign":
        model_cfg = HopConfig(K, d, int(cfg["hidden_dim"]), c)
        return lambda p: sign_forward(hops, p, model_cfg)[0]
    model_cfg = HopConfig(K, d, int(cfg["hidden_dim"]), c)
    return lambda p: sagn_forward(hops, p, model_cfg)[0]


def _oracle_best_epoch(full_logits):
    """A stand-in for trainers._best_epoch that forwards the whole graph
    every epoch and, on each val improvement, keeps that forward's logits,
    from which train and test are then scored."""
    def build(dataset, state, classify):
        split, y = dataset.split, dataset.labels.labels
        best = {"epoch": -1, "val_acc": 0.0, "logits": None}

        def evaluate(epoch):
            logits = full_logits(state())
            val = accuracy(logits[split.val], y[split.val])
            if best["epoch"] < 0 or val > best["val_acc"]:
                best.update(epoch=epoch, val_acc=val, logits=logits)
            return val

        return evaluate, lambda: (best["epoch"], best["val_acc"],
                                  lambda rows: best["logits"][rows].argmax(axis=1))
    return build


# the methods that report their final state rather than their best val epoch
FINAL_STATE = ("lp", "cs", "engcn")
BELOW_FLOOR = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 2: the layer-wise estimators do not match "
                        "their papers yet (val 0.232 at default_config)")


@pytest.fixture(scope="module")
def default_trials(sbm3k):
    """Every method at its default_config on the 3k SBM, seed 0, one after
    another on one fresh Dataset."""
    ds = dataclasses.replace(sbm3k)
    return {m: run_trial(m, default_config(m), ds, seed=0)
            for m in sorted(METHODS)}


@pytest.fixture(scope="module")
def precompute_seed_vals(sbm3k):
    """The val accuracies of sgc, sign and sagn at default_config on the 3k
    SBM, one trial per seed 0-4, all on one fresh Dataset."""
    ds = dataclasses.replace(sbm3k)
    return {m: np.array([run_trial(m, default_config(m), ds, seed=s).val_acc
                         for s in range(5)])
            for m in PRECOMPUTE}


class TestDefaultConfigTrials:
    @pytest.mark.parametrize("method", [
        pytest.param(m, marks=BELOW_FLOOR) if m in ("fastgcn", "ladies") else m
        for m in sorted(METHODS)])
    def test_val_clears_majority_floor(self, default_trials, sbm3k, method):
        y_val = sbm3k.labels.labels[sbm3k.split.val]
        floor = np.bincount(y_val).max() / y_val.size + 0.10
        assert default_trials[method].val_acc >= floor

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_record_names_the_reported_epoch(self, default_trials, method):
        r = default_trials[method]
        assert 0 <= r.best_epoch < len(r.val_acc_curve)
        if method in FINAL_STATE:
            assert r.best_epoch == len(r.val_acc_curve) - 1
        else:
            assert r.val_acc_curve[r.best_epoch] == r.val_acc

    @pytest.mark.parametrize("method", [
        "sign", pytest.param("sagn", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 5: SAGN's skip path swamps its hop attention"))])
    def test_superset_of_sgc_input_clears_sgc_seed_spread(self, precompute_seed_vals, method):
        """sign and sagn read every hop sgc reads, so over seeds 0-4 each
        one's mean val is at least sgc's mean val minus sgc's std."""
        sgc = precompute_seed_vals["sgc"]
        assert precompute_seed_vals[method].mean() >= sgc.mean() - sgc.std()


class TestPrecomputeEvaluation:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("method", sorted(PRECOMPUTE))
    def test_matches_full_graph_oracle(self, sbm3k, monkeypatch, method, seed):
        cfg = {**default_config(method), **PRECOMPUTE[method]}
        ds = dataclasses.replace(sbm3k)
        got = run_trial(method, cfg, ds, seed=seed)
        hops = ds.hops(cfg["norm_kind"], int(cfg["num_layers"]))[0]
        monkeypatch.setattr(trainers, "_best_epoch", _oracle_best_epoch(
            _full_graph_logits(method, cfg, hops, ds)))
        want = run_trial(method, cfg, ds, seed=seed)
        assert len(set(want.val_acc_curve)) > 1  # the best epoch is a choice
        assert got.val_acc_curve == want.val_acc_curve
        assert ((got.best_epoch, got.val_acc, got.train_acc, got.test_acc)
                == (want.best_epoch, want.val_acc, want.train_acc, want.test_acc))
        assert got.loss_curve == want.loss_curve
        assert got.extras["param_checksum"] == want.extras["param_checksum"]

    @pytest.mark.parametrize("method", sorted(PRECOMPUTE))
    def test_forwards_see_batch_sized_chunks(self, sbm3k, monkeypatch, method):
        """Each epoch trains on the train rows and scores the val rows, in
        chunks of batch_size; train and test are scored once, after fit.
        sgc gathers only the hop it reads."""
        cfg, b = {**PRECOMPUTE[method], "epochs": 3}, PRECOMPUTE[method]["batch_size"]
        name = f"{method}_forward"
        original = getattr(trainers, name)
        calls = []  # (rows, mode, which hops are gathered)

        def spy(hops, params, model_cfg, mode="eval", rng=None):
            calls.append((hops.hops[-1].shape[0], mode,
                          [h is not None for h in hops.hops]))
            return original(hops, params, model_cfg, mode, rng)

        monkeypatch.setattr(trainers, name, spy)
        run_trial(method, cfg, sbm3k, seed=0)
        split = sbm3k.split
        chunks = lambda n: [min(b, n - s) for s in range(0, n, b)]
        train, val, test = (chunks(r.size) for r in (split.train, split.val, split.test))
        assert [n for n, _, _ in calls] == (train + val) * 3 + train + test
        K = PRECOMPUTE[method].get("num_layers", default_config(method)["num_layers"])
        gathered = [True] * (K + 1) if method != "sgc" else [False] * K + [True]
        assert all(g == gathered for _, _, g in calls)
        modes = [m for _, m, _ in calls]
        assert modes == (["train"] * len(train) + ["eval"] * len(val)) * 3 \
            + ["eval"] * (len(train) + len(test))

    def test_sign_peak_below_one_full_graph_hidden_layer(self, sbm3k):
        """Scoring in batch-sized chunks keeps a sign trial's memory off the
        graph size: with the hops built beforehand, the trial's tracemalloc
        peak stays under half of one full-graph hidden layer."""
        cfg = dict(epochs=2, hidden_dim=256, batch_size=128, num_layers=2)
        ds = dataclasses.replace(sbm3k)
        ds.hops("sym", 2)
        tracemalloc.start()
        try:
            run_trial("sign", cfg, ds, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        hidden_layer = sbm3k.num_nodes * 3 * 256 * sbm3k.features.itemsize
        assert peak < hidden_layer / 2, (peak, hidden_layer)


@pytest.mark.parametrize("method", ["saint-rw", "cs"])
def test_full_graph_scoring_peak_below_one_all_node_hidden_layer(sbm3k, method):
    """A sampled trial's per-epoch full-graph evaluation runs its dense part
    in batch-sized row blocks, and cs scores every node with its base MLP in
    batch-sized chunks: with the adjacency (and its scipy forms) built
    beforehand, neither trial's tracemalloc peak reaches one all-node hidden
    layer."""
    cfg = dict(epochs=2, hidden_dim=256, batch_size=128)
    ds = dataclasses.replace(sbm3k)
    a = ds.adjacency("sym")
    for dtype in (np.float64, ds.features.dtype):
        a.to_scipy(dtype)
    tracemalloc.start()
    try:
        run_trial(method, cfg, ds, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden_layer = sbm3k.num_nodes * 256 * sbm3k.features.itemsize
    assert peak < hidden_layer, (peak, hidden_layer)


class TestEnsembleTrainer:
    def test_stage_metrics_surface(self, dataset):
        r = run_trial("engcn", SMOKE_CONFIGS["engcn"], dataset, seed=0)
        stages = SMOKE_CONFIGS["engcn"]["num_layers"] + 1
        assert len(r.extras["stage_val_acc"]) == stages
        assert len(r.extras["pseudo_sizes"]) == stages
        sizes = r.extras["pseudo_sizes"] + [r.extras["final_pseudo_size"]]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_zero_epochs_log_one_row_per_stage(self, dataset):
        cfg = dict(SMOKE_CONFIGS["engcn"], epochs=0)
        r = run_trial("engcn", cfg, dataset, seed=0)
        stages = cfg["num_layers"] + 1
        assert r.loss_curve == [0.0] * stages
        assert r.val_acc_curve == r.extras["stage_val_acc"]
        assert r.best_epoch == stages - 1  # the vote is the final state
        assert r.iterations_per_second == 0

    def test_steps_add_up_over_stages(self, dataset):
        cfg = SMOKE_CONFIGS["engcn"]
        r = run_trial("engcn", cfg, dataset, seed=0)
        assert len(r.loss_curve) == (cfg["num_layers"] + 1) * cfg["epochs"]
        # each stage runs ceil(pseudo-set size / batch size) steps per epoch
        steps = sum(-(-size // cfg["batch_size"]) * cfg["epochs"]
                    for size in r.extras["pseudo_sizes"])
        assert r.iterations_per_second * sum(r.epoch_seconds) == pytest.approx(steps)


class TestHelpers:
    def test_full_plan_layout(self, dataset):
        a = normalize_adjacency(dataset.graph, "sym")
        plan = full_plan(a)
        assert plan.shared and len(plan.blocks) == 1
        assert plan.target_nodes.size == dataset.num_nodes
        assert plan.nodes(2).size == dataset.num_nodes
        assert plan.block(0).shape == (dataset.num_nodes, dataset.num_nodes)

    def test_prebuilt_table_plans_match_one_shot_calls(self, dataset):
        g, train, dtype = dataset.graph, dataset.split.train, dataset.features.dtype
        a = normalize_adjacency(g, "sym")

        def one_shot(method, cfg, rng):
            """The epoch _plan_source draws, from samplers that build their
            own distributions on every call, in the features' dtype."""
            bs, L, q = cfg["batch_size"], cfg["num_layers"], cfg.get("fanout")
            if method in ("graphsage", "fastgcn", "ladies"):
                for b in shuffled_batches(rng, train, bs):
                    yield (node_wise_sample(g, a, b, q, L, rng, dtype) if method == "graphsage"
                           else layer_wise_sample(g, a, b, q, L, method, rng, dtype=dtype))
                return
            if method == "clustergcn":
                parts, per = partition_graph(g, 8), max(1, round(bs / (g.num_nodes / 8)))
                order = rng.permutation(8)
                sets = [np.concatenate([parts.cluster_nodes(c) for c in order[s:s + per]])
                        for s in range(0, 8, per)]
            else:
                draw = {"saint-node": lambda: saint_node_sample(a, bs, rng),
                        "saint-edge": lambda: saint_edge_sample(g, bs // 2, rng),
                        "saint-rw": lambda: random_walk_sample(g, bs // 3, 2, rng)}[method]
                sets = [draw() for _ in range(round(g.num_nodes / bs))]
            for nodes in sets:
                yield subgraph_batch(g, a, nodes, dtype)

        for method in ("graphsage", "fastgcn", "ladies", "clustergcn",
                       "saint-node", "saint-edge", "saint-rw"):
            cfg = {**default_config(method), **SMOKE_CONFIGS[method], "num_layers": 2,
                   "batch_size": 24}
            got = list(_plan_source(method, cfg, dataset, a)(make_rng(3)))
            want = list(one_shot(method, cfg, make_rng(3)))
            assert len(got) == len(want) > 1, method
            for p, q in zip(got, want):
                assert all(np.array_equal(x, y) for x, y in zip(p.node_sets, q.node_sets))
                for x, y in zip(p.blocks, q.blocks):
                    assert x.dtype == y.dtype == dtype, method
                    assert (x != y).nnz == 0 and np.array_equal(x.indices, y.indices), method

    @pytest.mark.parametrize("method,builder", [
        ("clustergcn", "partition_graph"), ("saint-node", "saint_node_probs"),
        ("saint-edge", "saint_edge_table"), ("fastgcn", "fastgcn_layer_probs"),
        ("ladies", "fastgcn_layer_probs")])
    def test_sampled_trial_builds_its_table_once(self, dataset, monkeypatch,
                                                 method, builder):
        """Counted in trainers and in samplers, so a sampler called without
        its prebuilt table, which builds its own, counts too."""
        calls = []
        original = getattr(trainers, builder)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (trainers, samplers):
            monkeypatch.setattr(module, builder, counting)
        run_trial(method, {**SMOKE_CONFIGS[method], "epochs": 3}, dataset, seed=0)
        assert len(calls) == 1

    def test_subset_hops_rows(self, dataset):
        a = normalize_adjacency(dataset.graph, "sym")
        hops = precompute_hops(a, dataset.features.astype(np.float64), 2)
        idx = np.array([3, 1, 7])
        sub = _subset_hops(hops, idx)
        assert sub.K == 2 and len(sub.hops) == 3
        for full, small in zip(hops.hops, sub.hops):
            assert np.array_equal(small, full[idx])
        hops.release()


class TestTrialCache:
    # per slot: the builder patched in trainers, two calls with different
    # keys, and the weakref-able part of the slot's value
    SLOTS = [
        ("normalize_adjacency",
         lambda c: c.adjacency("sym"), lambda c: c.adjacency("row"), lambda v: v),
        ("precompute_hops",
         lambda c: c.hops("sym", 1), lambda c: c.hops("sym", 2), lambda v: v[0]),
        ("_train_mlp_base",
         lambda c: c.mlp_base({**default_config("cs"), "epochs": 2}, 0),
         lambda c: c.mlp_base({**default_config("cs"), "epochs": 3}, 0),
         lambda v: v[0]),
    ]

    @pytest.mark.parametrize("builder, first, second, part", SLOTS,
                             ids=["adjacency", "hops", "mlp_base"])
    def test_slot_drops_old_value_before_building(self, dataset, monkeypatch,
                                                  builder, first, second, part):
        ds = dataclasses.replace(dataset)
        assert part(first(ds)) is part(first(ds))  # a hit returns the held value
        old = weakref.ref(part(first(ds)))
        original = getattr(trainers, builder)
        dead_at_build = []

        def build(*args, **kwargs):
            dead_at_build.append(old() is None)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainers, builder, build)
        second(ds)
        assert dead_at_build == [True]

    def test_trials_sharing_a_base_model_do_not_share_lists(self, dataset):
        ds = dataclasses.replace(dataset)
        cfg = {"epochs": 20, "num_propagations": 2}
        a = run_trial("cs", {**cfg, "alpha": 0.5}, ds)
        b = run_trial("cs", {**cfg, "alpha": 0.9}, ds)
        assert a.loss_curve == b.loss_curve  # one base model, trained once
        want = (list(b.loss_curve), list(b.val_acc_curve), list(b.epoch_seconds))
        for curve in (a.loss_curve, a.val_acc_curve, a.epoch_seconds):
            curve.append(-1.0)
        assert (b.loss_curve, b.val_acc_curve, b.epoch_seconds) == want

    # a sequence that warms the Dataset for every method: sgc's hops before
    # cs, sign's before sagn, and sign (K = 2 >= engcn's 2 stages) right
    # before engcn, so that engcn borrows its stages' features
    WARM_ORDER = ("sgc", "cs", "lp", "graphsage", "fastgcn", "ladies",
                  "clustergcn", "saint-node", "saint-edge", "saint-rw",
                  "sign", "sagn", "sign", "engcn")

    def test_warm_dataset_changes_no_result(self, dataset):
        assert set(self.WARM_ORDER) == set(METHODS)
        warm = dataclasses.replace(dataset)
        for method in self.WARM_ORDER:
            got, want = (run_trial(method, SMOKE_CONFIGS[method], ds, seed=0,
                                   instrument=False).to_dict()
                         for ds in (warm, dataclasses.replace(dataset)))
            assert got == want, method

    def test_trials_share_adjacency_and_hops(self, dataset, monkeypatch):
        """engcn -> sign -> sagn -> engcn normalizes once and propagates the
        hops once; the second engcn borrows them and makes only label-width
        products."""
        ds = dataclasses.replace(dataset)
        built = {}
        for name in ("normalize_adjacency", "precompute_hops"):
            original = getattr(trainers, name)

            def count(*args, _name=name, _original=original, **kwargs):
                built[_name] = built.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(trainers, name, count)
        widths = []
        spmm = engcn.spmm
        monkeypatch.setattr(engcn, "spmm", lambda a, x: widths.append(x.shape[1]) or spmm(a, x))
        for method in ("engcn", "sign", "sagn", "engcn"):
            widths.clear()
            run_trial(method, SMOKE_CONFIGS[method], ds, seed=0)
        assert built == {"normalize_adjacency": 1, "precompute_hops": 1}
        assert widths == [dataset.num_classes] * SMOKE_CONFIGS["engcn"]["num_layers"]

    def test_trial_keeps_only_the_slots_it_reads(self, dataset):
        """Each trial drops the slots its category does not read; engcn
        also drops hops of another norm kind."""
        ds = dataclasses.replace(dataset)
        cs = {**default_config("cs"), **SMOKE_CONFIGS["cs"], "norm_kind": "row"}
        base_key = (0, *(cs[k] for k in trainers.MLP_BASE_KNOBS))
        steps = [("sign", {}, {"adjacency": "sym", "hops": ("sym", 2)}),
                 ("graphsage", {}, {"adjacency": "sym"}),
                 ("cs", cs, {"adjacency": "row", "mlp_base": base_key}),
                 ("sign", {}, {"adjacency": "sym", "hops": ("sym", 2)}),
                 ("engcn", {}, {"adjacency": "sym", "hops": ("sym", 2)}),
                 ("sign", {"norm_kind": "row"}, {"adjacency": "row", "hops": ("row", 2)}),
                 ("engcn", {}, {"adjacency": "sym"})]
        for method, cfg, want in steps:
            run_trial(method, {**SMOKE_CONFIGS[method], **cfg}, ds, seed=0)
            assert {slot: key for slot, (key, _) in ds._slots.items()} == want, method

    def test_slots_do_not_keep_the_dataset_alive(self, dataset):
        ds = dataclasses.replace(dataset)
        ds.adjacency("sym")
        ds.hops("sym", 2)
        ds.mlp_base({**default_config("cs"), "epochs": 2}, 0)
        assert set(ds._slots) == {"adjacency", "hops", "mlp_base"}
        ref = weakref.ref(ds)
        gc.disable()
        try:
            del ds  # reference counting alone frees it: no cycle through a slot
            assert ref() is None
        finally:
            gc.enable()

    def test_failed_build_leaves_the_slot_empty(self, dataset, monkeypatch):
        ds = dataclasses.replace(dataset)

        def fail(*args):
            raise RuntimeError("build failed")

        monkeypatch.setattr(trainers, "precompute_hops", fail)
        with pytest.raises(RuntimeError, match="build failed"):
            run_trial("sign", SMOKE_CONFIGS["sign"], ds, seed=0)
        assert set(ds._slots) == {"adjacency"}
        monkeypatch.undo()
        for method in ("graphsage", "sign"):  # the next trials evict and build as usual
            run_trial(method, SMOKE_CONFIGS[method], ds, seed=0)
        assert set(ds._slots) == {"adjacency", "hops"}

    def test_dataset_fields_cannot_be_reassigned(self, dataset):
        ds = dataclasses.replace(dataset)
        ds.adjacency("sym")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ds.features = dataset.features * 2
        assert dataclasses.replace(ds, name="copy")._slots == {}  # a new Dataset starts cold


@pytest.mark.parametrize("method", sorted(METHODS))
def test_training_never_reads_val_or_test_labels(sbm3k, method):
    """Permuting the val and test labels and shifting them by one class
    leaves every method's training bit-identical: its loss curve and final
    parameters (engcn's checksum is a placeholder, so its loss curve, which
    follows its pseudo labels, is the check). A Dataset's slots never cross
    to another, so the cs base model is trained on each."""
    cfg = default_config(method)
    if "epochs" in cfg:
        cfg["epochs"] = min(cfg["epochs"], 5)
    y, split, c = sbm3k.labels.labels, sbm3k.split, sbm3k.num_classes
    held_out = np.concatenate([split.val, split.test])
    moved = y.copy()
    moved[held_out] = (y[np.random.default_rng(0).permutation(held_out)] + 1) % c
    assert (moved[held_out] != y[held_out]).any()
    other = Dataset(sbm3k.graph, sbm3k.features, LabelVector(moved, c), split)
    a = run_trial(method, cfg, sbm3k, seed=0)
    b = run_trial(method, cfg, other, seed=0)
    assert a.loss_curve == b.loss_curve
    assert a.extras["param_checksum"] == b.extras["param_checksum"]
