"""Benchmark harness: search spaces, greedy search mechanics, cost
estimators, convergence records, artifact writers."""

import dataclasses
import json

import numpy as np
import pytest

from scalegnn import trainers
from scalegnn.harness import (GNN_SEARCH_SPACE, LP_SEARCH_SPACE, METHODS,
                              Axis, ComplexityEstimate, ConvergenceCurve,
                              GreedySearchLog, HPSpace, TrialResult,
                              default_space, estimate_activation_memory,
                              estimate_complexity, greedy_search,
                              read_trials_jsonl,
                              record_convergence, write_bench_report,
                              write_search_log, write_trials_jsonl)
from scalegnn.synth import SyntheticSpec
from scalegnn.trainers import dataset_from_sbm, run_trial


@pytest.fixture(scope="module")
def sbm3k():
    """The acceptance tests' 3k-node SBM."""
    return dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                          separation=0.6, noise=1.0, seed=0))


@pytest.fixture(scope="module")
def tiny_dataset():
    return dataset_from_sbm(SyntheticSpec(160, 2, 0.1, 0.01, feature_dim=8,
                                          separation=1.5, seed=11))


def stub_result(method, cfg, seed, val_acc):
    return TrialResult(method=method, config=dict(cfg), seed=seed,
                       train_acc=1.0, val_acc=val_acc, test_acc=val_acc,
                       best_epoch=0, loss_curve=[1.0], val_acc_curve=[val_acc],
                       epoch_seconds=[0.01], iterations_per_second=100.0,
                       activation_bytes=0, extras={})


def untimed(value):
    """value with every duration key removed, at any depth."""
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items()
                if not (k.endswith("seconds") or k == "iterations_per_second")}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls."""
    original = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def make_stub_runner(score):
    """Deterministic runner whose val acc is score(cfg); records calls."""
    calls = []

    def runner(method, cfg, dataset, seed):
        calls.append(dict(cfg))
        return stub_result(method, cfg, seed, score(cfg))

    runner.calls = calls
    return runner


class TestMethodRegistry:
    def test_thirteen_methods(self):
        assert len(METHODS) == 13

    def test_categories(self):
        cats = {m.category for m in METHODS.values()}
        assert cats == {"node-wise", "layer-wise", "subgraph-wise",
                        "precompute", "labelprop", "stagewise"}

    def test_names_match_keys(self):
        assert all(spec.name == key for key, spec in METHODS.items())


class TestSearchSpaces:
    def test_gnn_axis_candidates(self):
        by = {a.name: list(a.candidates) for a in GNN_SEARCH_SPACE.axes}
        assert by["learning_rate"] == [1e-2, 1e-3, 1e-4]
        assert by["weight_decay"] == [1e-4, 2e-4, 4e-4]
        assert by["dropout"] == [0.1, 0.2, 0.5, 0.7]
        assert by["epochs"] == [20, 30, 40, 50]
        assert by["hidden_dim"] == [128, 256, 512]
        assert by["num_layers"] == [2, 4, 6]
        assert by["batch_size"] == [1000, 2000, 5000]

    def test_gnn_defaults(self):
        assert GNN_SEARCH_SPACE.defaults() == {
            "learning_rate": 1e-2, "weight_decay": 1e-4, "dropout": 0.2,
            "epochs": 50, "hidden_dim": 128, "num_layers": 2,
            "batch_size": 1000}

    def test_lp_axis_candidates(self):
        by = {a.name: list(a.candidates) for a in LP_SEARCH_SPACE.axes}
        assert by["num_propagations"] == [2, 20, 50]
        assert by["alpha"] == [0.5, 0.75, 0.9, 0.99]
        assert by["norm_kind"] == ["row", "col", "sym"]
        assert by["autoscale"] == [True, False]
        assert by["num_mlp_layers"] == [2, 3, 4]

    def test_lp_defaults(self):
        assert LP_SEARCH_SPACE.defaults() == {
            "num_propagations": 20,
            "alpha": 0.75, "norm_kind": "sym", "autoscale": True,
            "num_mlp_layers": 2}

    def test_precompute_space_drops_batch_size(self):
        for m in ("sgc", "sign", "sagn"):
            names = default_space(m).axis_names()
            assert "batch_size" not in names
            assert "num_layers" in names

    def test_sampling_space_keeps_batch_size(self):
        for m in ("graphsage", "ladies", "saint-rw", "engcn"):
            assert "batch_size" in default_space(m).axis_names()

    def test_labelprop_space(self):
        assert default_space("cs").axis_names() == [
            "num_propagations", "alpha", "norm_kind", "autoscale",
            "num_mlp_layers"]
        # plain label propagation has no base MLP to autoscale or deepen
        assert default_space("lp").axis_names() == [
            "num_propagations", "alpha", "norm_kind"]

    def test_axis_default_must_be_candidate(self):
        with pytest.raises(ValueError):
            Axis("lr", [0.1, 0.2], 0.3)

    def test_space_rejects_duplicate_axes(self):
        with pytest.raises(ValueError):
            HPSpace([Axis("a", [1], 1), Axis("a", [2], 2)])

    def test_without(self):
        reduced = GNN_SEARCH_SPACE.without("batch_size")
        assert "batch_size" not in reduced.axis_names()
        assert len(reduced.axes) == len(GNN_SEARCH_SPACE.axes) - 1


class TestGreedySearch:
    def space(self):
        return HPSpace([Axis("alpha", [1, 2, 3], 1),
                        Axis("beta", [10, 20], 10)])

    def test_trial_count_is_sum_not_product(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.5)
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        assert log.trial_count == 5  # 3 + 2, not 3 * 2
        # the incumbent (alpha 1, beta 10) is logged on both axes, run once
        assert len(runner.calls) == 4

    def test_repeated_config_reuses_earlier_result(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.9 if c["alpha"] == 2 else 0.1)
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        alpha_visit, beta_visit = log.axis_visits
        assert beta_visit.results[0] is alpha_visit.results[1]
        assert [(c["alpha"], c["beta"]) for c in runner.calls] == [
            (1, 10), (2, 10), (3, 10), (2, 20)]

    def test_ties_pick_earlier_candidate(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.5)
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        assert log.final_config["alpha"] == 1
        assert log.final_config["beta"] == 10

    def test_chosen_value_persists_into_later_axes(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.9 if c["alpha"] == 3 else 0.1)
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        assert log.final_config["alpha"] == 3
        # both beta trials are logged with the winning alpha held fixed
        beta_trials = log.axis_visits[1].results
        assert [t.config["alpha"] for t in beta_trials] == [3, 3]

    def test_final_val_acc_bounds_all_trials(self, tiny_dataset):
        runner = make_stub_runner(
            lambda c: 0.1 * c["alpha"] + 0.01 * c["beta"])
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        accs = [t.val_acc for t in log.trials]
        assert log.final_val_acc >= max(accs) - 1e-12
        assert log.complete

    def test_incumbent_default_always_trialed(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.5)
        greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        first_visit = runner.calls[:3]
        assert any(c["alpha"] == 1 and c["beta"] == 10 for c in first_visit)

    def test_budget_marks_incomplete(self, tiny_dataset):
        # 4 distinct configs: the beta axis re-logs the incumbent (1, 10)
        # without running it, so budget 3 runs 3 and logs 4 trials
        runner = make_stub_runner(lambda c: 0.5)
        log = greedy_search("sgc", self.space(), tiny_dataset, budget=3,
                            runner=runner)
        assert not log.complete
        assert len(runner.calls) == 3 and log.trial_count == 4
        runner = make_stub_runner(lambda c: 0.5)
        log = greedy_search("sgc", self.space(), tiny_dataset, budget=4,
                            runner=runner)
        assert log.complete
        assert len(runner.calls) == 4 and log.trial_count == 5

    def test_empty_space_rejected(self, tiny_dataset):
        with pytest.raises(ValueError):
            greedy_search("sgc", HPSpace([]), tiny_dataset)

    def test_real_runner_deterministic(self, tiny_dataset):
        space = HPSpace([Axis("epochs", [2, 4], 2),
                         Axis("learning_rate", [0.01, 0.1], 0.01)])
        a = greedy_search("sgc", space, tiny_dataset, seed=3)
        b = greedy_search("sgc", space, tiny_dataset, seed=3)
        assert a.final_config == b.final_config
        assert a.final_val_acc == b.final_val_acc
        assert [t.val_acc for t in a.trials] == [t.val_acc for t in b.trials]

    @pytest.mark.parametrize("method, axes", [
        ("sgc", ("epochs", "num_layers")),
        ("cs", ("norm_kind", "num_mlp_layers")),
    ])
    def test_shared_cache_changes_nothing(self, sbm3k, monkeypatch, method, axes):
        space = default_space(method)
        space = space.without(*(n for n in space.axis_names() if n not in axes))
        runs = []

        def uncached(m, cfg, ds, seed):  # each trial on a fresh Dataset
            runs.append(dict(cfg))
            return run_trial(m, cfg, dataclasses.replace(ds), seed)

        alone = greedy_search(method, space, sbm3k, runner=uncached)
        norms = counting(monkeypatch, trainers, "normalize_adjacency")
        bases = counting(monkeypatch, trainers, "_train_mlp_base")
        hops = counting(monkeypatch, trainers, "precompute_hops")
        shared = greedy_search(method, space, dataclasses.replace(sbm3k))
        assert untimed(shared.to_dict()) == untimed(alone.to_dict())
        # the one-value adjacency slot rebuilds whenever the norm kind
        # differs from the previous run trial's
        kinds = [c["norm_kind"] for c in runs]
        assert len(norms) == 1 + sum(a != b for a, b in zip(kinds, kinds[1:]))
        assert len(norms) < len(runs)
        if method == "sgc":
            assert len(norms) == 1
            assert len(hops) == len({c["num_layers"] for c in runs}) == 3
        else:
            base = [tuple(c[k] for k in trainers.MLP_BASE_KNOBS) for c in runs]
            assert len(bases) == len(set(base)) == 3
            assert not hops

    def test_engcn_search_builds_adjacency_once(self, tiny_dataset, monkeypatch):
        space = HPSpace([Axis("epochs", [1, 2], 1), Axis("hidden_dim", [8, 16], 8)])

        def uncached(m, cfg, ds, seed):  # each trial on a fresh Dataset
            return run_trial(m, cfg, dataclasses.replace(ds), seed)

        alone = greedy_search("engcn", space, tiny_dataset, runner=uncached)
        norms = counting(monkeypatch, trainers, "normalize_adjacency")
        shared = greedy_search("engcn", space, dataclasses.replace(tiny_dataset))
        assert [args[1] for args in norms] == ["sym"]  # one build for all its trials
        assert untimed(shared.to_dict()) == untimed(alone.to_dict())

    def test_log_serializes(self, tiny_dataset):
        runner = make_stub_runner(lambda c: 0.5)
        log = greedy_search("sgc", self.space(), tiny_dataset, runner=runner)
        d = log.to_dict()
        json.dumps(d)
        assert d["schema_version"] == 1
        assert d["trial_count"] == 5
        assert [v["axis"] for v in d["axis_visits"]] == ["alpha", "beta"]


class TestActivationMemory:
    def test_precompute_sgc_is_zero(self):
        assert estimate_activation_memory("sgc", 1000, 10, 2, 128, 4) == 0

    def test_plain_diffusion_is_zero_but_cs_base_mlp_counts(self):
        assert estimate_activation_memory("lp", 1000, 10, 2, 128, 4) == 0
        assert estimate_activation_memory("cs", 1000, 10, 2, 128, 4) == 1000 * 2 * 128 * 4

    def test_node_wise_grows_with_fanout_power(self):
        two = estimate_activation_memory("graphsage", 100, 2, 2, 64, 4)
        three = estimate_activation_memory("graphsage", 100, 2, 3, 64, 4)
        assert three == 2 * two  # extra layer multiplies by r
        assert two == 100 * 4 * 64 * 4

    def test_layer_wise_linear_in_depth(self):
        a = estimate_activation_memory("ladies", 100, 16, 2, 64, 4)
        b = estimate_activation_memory("ladies", 100, 16, 4, 64, 4)
        assert b == 2 * a
        assert a == 100 * 16 * 2 * 64 * 4

    def test_subgraph_independent_of_fanout(self):
        a = estimate_activation_memory("saint-node", 100, 5, 2, 64, 4)
        b = estimate_activation_memory("saint-node", 100, 50, 2, 64, 4)
        assert a == b == 100 * 2 * 64 * 4

    def test_sign_like_precompute_batch_term(self):
        assert estimate_activation_memory("sign", 100, 0, 3, 64, 4) == 100 * 3 * 64 * 4

    def test_bytes_scale_with_itemsize(self):
        # a float64 trial caches twice the bytes of a float32 one
        for method in ("graphsage", "ladies", "saint-node", "sign", "cs"):
            f32 = estimate_activation_memory(method, 100, 4, 2, 64, itemsize=4)
            assert estimate_activation_memory(method, 100, 4, 2, 64, itemsize=8) == 2 * f32 > 0
        with pytest.raises(ValueError):
            estimate_activation_memory("sign", 100, 0, 3, 64, itemsize=0)


class TestComplexityEstimate:
    def test_node_wise_formula(self):
        est = estimate_complexity("graphsage", b=100, r=3, L=2, D=8,
                                  num_nodes=500, nnz=2000, itemsize=4)
        assert est.time_ops == (3 ** 2) * 500 * 64
        assert est.space_bytes == 100 * 9 * 8 * 4

    def test_layer_wise_formula(self):
        est = estimate_complexity("fastgcn", b=100, r=3, L=2, D=8,
                                  num_nodes=500, nnz=2000, itemsize=4)
        assert est.time_ops == 3 * 2 * 500 * 64

    def test_subgraph_formula(self):
        est = estimate_complexity("saint-rw", b=100, r=3, L=2, D=8,
                                  num_nodes=500, nnz=2000, itemsize=4)
        assert est.time_ops == 2 * 2000 * 8 + 2 * 500 * 64

    def test_precompute_formula(self):
        est = estimate_complexity("sgc", b=100, r=3, L=2, D=8,
                                  num_nodes=500, nnz=2000, itemsize=4)
        assert est.time_ops == 2 * 500 * 64
        assert est.space_bytes == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ComplexityEstimate("x", "precompute", -1.0, 0.0)


class TestConvergenceCurve:
    def test_epochs_to_fraction(self):
        c = ConvergenceCurve("m", 0, [3, 2, 1, 1], [0.2, 0.5, 0.79, 0.8])
        assert c.epochs_to_fraction_of_final(0.95) == 3  # 0.76 target
        assert c.epochs_to_fraction_of_final(1.0) == 4

    def test_immediate_hit(self):
        c = ConvergenceCurve("m", 0, [1.0], [0.9])
        assert c.epochs_to_fraction_of_final() == 1

    def test_record_from_result(self):
        r = stub_result("sgc", {}, 0, 0.5)
        c = record_convergence(r)
        assert c.method == "sgc" and c.losses == [1.0] and c.val_accs == [0.5]


class TestWriters:
    def test_trials_jsonl_roundtrip(self, tmp_path):
        rows = [stub_result("sgc", {"epochs": 5}, i, 0.4 + 0.1 * i)
                for i in range(3)]
        p = tmp_path / "trials.jsonl"
        write_trials_jsonl(rows, p)
        back = read_trials_jsonl(p)
        assert len(back) == 3
        assert back[1]["val_acc"] == pytest.approx(0.5)
        assert back[1]["config"] == {"epochs": 5}
        assert back[1]["method"] == "sgc"

    def test_search_log_json(self, tmp_path):
        log = GreedySearchLog("sgc", 0, [], [stub_result("sgc", {}, 0, 0.5)],
                              {"epochs": 5}, 0.5, True)
        p = tmp_path / "log.json"
        write_search_log(log, p)
        d = json.loads(p.read_text())
        assert d["schema_version"] == 1
        assert d["final_val_acc"] == 0.5
        assert d["trial_count"] == 1 and "trials" not in d  # trials.jsonl holds them

    def test_bench_report_sanitizes(self, tmp_path):
        p = tmp_path / "r.json"
        write_bench_report({"a": np.int64(3), "b": float("inf"),
                            "c": [np.float32(0.5)]}, p)
        d = json.loads(p.read_text())
        assert d == {"a": 3, "b": None, "c": [0.5], "schema_version": 1}

    def test_trial_result_requires_curves(self):
        with pytest.raises(ValueError):
            TrialResult(method="sgc", config={}, seed=0, train_acc=0.0,
                        val_acc=0.0, test_acc=0.0, best_epoch=0,
                        loss_curve=[], val_acc_curve=[], epoch_seconds=[],
                        iterations_per_second=0.0, activation_bytes=0,
                        extras={})
