"""Command-line interface: subcommand outputs, exit codes, config
precedence, locking."""

import json
import os
import subprocess
import sys

import pytest

from scalegnn.cli import DirectoryLock, main, read_config_file

GEN = ["gen", "--nodes", "200", "--classes", "3", "--p-in", "0.12",
       "--p-out", "0.01", "--feature-dim", "10", "--separation", "2.0",
       "--seed", "5"]


@pytest.fixture()
def bundle(tmp_path):
    out = tmp_path / "bundle"
    assert main(GEN + ["--out", str(out)]) == 0
    return out


class TestGen:
    def test_writes_bundle_and_resolved_config(self, bundle):
        for f in ("manifest.json", "edges.bin", "features.bin", "labels.bin",
                  "splits.bin", "resolved_config.json"):
            assert (bundle / f).exists()
        assert not (bundle / ".lock").exists()
        resolved = json.loads((bundle / "resolved_config.json").read_text())
        assert resolved["command"] == "gen"
        assert resolved["options"]["nodes"] == 200

    def test_deterministic_across_runs(self, tmp_path):
        main(GEN + ["--out", str(tmp_path / "a")])
        main(GEN + ["--out", str(tmp_path / "b")])
        for f in ("edges.bin", "features.bin", "labels.bin", "splits.bin"):
            assert (tmp_path / "a" / f).read_bytes() == \
                   (tmp_path / "b" / f).read_bytes()

    def test_missing_out_is_usage_error(self):
        assert main(GEN) == 2


class TestTrain:
    def test_sgc_writes_one_trial_record(self, bundle, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(out), "--hp", "epochs=5", "--allow-custom"])
        assert rc == 0
        rows = (out / "trials.jsonl").read_text().splitlines()
        assert len(rows) == 1
        rec = json.loads(rows[0])
        assert rec["method"] == "sgc" and 0.0 <= rec["val_acc"] <= 1.0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["resolved_hyperparameters"] == rec["config"]
        assert not (out / ".lock").exists()

    def test_output_directory_holds_trials_and_resolved_config(self, bundle, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--method", "engcn", "--bundle", str(bundle),
                     "--out", str(out), "--hp", "epochs=3",
                     "--allow-custom"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json",
                                                        "trials.jsonl"]

    def test_engcn_stage_curve_segments(self, bundle, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--method", "engcn", "--bundle", str(bundle),
                   "--out", str(out), "--hp", "num_layers=2", "--hp", "epochs=3",
                   "--hp", "hidden_dim=16", "--hp", "batch_size=64",
                   "--allow-custom"])
        assert rc == 0
        rec = json.loads((out / "trials.jsonl").read_text())
        assert len(rec["loss_curve"]) == 3 * 3  # num_layers 2 -> 2+1 stages
        assert len(rec["extras"]["stage_val_acc"]) == 3

    def test_unknown_method_exits_2(self, bundle, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["train", "--method", "gat", "--bundle", str(bundle),
                  "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_unknown_hp_key_exits_2(self, bundle, tmp_path):
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(tmp_path / "x"), "--hp", "bogus=1"])
        assert rc == 2

    def test_value_outside_candidates_exits_2(self, bundle, tmp_path):
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(tmp_path / "x"), "--hp", "epochs=7"])
        assert rc == 2

    def test_allow_custom_lifts_domain_check(self, bundle, tmp_path):
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(tmp_path / "x"), "--hp", "epochs=7",
                   "--allow-custom"])
        assert rc == 0

    def test_locked_directory_exits_1(self, bundle, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        (out / ".lock").write_text("123")
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(out), "--hp", "epochs=20"])
        assert rc == 1

    def test_repeats_is_no_option(self, bundle, tmp_path):
        """One trial is one seed: --repeats is an unknown flag, and a config
        file key repeats an unknown hyperparameter."""
        with pytest.raises(SystemExit) as err:
            main(["train", "--method", "sgc", "--bundle", str(bundle),
                  "--out", str(tmp_path / "x"), "--repeats", "3"])
        assert err.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = sgc\nrepeats = 3\n")
        assert main(["train", "--config", str(cfg), "--bundle", str(bundle),
                     "--out", str(tmp_path / "y")]) == 2

    @pytest.mark.parametrize("command", ["train", "hpsearch"])
    def test_stages_is_no_option(self, bundle, tmp_path, command):
        """--stages was an alias of --hp num_layers=: an unknown flag now,
        and a config file key stages an unknown hyperparameter."""
        with pytest.raises(SystemExit) as err:
            main([command, "--method", "engcn", "--bundle", str(bundle),
                  "--out", str(tmp_path / "x"), "--stages", "2"])
        assert err.value.code == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = engcn\nstages = 2\n")
        assert main([command, "--config", str(cfg), "--bundle", str(bundle),
                     "--out", str(tmp_path / "y")]) == 2
        assert not (tmp_path / "y").exists()

    def test_corrupt_bundle_exits_1(self, bundle, tmp_path):
        blob = bytearray((bundle / "labels.bin").read_bytes())
        blob[20] ^= 0x01
        (bundle / "labels.bin").write_bytes(bytes(blob))
        rc = main(["train", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(tmp_path / "x"), "--hp", "epochs=20"])
        assert rc == 1


class TestConfigFile:
    def test_parse_flat_key_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\nmethod = sgc\nepochs = 20\n"
                       "autoscale = true\nname = mini  # trailing\n")
        parsed = read_config_file(cfg)
        assert parsed == {"method": "sgc", "epochs": 20, "autoscale": True,
                          "name": "mini"}

    def test_flag_overrides_file(self, bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = sgc\nepochs = 20\n")
        out = tmp_path / "run"
        rc = main(["train", "--config", str(cfg), "--bundle", str(bundle),
                   "--out", str(out), "--hp", "epochs=30"])
        assert rc == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["resolved_hyperparameters"]["epochs"] == 30

    def test_file_fills_missing_method(self, bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = sgc\nepochs = 20\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--bundle", str(bundle),
                     "--out", str(out)]) == 0
        rec = json.loads((out / "trials.jsonl").read_text())
        assert rec["method"] == "sgc"

    def test_malformed_line_exits_2(self, bundle, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method sgc\n")
        rc = main(["train", "--config", str(cfg), "--bundle", str(bundle),
                   "--out", str(tmp_path / "x")])
        assert rc == 2


class TestHpsearch:
    def test_trial_count_and_outputs(self, bundle, tmp_path):
        out = tmp_path / "search"
        rc = main(["hpsearch", "--method", "lp", "--bundle", str(bundle),
                   "--out", str(out), "--axes", "alpha,num_propagations",
                   "--allow-custom"])
        assert rc == 0
        log = json.loads((out / "search_log.json").read_text())
        assert log["trial_count"] == 4 + 3  # sum over axes, not product
        assert log["complete"] is True
        assert len((out / "trials.jsonl").read_text().splitlines()) == 7

    def test_budget_flags_incomplete(self, bundle, tmp_path, monkeypatch):
        from scalegnn import trainers
        calls, real = [], trainers.run_trial
        monkeypatch.setattr(trainers, "run_trial",
                            lambda *a, **k: calls.append(a[1]) or real(*a, **k))
        out = tmp_path / "search"
        rc = main(["hpsearch", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(out), "--axes", "learning_rate,weight_decay",
                   "--budget", "2", "--hp", "epochs=5", "--allow-custom"])
        assert rc == 0
        log = json.loads((out / "search_log.json").read_text())
        assert log["complete"] is False
        # the budget counts runs: the first learning_rate candidate repeats
        # the epochs axis's config and is logged without a run
        assert len(calls) == 2
        assert log["trial_count"] == 3

    def test_hp_overrides_reach_every_trial(self, bundle, tmp_path):
        out = tmp_path / "search"
        rc = main(["hpsearch", "--method", "cs", "--bundle", str(bundle),
                   "--out", str(out), "--axes", "norm_kind,num_mlp_layers",
                   "--hp", "epochs=3", "--hp", "hidden_dim=16",
                   "--allow-custom"])
        assert rc == 0
        rows = [json.loads(r) for r in (out / "trials.jsonl").read_text().splitlines()]
        assert len(rows) == 3 + 3 + 2  # each fixed axis logs its one trial
        assert all(r["config"]["epochs"] == 3 and r["config"]["hidden_dim"] == 16
                   for r in rows)
        assert all(len(r["loss_curve"]) == 3 for r in rows)

    def test_final_config_is_the_selected_trial_config(self, bundle, tmp_path):
        out = tmp_path / "search"
        assert main(["hpsearch", "--method", "cs", "--bundle", str(bundle),
                     "--out", str(out), "--axes", "norm_kind,num_mlp_layers",
                     "--hp", "epochs=3", "--hp", "hidden_dim=16",
                     "--allow-custom"]) == 0
        log = json.loads((out / "search_log.json").read_text())
        resolved = json.loads((out / "resolved_config.json").read_text())
        rows = [json.loads(r) for r in (out / "trials.jsonl").read_text().splitlines()]
        last = log["axis_visits"][-1]
        selected = rows[-len(last["candidates"]) + last["candidates"].index(last["chosen"])]
        assert log["final_config"] == resolved["resolved_hyperparameters"] == selected["config"]
        assert log["final_config"]["epochs"] == 3
        assert log["final_config"]["hidden_dim"] == 16
        assert log["final_val_acc"] == selected["val_acc"]
        assert "trials" not in log  # trials.jsonl holds them

    def test_hp_on_a_searched_axis_is_a_one_candidate_visit(self, bundle, tmp_path):
        out = tmp_path / "search"
        assert main(["hpsearch", "--method", "sgc", "--bundle", str(bundle),
                     "--out", str(out), "--axes", "learning_rate,num_layers",
                     "--hp", "num_layers=4", "--hp", "epochs=20"]) == 0
        log = json.loads((out / "search_log.json").read_text())
        visits = {v["axis"]: v for v in log["axis_visits"]}
        assert [v["axis"] for v in log["axis_visits"]] == [
            "num_layers", "epochs", "learning_rate"]
        assert visits["num_layers"]["candidates"] == [4]
        assert visits["epochs"]["candidates"] == [20]
        assert log["final_config"]["num_layers"] == 4
        assert log["final_config"]["epochs"] == 20
        assert log["trial_count"] == 1 + 1 + 3

    def test_unknown_axis_exits_2(self, bundle, tmp_path):
        rc = main(["hpsearch", "--method", "sgc", "--bundle", str(bundle),
                   "--out", str(tmp_path / "x"), "--axes", "nope"])
        assert rc == 2


class TestBenchAndReport:
    def test_bench_report_schema(self, bundle, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--bundle", str(bundle), "--out", str(out),
                   "--methods", "sgc,saint-node", "--hp", "epochs=2",
                   "--hp", "hidden_dim=16", "--hp", "batch_size=64"])
        assert rc == 0
        report = json.loads((out / "bench_report.json").read_text())
        assert report["schema_version"] == 1
        assert [r["method"] for r in report["rows"]] == ["sgc", "saint-node"]
        assert report["rows"][0]["activation_bytes"] == 0

    def test_bench_methods_share_one_adjacency(self, bundle, tmp_path, monkeypatch):
        from scalegnn import trainers
        kinds = []
        original = trainers.normalize_adjacency

        def counting(g, kind, *args, **kwargs):
            kinds.append(kind)
            return original(g, kind, *args, **kwargs)

        monkeypatch.setattr(trainers, "normalize_adjacency", counting)
        rc = main(["bench", "--bundle", str(bundle), "--out", str(tmp_path / "bench"),
                   "--methods", "sgc,graphsage,sign", "--hp", "epochs=1",
                   "--hp", "hidden_dim=16", "--hp", "batch_size=64"])
        assert rc == 0
        assert kinds == ["sym"]

    def test_bench_hp_epochs_overrides_the_preset(self, bundle, tmp_path, monkeypatch):
        from scalegnn import trainers
        seen = []
        original = trainers.run_trial

        def spy(method, config, *args, **kwargs):
            seen.append((method, config.get("epochs")))
            return original(method, config, *args, **kwargs)

        monkeypatch.setattr(trainers, "run_trial", spy)
        rc = main(["bench", "--bundle", str(bundle), "--out", str(tmp_path / "a"),
                   "--methods", "sgc,lp", "--hp", "epochs=7"])
        assert rc == 0
        rc = main(["bench", "--bundle", str(bundle), "--out", str(tmp_path / "b"),
                   "--methods", "sgc"])
        assert rc == 0
        assert seen == [("sgc", 7), ("lp", None), ("sgc", 3)]

    @pytest.mark.parametrize("argv", [["bench", "--epochs", "2"],
                                      ["report", "--seed", "0"]])
    def test_removed_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2

    def test_bench_unknown_method_exits_2(self, bundle, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--bundle", str(bundle), "--out", str(out),
                   "--methods", "sgc,gcn2"])
        assert rc == 2
        assert not out.exists()

    def test_bench_hp_no_method_knows_exits_2(self, bundle, tmp_path):
        out = tmp_path / "bench"
        rc = main(["bench", "--bundle", str(bundle), "--out", str(out),
                   "--methods", "sgc,graphsage", "--hp", "bogus_knob=3"])
        assert rc == 2
        assert not out.exists()

    def test_report_aggregates(self, bundle, tmp_path):
        t1, t2 = tmp_path / "t1", tmp_path / "t2"
        for out, seed in ((t1, "0"), (t2, "1")):
            main(["train", "--method", "sgc", "--bundle", str(bundle),
                  "--out", str(out), "--seed", seed, "--hp", "epochs=5",
                  "--allow-custom"])
        out = tmp_path / "agg"
        rc = main(["report", str(t1 / "trials.jsonl"),
                   str(t2 / "trials.jsonl"), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rows"][0]["n"] == 2

    def _report(self, tmp_path, paths):
        out = tmp_path / "agg"
        assert main(["report", *map(str, paths), "--out", str(out)]) == 0
        return json.loads((out / "report.json").read_text())["rows"]

    def test_report_groups_seeds_per_config(self, bundle, tmp_path):
        paths, runs = [], {}
        for epochs in (5, 6):
            for seed in (0, 1):
                out = tmp_path / f"e{epochs}-s{seed}"
                assert main(["train", "--method", "sgc", "--bundle", str(bundle),
                             "--out", str(out), "--seed", str(seed),
                             "--hp", f"epochs={epochs}", "--allow-custom"]) == 0
                paths.append(out / "trials.jsonl")
                runs.setdefault(epochs, []).append(
                    json.loads(paths[-1].read_text()))
        rows = self._report(tmp_path, paths)
        assert [(r["config"]["epochs"], r["n"]) for r in rows] == [(5, 2), (6, 2)]
        for row in rows:
            vals = [r["val_acc"] for r in runs[row["config"]["epochs"]]]
            assert row["mean_val_acc"] == pytest.approx(sum(vals) / 2)
            assert row["std_val_acc"] == pytest.approx(abs(vals[0] - vals[1]) / 2)

    def test_report_counts_a_search_incumbent_once(self, bundle, tmp_path):
        out = tmp_path / "search"
        assert main(["hpsearch", "--method", "sgc", "--bundle", str(bundle),
                     "--out", str(out), "--axes", "learning_rate,weight_decay",
                     "--hp", "epochs=5", "--allow-custom"]) == 0
        trials = [json.loads(r) for r in (out / "trials.jsonl").read_text().splitlines()]
        configs = {json.dumps(t["config"], sort_keys=True) for t in trials}
        assert len(trials) == 1 + 3 + 3 and len(configs) == 5  # epochs is fixed
        rows = self._report(tmp_path, [out / "trials.jsonl"])
        assert len(rows) == 5 and all(r["n"] == 1 for r in rows)
        assert {json.dumps(r["config"], sort_keys=True) for r in rows} == configs

    def test_report_std_is_zero_for_one_seed(self, bundle, tmp_path):
        out = tmp_path / "run"
        assert main(["train", "--method", "sgc", "--bundle", str(bundle),
                     "--out", str(out), "--hp", "epochs=5", "--allow-custom"]) == 0
        [row] = self._report(tmp_path, [out / "trials.jsonl"])
        assert row["n"] == 1
        assert row["std_val_acc"] == 0.0 and row["std_test_acc"] == 0.0

    def test_report_keeps_datasets_apart(self, bundle, tmp_path):
        """Two bundles of one name but different content: one row each."""
        other = tmp_path / "other"
        assert main([*GEN[:-1], "6", "--out", str(other)]) == 0
        paths, recs = [], []
        for b in (bundle, other):
            out = tmp_path / f"run-{b.name}"
            assert main(["train", "--method", "sgc", "--bundle", str(b),
                         "--out", str(out), "--hp", "epochs=20"]) == 0
            paths.append(out / "trials.jsonl")
            recs.append(json.loads(paths[-1].read_text()))
        names = [r["dataset"] for r in recs]
        assert names[0] != names[1]
        assert all(n.startswith("sbm-200@") for n in names)
        rows = self._report(tmp_path, paths)
        assert sorted(r["dataset"] for r in rows) == sorted(names)
        assert all(r["n"] == 1 for r in rows)
        by = {r["dataset"]: r["mean_val_acc"] for r in rows}
        assert [by[n] for n in names] == [r["val_acc"] for r in recs]

    def test_report_without_inputs_exits_2(self):
        assert main(["report"]) == 2


class TestLock:
    def test_lock_released_on_error(self, tmp_path):
        target = tmp_path / "d"
        try:
            with DirectoryLock(target):
                assert (target / ".lock").exists()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert not (target / ".lock").exists()

    def test_lock_excludes_second_holder(self, tmp_path):
        with DirectoryLock(tmp_path):
            with pytest.raises(RuntimeError, match="locked by another run"):
                DirectoryLock(tmp_path).__enter__()

    def test_stale_lock_names_dead_pid_and_stays(self, tmp_path):
        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait(timeout=60)
        (tmp_path / ".lock").write_text(str(proc.pid))
        with pytest.raises(RuntimeError, match=f"stale lock.*PID {proc.pid}"):
            DirectoryLock(tmp_path).__enter__()
        assert (tmp_path / ".lock").read_text() == str(proc.pid)


# a 2000-node graph whose width-32 spmm, about 1.3M multiply-adds, is
# large enough to run as row blocks on the product pool
SPLIT_PRODUCT = """
import numpy as np
from scalegnn import graph
g = graph.build_graph(np.random.default_rng(0).integers(0, 2000, (20000, 2)), 2000,
                      symmetrize=True)
a = graph.normalize_adjacency(g, "sym")
x = np.random.default_rng(1).standard_normal((2000, 32))
assert a.structure.num_edges * 32 >= graph._SPLIT_MADDS
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counting threads needs /proc")
def test_num_threads_variable_caps_blas():
    """SCALEGNN_NUM_THREADS=1 takes effect when scalegnn.cli is imported
    first: the process still has only its main thread after a GEMM and
    after a sparse product above the split threshold, which builds no
    product pool."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["SCALEGNN_NUM_THREADS"] = "1"
    code = ("import os, scalegnn.cli" + SPLIT_PRODUCT +
            "m = np.ones((512, 512)); m @ m\n"
            "graph.spmm(a, x)\nassert graph._product_pool() is None\n"
            "print(len(os.listdir('/proc/self/task')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) == 1


def test_forked_child_builds_its_own_product_pool():
    """A fork-context child of a process whose product pool is running
    splits a product on a pool of its own and returns the parent's array;
    with the parent's pool threads absent in the child it would hang."""
    code = SPLIT_PRODUCT + """
import multiprocessing
graph._pool_width = lambda: 2  # a pool even on a one-core box
want = graph.spmm(a, x)
assert graph._product_pool() is not None
with multiprocessing.get_context("fork").Pool(1) as child:
    got = child.apply_async(graph.spmm, (a, x)).get(timeout=60)
print(np.array_equal(got, want))
"""
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert out.strip() == "True"
