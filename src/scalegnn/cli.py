"""Command-line entry point.

Subcommands: gen (synthetic bundle), train (one trial at one seed),
hpsearch (greedy axis search), bench (throughput + memory preset: each
method at 3 epochs unless --hp epochs=N), report (mean and std over seeds
of each (dataset, method, config) in trial files). Every subcommand honors
--out and --config FILE, and all but report honor --seed.

Config files are flat key=value text ('#' comments allowed). Values parse
as JSON scalars when possible, else strings. Precedence, lowest to
highest: built-in defaults, config file, command-line flags. Keys that are
not run-level options are treated as hyperparameters on train/hpsearch/
bench and rejected elsewhere.

Hyperparameter keys are validated against the method's known knobs, and
values of searched axes against their candidate lists; --allow-custom
lifts the candidate restriction. On hpsearch each hyperparameter fixes its
axis to that one value: it becomes a one-candidate axis ahead of the
searched ones, replacing a searched axis of the same name. Usage problems
exit 2, runtime failures exit 1.

Each run takes an exclusive lock (.lock file) on the output directory and
writes resolved_config.json recording every effective setting, which is
sufficient to reproduce the run with the same build; train and hpsearch
record there the full config of the trial that ran or was selected. Trial
records go to trials.jsonl (one line per trial, curves included), and
hpsearch writes the axis visits to search_log.json. A trial records its
dataset: a bundle's manifest name, then '@' and the first 12 hex digits of
a sha256 over the manifest's file checksums.

The environment variable SCALEGNN_NUM_THREADS caps the BLAS/OpenMP thread
pools: importing the scalegnn package exports it to them before numpy
loads (see scalegnn/__init__.py), and a pool's own variable, if set, wins.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

class UsageError(Exception):
    pass


class DirectoryLock:
    """Single-writer guard: .lock with O_EXCL holding the owner's PID,
    removed on release. A lock whose PID names no running process is
    reported as stale but never removed here."""

    def __init__(self, directory: Path):
        self.path = Path(directory) / ".lock"
        self.fd = None

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = self._holder()
            if pid is not None and not _process_exists(pid):
                raise RuntimeError(
                    f"output directory has a stale lock ({self.path}): its run, "
                    f"PID {pid}, is no longer running; remove the .lock file "
                    "to reuse the directory")
            raise RuntimeError(
                f"output directory is locked by another run ({self.path}); "
                "remove the stale .lock file if no run is active")
        os.write(self.fd, str(os.getpid()).encode())
        return self

    def _holder(self):
        """PID written in the existing lock file, or None if there is none."""
        try:
            pid = int(self.path.read_text().strip())
        except (OSError, ValueError):  # unreadable, or not a number
            return None
        return pid if pid > 0 else None

    def __exit__(self, *exc):
        if self.fd is not None:
            os.close(self.fd)
            self.path.unlink(missing_ok=True)


def _process_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: existence check only
    except (ProcessLookupError, OverflowError):
        return False
    except PermissionError:  # alive, owned by another user
        pass
    return True


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def read_config_file(path) -> dict:
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = _parse_value(val.strip())
    return out


def _parse_hp_pairs(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise UsageError(f"--hp expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = _parse_value(val.strip())
    return out


def _merge(command: str, args: argparse.Namespace, defaults: dict):
    """defaults < config file < explicit flags; returns (options, hp). The
    keys of defaults are the command's run-level options."""
    options = dict(defaults)
    hp = {}
    if args.config:
        for key, val in read_config_file(args.config).items():
            if key in defaults:
                options[key] = val
            elif command in ("train", "hpsearch", "bench"):
                hp[key] = val
            else:
                raise UsageError(f"config key {key!r} not valid for "
                                 f"'{command}'")
    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            options[key] = flag_val
    hp.update(_parse_hp_pairs(getattr(args, "hp", None)))
    return options, hp


def _validate_hp(method: str, hp: dict, allow_custom: bool) -> dict:
    from scalegnn.harness import default_config, default_space
    known = set(default_config(method))
    unknown = sorted(set(hp) - known)
    if unknown:
        raise UsageError(f"unknown hyperparameters for {method}: "
                         f"{', '.join(unknown)}")
    if not allow_custom:
        for axis in default_space(method).axes:
            if axis.name in hp and hp[axis.name] not in axis.candidates:
                raise UsageError(
                    f"{axis.name}={hp[axis.name]!r} is outside the declared "
                    f"candidates {list(axis.candidates)}; pass --allow-custom"
                    " to override")
    return hp


def _write_resolved(out_dir: Path, command: str, options: dict, hp: dict,
                    resolved_hp: dict | None = None) -> None:
    payload = {
        "schema_version": 1,
        "command": command,
        "options": {k: (str(v) if isinstance(v, Path) else v)
                    for k, v in options.items()},
        "hyperparameters": hp,
    }
    if resolved_hp is not None:
        payload["resolved_hyperparameters"] = resolved_hp
    with open(out_dir / "resolved_config.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _load_dataset(bundle_dir):
    """The bundle as a Dataset named <manifest name>@<content digest>, so
    two bundles that share a name stay apart in trial records."""
    import hashlib
    from scalegnn.bundle import load_bundle, read_manifest
    from scalegnn.trainers import Dataset
    g, x, labels, split = load_bundle(bundle_dir)
    manifest = read_manifest(bundle_dir)
    digest = hashlib.sha256(json.dumps(manifest["checksums"], sort_keys=True)
                            .encode()).hexdigest()[:12]
    return Dataset(g, x, labels, split, name=f"{manifest['name']}@{digest}")


# ------------------------------------------------------------ subcommands


def _cmd_gen(args) -> int:
    options, _ = _merge("gen", args, {
        "nodes": 1000, "classes": 2, "p_in": 0.1, "p_out": 0.01,
        "feature_dim": 16, "separation": 1.0, "noise": 1.0,
        "fractions": "0.1,0.2,0.7", "name": None, "seed": 0, "out": None})
    if options["out"] is None:
        raise UsageError("gen requires --out (bundle directory)")
    from scalegnn.bundle import write_synthetic_bundle
    from scalegnn.synth import SyntheticSpec
    fr = options["fractions"]
    fractions = tuple(float(f) for f in
                      (fr.split(",") if isinstance(fr, str) else fr))
    spec = SyntheticSpec(int(options["nodes"]), int(options["classes"]),
                         float(options["p_in"]), float(options["p_out"]),
                         feature_dim=int(options["feature_dim"]),
                         separation=float(options["separation"]),
                         noise=float(options["noise"]),
                         split_fractions=fractions, seed=int(options["seed"]))
    out = Path(options["out"])
    with DirectoryLock(out):
        write_synthetic_bundle(spec, out, name=options["name"])
        _write_resolved(out, "gen", options, {})
    print(f"bundle written to {out}")
    return 0


def _cmd_train(args) -> int:
    options, hp = _merge("train", args, {
        "method": None, "bundle": None, "allow_custom": False, "seed": 0,
        "out": None})
    if options["method"] is None or options["bundle"] is None:
        raise UsageError("train requires --method and --bundle")
    if options["out"] is None:
        raise UsageError("train requires --out")
    method = options["method"]
    hp = _validate_hp(method, hp, bool(options["allow_custom"]))
    from scalegnn.harness import write_trials_jsonl
    from scalegnn.trainers import run_trial
    dataset = _load_dataset(options["bundle"])
    out = Path(options["out"])
    with DirectoryLock(out):
        result = run_trial(method, hp, dataset, seed=int(options["seed"]))
        write_trials_jsonl([result], out / "trials.jsonl")
        _write_resolved(out, "train", options, hp, result.config)
    print(f"{method}: val_acc={result.val_acc:.4f} "
          f"test_acc={result.test_acc:.4f} ({out}/trials.jsonl)")
    return 0


def _cmd_hpsearch(args) -> int:
    options, hp = _merge("hpsearch", args, {
        "method": None, "bundle": None, "budget": None, "axes": None,
        "allow_custom": False, "seed": 0, "out": None})
    if options["method"] is None or options["bundle"] is None:
        raise UsageError("hpsearch requires --method and --bundle")
    if options["out"] is None:
        raise UsageError("hpsearch requires --out")
    method = options["method"]
    hp = _validate_hp(method, hp, bool(options["allow_custom"]))
    from scalegnn.harness import (Axis, HPSpace, default_space, greedy_search,
                                  write_search_log, write_trials_jsonl)
    space = default_space(method)
    if options["axes"]:
        wanted = [a.strip() for a in str(options["axes"]).split(",")]
        missing = sorted(set(wanted) - set(space.axis_names()))
        if missing:
            raise UsageError(f"unknown axes for {method}: "
                             f"{', '.join(missing)}")
        for name in space.axis_names():
            if name not in wanted:
                space = space.without(name)
    # each override fixes its axis: one candidate, ahead of the searched axes
    fixed = tuple(Axis(key, (value,), value) for key, value in hp.items())
    space = HPSpace(fixed + space.without(*hp).axes)
    dataset = _load_dataset(options["bundle"])
    out = Path(options["out"])
    with DirectoryLock(out):
        log = greedy_search(method, space, dataset, seed=int(options["seed"]),
                            budget=options["budget"])
        write_search_log(log, out / "search_log.json")
        write_trials_jsonl(log.trials, out / "trials.jsonl")
        _write_resolved(out, "hpsearch", options, hp, log.final_config)
    print(f"{method}: {log.trial_count} trials, best val_acc="
          f"{log.final_val_acc:.4f}, complete={log.complete} "
          f"({out}/search_log.json)")
    return 0


def _cmd_bench(args) -> int:
    options, hp = _merge("bench", args, {
        "bundle": None, "methods": "sgc,graphsage", "seed": 0, "out": None})
    if options["bundle"] is None or options["out"] is None:
        raise UsageError("bench requires --bundle and --out")
    from scalegnn.harness import (METHODS, default_config, estimate_complexity,
                                  estimator_inputs, write_bench_report)
    from scalegnn.trainers import run_trial
    methods = [m.strip() for m in str(options["methods"]).split(",")]
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        raise UsageError(f"unknown methods: {', '.join(unknown)}; known: "
                         f"{', '.join(sorted(METHODS))}")
    # each method takes the --hp keys it knows; a key none of them knows is a typo
    stray = sorted(set(hp).difference(*(default_config(m) for m in methods)))
    if stray:
        raise UsageError(f"no benched method takes the hyperparameters: "
                         f"{', '.join(stray)}")
    dataset = _load_dataset(options["bundle"])  # its trials share the adjacency and hops
    out = Path(options["out"])
    rows = []
    with DirectoryLock(out):
        for m in methods:
            known = default_config(m)
            cfg = {k: v for k, v in hp.items() if k in known}
            if "epochs" in known:  # lp propagates, it has no epochs knob
                cfg.setdefault("epochs", 3)  # the preset; --hp epochs=N wins
            r = run_trial(m, cfg, dataset, seed=int(options["seed"]))
            est = estimate_complexity(m, **estimator_inputs(r.config, dataset),
                                      num_nodes=dataset.num_nodes,
                                      nnz=dataset.graph.num_edges)
            rows.append({
                "method": m, "val_acc": r.val_acc, "test_acc": r.test_acc,
                "iterations_per_second": r.iterations_per_second,
                "mean_epoch_seconds": sum(r.epoch_seconds) / len(r.epoch_seconds),
                "eval_seconds": r.extras["eval_seconds"],
                "activation_bytes": r.activation_bytes,
                "estimated_time_ops": est.time_ops,
            })
        write_bench_report({"dataset": dataset.name, "rows": rows},
                           out / "bench_report.json")
        _write_resolved(out, "bench", options, hp)
    header = f"{'method':<12} {'val':>6} {'it/s':>9} {'act bytes':>12}"
    print(header)
    for row in rows:
        print(f"{row['method']:<12} {row['val_acc']:>6.3f} "
              f"{row['iterations_per_second']:>9.1f} "
              f"{row['activation_bytes']:>12d}")
    print(f"report: {out}/bench_report.json")
    return 0


def _cmd_report(args) -> int:
    options, _ = _merge("report", args, {"inputs": None, "out": None})
    inputs = options["inputs"] or []
    if isinstance(inputs, str):
        inputs = [inputs]
    if not inputs:
        raise UsageError("report requires at least one trials.jsonl path")
    import numpy as np
    from scalegnn.harness import read_trials_jsonl, write_bench_report
    # (dataset, method, config) -> {seed: row}; a search log re-logs its
    # incumbent, the same deterministic trial, so a seed counts once. Rows
    # written before trials recorded their dataset group under None.
    groups: dict = {}
    for path in inputs:
        for row in read_trials_jsonl(path):
            key = (row.get("dataset"), row["method"],
                   json.dumps(row["config"], sort_keys=True))
            groups.setdefault(key, {}).setdefault(row["seed"], row)
    rows = []
    for (dataset, method, _), runs in sorted(
            groups.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        # a split without test rows logs test_acc as null: nan here
        val, test = (np.array([r[k] for r in runs.values()], dtype=float)
                     for k in ("val_acc", "test_acc"))
        rows.append({"dataset": dataset, "method": method,
                     "config": next(iter(runs.values()))["config"],
                     "n": len(runs), "mean_val_acc": val.mean(), "std_val_acc": val.std(),
                     "mean_test_acc": test.mean(), "std_test_acc": test.std()})
    print(f"{'dataset':<24} {'method':<12} {'n':>3} {'val mean ± std':>17} "
          f"{'test mean ± std':>17}  config (keys that differ)")
    for row in rows:
        same = [r["config"] for r in rows
                if (r["dataset"], r["method"]) == (row["dataset"], row["method"])]
        shown = " ".join(f"{k}={v}" for k, v in row["config"].items()
                         if any(c.get(k) != v for c in same))
        print(f"{str(row['dataset']):<24} {row['method']:<12} {row['n']:>3d} "
              f"{row['mean_val_acc']:>8.4f} ± {row['std_val_acc']:.4f} "
              f"{row['mean_test_acc']:>8.4f} ± {row['std_test_acc']:.4f}  {shown}")
    if options["out"]:
        out = Path(options["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_bench_report({"rows": rows}, out / "report.json")
        print(f"report: {out}/report.json")
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalegnn", description="CPU toolkit for scalable GNN training")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None,
                       help="flat key=value config file")

    p = sub.add_parser("gen", help="generate a synthetic bundle")
    common(p)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--p-in", dest="p_in", type=float, default=None)
    p.add_argument("--p-out", dest="p_out", type=float, default=None)
    p.add_argument("--feature-dim", dest="feature_dim", type=int, default=None)
    p.add_argument("--separation", type=float, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--fractions", default=None,
                   help="train,val,test fractions, e.g. 0.1,0.2,0.7")
    p.add_argument("--name", default=None)

    from scalegnn.harness import METHODS  # names only, cheap import
    method_names = sorted(METHODS)

    p = sub.add_parser("train", help="run one training trial")
    common(p)
    p.add_argument("--method", choices=method_names, default=None)
    p.add_argument("--bundle", default=None)
    p.add_argument("--hp", action="append", metavar="KEY=VALUE")
    p.add_argument("--allow-custom", dest="allow_custom",
                   action="store_const", const=True, default=None,
                   help="accept axis values outside the declared candidates")

    p = sub.add_parser("hpsearch", help="greedy axis-by-axis search")
    common(p)
    p.add_argument("--method", choices=method_names, default=None)
    p.add_argument("--bundle", default=None)
    p.add_argument("--budget", type=int, default=None,
                   help="most trials to run; a config already run is logged free")
    p.add_argument("--axes", default=None,
                   help="comma-separated subset of axes to search")
    p.add_argument("--hp", action="append", metavar="KEY=VALUE",
                   help="fix an axis to one value (a one-candidate axis)")
    p.add_argument("--allow-custom", dest="allow_custom",
                   action="store_const", const=True, default=None)

    p = sub.add_parser("bench", help="throughput and memory preset")
    common(p)
    p.add_argument("--bundle", default=None)
    p.add_argument("--methods", default=None, help="comma-separated methods")
    p.add_argument("--hp", action="append", metavar="KEY=VALUE",
                   help="a method's hyperparameter (epochs defaults to 3)")

    p = sub.add_parser("report", help="aggregate trials.jsonl files")
    common(p, seeded=False)
    p.add_argument("inputs", nargs="*", default=None,
                   help="trials.jsonl paths")
    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "hpsearch": _cmd_hpsearch,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure contract: message + exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
