"""The measured process: load one workload's bundle, run its calls, check them.

Started by run.py after the bundle exists; it reads nothing else. BLAS
thread caps come from the environment run.py sets. The last line of
standard output is the result object.

    python3 perfbench/workload.py --workload search-50k --bundle <dir> \
        --seed 0 --seconds 10 --trace 0 --t0 <time.monotonic() at spawn>
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
import scalegnn as sg
from scalegnn.instrument import op_counter
from scalegnn.trainers import Dataset
from tracer import Tracer, metric_specs
from workloads import WORKLOADS

SPANS_DIR = Path(__file__).resolve().parent / ".out"


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the process was spawned")
    return ap.parse_args()


def run_round(spec: dict, ds, seed: int):
    """One pass over the workload's calls. Returns (seconds of each call,
    [(method, TrialResult)], [(method, GreedySearchLog)])."""
    seconds, trials, searches = [], [], []
    for method, overrides in spec["trials"]:
        t0 = time.perf_counter()
        result = sg.run_trial(method, overrides, ds, seed=seed)
        seconds.append(time.perf_counter() - t0)
        trials.append((method, result))
    for method in spec["searches"]:
        space = sg.default_space(method)
        t0 = time.perf_counter()
        log = sg.greedy_search(method, space, ds, seed=seed)
        seconds.append(time.perf_counter() - t0)
        searches.append((method, log))
    return seconds, trials, searches


def main() -> int:
    args = parse_args()
    spec = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    g, x, labels, split = sg.load_bundle(args.bundle)
    ds = Dataset(g, x, labels, split, name=f"{spec['graph']}-seed{args.seed}")
    setup_s = time.monotonic() - args.t0

    ops_before = op_counter.snapshot()
    call_seconds, accs = [], []
    started = time.perf_counter()
    while True:
        seconds, trials, searches = run_round(spec, ds, args.seed)
        call_seconds.append(seconds)
        accs += [r.test_acc for _, r in trials]
        accs += [checks.selected_trial(log).test_acc for _, log in searches]
        if (len(call_seconds) >= spec["rounds"]
                and time.perf_counter() - started >= args.seconds):
            break
    # Each call's fastest round, summed. The shared host's speed swings by
    # up to half for seconds to minutes at a time; the fastest of a call's
    # rounds is the one least slowed by it.
    wall_s = float(np.sum(np.min(call_seconds, axis=0)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops_after = op_counter.snapshot()

    correct = True
    if tracer is not None:
        tracer.memory_pass = True
        sg.load_bundle(args.bundle)
        run_round(spec, ds, args.seed)
        tracer.uninstall()
        calls, madds = tracer.spmm_path()
        want_calls = ops_after["spmm_calls"] - ops_before["spmm_calls"]
        want_madds = ops_after["spmm_madds"] - ops_before["spmm_madds"]
        agree = (calls, madds) == (want_calls, want_madds)
        correct &= agree
        print(f"trace: wall_s {wall_s:.4f} over {len(call_seconds)} round(s); "
              f"spmm+csr_matmul calls {calls} madds {madds}; op_counter calls {want_calls} madds {want_madds}: "
              f"{'agree' if agree else 'MISMATCH'}")
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print("call seconds by round: " + "; ".join(" ".join(f"{t:.2f}" for t in r) for r in call_seconds))
    results = checks.run(args.workload, ds, trials, searches, args.seed)
    failed = 0
    for c in results:
        known = checks.KNOWN_FAULTS.get(c.name)
        status = "ok" if c.ok else ("FAIL (known fault: " + known + ")" if known else "FAIL")
        print(f"check {c.name}: {status}; {c.detail}")
        failed += not c.ok
        correct &= c.ok or known is not None

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "test_acc": {"value": float(np.mean(accs)), "unit": "fraction"},
        }
    else:
        units = {name: unit for name, unit, _ in metric_specs()}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in tracer.metrics(len(call_seconds)).items()}
    print(json.dumps({"correct": bool(correct), "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
