"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sampled-50k --seed 0 --seconds 10 --trace 0

Run from the repository root. The launcher imports nothing beyond the
standard library, so the measured process starts from a small parent:

1. a child process generates the workload's graph from --seed with the
   benchmark's own SBM generator and writes it with save_bundle;
2. a second child (workload.py) loads that bundle, runs the workload's
   calls in whole rounds (at least the workload's number of rounds, and
   for at least --seconds), checks the outputs and
   prints the result object as its last line, which is also the last
   line printed here.

BLAS and OpenMP pools are capped at the number of usable cores. The
bundle is deleted afterwards; spans of a traced run are kept under
perfbench/.out/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run(cmd: list, env: dict, deadline: float) -> int:
    """Run cmd to completion with inherited stdout; kill it at the deadline."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {' '.join(cmd[:2])} exceeded the time limit", file=sys.stderr)
        return 1


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "scalegnn" / "__init__.py").is_file():
        print(f"error: no scalegnn sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    deadline = started + TIME_LIMIT_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # no bytecode cache, so every run's set-up compiles scalegnn alike
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})

    graph = WORKLOADS[args.workload]["graph"]
    bundle = HERE / ".data" / f"{graph}-seed{args.seed}-{os.getpid()}"
    try:
        code = _run([sys.executable, str(HERE / "gen.py"), "--graph", graph,
                     "--seed", str(args.seed), "--out", str(bundle)], env, deadline)
        if code != 0:
            print(f"error: input generation exited with {code}", file=sys.stderr)
            return 1
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--bundle", str(bundle), "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--t0", repr(time.monotonic())]
        code = _run(cmd, env, deadline)
        if code != 0:
            print(f"error: the workload process exited with {code}", file=sys.stderr)
            return 1
        return 0
    finally:
        shutil.rmtree(bundle, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
