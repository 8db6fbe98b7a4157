"""Traced mode: wrap scalegnn's public functions from outside the package.

Each function is replaced at every module that binds it, including the
names that ``trainers``, ``labelprop``, ``engcn`` and ``models`` take with
``from ... import``, so a call is seen whichever name it goes through.
Spans (parent, name, start, end) are kept in memory and written out at the
end. Self time is a span's duration minus the durations of its wrapped
child spans. Work counts are read from the arguments and results at the
same boundaries. Memory peaks come from a second pass over the same calls
with tracemalloc on, so its cost stays out of the times.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

from workloads import METHODS

WRAPPED = {
    "bundle": ("load_bundle",),
    "graph": ("normalize_adjacency", "add_self_loops", "spmm", "csr_matmul",
              "induced_subgraph"),
    "samplers": ("node_wise_sample", "layer_wise_sample", "partition_graph",
                 "saint_node_sample", "saint_edge_sample", "random_walk_sample",
                 "subgraph_batch"),
    "models": ("precompute_hops", "sampled_gnn_forward", "sampled_gnn_backward",
               "sgc_forward", "sgc_backward", "sign_forward", "sign_backward",
               "sagn_forward", "sagn_backward"),
    "nn": ("mlp_forward", "mlp_backward", "adam_step", "cross_entropy"),
    "labelprop": ("lp_iterate", "correct_and_smooth"),
    "engcn": ("engcn_propagate", "engcn_train_stage", "engcn_stage_forward",
              "sle_update", "majority_vote"),
    "trainers": ("run_trial",),
    "harness": ("greedy_search",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, fs in WRAPPED.items() for f in fs)
# functions whose `mode` argument separates training from evaluation calls
MODE_FUNCTIONS = ("models.sampled_gnn_forward", "models.sign_forward",
                  "models.sagn_forward", "nn.mlp_forward")
# functions whose tracemalloc peak is reported in the memory pass
PEAK_FUNCTIONS = ("bundle.load_bundle", "trainers.run_trial")
WORK_COUNTS = (
    ("graph.spmm.madds", "lower"),
    ("graph.normalize_adjacency.edges", "lower"),
    ("samplers.plan_edges", "lower"),
    ("samplers.plan_nodes", "lower"),
    ("harness.greedy_search.trials", "lower"),
    ("harness.greedy_search.repeat_trials", "lower"),
)


def metric_specs() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in FUNCTIONS:
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_s", "s", "lower"))
        if name in MODE_FUNCTIONS:
            specs.append((f"{name}.eval_s", "s", "lower"))
    specs += [(name, "count", better) for name, better in WORK_COUNTS]
    for method in METHODS:
        specs.append((f"trainers.run_trial.{method}.s", "s", "lower"))
        specs.append((f"trainers.run_trial.{method}.peak_mb", "MB", "lower"))
    specs.append(("bundle.load_bundle.peak_mb", "MB", "lower"))
    return specs


def _ncols(x) -> int:
    return x.shape[1] if x.ndim > 1 else 1


def _plan_counts(counts, plan) -> None:
    counts["samplers.plan_edges"] += sum(int(b.nnz) for b in plan.blocks)
    counts["samplers.plan_nodes"] += int(plan.node_sets[-1].size)


def _search_counts(counts, log) -> None:
    counts["harness.greedy_search.trials"] += log.trial_count
    seen = set()
    for trial in log.trials:
        key = json.dumps(trial.config, sort_keys=True, default=str)
        counts["harness.greedy_search.repeat_trials"] += key in seen
        seen.add(key)


class Tracer:
    """Installs the wrappers, accumulates spans and per-function totals."""

    def __init__(self) -> None:
        self.spans: list = []  # (parent index or -1, name, start, end)
        self._stack: list = []  # [span index, seconds spent in child spans]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.eval_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # WORK_COUNTS by name
        self.method_s: defaultdict = defaultdict(float)
        self.peak_mb: defaultdict = defaultdict(float)
        self._patched: list = []  # (module, attribute, original)
        # While set, wrappers record nothing but the tracemalloc peaks of
        # PEAK_FUNCTIONS: tracemalloc slows allocation-heavy Python code,
        # so peaks come from a separate pass whose times are discarded.
        self.memory_pass = False

    # ------------------------------------------------------------ install

    def install(self) -> None:
        import scalegnn  # noqa: F401  (loads every module that binds a name)
        modules = [m for n, m in sys.modules.items()
                   if n == "scalegnn" or n.startswith("scalegnn.")]
        for modname, funcs in WRAPPED.items():
            home = sys.modules[f"scalegnn.{modname}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{modname}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in MODE_FUNCTIONS else None
        measure_peak = name in PEAK_FUNCTIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.memory_pass:
                return self._peak(name, fn, args, kwargs) if measure_peak else fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            parent = self._stack[-1] if self._stack else None
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
            duration = t1 - t0
            self_time = duration - frame[1]
            if parent is not None:
                parent[1] += duration
            self.spans[index] = (parent[0] if parent else -1, name, t0, t1)
            self.calls[name] += 1
            self.self_s[name] += self_time
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if bound.arguments["mode"] == "eval":
                    self.eval_s[name] += self_time
            self._count(name, args, kwargs, out, duration)
            return out

        return wrapper

    def _peak(self, name: str, fn, args, kwargs):
        """Call fn under tracemalloc; keep the peak of what it allocated."""
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if name == "trainers.run_trial":
            name = f"trainers.run_trial.{args[0] if args else kwargs['method']}"
        self.peak_mb[name] = max(self.peak_mb[name], peak_bytes / 2**20)
        return out

    def _count(self, name, args, kwargs, out, duration) -> None:
        c = self.counts
        if name == "graph.spmm":
            c["graph.spmm.madds"] += args[0].structure.num_edges * _ncols(args[1])
        elif name == "graph.csr_matmul":
            c["graph.spmm.madds"] += int(args[0].nnz) * _ncols(args[1])
        elif name == "graph.normalize_adjacency":
            c["graph.normalize_adjacency.edges"] += args[0].num_edges
        elif name in ("samplers.node_wise_sample", "samplers.layer_wise_sample",
                      "samplers.subgraph_batch"):
            _plan_counts(c, out)
        elif name == "harness.greedy_search":
            _search_counts(c, out)
        elif name == "trainers.run_trial":
            self.method_s[args[0] if args else kwargs["method"]] += duration

    # ------------------------------------------------------------- report

    def spmm_path(self) -> tuple:
        """(calls, madds) of spmm plus csr_matmul as the wrappers saw them."""
        return (self.calls["graph.spmm"] + self.calls["graph.csr_matmul"],
                self.counts["graph.spmm.madds"])

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric, per round of the workload; load_bundle
        runs once, in set-up, and is reported as is."""
        out = {}
        for name in FUNCTIONS:
            n = 1 if name == "bundle.load_bundle" else rounds
            out[f"{name}.calls"] = self.calls[name] / n
            out[f"{name}.self_s"] = self.self_s[name] / n
            if name in MODE_FUNCTIONS:
                out[f"{name}.eval_s"] = self.eval_s[name] / n
        for name, _ in WORK_COUNTS:
            out[name] = self.counts[name] / rounds
        for method in METHODS:
            out[f"trainers.run_trial.{method}.s"] = self.method_s[method] / rounds
            out[f"trainers.run_trial.{method}.peak_mb"] = self.peak_mb[f"trainers.run_trial.{method}"]
        out["bundle.load_bundle.peak_mb"] = self.peak_mb["bundle.load_bundle"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for i, (parent, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
