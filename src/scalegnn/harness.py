"""Benchmark orchestration: the method table, greedy axis-by-axis
hyperparameter search, analytic activation-memory and complexity
accounting, convergence curves, and the JSON writers. Each trial's full
record, curves included, goes to trials.jsonl; a search log holds the axis
visits and the final config, not the trials.

Each method's configuration is stated once, in its METHODS row: its search
space and its fixed knobs, the ones no axis covers. default_space returns
the space, and default_config the space's defaults followed by the fixed
knobs; a search and a trial both start from that config.

The greedy search walks the axes in their declared order; within an axis
every candidate is trialed with already-searched axes fixed to their
winners and unsearched axes at their defaults, so the total trial count is
the sum of candidate-list lengths, not their product. Trials are
deterministic per seed, which makes the winner chain exact: each axis's
candidate set contains the incumbent value, so the final config's
validation accuracy can never fall below any logged trial. It also means
a config seen before (the incumbent, on every axis after the first) is run
once: its earlier result is logged again rather than recomputed.

A search runs at one seed; a TrialResult is one (method, config, seed)
run. A config's spread over seeds comes from one trial per seed, which
`scalegnn report` aggregates per (method, config).

The trials also share what their Dataset holds (see trainers.Dataset): a
trial that needs the normalized adjacency, hops or cs base model an
earlier trial on the same Dataset built reuses it instead of rebuilding
it. The Dataset keeps them after the search returns, for the next trial
or search on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


# ------------------------------------------------------------ search space


@dataclass(frozen=True)
class Axis:
    name: str
    candidates: tuple
    default: object

    def __post_init__(self):
        if not self.candidates:
            raise ValueError(f"axis {self.name!r} has no candidates")
        if self.default not in self.candidates:
            raise ValueError(f"axis {self.name!r} default not in candidates")


@dataclass(frozen=True)
class HPSpace:
    axes: tuple

    def __post_init__(self):
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate axis names")

    def defaults(self) -> dict:
        return {a.name: a.default for a in self.axes}

    def axis_names(self) -> list:
        return [a.name for a in self.axes]

    def without(self, *names) -> "HPSpace":
        return HPSpace(tuple(a for a in self.axes if a.name not in names))


GNN_SEARCH_SPACE = HPSpace((
    Axis("learning_rate", (1e-2, 1e-3, 1e-4), 1e-2),
    Axis("weight_decay", (1e-4, 2e-4, 4e-4), 1e-4),
    Axis("dropout", (0.1, 0.2, 0.5, 0.7), 0.2),
    Axis("epochs", (20, 30, 40, 50), 50),
    Axis("hidden_dim", (128, 256, 512), 128),
    Axis("num_layers", (2, 4, 6), 2),
    Axis("batch_size", (1000, 2000, 5000), 1000),
))

LP_SEARCH_SPACE = HPSpace((
    Axis("num_propagations", (2, 20, 50), 20),
    Axis("alpha", (0.5, 0.75, 0.9, 0.99), 0.75),
    Axis("norm_kind", ("row", "col", "sym"), "sym"),
    Axis("autoscale", (True, False), True),
    Axis("num_mlp_layers", (2, 3, 4), 2),
))


# ------------------------------------------------------------ method table


@dataclass(frozen=True)
class MethodSpec:
    """Registry row: training category, what the batch-size knob counts
    for this method (the raw knob is normalized to 'active nodes per batch'
    by the trainer and both are recorded), the search space, and the fixed
    knobs, those no axis of the space covers."""

    name: str
    category: str  # node-wise | layer-wise | subgraph-wise | precompute | labelprop | stagewise
    batch_semantics: str
    space: HPSpace
    fixed: dict


# cs gets the diffusion axes and its base MLP's depth, with the base MLP's
# other knobs fixed; lp, plain label propagation, has no base MLP and so
# drops autoscale and the depth. Precompute methods do not search the
# batch size (their mini-batching is over precomputed rows), and sgc, a
# single linear layer on the hops, also drops the hidden width and dropout
# it does not have.
_SYM = dict(norm_kind="sym")
_FANOUT = dict(_SYM, fanout=10)
_PRECOMPUTE = dict(batch_size=1000, **_SYM)
_SEED_BATCHES = "training seed nodes per step"
_ROWS = "input rows per step"
METHODS = {
    m.name: m for m in [
        MethodSpec("graphsage", "node-wise", _SEED_BATCHES, GNN_SEARCH_SPACE, _FANOUT),
        MethodSpec("fastgcn", "layer-wise", _SEED_BATCHES, GNN_SEARCH_SPACE, _FANOUT),
        MethodSpec("ladies", "layer-wise", _SEED_BATCHES, GNN_SEARCH_SPACE, _FANOUT),
        MethodSpec("clustergcn", "subgraph-wise",
                   "target nodes per step, rounded to whole clusters",
                   GNN_SEARCH_SPACE, dict(_SYM, num_clusters=16)),
        MethodSpec("saint-node", "subgraph-wise", "node draws per subgraph",
                   GNN_SEARCH_SPACE, _SYM),
        MethodSpec("saint-edge", "subgraph-wise",
                   "target nodes per subgraph (half as many edge draws)",
                   GNN_SEARCH_SPACE, _SYM),
        MethodSpec("saint-rw", "subgraph-wise",
                   "target nodes per subgraph (roots = size / walk length)",
                   GNN_SEARCH_SPACE, dict(_SYM, walk_length=2)),
        MethodSpec("sgc", "precompute", _ROWS,
                   GNN_SEARCH_SPACE.without("batch_size", "dropout", "hidden_dim"),
                   _PRECOMPUTE),
        MethodSpec("sign", "precompute", _ROWS, GNN_SEARCH_SPACE.without("batch_size"),
                   _PRECOMPUTE),
        MethodSpec("sagn", "precompute", _ROWS, GNN_SEARCH_SPACE.without("batch_size"),
                   _PRECOMPUTE),
        MethodSpec("lp", "labelprop", "not batched",
                   LP_SEARCH_SPACE.without("autoscale", "num_mlp_layers"), {}),
        MethodSpec("cs", "labelprop", "input rows per step (base predictor)",
                   LP_SEARCH_SPACE,
                   dict(hidden_dim=64, learning_rate=0.01, weight_decay=0.0,
                        dropout=0.0, epochs=30, batch_size=512)),
        MethodSpec("engcn", "stagewise", "pseudo-training nodes per step",
                   GNN_SEARCH_SPACE, dict(_SYM, threshold=0.9, warm_start=True)),
    ]
}


def default_space(method: str) -> HPSpace:
    """The method's table-ordered search space, from its METHODS row."""
    return METHODS[method].space


def default_config(method: str) -> dict:
    """Full default config: the method's search-space defaults, then its
    fixed knobs."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; known: "
                         f"{sorted(METHODS)}")
    spec = METHODS[method]
    return {**spec.space.defaults(), **spec.fixed}


def resolve_config(method: str, overrides: dict) -> dict:
    """The config a trial of method runs: default_config updated with
    overrides. A key the method does not read is a ValueError naming the
    method and the keys, so a misspelt knob cannot train the default."""
    cfg = default_config(method)
    unknown = sorted(set(overrides) - set(cfg))
    if unknown:
        raise ValueError(f"unknown hyperparameters for {method}: {', '.join(unknown)}")
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------- results


@dataclass
class TrialResult:
    """One end-to-end train+evaluate run.

    The accuracies are those of one reported state, at best_epoch: the best
    validation epoch (the first on ties) for epoch-trained methods, and the
    last logged epoch for the methods that report their final state (lp and
    cs their final scores, engcn its vote). val_acc is the metric axis
    winners compete on; a split without val rows reports 0.0. Wall-clock
    fields are populated only when instrumented. dataset names the Dataset
    the trial ran on (None where it is not known).
    """

    method: str
    config: dict
    seed: int
    train_acc: float
    val_acc: float
    test_acc: float
    best_epoch: int
    loss_curve: list
    val_acc_curve: list
    epoch_seconds: list
    iterations_per_second: float
    activation_bytes: int
    extras: dict = field(default_factory=dict)
    dataset: str | None = None

    def __post_init__(self):
        if not self.loss_curve or not self.val_acc_curve:
            raise ValueError("completed trials must carry non-empty curves")

    def to_dict(self) -> dict:
        return _jsonable({"schema_version": SCHEMA_VERSION, **vars(self)})


@dataclass
class AxisVisit:
    axis: str
    candidates: list
    results: list
    chosen: object


@dataclass
class GreedySearchLog:
    method: str
    seed: int
    axis_visits: list
    trials: list
    final_config: dict
    final_val_acc: float
    complete: bool

    @property
    def trial_count(self) -> int:
        return len(self.trials)

    def to_dict(self) -> dict:
        return _jsonable({
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "seed": self.seed,
            "complete": self.complete,
            "trial_count": self.trial_count,
            "final_config": self.final_config,
            "final_val_acc": self.final_val_acc,
            "axis_visits": [{
                "axis": v.axis,
                "candidates": v.candidates,
                "chosen": v.chosen,
                "val_accs": [r.val_acc for r in v.results],
            } for v in self.axis_visits],
        })


def greedy_search(method: str, space: HPSpace, dataset, seed: int = 0,
                  budget: int | None = None, runner=None) -> GreedySearchLog:
    """Axis-by-axis search. Winner per axis = highest validation accuracy,
    first candidate on exact ties. A budget caps the runner calls: a config
    the search has already run is logged again at no cost, and a new one
    runs only while fewer than budget configs have run. The first config
    the budget refuses ends the search and flags the log incomplete.

    runner(method, cfg, dataset, seed) runs one trial at the search's one
    seed (run_trial by default). Trials reuse the normalized adjacency,
    hops and cs base model that an earlier trial on the dataset built, this
    search's or not; the dataset keeps what the last trial read after the
    search returns."""
    if not space.axes:
        raise ValueError("empty search space")
    if runner is None:
        from scalegnn.trainers import run_trial as runner
    base = default_config(method)
    base.update(space.defaults())
    chosen: dict = {}
    visits, trials = [], []
    seen: dict = {}  # repr of a config -> its TrialResult; one per runner call
    complete = True
    final_val = float("nan")
    for axis in space.axes:
        results = []
        for cand in axis.candidates:
            cfg = dict(base)
            cfg.update(chosen)
            cfg[axis.name] = cand
            key = repr(sorted(cfg.items()))
            if key not in seen:
                if budget is not None and len(seen) >= budget:
                    complete = False
                    break
                seen[key] = runner(method, cfg, dataset, seed)
            res = seen[key]
            results.append(res)
            trials.append(res)
        if not results:
            break
        accs = [r.val_acc for r in results]
        win = int(np.argmax(accs))  # first maximum: earlier candidate on ties
        chosen[axis.name] = axis.candidates[win]
        final_val = results[win].val_acc
        visits.append(AxisVisit(axis.name, list(axis.candidates), results,
                                axis.candidates[win]))
        if not complete:
            break
    final_config = dict(base)
    final_config.update(chosen)
    return GreedySearchLog(method, seed, visits, trials, final_config,
                           final_val, complete)


# ------------------------------------------------------------- estimators


def estimator_inputs(cfg: dict, dataset) -> dict:
    """The b, r, L, D and itemsize arguments of the estimators below for a
    trial of the full config cfg on dataset: batch size, fanout and depth
    (0 where cfg has none; cs counts its base MLP's layers), hidden width
    (the feature width where cfg has none) and the features' itemsize."""
    return dict(b=int(cfg.get("batch_size", 0)), r=int(cfg.get("fanout", 0)),
                L=int(cfg.get("num_layers", cfg.get("num_mlp_layers", 0))),
                D=int(cfg.get("hidden_dim", dataset.feature_dim)),
                itemsize=dataset.features.itemsize)


def estimate_activation_memory(method: str, b: int, r: int, L: int, D: int,
                               itemsize: int) -> int:
    """Analytic bytes of the activations one training step caches for
    backward, at itemsize bytes per scalar (the features' itemsize, which
    a trial computes in: 4 for float32).

    Scaling by category: node-wise b*r^L*D, layer-wise b*r*L*D, everything
    trained as plain mini-batch MLP layers (subgraph-wise, precompute,
    stagewise, the cs base MLP) b*L*D. A one-layer linear readout on fixed
    precomputed features caches nothing for backward (the input matrix is
    not an activation), so sgc reports 0; plain diffusion (lp) has no
    backward pass at all. This is one step's cache only: stored hops
    ((K+1)*N*d) and full-graph evaluation are not counted.
    """
    if min(b, L, D) < 0 or r < 0 or itemsize < 1:
        raise ValueError("estimate needs non-negative parameters")
    if method in ("sgc", "lp"):
        return 0
    category = METHODS[method].category
    if category == "node-wise":
        return int(b * r ** L * D * itemsize)
    if category == "layer-wise":
        return int(b * r * L * D * itemsize)
    return int(b * L * D * itemsize)


@dataclass(frozen=True)
class ComplexityEstimate:
    method: str
    category: str
    time_ops: float   # multiply-accumulate estimate for one full pass
    space_bytes: float

    def __post_init__(self):
        if self.time_ops < 0 or self.space_bytes < 0:
            raise ValueError("complexity estimates must be non-negative")


def estimate_complexity(method: str, b: int, r: int, L: int, D: int,
                        num_nodes: int, nnz: int, itemsize: int) -> ComplexityEstimate:
    """Per-category cost model evaluated with concrete run parameters:
    node-wise r^L*N*D^2, layer-wise r*L*N*D^2, subgraph-wise
    L*nnz*D + L*N*D^2, precompute (and everything trained as an MLP)
    L*N*D^2. The space term is estimate_activation_memory at itemsize
    bytes per scalar: one training step's cached activations only, without
    stored hops or full-graph evaluation."""
    spec = METHODS[method]
    n, d = float(num_nodes), float(D)
    if spec.category == "node-wise":
        t = (r ** L) * n * d * d
    elif spec.category == "layer-wise":
        t = r * L * n * d * d
    elif spec.category == "subgraph-wise":
        t = L * float(nnz) * d + L * n * d * d
    else:
        t = L * n * d * d
    s = estimate_activation_memory(method, b, r, L, D, itemsize)
    return ComplexityEstimate(spec.name, spec.category, t, float(s))


# ------------------------------------------------------------ convergence


@dataclass
class ConvergenceCurve:
    method: str
    seed: int
    losses: list
    val_accs: list

    def __post_init__(self):
        if len(self.losses) != len(self.val_accs):
            raise ValueError("loss and accuracy curves must align")

    @property
    def num_epochs(self) -> int:
        return len(self.losses)

    def epochs_to_fraction_of_final(self, fraction: float = 0.95) -> int:
        """First epoch (1-based) whose validation accuracy reaches the given
        fraction of the final value."""
        target = fraction * self.val_accs[-1]
        for i, v in enumerate(self.val_accs):
            if v >= target:
                return i + 1
        return self.num_epochs


def record_convergence(result: TrialResult) -> ConvergenceCurve:
    return ConvergenceCurve(result.method, result.seed,
                            list(result.loss_curve),
                            list(result.val_acc_curve))


# ---------------------------------------------------------------- writers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_trials_jsonl(results: list, path) -> None:
    with open(path, "w") as fh:
        for r in results:
            fh.write(json.dumps(r.to_dict()) + "\n")


def read_trials_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_search_log(log: GreedySearchLog, path) -> None:
    with open(path, "w") as fh:
        json.dump(log.to_dict(), fh, indent=2)


def write_bench_report(report: dict, path) -> None:
    payload = dict(report)
    payload["schema_version"] = SCHEMA_VERSION
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2)
