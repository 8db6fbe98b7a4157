"""End-to-end trainers behind the benchmark harness.

Every registered method maps (flat config dict, dataset, seed) to a fully
instrumented TrialResult through run_trial. The config a trial runs is the
method's harness.default_config updated with the caller's keys; a sizing
knob below its floor (an empty batch, no epochs, no layers) fails by name
before the trial builds anything. Epoch-trained methods run the one
mini-batch loop, nn.fit, with their own batch source, rngs and optimizers,
and score the val rows once per epoch. A precompute model
scores rows in chunks of its batch size; a sampled one forwards the whole
graph, its dense part in row blocks of its batch size, and builds an
all-node hidden layer only where the next layer's sparse product reads all
of it (see models.sampled_gnn_forward; none at the default two layers).
The cs base model scores every node in chunks of its batch size too. A
sampled method's batches are the BatchPlans of _plan_source, which builds
what the method's sampler draws from (partition, CDF, edge table, layer
distribution) once per trial and draws each epoch's plans from it. Label
diffusion (plain propagation, the correct-and-smooth pipeline) reports its
final scores; stage-wise ensembling logs every stage's epochs in one curve
and reports the vote over the stages.

Every trial reports one state, picked by _best_epoch and scored by
_finish. best_epoch is the best val epoch (the first one on ties) for
epoch-trained methods, and the last logged epoch for the methods that
report their final state (lp, cs, engcn); val_acc is that state's, and
train and test are scored once from it. A split without val rows reports
val 0.0. epoch_seconds times the training steps only; the evaluations,
the final train/test scoring included, are timed apart and summed in
extras["eval_seconds"]. One-off work is in neither: for precompute
methods the propagation cost is reported in extras["precompute_seconds"].

A trial computes in its features' dtype: hops, model parameters, Adam
state, activations and every feature-width sparse product follow
Dataset.features (float32 from a bundle). Label-width arrays (EnGCN's
label embeddings, lp and cs scores, the losses) stay float64.

A Dataset holds what trials on it derive and can share: the normalized
adjacency (with its scipy forms), the precomputed hops and the cs base
model. Each has one slot holding one value, so consecutive trials (a
search's, `scalegnn bench`'s, or any caller's) that revisit a structure
reuse it, and one that moves on frees it before building the next. At the
start of each trial the Dataset drops every slot the trial's category does
not read (_READS), which keeps the held memory to what the trial itself
would build:

- adjacency: one norm kind, with a scipy form per dtype that has been
  asked for (the float64 form shares the adjacency's values; a float32
  form is a copy). An lp or cs trial reads only the float64 form, so it
  starts by dropping the others.
- hops: the hops of one (norm kind, K, first) that a precompute trial
  reads. SGC reads X^K alone, so the hops it builds hold X^K and None
  below it (it reads held hops that start lower as they are); SIGN and
  SAGN hold X^0..X^K.
- mlp_base: the cs base model of one seed and set of MLP_BASE_KNOBS.

An engcn trial never builds hops. It takes stage s's features from held
hops of its norm kind that hold X^s, and propagates those of any other
stage itself (below SGC's X^K, say); either way they are bit-identical.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from scalegnn.engcn import (SLEConfig, engcn_init, engcn_propagate,
                            engcn_stage_forward, engcn_train_stage,
                            majority_vote, sle_update)
from scalegnn.graph import DataSplit, Graph, LabelVector, normalize_adjacency
from scalegnn.harness import (METHODS, TrialResult, default_config,
                              estimate_activation_memory, estimator_inputs,
                              resolve_config)
from scalegnn.labelprop import (DiffusionConfig, build_zeros_source,
                                correct_and_smooth, lp_iterate)
from scalegnn.models import (HopConfig, HopFeatures, SampledGNNConfig, init_sagn,
                             init_sampled_gnn, init_sign, precompute_hops,
                             sagn_backward, sagn_forward, sampled_gnn_backward,
                             sampled_gnn_forward, sgc_backward, sgc_forward,
                             sign_backward, sign_forward)
from scalegnn.nn import (AdamState, FitLog, MLPConfig, accuracy, adam_step,
                         cross_entropy, fit, init_mlp, mlp_backward,
                         mlp_forward, predict, score_in_chunks, shuffled_batches,
                         softmax_row)
from scalegnn.rng import spawn_rngs
from scalegnn.samplers import (BatchPlan, fastgcn_layer_probs,
                               layer_wise_sample, node_wise_sample,
                               partition_graph, probs_cdf, random_walk_sample,
                               saint_edge_sample, saint_edge_table,
                               saint_node_probs, saint_node_sample,
                               subgraph_batch)
from scalegnn.synth import SyntheticSpec, generate_sbm


# the knobs of the cs base MLP: all that _train_mlp_base reads, and its cache key
MLP_BASE_KNOBS = ("num_mlp_layers", *METHODS["cs"].fixed)

# the slots a trial of each category reads; run_trial drops the others
_READS = {"node-wise": ("adjacency",), "layer-wise": ("adjacency",),
          "subgraph-wise": ("adjacency",), "precompute": ("adjacency", "hops"),
          "labelprop": ("adjacency", "mlp_base"), "stagewise": ("adjacency", "hops")}


@dataclass(frozen=True, eq=False)
class Dataset:
    """A graph with node features, labels and split, and the structures
    trials derive from them, one slot per kind: the normalized adjacency
    by norm kind (with the scipy forms built from it so far), (HopFeatures,
    build seconds) by (norm kind, K, first), which holds hops first..K
    (precompute_hops), and the cs base model (params, logits, FitLog) by
    seed and MLP_BASE_KNOBS. A slot holds one value; on a miss it drops the
    old value before building the new one, so two never coexist. Before a
    trial, _retain drops what the trial's category does not read. The
    slots hold no reference back to the Dataset.

    The fields cannot be reassigned, and their arrays must not be modified
    in place after construction: the slots would go stale.
    dataclasses.replace makes a new Dataset, with empty slots."""

    graph: Graph
    features: np.ndarray
    labels: LabelVector
    split: DataSplit
    name: str = "synthetic"
    _slots: dict = field(default_factory=dict, init=False, repr=False)  # name -> (key, value)

    def __post_init__(self):
        # trials compute in the features' dtype, so it must be a float one:
        # integer or boolean features (counts, one-hots) compute in float64
        if not np.issubdtype(np.asarray(self.features).dtype, np.floating):
            object.__setattr__(self, "features",
                               np.asarray(self.features, dtype=np.float64))

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_classes(self) -> int:
        return self.labels.num_classes

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def _get(self, slot, key, build):
        held = self._slots.get(slot)
        if held is not None and held[0] == key:
            return held[1]
        del held  # drops the old value before the build, and a failed build
        self._slots.pop(slot, None)  # leaves the slot empty
        value = build()
        self._slots[slot] = (key, value)
        return value

    def adjacency(self, norm_kind: str):
        return self._get("adjacency", norm_kind,
                         lambda: normalize_adjacency(self.graph, norm_kind))

    def hops(self, norm_kind: str, K: int, first: int = 0):
        """(HopFeatures, build seconds) holding hops first..K of norm_kind.
        Held hops of the same norm kind and K that start lower serve as
        they are, so sgc after sign or sagn propagates nothing."""
        def build():
            a = self.adjacency(norm_kind)
            t0 = time.perf_counter()
            hops = precompute_hops(a, self.features, K, first)
            return hops, time.perf_counter() - t0
        key = (norm_kind, K, first)
        held = self._slots.get("hops")
        if held is not None and held[0][:2] == key[:2] and held[0][2] <= first:
            key = held[0]
        del held  # on a miss, _get drops the old value before the build
        return self._get("hops", key, build)

    def held_hops(self, norm_kind: str):
        """The held HopFeatures of norm_kind, or None; never builds."""
        held = self._slots.get("hops")
        return held[1][0] if held is not None and held[0][0] == norm_kind else None

    def mlp_base(self, cfg: dict, seed: int):
        knobs = {k: cfg[k] for k in MLP_BASE_KNOBS}
        return self._get("mlp_base", (seed, *knobs.values()),
                         lambda: _train_mlp_base(knobs, self, seed))

    def _retain(self, category: str, norm_kind: str):
        """Drop every slot a trial of category does not read (_READS), and
        hops of a norm kind other than norm_kind. Label diffusion reads the
        adjacency only in float64, the dtype of its values, so before its
        trials the held adjacency also drops its scipy forms of any other
        dtype."""
        for slot, (key, _) in list(self._slots.items()):
            if slot not in _READS[category] or (slot == "hops" and key[0] != norm_kind):
                del self._slots[slot]
        held = self._slots.get("adjacency")
        if category == "labelprop" and held is not None:
            held[1].keep_scipy_form(held[1].values.dtype)


def dataset_from_sbm(spec: SyntheticSpec) -> Dataset:
    g, x, labels, split = generate_sbm(spec)
    return Dataset(g, x, labels, split, name=f"sbm-{spec.num_nodes}")


# ------------------------------------------------------------------ common


def _checksum(trainable: dict) -> float:
    return float(sum(np.abs(v).sum() for v in trainable.values()))


def _finish(method, cfg, dataset, seed, *, log: FitLog, best, extras):
    """Assemble the TrialResult from the training log and best, the
    (epoch, val accuracy, predictor) of the state to report, as
    _best_epoch's best() returns it. Train and test are scored here, from
    the predictor, and timed into extras["eval_seconds"]."""
    epoch, val_acc, predict_rows = best
    spec = METHODS[method]
    train_seconds = sum(log.epoch_seconds)
    result = TrialResult(
        method=method, config=dict(cfg), seed=seed,
        train_acc=float("nan"), val_acc=val_acc, test_acc=float("nan"),
        best_epoch=epoch, loss_curve=list(log.loss_curve),
        val_acc_curve=list(log.val_curve), epoch_seconds=list(log.epoch_seconds),
        iterations_per_second=log.steps / train_seconds if train_seconds > 0 else 0.0,
        activation_bytes=estimate_activation_memory(method, **estimator_inputs(cfg, dataset)),
        extras={**extras, "category": spec.category,
                "batch_semantics": spec.batch_semantics},
        dataset=dataset.name)
    # scored only once TrialResult has accepted the curves: a trial that
    # logged no epoch kept no state to score
    y = dataset.labels.labels
    t0 = time.perf_counter()
    result.train_acc, result.test_acc = (
        float((predict_rows(rows) == y[rows]).mean()) if rows.size else float("nan")
        for rows in (dataset.split.train, dataset.split.test))
    result.extras["eval_seconds"] = float(sum(log.eval_seconds)) + time.perf_counter() - t0
    return result


def _best_epoch(dataset, state, classify):
    """fit's evaluate, which picks the state a trial reports, and best(),
    which returns the pick's (epoch, val accuracy, predictor) for _finish.

    Only val accuracy selects the epoch, so each evaluation classifies only
    the val rows: state() captures the model as it is now, in a form later
    training does not change (a copy of the parameters, a full-graph
    forward's logits, final predictions), and classify(state, rows)
    returns the predicted class of each row under it. The first epoch and
    every val improvement keep their state; the predictor classifies rows
    under the kept one. A split without val rows scores val 0.0. Methods
    that report their final state call evaluate once, after training, at
    their last logged epoch."""
    y, val_rows = dataset.labels.labels, dataset.split.val
    kept = (-1, -1.0, None)  # (epoch, val accuracy, state); any epoch beats it

    def evaluate(epoch):
        nonlocal kept
        s = state()
        val = float((classify(s, val_rows) == y[val_rows]).mean()) if val_rows.size else 0.0
        if val > kept[1]:
            kept = (epoch, val, s)
        return val

    def best():
        epoch, val, s = kept
        return epoch, val, lambda rows: classify(s, rows)

    return evaluate, best


def _final_state(dataset, log, labels):
    """best() for a method that reports its final state: labels, a
    predicted class per node, evaluated once at the last logged epoch."""
    evaluate, best = _best_epoch(dataset, lambda: labels, lambda v, rows: v[rows])
    evaluate(len(log.val_curve) - 1)
    return best()


def full_plan(a, dtype=np.float64) -> BatchPlan:
    """Whole-graph plan: one node set holding every node and one block, the
    full normalized adjacency in dtype, shared by all layers, which makes
    the sampled forward a plain full-batch forward."""
    nodes = np.arange(a.num_nodes, dtype=np.int64)
    return BatchPlan([nodes], [a.to_scipy(dtype)], shared=True)


# ----------------------------------------------------------- sampled GNNs


def _plan_source(method, cfg, dataset, a):
    """A sampled trial's batch source: builds what the method draws from
    once (layer distribution, per-cluster node lists, node CDF or edge
    table) and returns epoch(rng), which yields one epoch of BatchPlans
    drawn from rng: a sampled block stack per shuffled chunk of training
    seeds, or one induced subgraph per non-empty node set."""
    g, dtype, train = dataset.graph, dataset.features.dtype, dataset.split.train
    bs, L, q = cfg["batch_size"], int(cfg["num_layers"]), cfg.get("fanout")
    if method == "graphsage":
        return lambda rng: (node_wise_sample(g, a, b, q, L, rng, dtype)
                            for b in shuffled_batches(rng, train, int(bs)))
    if method in ("fastgcn", "ladies"):
        p = fastgcn_layer_probs(a)
        return lambda rng: (layer_wise_sample(g, a, b, q, L, method, rng, p, dtype)
                            for b in shuffled_batches(rng, train, int(bs)))
    if method == "clustergcn":
        k = cfg["num_clusters"]
        parts = partition_graph(g, k)
        clusters = [parts.cluster_nodes(c) for c in range(k)]
        per = max(1, int(round(bs / (dataset.num_nodes / k))))

        def node_sets(rng):
            order = rng.permutation(k)
            return (np.concatenate([clusters[c] for c in order[s:s + per]])
                    for s in range(0, k, per))
    else:
        if method == "saint-node":
            cdf = probs_cdf(saint_node_probs(a))
            draw = lambda rng: saint_node_sample(a, bs, rng, cdf)
        elif method == "saint-edge":
            table = saint_edge_table(g)
            draw = lambda rng: saint_edge_sample(g, max(1, bs // 2), rng, table)
        else:
            walk = cfg["walk_length"]
            draw = lambda rng: random_walk_sample(g, max(1, bs // (walk + 1)), walk, rng)
        count = max(1, int(round(dataset.num_nodes / bs)))
        node_sets = lambda rng: (draw(rng) for _ in range(count))

    def epoch(rng):
        for nodes in node_sets(rng):
            if nodes.size:
                yield subgraph_batch(g, a, nodes, dtype)
    return epoch


def _train_sampled(method, cfg, dataset, seed):
    x, y = dataset.features, dataset.labels.labels
    a = dataset.adjacency(cfg["norm_kind"])
    L = int(cfg["num_layers"])
    dims = [dataset.feature_dim] + [int(cfg["hidden_dim"])] * (L - 1) + [dataset.num_classes]
    model_cfg = SampledGNNConfig(dims, dropout=float(cfg["dropout"]), seed=seed)
    params = init_sampled_gnn(model_cfg, x.dtype)
    opt = AdamState(cfg["learning_rate"], cfg["weight_decay"])
    sample_rng, drop_rng = spawn_rngs(seed, 2)
    eval_plan = full_plan(a, x.dtype)
    epoch_plans = _plan_source(method, cfg, dataset, a)
    train_set = np.zeros(dataset.num_nodes, dtype=bool)
    train_set[dataset.split.train] = True
    active_sizes = []

    def batches(epoch):  # (plan, training mask of its targets)
        for plan in epoch_plans(sample_rng):
            mask = train_set[plan.target_nodes]
            if mask.any():
                if epoch == 0:
                    active_sizes.append(plan.nodes(L).size)
                yield plan, mask

    def step(batch):
        plan, mask = batch
        logits, trace = sampled_gnn_forward(plan, x, params, model_cfg,
                                            mode="train", rng=drop_rng)
        loss, grad = cross_entropy(logits[mask], y[plan.target_nodes[mask]])
        full_grad = np.zeros_like(logits)
        full_grad[mask] = grad
        grads = sampled_gnn_backward(plan, params, model_cfg, trace, full_grad)
        adam_step(opt, params.trainable(), grads)
        return loss

    # the first layer needs every node, so an evaluation forwards the whole
    # graph, in row blocks of batch_size; its logits are the state kept for
    # the final train/test scores. The memo keeps the first layer's Â x
    # across the trial's evaluations.
    eval_memo, chunk = {}, int(cfg["batch_size"])
    evaluate, best = _best_epoch(
        dataset,
        lambda: sampled_gnn_forward(eval_plan, x, params, model_cfg, memo=eval_memo,
                                    chunk=chunk)[0],
        lambda logits, rows: predict(logits[rows]))
    log = fit(int(cfg["epochs"]), batches, step, evaluate)
    extras = {"active_input_nodes": float(np.mean(active_sizes)) if active_sizes else 0.0,
              "param_checksum": _checksum(params.trainable())}
    return _finish(method, cfg, dataset, seed, log=log, best=best(), extras=extras)


# ------------------------------------------------------------- precompute


def _subset_hops(hops: HopFeatures, idx: np.ndarray, first: int = 0) -> HopFeatures:
    """Rows idx of hops first..K; the hops below first, which the model does
    not read, are None."""
    return HopFeatures([None] * first + [h[idx] for h in hops.hops[first:]], hops.K)


def _train_precompute(method, cfg, dataset, seed):
    y = dataset.labels.labels
    split = dataset.split
    K = int(cfg["num_layers"])
    first = K if method == "sgc" else 0  # the lowest hop the model reads
    hops, precompute_seconds = dataset.hops(cfg["norm_kind"], K, first)
    d, c, dtype = dataset.feature_dim, dataset.num_classes, hops.hops[K].dtype
    if method == "sgc":
        model_cfg = MLPConfig([d, c], seed=seed)
        init, forward, backward = init_mlp, sgc_forward, sgc_backward
    else:
        model_cfg = HopConfig(K, d, int(cfg["hidden_dim"]), c,
                              dropout=float(cfg["dropout"]), seed=seed)
        init, forward, backward = ((init_sign, sign_forward, sign_backward)
                                   if method == "sign" else
                                   (init_sagn, sagn_forward, sagn_backward))
    params = init(model_cfg, dtype)
    opt = AdamState(cfg["learning_rate"], cfg["weight_decay"])
    shuffle_rng, drop_rng = spawn_rngs(seed, 2)
    batch_size = int(cfg["batch_size"])

    def step(batch):
        sub = _subset_hops(hops, batch, first)
        logits, trace = forward(sub, params, model_cfg, "train", drop_rng)
        loss, grad = cross_entropy(logits, y[batch])
        grads = backward(sub, params, model_cfg, trace, grad)
        adam_step(opt, params.trainable(), grads)
        return loss

    def classify(p, rows):  # a node's logits read only its own hop rows
        return predict(score_in_chunks(
            lambda chunk: forward(_subset_hops(hops, chunk, first), p, model_cfg)[0],
            rows, batch_size))

    evaluate, best = _best_epoch(dataset, lambda: copy.deepcopy(params), classify)
    batches = lambda _: shuffled_batches(shuffle_rng, split.train, batch_size)
    log = fit(int(cfg["epochs"]), batches, step, evaluate)
    extras = {"active_input_nodes": float(min(batch_size, split.train.size)),
              "precompute_seconds": precompute_seconds,
              "param_checksum": _checksum(params.trainable())}
    return _finish(method, cfg, dataset, seed, log=log, best=best(), extras=extras)


# -------------------------------------------------------- label diffusion


def _train_mlp_base(knobs, dataset, seed):
    """Plain feature MLP, the base predictor of correct-and-smooth, trained
    with the MLP_BASE_KNOBS in knobs. Returns (params, final full-graph
    logits, training log)."""
    x = dataset.features
    y = dataset.labels.labels
    split = dataset.split
    x_val, y_val = x[split.val], y[split.val]
    depth = int(knobs["num_mlp_layers"])
    dims = [dataset.feature_dim] + [int(knobs["hidden_dim"])] * (depth - 1) + [dataset.num_classes]
    mlp_cfg = MLPConfig(dims, dropout_rate=float(knobs["dropout"]), seed=seed)
    params = init_mlp(mlp_cfg, x.dtype)
    opt = AdamState(knobs["learning_rate"], knobs["weight_decay"])
    shuffle_rng, drop_rng = spawn_rngs(seed, 2)

    def step(batch):
        logits, trace = mlp_forward(params, mlp_cfg, x[batch], mode="train",
                                    rng=drop_rng)
        loss, grad = cross_entropy(logits, y[batch])
        grads, _ = mlp_backward(params, mlp_cfg, trace, grad, input_grad=False)
        adam_step(opt, params.trainable(), grads)
        return loss

    def evaluate(_):  # per-epoch val accuracy needs only the val rows
        return accuracy(mlp_forward(params, mlp_cfg, x_val, mode="eval")[0], y_val)

    batches = lambda _: shuffled_batches(shuffle_rng, split.train, int(knobs["batch_size"]))
    log = fit(int(knobs["epochs"]), batches, step, evaluate)
    # every node is scored in batch-sized chunks: no all-node hidden layer
    logits = score_in_chunks(lambda rows: mlp_forward(params, mlp_cfg, rows, mode="eval")[0],
                             x, int(knobs["batch_size"]))
    return params, logits, log


def _train_labelprop(method, cfg, dataset, seed):
    """lp: label propagation from the one-hot training labels. cs: a base
    MLP, then correct-and-smooth of its softmax scores."""
    y = dataset.labels
    split = dataset.split
    diff = DiffusionConfig(alpha=float(cfg["alpha"]),
                           num_propagations=int(cfg["num_propagations"]),
                           autoscale=method == "cs" and bool(cfg["autoscale"]))
    a = dataset.adjacency(str(cfg["norm_kind"]))
    extras = {}
    if method == "lp":
        # one propagation step per epoch; the "loss" is the step's max change
        g0, scores = build_zeros_source(y, split)

        def step(_):
            nonlocal scores
            prev, scores = scores, lp_iterate(a, scores, g0, diff.alpha, 1, tol=0.0) \
                if diff.num_propagations else scores
            return float(np.max(np.abs(scores - prev)))

        log = fit(max(diff.num_propagations, 1), lambda _: (None,), step,
                  lambda _: accuracy(scores[split.val], y.labels[split.val]))
        extras["param_checksum"] = 0.0
    else:
        params, base_logits, log = dataset.mlp_base(cfg, seed)
        z = softmax_row(base_logits)
        scores = correct_and_smooth(a, z, y, split, diff)
        extras["base_val_acc"] = accuracy(base_logits[split.val],
                                          y.labels[split.val])
        extras["param_checksum"] = _checksum(params.trainable())
    return _finish(method, cfg, dataset, seed, log=log,
                   best=_final_state(dataset, log, predict(scores)), extras=extras)


# --------------------------------------------------------------- stagewise


def _train_engcn(method, cfg, dataset, seed):
    """Per stage: propagate (stage >= 1), train, score every node, grow the
    pseudo set; then vote over the cached per-stage logits. A stage whose
    hop the dataset's held hops hold (not None) takes its features from
    them instead of propagating them. phi computes in the features' dtype,
    psi in float64.
    The log runs through every stage's epochs; zero-epoch stages log one
    row each, with the stage's val accuracy. The trial reports the vote,
    at the last logged epoch."""
    x, y, split = dataset.features, dataset.labels.labels, dataset.split
    d, c, hid = dataset.feature_dim, dataset.num_classes, int(cfg["hidden_dim"])
    sle = SLEConfig(threshold=float(cfg["threshold"]),
                    num_stages=int(cfg["num_layers"]),
                    epochs_per_stage=int(cfg["epochs"]),
                    phi=MLPConfig([d, hid, c], dropout_rate=float(cfg["dropout"]),
                                  seed=seed),
                    psi=MLPConfig([c, hid, c], seed=seed + 1),
                    batch_size=int(cfg["batch_size"]),
                    learning_rate=float(cfg["learning_rate"]),
                    weight_decay=float(cfg["weight_decay"]),
                    warm_start=bool(cfg["warm_start"]), seed=seed)
    a = dataset.adjacency(str(cfg["norm_kind"]))
    # held hops of this norm kind already hold the features of their stages;
    # a None hop (below SGC's X^K) is propagated by engcn_propagate
    held = dataset.held_hops(str(cfg["norm_kind"]))
    borrowed = held.hops[1:] if held is not None else []
    state = engcn_init(x, dataset.labels, split)
    phi, psi = init_mlp(sle.phi, x.dtype), init_mlp(sle.psi)
    stage_rngs = spawn_rngs(sle.seed, sle.num_stages + 1)
    nodes = np.arange(dataset.num_nodes)
    log, stage_logits, pseudo_sizes = FitLog(), [], []
    for stage in range(sle.num_stages + 1):
        if stage >= 1:
            engcn_propagate(state, a, borrowed[stage - 1] if stage <= len(borrowed) else None)
            if not sle.warm_start:
                phi = init_mlp(replace(sle.phi, seed=sle.phi.seed + stage), x.dtype)
                psi = init_mlp(replace(sle.psi, seed=sle.psi.seed + stage))
        pseudo_sizes.append(int(state.pseudo_train.size))
        stage_log = engcn_train_stage(state, phi, psi, sle, stage_rngs[stage])
        for f in fields(FitLog):  # concatenates the curves, adds the steps
            setattr(log, f.name, getattr(log, f.name) + getattr(stage_log, f.name))
        # every node is scored in batch-sized chunks: no all-node hidden layer
        logits = score_in_chunks(lambda rows: engcn_stage_forward(state, phi, psi, sle, rows),
                                 nodes, sle.batch_size)
        stage_logits.append(logits)
        sle_update(state, logits, sle.threshold)
    stage_val = [accuracy(z[split.val], y[split.val]) for z in stage_logits]
    if not log.loss_curve:
        zeros = [0.0] * len(stage_val)
        log = FitLog(zeros, stage_val, zeros, zeros)
    extras = {"stage_val_acc": stage_val,
              "stage_test_acc": [accuracy(z[split.test], y[split.test])
                                 for z in stage_logits],
              "pseudo_sizes": pseudo_sizes,
              "final_pseudo_size": int(state.pseudo_train.size),
              "active_input_nodes": float(np.mean(pseudo_sizes)),
              "param_checksum": 0.0}
    return _finish(method, cfg, dataset, seed, log=log,
                   best=_final_state(dataset, log, majority_vote(stage_logits)),
                   extras=extras)


# ----------------------------------------------------------------- public


def _check_sizes(method: str, cfg: dict) -> None:
    """Reject a sizing knob below its smallest valid value by name, before
    a trial builds anything. engcn may train zero epochs per stage; sgc and
    sign may read only X^0, and engcn may run stage 0 alone (num_layers 0)."""
    floors = {"batch_size": 1, "num_clusters": 1, "walk_length": 0, "hidden_dim": 1,
              "num_mlp_layers": 1, "epochs": int(method != "engcn"),
              "num_layers": int(method not in ("sgc", "sign", "engcn"))}
    for knob, least in floors.items():
        if knob in cfg and cfg[knob] < least:
            raise ValueError(f"method {method!r}: {knob} must be >= {least}, "
                             f"got {knob}={cfg[knob]}")


def run_trial(method: str, config: dict, dataset: Dataset, seed: int = 0,
              instrument: bool = True) -> TrialResult:
    """Train and evaluate one method/config pair at one seed. To compare
    seeds, run one trial per seed; `scalegnn report` aggregates them per
    config.

    instrument=False zeroes every timing field: epoch_seconds,
    iterations_per_second, and extras["eval_seconds"] and
    extras["precompute_seconds"].

    The trial first drops the dataset's slots that its category does not
    read, then takes the normalized adjacency, the hops and the cs base
    model from the dataset, built by an earlier trial on it when it needed
    the same one. Results do not depend on what is held. A reused stage
    reports the timings of the run that built it: precompute_seconds for
    hops, and the base model's curves and epoch_seconds for cs."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; known: {sorted(METHODS)}")
    counts = (dataset.graph.num_nodes, dataset.features.shape[0],
              dataset.labels.labels.shape[0])
    if len(set(counts)) > 1:
        raise ValueError(f"method {method!r}: dataset graph, features and "
                         f"labels disagree on node count {counts}")
    cfg = resolve_config(method, config)
    _check_sizes(method, cfg)
    category = METHODS[method].category
    dataset._retain(category, str(cfg["norm_kind"]))
    if category in ("node-wise", "layer-wise", "subgraph-wise"):
        result = _train_sampled(method, cfg, dataset, seed)
    elif category == "precompute":
        result = _train_precompute(method, cfg, dataset, seed)
    elif category == "labelprop":
        result = _train_labelprop(method, cfg, dataset, seed)
    else:
        result = _train_engcn(method, cfg, dataset, seed)
    if not instrument:
        result.epoch_seconds = [0.0] * len(result.epoch_seconds)
        result.iterations_per_second = 0.0
        result.extras["eval_seconds"] = 0.0
        if "precompute_seconds" in result.extras:
            result.extras["precompute_seconds"] = 0.0
    return result
