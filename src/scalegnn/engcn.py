"""Stage primitives of stage-wise ensembling: two shared MLPs retrained on
successively propagated feature and label matrices, a growing
pseudo-labeled training set, and a centered log-softmax majority vote over
the per-stage logits. trainers._train_engcn runs the stages.

One propagated feature matrix is kept: the current one, which overlaps its
predecessor only inside a propagation step. The voting cache holds
per-stage logits, which are label-width. Measured with tracemalloc on
2000 nodes with 128-dim float64 features and 4 classes (acceptance test 9),
an engcn trial allocates at most 3 feature matrices beyond its input (2.44
at 6 stages), and less than a quarter of a matrix more at 6 stages than at
2. One stage peaks lower: its one propagation reads the caller's input.
After each stage the trial scores every node in chunks of batch_size rows,
so no all-node hidden layer is built: at hidden width 256 on 2000 nodes, a
trial peaks below one all-node float64 hidden layer, in a training step;
the per-epoch val scoring runs in the same chunks.
Propagation runs outside the training loop: exactly one sparse product per
stage for Y, and at most one for X. A stage whose features a held hop of
the same adjacency already holds (trainers.Dataset.held_hops) takes them
from it and makes no product for X; the hop holds the same product of the
same arrays, so the results are bit-identical.

The feature side (X, phi's parameters and optimizer state, its
activations) computes in the features' dtype; the label side (Y, psi, the
losses and the vote) in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scalegnn.graph import DataSplit, LabelVector, spmm
from scalegnn.nn import (AdamState, FitLog, MLPConfig, MLPParams, accuracy,
                         adam_step, cross_entropy, fit, log_softmax_row,
                         mlp_backward, mlp_forward, one_hot, score_in_chunks,
                         shuffled_batches, softmax_row)


@dataclass
class SLEConfig:
    """Run settings: confidence threshold for pseudo-label admission, the
    number of propagation stages beyond stage 0 (a run executes stages
    0..num_stages), per-stage epoch budget, and the two model configs.

    phi maps features to class scores, psi maps propagated label embeddings
    to class scores; psi only participates from stage 1 on. warm_start
    continues the weights across stages; the optimizer state is always
    fresh per stage.
    """

    threshold: float
    num_stages: int
    epochs_per_stage: int
    phi: MLPConfig
    psi: MLPConfig
    batch_size: int
    learning_rate: float = 0.01
    weight_decay: float = 0.0
    warm_start: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if self.num_stages < 0:
            raise ValueError("num_stages must be >= 0")
        if self.epochs_per_stage < 0:
            raise ValueError("epochs_per_stage must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EnGCNState:
    """Mutable per-run state. stage is the index of the inputs currently
    held in x_cur/y_cur; sle_update advances it after a stage finishes."""

    stage: int
    x_cur: np.ndarray
    y_cur: np.ndarray
    pseudo_labels: np.ndarray  # int64, -1 where unset
    pseudo_train: np.ndarray   # sorted node indices, superset of train
    true_labels: np.ndarray
    split: DataSplit


def engcn_init(x: np.ndarray, labels: LabelVector, split: DataSplit) -> EnGCNState:
    """Stage-0 state: raw features (kept in their dtype), float64 one-hot
    label matrix on training rows (zero elsewhere), pseudo set = training
    set."""
    if split.train.size == 0:
        raise ValueError("training set is empty")
    c = labels.num_classes
    n = x.shape[0]
    if labels.labels.shape[0] != n:
        raise ValueError("features and labels disagree on node count")
    y0 = np.zeros((n, c))
    y0[split.train] = one_hot(labels.labels[split.train], c)
    pseudo = np.full(n, -1, dtype=np.int64)
    pseudo[split.train] = labels.labels[split.train]
    return EnGCNState(stage=0, x_cur=x, y_cur=y0, pseudo_labels=pseudo,
                      pseudo_train=np.sort(np.asarray(split.train, dtype=np.int64)),
                      true_labels=labels.labels.copy(), split=split)


def engcn_propagate(state: EnGCNState, a, x_next: np.ndarray | None = None) -> EnGCNState:
    """One adjacency application each for features and label embeddings.
    x_next, when given, is Â applied to the current features, computed
    elsewhere (a held hop), and replaces the feature product.

    Stage 0 consumes raw inputs, so this is only legal once sle_update has
    advanced the state to stage >= 1. The old and new feature matrices
    overlap for this one step and never more, which is the whole point of
    stage-wise propagation.
    """
    if state.stage < 1:
        raise ValueError("stage 0 uses raw inputs; propagation starts at stage 1")
    state.x_cur = spmm(a, state.x_cur) if x_next is None else x_next
    state.y_cur = spmm(a, state.y_cur)
    return state


def engcn_stage_forward(state: EnGCNState, phi_params: MLPParams,
                        psi_params: MLPParams, config: SLEConfig,
                        batch: np.ndarray) -> np.ndarray:
    """Eval-mode class scores for a node batch: phi on features, plus psi on
    label embeddings from stage 1 on (stage 0 ignores psi entirely)."""
    batch = np.asarray(batch, dtype=np.int64)
    if batch.size == 0:
        raise ValueError("empty batch")
    logits, _ = mlp_forward(phi_params, config.phi, state.x_cur[batch], mode="eval")
    if state.stage >= 1:
        psi_logits, _ = mlp_forward(psi_params, config.psi,
                                    state.y_cur[batch], mode="eval")
        logits = logits + psi_logits
    return logits


def engcn_train_stage(state: EnGCNState, phi_params: MLPParams,
                      psi_params: MLPParams, config: SLEConfig,
                      rng: np.random.Generator) -> FitLog:
    """Mini-batch AdamW (nn.fit) over the pseudo training set with
    pseudo-label targets, training phi and psi in place; psi trains only
    from stage 1 on, and rng draws both the shuffles and the dropout masks.
    Returns the stage's FitLog, with the val accuracy after each epoch."""
    targets_all = state.pseudo_labels
    nodes = state.pseudo_train
    if (targets_all[nodes] < 0).any():
        raise ValueError("pseudo training set contains unlabeled nodes")
    opt_phi = AdamState(config.learning_rate, config.weight_decay)
    opt_psi = AdamState(config.learning_rate, config.weight_decay)
    use_psi = state.stage >= 1

    def step(batch):
        logits, trace_phi = mlp_forward(phi_params, config.phi, state.x_cur[batch],
                                        mode="train", rng=rng)
        if use_psi:
            psi_logits, trace_psi = mlp_forward(
                psi_params, config.psi, state.y_cur[batch],
                mode="train", rng=rng)
            logits = logits + psi_logits
        loss, grad = cross_entropy(logits, targets_all[batch])
        # the float64 loss gradient goes back into phi in phi's dtype
        grads_phi, _ = mlp_backward(phi_params, config.phi, trace_phi,
                                    grad.astype(phi_params.weights[0].dtype, copy=False),
                                    input_grad=False)
        adam_step(opt_phi, phi_params.trainable(), grads_phi)
        if use_psi:
            grads_psi, _ = mlp_backward(psi_params, config.psi,
                                        trace_psi, grad, input_grad=False)
            adam_step(opt_psi, psi_params.trainable(), grads_psi)
        return loss

    def evaluate(_):  # in batch-sized chunks, as the stage scoring
        val = state.split.val
        if not val.size:  # as accuracy scores no rows
            return 0.0
        logits = score_in_chunks(
            lambda rows: engcn_stage_forward(state, phi_params, psi_params, config, rows),
            val, config.batch_size)
        return accuracy(logits, state.true_labels[val])

    return fit(config.epochs_per_stage,
               lambda _: shuffled_batches(rng, nodes, config.batch_size), step,
               evaluate)


def sle_update(state: EnGCNState, stage_logits: np.ndarray,
               threshold: float) -> EnGCNState:
    """Grow the pseudo training set with nodes whose softmax confidence
    clears the threshold; re-clearing nodes refresh their pseudo label,
    training nodes always keep the true label. Advances the stage index."""
    if stage_logits.shape[0] != state.true_labels.shape[0]:
        raise ValueError("stage logits must cover every node")
    probs = softmax_row(stage_logits)
    confident = np.flatnonzero(probs.max(axis=1) >= threshold)
    state.pseudo_labels[confident] = probs[confident].argmax(axis=1)
    train = state.split.train
    state.pseudo_labels[train] = state.true_labels[train]
    state.pseudo_train = np.union1d(state.pseudo_train, confident)
    state.stage += 1
    return state


def majority_vote(stage_logits: list) -> np.ndarray:
    """Centered log-softmax vote: per stage, subtract each row's mean
    log-probability, sum the centered scores across stages, argmax
    (lowest class index on ties)."""
    if not stage_logits:
        raise ValueError("need at least one stage to vote")
    total = None
    for logits in stage_logits:
        z = log_softmax_row(logits)
        z -= z.mean(axis=1, keepdims=True)
        if total is None:
            total = z
        else:
            total += z
    return np.argmax(total, axis=1)
