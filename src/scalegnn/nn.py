"""Hand-rolled dense numerics: MLP forward/backward, the dropout mask,
losses, AdamW, the mini-batch training loop (fit), gradcheck. The MLP is
also the dense readout of the precompute models (see models).

Everything is plain numpy and computes in the dtype of its inputs and
parameters. init_mlp takes that dtype: trials pass their features' dtype
(float32 from a bundle), while the gradient checks use the float64 default
because they need double precision. Losses and softmax scores are float64
whatever the logits' dtype; cross_entropy hands its gradient back in the
logits' dtype. Backward passes are written out by hand and verified
against central finite differences, so there is no autodiff tape to trust.

Weight convention: x @ W + b with W of shape (fan_in, fan_out). Hidden
layers run linear -> ReLU -> dropout; the last layer is a bare linear
producing logits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from scalegnn.rng import make_rng


@dataclass
class MLPConfig:
    layer_dims: list  # [input, hidden..., output]
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")

    @property
    def num_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class MLPParams:
    weights: list
    biases: list

    def trainable(self) -> dict:
        """Ordered name -> array view; Adam mutates these in place."""
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = w
            out[f"b{i}"] = b
        return out


@dataclass
class ForwardTrace:
    inputs: list  # input to each linear layer
    pre_act: list  # ReLU input per hidden layer
    dropout_masks: list  # scaled masks, None where not applied
    consumed: bool = False


def kaiming_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


def dropout_mask(rng: np.random.Generator, shape, rate: float, dtype) -> np.ndarray:
    """Inverted-dropout mask of shape: 1/keep where a uniform draw is below
    keep = 1 - rate, else 0, in dtype. One pass; its values and draws are
    those of (rng.random(shape) < keep).astype(dtype) / keep."""
    keep, t = 1.0 - rate, np.dtype(dtype).type
    return (rng.random(shape) < keep) * (t(1) / t(keep))


def init_mlp(config: MLPConfig, dtype=np.float64) -> MLPParams:
    rng = make_rng(config.seed)
    dims = config.layer_dims
    weights, biases = [], []
    for l in range(config.num_layers):
        weights.append(kaiming_uniform(rng, dims[l], dims[l + 1], dtype))
        biases.append(np.zeros(dims[l + 1], dtype=dtype))
    return MLPParams(weights, biases)


def mlp_forward(params: MLPParams, config: MLPConfig, x: np.ndarray, mode: str = "train",
                rng: np.random.Generator | None = None):
    """Run the MLP. Returns (logits, trace) in train mode, (logits, None) in eval.

    Dropout in train mode needs an explicit rng; the caller owns the stream
    so repeated forwards draw fresh masks.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be train or eval, got {mode!r}")
    x = np.asarray(x)
    if x.shape[1] != config.layer_dims[0]:
        raise ValueError(f"input has {x.shape[1]} features, config expects {config.layer_dims[0]}")
    train = mode == "train"
    if train and config.dropout_rate > 0 and rng is None:
        raise ValueError("train-mode dropout needs an rng")

    trace = ForwardTrace([], [], []) if train else None
    h = x
    n_layers = config.num_layers
    for l in range(n_layers):
        if train:
            trace.inputs.append(h)
        z = h @ params.weights[l]
        z += params.biases[l]  # no bias-add temporary
        if l == n_layers - 1:
            return z, trace
        if not train:
            h = np.maximum(z, 0.0, out=z)  # eval keeps nothing: ReLU in place
            continue
        trace.pre_act.append(z)
        h = np.maximum(z, 0.0)
        if config.dropout_rate > 0:
            mask = dropout_mask(rng, h.shape, config.dropout_rate, h.dtype)
            h = h * mask
            trace.dropout_masks.append(mask)
        else:
            trace.dropout_masks.append(None)


def mlp_backward(params: MLPParams, config: MLPConfig, trace: ForwardTrace,
                 grad_logits: np.ndarray, input_grad: bool = True):
    """Reverse-mode gradients. Returns (grads dict keyed like trainable(),
    grad_input); with input_grad=False grad_input is None and its product
    with the first layer's weights is skipped."""
    if trace is None:
        raise ValueError("backward needs a train-mode trace")
    if trace.consumed:
        raise ValueError("trace already consumed by a previous backward")
    if len(trace.inputs) != config.num_layers:
        raise ValueError("trace does not match config")
    trace.consumed = True

    grads = {}
    n_layers = config.num_layers
    g = np.asarray(grad_logits)
    for l in range(n_layers - 1, -1, -1):
        if l < n_layers - 1:
            if trace.dropout_masks[l] is not None:
                g = g * trace.dropout_masks[l]
            z = trace.pre_act[l]
            g = g * (z > 0).astype(z.dtype)
        grads[f"W{l}"] = trace.inputs[l].T @ g
        grads[f"b{l}"] = g.sum(axis=0)
        if l == 0 and not input_grad:
            return grads, None
        g = g @ params.weights[l].T
    return grads, g


def softmax_row(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_row(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float64) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean NLL over the batch. Returns (loss, grad_logits)."""
    logits = np.asarray(logits)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.shape[0] == 0:
        raise ValueError("cross_entropy on empty batch")
    if logits.shape[0] != labels.shape[0]:
        raise ValueError("logits/labels batch size mismatch")
    # one shift, exp and sum serve the loss (read at the labels only) and
    # the softmax gradient; the values equal log_softmax_row's and softmax_row's
    n = logits.shape[0]
    rows = np.arange(n)
    v = np.asarray(logits, dtype=np.float64)
    shifted = v - v.max(axis=-1, keepdims=True)
    picked = shifted[rows, labels]
    grad = np.exp(shifted, out=shifted)
    total = grad.sum(axis=-1, keepdims=True)
    loss = -(picked - np.log(total[:, 0])).mean()
    grad /= total
    grad[rows, labels] -= 1.0
    grad /= n
    return float(loss), grad.astype(logits.dtype, copy=False)


def predict(logits: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum, i.e. the lowest class index on ties
    return np.argmax(logits, axis=1)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose predicted class is their label; no rows score
    0.0, as the val accuracy of a split without val rows does."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        return 0.0
    return float((predict(logits) == labels).mean())


@dataclass
class AdamState:
    learning_rate: float
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One AdamW step, in place. Weight decay is decoupled: params are scaled
    by (1 - lr*wd) before the moment update is applied."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"grad shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        if state.weight_decay:
            p *= 1.0 - state.learning_rate * state.weight_decay
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)


class TrainingDiverged(ValueError):
    """A training step returned a non-finite (NaN or infinite) loss."""


@dataclass
class FitLog:
    """Per epoch: mean step loss (NaN without steps), evaluate's value,
    seconds in the steps and, timed apart, seconds in evaluate."""

    loss_curve: list = field(default_factory=list)
    val_curve: list = field(default_factory=list)
    epoch_seconds: list = field(default_factory=list)
    eval_seconds: list = field(default_factory=list)
    steps: int = 0


def shuffled_batches(rng: np.random.Generator, idx: np.ndarray, batch_size: int):
    """One epoch of mini-batches: idx in a fresh order drawn from rng, cut
    into consecutive chunks of batch_size (the last one may be shorter)."""
    order = idx[rng.permutation(idx.size)]
    for start in range(0, order.size, batch_size):
        yield order[start:start + batch_size]


def score_in_chunks(score, rows: np.ndarray, chunk_size: int) -> np.ndarray:
    """score(rows[s:s + chunk_size]) over consecutive chunks of rows (the
    last one may be shorter), concatenated along the first axis. The
    chunks are slices, so no copy of rows is made, and no all-row
    intermediate of score is ever built. rows must not be empty."""
    return np.concatenate([score(rows[s:s + chunk_size])
                           for s in range(0, len(rows), chunk_size)])


def fit(epochs: int, batches, step, evaluate=None) -> FitLog:
    """The mini-batch training loop of every epoch-trained method.

    Each epoch runs step(batch) over batches(epoch), then evaluate(epoch)
    if given. step returns the batch loss; the epoch's loss is their mean.
    The caller owns the batch source, the rngs and the optimizers, so its
    draws happen in the order it writes them. A non-finite loss raises
    TrainingDiverged.
    """
    log = FitLog()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        losses = []
        for batch in batches(epoch):
            loss = step(batch)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"training diverged: loss {loss} at "
                                       f"epoch {epoch}, step {len(losses)}")
            losses.append(loss)
        log.epoch_seconds.append(time.perf_counter() - t0)
        log.steps += len(losses)
        log.loss_curve.append(float(np.mean(losses)) if losses else float("nan"))
        if evaluate is not None:
            t0 = time.perf_counter()
            log.val_curve.append(evaluate(epoch))
            log.eval_seconds.append(time.perf_counter() - t0)
    return log


def gradcheck(f, params: dict, tolerance: float = 1e-5, h: float = 1e-5) -> dict:
    """Compare analytic gradients from f against central finite differences.

    f(params) must return (scalar loss, grads dict) and be deterministic
    (no dropout, or a frozen mask). Relative error per entry is
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    _, analytic = f(params)
    max_err = 0.0
    per_param = {}
    worst = None
    for name, p in params.items():
        a = analytic[name]
        err_here = 0.0
        flat = p.reshape(-1)
        a_flat = np.asarray(a).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lo_plus, _ = f(params)
            flat[i] = orig - h
            lo_minus, _ = f(params)
            flat[i] = orig
            numeric = (lo_plus - lo_minus) / (2 * h)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(a_flat[i]), abs(numeric))
            if err > err_here:
                err_here = err
            if err > max_err:
                max_err = err
                worst = (name, i)
        per_param[name] = err_here
    return {
        "max_rel_err": max_err,
        "per_param": per_param,
        "worst": worst,
        "passed": max_err < tolerance,
        "tolerance": tolerance,
    }
