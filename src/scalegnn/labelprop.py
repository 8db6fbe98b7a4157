"""Label diffusion post-processing: plain propagation, residual-error
smoothing, and the two-phase correct-then-smooth pipeline.

Everything here is deterministic; the only inputs are the normalized
adjacency, base predictions, and the split. The recurrence
Y <- alpha * A_hat Y + (1 - alpha) * G contracts for alpha < 1 whenever the
normalized adjacency has spectral radius <= 1, so a dense linear solve
(1 - alpha)(I - alpha A_hat)^{-1} G serves as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scalegnn.graph import DataSplit, LabelVector, NormalizedAdjacency, spmm
from scalegnn.nn import one_hot


@dataclass
class DiffusionConfig:
    alpha: float
    num_propagations: int
    autoscale: bool = True

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        if self.num_propagations < 0:
            raise ValueError("num_propagations must be >= 0")


def lp_iterate(a: NormalizedAdjacency, y0: np.ndarray, g: np.ndarray,
               alpha: float, k: int, tol: float = 1e-9) -> np.ndarray:
    """k steps of Y <- alpha * A_hat Y + (1 - alpha) * G starting from y0.

    Stops early once the infinity-norm step difference drops to tol;
    tol=0 forces exactly k applications and skips the difference. Each
    step updates its new iterate in place and drops the previous one once
    the difference is taken, so a step holds the source, the difference,
    and the old and new iterates. y0 and g are only read.
    """
    y = np.asarray(y0, dtype=np.float64)
    source = (1.0 - alpha) * np.asarray(g, dtype=np.float64)
    diff = np.empty_like(y) if tol > 0 else None
    for _ in range(k):
        y_next = spmm(a, y)
        y_next *= alpha
        y_next += source
        step = None if diff is None else np.subtract(y_next, y, out=diff)
        y = y_next  # drops the previous iterate
        if step is not None and (not step.size or np.abs(step, out=step).max() <= tol):
            break
    return y


def build_zeros_source(labels: LabelVector, split: DataSplit):
    """Clamped diffusion source: one-hot true labels on training rows, zero
    elsewhere. Returns (G, y0) with y0 = G."""
    if split.train.size == 0:
        raise ValueError("zeros diffusion needs a non-empty training set")
    n = labels.labels.shape[0]
    g = np.zeros((n, labels.num_classes))
    g[split.train] = one_hot(labels.labels[split.train], labels.num_classes)
    return g, g.copy()


def residual_error_iterate(a: NormalizedAdjacency, z: np.ndarray,
                           labels: LabelVector, split: DataSplit,
                           alpha: float, t: int, tol: float = 1e-9) -> np.ndarray:
    """Propagate residual errors E = Z - one_hot(y) on training rows.

    E is zero off the training set; the recurrence is the same contraction
    as lp_iterate with G = E, so the smoothed error converges to
    (1 - alpha)(I - alpha A_hat)^{-1} E.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.zeros_like(z)
    truth = one_hot(labels.labels[split.train], labels.num_classes)
    e[split.train] = z[split.train] - truth
    return lp_iterate(a, e, e, alpha, t, tol=tol)


def autoscale(e_hat: np.ndarray, train_errors: np.ndarray,
              train_idx: np.ndarray) -> np.ndarray:
    """Rescale every non-training error row to the mean L1 norm of the
    training-row errors; training rows and zero-norm rows pass through."""
    target = np.abs(train_errors).sum(axis=1).mean() if train_errors.size else 0.0
    out = np.array(e_hat, dtype=np.float64, copy=True)
    mask = np.ones(out.shape[0], dtype=bool)
    mask[train_idx] = False
    norms = np.abs(out).sum(axis=1)
    scale_rows = mask & (norms > 0)
    out[scale_rows] *= (target / norms[scale_rows])[:, None]
    return out


def correct_and_smooth(a: NormalizedAdjacency, z: np.ndarray,
                       labels: LabelVector, split: DataSplit,
                       config: DiffusionConfig, tol: float = 1e-9) -> np.ndarray:
    """Correct & Smooth (Huang et al., arXiv 2010.13993). Correct: subtract
    the propagated training residual Z - Y from the base scores, which adds
    the propagated Y - Z as published (propagation is linear and autoscale
    only rescales rows by their L1 norm). Smooth: clamp training rows to
    one-hot and diffuse. Returns class scores. z is only read: the
    corrected scores G = Z - Ê are formed in Ê's buffer, which no caller
    holds."""
    z = np.asarray(z, dtype=np.float64)
    e_hat = residual_error_iterate(a, z, labels, split, config.alpha,
                                   config.num_propagations, tol=tol)
    if config.autoscale:
        truth = one_hot(labels.labels[split.train], labels.num_classes)
        e_hat = autoscale(e_hat, z[split.train] - truth, split.train)
    g = np.subtract(z, e_hat, out=e_hat)
    g[split.train] = one_hot(labels.labels[split.train], labels.num_classes)
    return lp_iterate(a, g, g, config.alpha, config.num_propagations, tol=tol)
