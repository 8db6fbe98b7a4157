"""Stochastic block model generator with Gaussian class-mean features.

Deterministic per seed: edge counts per block pair are binomial draws and
the concrete pairs are distinct uniform picks, so the construction is exact
SBM rather than per-pair coin flips (which would be O(n^2) at 50k nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scalegnn.graph import DataSplit, LabelVector, build_graph
from scalegnn.rng import make_rng


@dataclass
class SyntheticSpec:
    num_nodes: int
    num_classes: int
    p_in: float
    p_out: float
    feature_dim: int = 16
    separation: float = 1.0
    noise: float = 1.0
    split_fractions: tuple = (0.1, 0.2, 0.7)  # train, val, test
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if self.num_classes < 1 or self.num_nodes < self.num_classes:
            raise ValueError("need at least one node per class")
        if abs(sum(self.split_fractions) - 1.0) > 1e-9:
            raise ValueError("split fractions must sum to 1")
        if self.p_in == 0.0 and self.p_out == 0.0:
            raise ValueError("expected degree is zero; graph would be edgeless")


def _distinct_uniform(rng: np.random.Generator, population: int, count: int) -> np.ndarray:
    """count distinct integers from [0, population), uniform without
    replacement. Avoids materializing a full permutation for large
    populations by rejection on duplicates."""
    if count > population:
        raise ValueError("cannot draw more distinct values than exist")
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    if population <= 4 * count:
        return rng.permutation(population)[:count].astype(np.int64)
    picked = np.unique(rng.integers(0, population, size=int(count * 1.1) + 16))
    while picked.size < count:
        extra = rng.integers(0, population, size=count)
        picked = np.unique(np.concatenate([picked, extra]))
    return rng.permutation(picked)[:count].astype(np.int64)


def _pair_from_triangle_index(k: np.ndarray, n: int):
    """Decode upper-triangle (no diagonal) linear indices of an n x n block."""
    # row r occupies indices [r*n - r(r+3)/2 ... ) ; invert by quadratic formula
    kf = k.astype(np.float64)
    r = np.floor((2 * n - 1 - np.sqrt((2 * n - 1) ** 2 - 8 * kf)) / 2).astype(np.int64)
    first_of_row = r * n - r * (r + 1) // 2
    c = (k.astype(np.int64) - first_of_row) + r + 1
    return r, c


def generate_sbm(spec: SyntheticSpec):
    """Returns (Graph, features float32, LabelVector, DataSplit)."""
    rng = make_rng(spec.seed)
    n, c = spec.num_nodes, spec.num_classes

    # contiguous blocks, sizes as even as possible
    base = n // c
    sizes = np.full(c, base, dtype=np.int64)
    sizes[: n - base * c] += 1
    starts = np.zeros(c, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    labels = np.repeat(np.arange(c, dtype=np.int64), sizes)

    edge_chunks = []
    for i in range(c):
        for j in range(i, c):
            if i == j:
                pairs = sizes[i] * (sizes[i] - 1) // 2
                p = spec.p_in
            else:
                pairs = sizes[i] * sizes[j]
                p = spec.p_out
            if pairs == 0 or p == 0.0:
                continue
            count = int(rng.binomial(int(pairs), p))
            if count == 0:
                continue
            idx = _distinct_uniform(rng, int(pairs), count)
            if i == j:
                r, col = _pair_from_triangle_index(idx, int(sizes[i]))
                u = starts[i] + r
                v = starts[i] + col
            else:
                u = starts[i] + idx // sizes[j]
                v = starts[j] + idx % sizes[j]
            edge_chunks.append(np.stack([u, v], axis=1))
    if edge_chunks:
        edges = np.concatenate(edge_chunks)
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
    g = build_graph(edges, n, symmetrize=True)

    means = spec.separation * rng.normal(size=(c, spec.feature_dim)) / np.sqrt(spec.feature_dim)
    x = means[labels] + spec.noise * rng.normal(size=(n, spec.feature_dim))
    x = x.astype(np.float32)

    f_train, f_val, _ = spec.split_fractions
    train, val, test = [], [], []
    for cls in range(c):
        members = rng.permutation(np.flatnonzero(labels == cls))
        n_tr = int(round(f_train * members.size))
        n_val = int(round(f_val * members.size))
        train.append(members[:n_tr])
        val.append(members[n_tr:n_tr + n_val])
        test.append(members[n_tr + n_val:])
    split = DataSplit(np.sort(np.concatenate(train)),
                      np.sort(np.concatenate(val)),
                      np.sort(np.concatenate(test)))
    return g, x, LabelVector(labels, c), split
