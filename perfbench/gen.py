"""Seeded stochastic-block-model inputs for the benchmark workloads.

The generator is the benchmark's own, so a change to ``scalegnn.synth``
cannot change a workload. It writes a bundle with ``scalegnn.bundle.save_bundle``
in a process of its own, before the measured process starts, so neither
generation time nor generation memory is counted.

    python3 perfbench/gen.py --graph sbm50k-d16 --seed 0 --out <dir>
"""

from __future__ import annotations

import argparse

import numpy as np

# The 50k-node graph law of the 50k acceptance test (about 1.4M directed
# edges); the workloads differ only in feature width.
NUM_NODES, NUM_CLASSES, P_IN, P_OUT = 50_000, 5, 0.002, 0.0002
SEPARATION, NOISE = 0.8, 1.0
TRAIN_FRAC, VAL_FRAC = 0.1, 0.2
GRAPHS = {"sbm50k-d16": 16, "sbm50k-d128": 128}  # name -> feature dim


def _block_pairs(rng, size_i: int, size_j: int, same: bool, p: float):
    """Distinct node pairs of one block pair, each present with probability p.

    The count is one binomial draw; the pairs are distinct uniform picks,
    drawn in surplus and de-duplicated. Within a block only u < v is kept.
    """
    total = size_i * (size_i - 1) // 2 if same else size_i * size_j
    count = int(rng.binomial(total, p))
    keys = np.zeros(0, dtype=np.int64)
    while keys.size < count:
        m = 2 * (count - keys.size) + 64
        u = rng.integers(0, size_i, size=m)
        v = rng.integers(0, size_j, size=m)
        if same:
            u, v = np.minimum(u, v), np.maximum(u, v)
            ok = u < v
            u, v = u[ok], v[ok]
        # keep the first occurrence of each new key, in draw order
        fresh = u * size_j + v
        fresh = fresh[~np.isin(fresh, keys)]
        _, first = np.unique(fresh, return_index=True)
        keys = np.concatenate([keys, fresh[np.sort(first)]])
    keys = keys[:count]
    return keys // size_j, keys % size_j


def generate(feature_dim: int, seed: int):
    """Returns (row_offsets, col_indices, features, labels, (train, val,
    test)). The edge set is symmetric and has no self-loops."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, NUM_NODES, feature_dim]))
    n, c = NUM_NODES, NUM_CLASSES
    sizes = np.full(c, n // c, dtype=np.int64)
    sizes[: n % c] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    labels = np.repeat(np.arange(c, dtype=np.int64), sizes)

    src, dst = [], []
    for i in range(c):
        for j in range(i, c):
            p = P_IN if i == j else P_OUT
            u, v = _block_pairs(rng, int(sizes[i]), int(sizes[j]), i == j, p)
            src.append(starts[i] + u)
            dst.append(starts[j] + v)
    src, dst = np.concatenate(src), np.concatenate(dst)
    src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_offsets[1:])

    # class means: a random orthonormal frame scaled by the separation, so
    # every pair of classes is equally far apart on every seed
    frame, _ = np.linalg.qr(rng.standard_normal((feature_dim, c)))
    means = SEPARATION * frame.T
    x = (means[labels] + NOISE * rng.standard_normal((n, feature_dim))).astype(np.float32)

    parts = ([], [], [])
    for cls in range(c):
        members = rng.permutation(np.flatnonzero(labels == cls))
        n_tr = int(round(TRAIN_FRAC * members.size))
        n_va = int(round(VAL_FRAC * members.size))
        for part, chunk in zip(parts, np.split(members, [n_tr, n_tr + n_va])):
            part.append(chunk)
    split = tuple(np.sort(np.concatenate(p)) for p in parts)
    return row_offsets, dst.astype(np.int64), x, labels, split


def write_bundle(graph: str, seed: int, out: str) -> None:
    from scalegnn.bundle import save_bundle
    from scalegnn.graph import DataSplit, Graph, LabelVector

    row_offsets, col_indices, x, labels, split = generate(GRAPHS[graph], seed)
    g = Graph(NUM_NODES, row_offsets, col_indices, is_symmetric=True)
    save_bundle(out, g, x, LabelVector(labels, NUM_CLASSES), DataSplit(*split),
                name=f"{graph}-seed{seed}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--graph", choices=sorted(GRAPHS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write_bundle(args.graph, args.seed, args.out)


if __name__ == "__main__":
    main()
