"""Bit-identity check: seeded results of all 13 methods, timings removed.

Run it against two checkouts, then compare the two outputs:

    PYTHONPATH=<checkout-a>/src python3 scripts/bitid.py run a.json
    PYTHONPATH=<checkout-b>/src python3 scripts/bitid.py run b.json
    python3 scripts/bitid.py compare a.json b.json

`run` trains every method with a short config on the 3k-node SBM of the
acceptance tests at seeds 0 and 1 and keeps `run_trial(...).to_dict()`,
and once more at its `default_config` at seed 0 ("default/<method>"), the
config that users and the default-config floor test run. It also runs
three EnGCN stages by hand and keeps a sha256 of phi's and psi's weights
after each stage's training, and each stage's per-epoch train loss and
val accuracy. Two greedy searches at seed 0 keep their
`GreedySearchLog.to_dict()`: sgc over epochs x num_layers and cs over
norm_kind x num_mlp_layers. All of this runs twice: on the SBM's
float32 features (entries named as above, e.g. "sgc/0", "default/sgc")
and on a float64 copy of them (the same names under "f64:", e.g.
"f64:sgc/0", "f64:default/sgc"). Trials compute in their features'
dtype, so the "f64:" entries show whether the float64 path moved.

"config/<method>" holds each method's `default_config` as (key, value)
pairs, in their order, and the axes of its `default_space` as (name,
candidates, default), so a change to the method table shows as well.

The short and default sampled models have two layers, whose full-graph
evaluation feeds the hidden layer's row blocks straight into the
narrowing last layer. "deep/graphsage" and "deep/saint-rw" (seed 0,
`num_layers` 3) also build a hidden layer in full, which the next
layer's Â h reads, and "deep/graphsage-h8" (`hidden_dim` 8, below the 16
features) narrows in its first layer, so every eval path is compared.

All of these trials run one after another on one Dataset, which keeps
the adjacency and hops an earlier trial built for the next. "warm/engcn"
and "warm/sagn" (and their "f64:" twins) each run `sign` and then the
named method, at their short configs and seed 0, on a fresh Dataset: the
named method reuses the hops `sign` left (engcn takes its stages'
features from them), so comparing against a checkout whose trials build
their own shows that reuse changes no result.

To check the samplers directly, it keeps a sha256 of
`partition_graph(g, k).assignment` for k = 4 and 16 ("partitions"), and of
one epoch of batch plans per sampled method (node sets and block arrays),
drawn through the public sampler calls from the adjacency of each norm
kind, with float64 and with float32 blocks: "plans/<seed>" is `sym` with
float64 blocks, and the other five are named by what differs, e.g.
"plans-row/<seed>", "plans-f32/<seed>", "plans-col-f32/<seed>". These do
not depend on the features. "partitions-passes" adds partitions that run the
partitioner's later passes: the SBM at k = 32, where the rebalance moves
nodes into many receivers, and a graph of four components and isolated
nodes at k below the component count (the leftover pass) and above it
(clusters that hold a whole component shed nodes).

"large-index" covers node ids past the int32 range of a u * n + v key
on a 60k-node random graph: symmetry detection, self-loops,
normalization, subgraph induction, partitioning and one epoch of plans
per sampler (see `_large_index_entries`). Its index arrays, like those of
every "plans" entry, are hashed widened to int64, so two checkouts whose
graphs differ only in index dtype compare equal.

The 3k SBM's products are mostly too small to run as row blocks on the
product pool (see scalegnn.graph). "above-split" covers that path on a
20k-node SBM from synth with 128-dim features: a sha256 of
`precompute_hops` at K = 3 on the float32 and float64 features, of
`correct_and_smooth` scores (float64, width 5, early stop), and the
`lp` trial at its `default_config` (one propagation step per epoch).

Every key that holds a duration (`*seconds`, `iterations_per_second`) is
dropped, and so is a trial's `dataset`, which names where the trial ran
rather than what it computed. A search entry lists its trials'
`to_dict()` under "trials" next to the log's own `to_dict()`. `compare` prints "<n> entries, <k> differ", names the differing
entries and their differing fields, and exits 1 when any differ. For a
differing trial it also prints the largest relative gap between the two
loss curves and whether the reported accuracies are equal.
"""

from __future__ import annotations

import hashlib
import json
import sys

H32 = dict(epochs=3, hidden_dim=32, batch_size=256)
S300 = dict(epochs=3, hidden_dim=32, batch_size=300)
SHORT = {"graphsage": H32, "fastgcn": H32, "ladies": H32, "clustergcn": H32,
         "saint-node": S300, "saint-edge": S300, "saint-rw": S300,
         "sgc": dict(epochs=3, batch_size=256), "sign": dict(H32, dropout=0.2),
         "sagn": dict(H32, dropout=0.2), "lp": dict(num_propagations=5),
         "cs": dict(H32, dropout=0.2),
         "engcn": dict(epochs=2, hidden_dim=32, batch_size=256, num_layers=2, dropout=0.2)}
# name -> (method, config): sampled models deeper than two layers
DEEP = {"graphsage": ("graphsage", dict(H32, num_layers=3)),
        "saint-rw": ("saint-rw", dict(S300, num_layers=3)),
        "graphsage-h8": ("graphsage", dict(H32, num_layers=3, hidden_dim=8))}
# (method, axes searched); every other knob stays at its default
SEARCHES = (("sgc", ("epochs", "num_layers")), ("cs", ("norm_kind", "num_mlp_layers")))


def _untimed(value):
    """value with every duration key and every dataset name removed, at
    any depth."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items()
                if not (k.endswith("seconds") or k in ("iterations_per_second", "dataset"))}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


def _stage_snapshots(ds, seed: int) -> dict:
    """Three EnGCN stages run by hand the way the engcn trial runs them:
    phi in the features' dtype, psi in float64."""
    import numpy as np
    from scalegnn.engcn import (SLEConfig, engcn_init, engcn_propagate,
                                engcn_stage_forward, engcn_train_stage, sle_update)
    from scalegnn.graph import normalize_adjacency
    from scalegnn.nn import MLPConfig, init_mlp
    from scalegnn.rng import spawn_rngs

    d, c = ds.feature_dim, ds.num_classes
    cfg = SLEConfig(threshold=0.9, num_stages=2, epochs_per_stage=2,
                    phi=MLPConfig([d, 32, c], dropout_rate=0.2, seed=seed),
                    psi=MLPConfig([c, 32, c], dropout_rate=0.2, seed=seed + 1),
                    batch_size=256, seed=seed)
    a = normalize_adjacency(ds.graph, "sym")
    state = engcn_init(ds.features, ds.labels, ds.split)
    phi, psi = init_mlp(cfg.phi, ds.features.dtype), init_mlp(cfg.psi)

    def digest(p):
        return hashlib.sha256(b"".join(w.tobytes() for w in p.weights + p.biases)).hexdigest()

    rngs, snapshots, logs = spawn_rngs(seed, 3), [], []
    for stage in range(3):
        if stage:
            engcn_propagate(state, a)
        log = engcn_train_stage(state, phi, psi, cfg, rngs[stage])
        snapshots += [digest(phi), digest(psi)]
        logs.append([{"train_loss": loss, "val_acc": val}
                     for loss, val in zip(log.loss_curve, log.val_curve)])
        sle_update(state, engcn_stage_forward(state, phi, psi, cfg, np.arange(ds.num_nodes)), 0.9)
    return {"snapshots": snapshots, "epoch_logs": logs}


def _int64_digest(arrays) -> str:
    """sha256 of the arrays' bytes with every integer array widened to
    int64, so index arrays that differ only in dtype hash the same."""
    import numpy as np
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        h.update(np.ascontiguousarray(arr, dtype=np.int64 if arr.dtype.kind in "iu"
                                      else arr.dtype).tobytes())
    return h.hexdigest()


def _plan_digests(g, train, seed: int, kind: str, dtype) -> dict:
    """sha256 per sampled method of one epoch of plans, drawn the way the
    trainer draws them (default fanout 10, two layers) from the public
    one-shot sampler calls on graph g with training nodes train, on the
    norm-kind adjacency with dtype blocks. Index arrays hash as int64."""
    import numpy as np
    from scalegnn.graph import normalize_adjacency
    from scalegnn.nn import shuffled_batches
    from scalegnn.samplers import (layer_wise_sample, node_wise_sample,
                                   partition_graph, random_walk_sample,
                                   saint_edge_sample, saint_node_sample,
                                   subgraph_batch)

    a = normalize_adjacency(g, kind)
    parts = partition_graph(g, 16)
    node_sets = {
        "clustergcn": lambda rng: [np.concatenate([parts.cluster_nodes(c) for c in pair])
                                   for pair in rng.permutation(16).reshape(-1, 2)],
        "saint-node": lambda rng: [saint_node_sample(a, 300, rng) for _ in range(10)],
        "saint-edge": lambda rng: [saint_edge_sample(g, 150, rng) for _ in range(10)],
        "saint-rw": lambda rng: [random_walk_sample(g, 100, 2, rng) for _ in range(10)],
    }
    out = {}
    for method in ("graphsage", "fastgcn", "ladies", *node_sets):
        rng = np.random.default_rng(seed)
        if method in node_sets:
            plans = [subgraph_batch(g, a, nodes, dtype) for nodes in node_sets[method](rng)]
        elif method == "graphsage":
            plans = [node_wise_sample(g, a, b, 10, 2, rng, dtype)
                     for b in shuffled_batches(rng, train, 256)]
        else:
            plans = [layer_wise_sample(g, a, b, 10, 2, method, rng, dtype=dtype)
                     for b in shuffled_batches(rng, train, 256)]
        arrays = []
        for plan in plans:
            arrays += plan.node_sets
            for block in plan.blocks:
                arrays += [block.indptr, block.indices, block.data]
        out[method] = _int64_digest(arrays)
    return out


def _partition_digest(g, k: int) -> str:
    from scalegnn.samplers import partition_graph
    return hashlib.sha256(partition_graph(g, k).assignment.tobytes()).hexdigest()


def _partition_pass_digests(sbm) -> dict:
    """Partition digests that cover the rebalance and leftover passes."""
    import numpy as np
    from scalegnn.graph import build_graph

    rng, parts, base = np.random.default_rng(7), [], 0
    for size in (400, 150, 60, 20):  # four components, then 10 isolated nodes
        parts.append(base + rng.integers(0, size, size=(4 * size, 2)))
        base += size
    multi = build_graph(np.concatenate(parts), base + 10, symmetrize=True)
    out = {"sbm/32": _partition_digest(sbm, 32)}
    out.update({f"components/{k}": _partition_digest(multi, k) for k in (2, 3, 8, 32)})
    return out


def _large_index_entries() -> dict:
    """A 60k-node sparse graph, past n = 46341, where a u * n + v key no
    longer fits int32. For a random edge set built symmetrized
    ("symmetrized"), as given ("directed"), and with every reverse edge
    listed but not symmetrized ("listed-symmetric", which the symmetry
    check must find symmetric): is_symmetric, the sym adjacency with its
    self-loops, the subgraph induced on every third node, and a
    partition_graph assignment at k = 8. Plus one epoch of plans per
    sampler on the symmetrized graph ("plans", as "plans/<seed>" draws
    them, seed 0, float32 blocks). Index arrays hash as int64."""
    import numpy as np
    from scalegnn.graph import build_graph, induced_subgraph, normalize_adjacency
    from scalegnn.samplers import partition_graph

    n, rng = 60000, np.random.default_rng(11)
    edges = rng.integers(0, n, size=(3 * n, 2))
    graphs = {"symmetrized": build_graph(edges, n, symmetrize=True),
              "directed": build_graph(edges, n),
              "listed-symmetric": build_graph(np.concatenate([edges, edges[:, ::-1]]), n)}
    out = {}
    for name, g in graphs.items():
        a = normalize_adjacency(g, "sym")
        sub, mapping = induced_subgraph(g, np.arange(0, n, 3))
        out[name] = {
            "is_symmetric": g.is_symmetric,
            "adjacency": _int64_digest([a.structure.row_offsets, a.structure.col_indices,
                                        a.values]),
            "subgraph": _int64_digest([sub.row_offsets, sub.col_indices, mapping]),
            "partition": _int64_digest([partition_graph(g, 8).assignment])}
    train = np.sort(rng.choice(n, size=600, replace=False))
    out["plans"] = _plan_digests(graphs["symmetrized"], train, 0, "sym", np.float32)
    return out


def _above_split_entries() -> dict:
    """Products above the split threshold, on a 20k-node SBM."""
    import numpy as np
    from scalegnn.graph import normalize_adjacency
    from scalegnn.labelprop import DiffusionConfig, correct_and_smooth
    from scalegnn.models import precompute_hops
    from scalegnn.nn import softmax_row
    from scalegnn.synth import SyntheticSpec
    from scalegnn.trainers import dataset_from_sbm, default_config, run_trial

    ds = dataset_from_sbm(SyntheticSpec(20000, 5, 0.004, 0.0002, feature_dim=128,
                                        separation=0.6, noise=1.0, seed=0))
    a = normalize_adjacency(ds.graph, "sym")

    def digest(arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(v).tobytes()
                                       for v in arrays)).hexdigest()

    z = softmax_row(ds.features[:, :ds.num_classes].astype(np.float64))
    scores = correct_and_smooth(a, z, ds.labels, ds.split, DiffusionConfig(0.8, 50))
    return {"hops-f32": digest(precompute_hops(a, ds.features, 3).hops),
            "hops-f64": digest(precompute_hops(a, ds.features.astype(np.float64), 3).hops),
            "cs-scores": digest([scores]),
            "lp": run_trial("lp", default_config("lp"), ds, seed=0).to_dict()}


def run(path: str) -> None:
    import dataclasses

    import numpy as np
    from scalegnn.harness import default_space, greedy_search
    from scalegnn.synth import SyntheticSpec
    from scalegnn.trainers import dataset_from_sbm, default_config, run_trial

    ds = dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                        separation=0.6, noise=1.0, seed=0))
    ds64 = dataclasses.replace(ds, features=ds.features.astype(np.float64))
    out = {}
    for seed in (0, 1):
        for kind in ("sym", "row", "col"):
            for dtype, tag in ((np.float64, ""), (np.float32, "-f32")):
                name = "plans" + ("" if kind == "sym" else f"-{kind}") + tag
                out[f"{name}/{seed}"] = _plan_digests(ds.graph, ds.split.train, seed,
                                                      kind, dtype)
    for prefix, data in (("", ds), ("f64:", ds64)):
        for seed in (0, 1):
            for method, cfg in SHORT.items():
                out[f"{prefix}{method}/{seed}"] = run_trial(method, cfg, data,
                                                            seed=seed).to_dict()
            out[f"{prefix}engcn-stages/{seed}"] = _stage_snapshots(data, seed)
        for method in SHORT:
            out[f"{prefix}default/{method}"] = run_trial(method, default_config(method),
                                                         data, seed=0).to_dict()
        for name, (method, cfg) in DEEP.items():
            out[f"{prefix}deep/{name}"] = run_trial(method, cfg, data, seed=0).to_dict()
        for method in ("engcn", "sagn"):
            fresh = dataclasses.replace(data)
            run_trial("sign", SHORT["sign"], fresh, seed=0)
            out[f"{prefix}warm/{method}"] = run_trial(method, SHORT[method], fresh,
                                                      seed=0).to_dict()
        for method, axes in SEARCHES:
            space = default_space(method)
            space = space.without(*(n for n in space.axis_names() if n not in axes))
            log = greedy_search(method, space, data, seed=0)
            out[f"{prefix}search-{method}/0"] = {
                **log.to_dict(), "trials": [t.to_dict() for t in log.trials]}
    for method in SHORT:
        out[f"config/{method}"] = {
            "config": list(default_config(method).items()),
            "axes": [[a.name, list(a.candidates), a.default]
                     for a in default_space(method).axes]}
    out["partitions"] = {str(k): _partition_digest(ds.graph, k) for k in (4, 16)}
    out["partitions-passes"] = _partition_pass_digests(ds.graph)
    out["above-split"] = _above_split_entries()
    out["large-index"] = _large_index_entries()
    with open(path, "w") as fh:
        json.dump(_untimed(out), fh, sort_keys=True)


def _band(ea: dict, eb: dict) -> str:
    """For two trial entries: the largest relative loss-curve gap and
    whether the reported accuracies are equal; "" for other entries."""
    la, lb = ea.get("loss_curve"), eb.get("loss_curve")
    if not (la and lb and len(la) == len(lb)):
        return ""
    gap = max(abs(x - y) / max(abs(y), 1e-300) for x, y in zip(la, lb))
    accs = ("train_acc", "val_acc", "test_acc", "val_acc_curve")
    same = all(ea.get(k) == eb.get(k) for k in accs)
    return f" (loss rel gap {gap:.1e}, accuracies {'equal' if same else 'DIFFER'})"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    names = sorted(set(a) | set(b))
    differ = [n for n in names if a.get(n) != b.get(n)]
    print(f"{len(names)} entries, {len(differ)} differ")
    for n in differ:
        ea, eb = a.get(n), b.get(n)
        if isinstance(ea, dict) and isinstance(eb, dict):
            fields = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
            print(f"  {n}: {', '.join(fields)}{_band(ea, eb)}")
        else:
            print(f"  {n}: present in only one file")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
