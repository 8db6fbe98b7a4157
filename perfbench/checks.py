"""Output checks, run after the timed part. Each check is one operation.

Reference results are computed here with scipy, independently of the
library: adjacency normalization, hop products, the label-diffusion fixed
point and Correct & Smooth as published (Huang et al., arXiv 2010.13993).
The rest are properties a method's definition guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

import scalegnn as sg
from scalegnn.engcn import engcn_init, engcn_propagate, sle_update
from scalegnn.models import precompute_hops
from scalegnn.samplers import (layer_wise_sample, node_wise_sample,
                               random_walk_sample, saint_edge_sample,
                               saint_node_sample, subgraph_batch)

# A trial passes the accuracy floor when its test accuracy is at least the
# majority-class share of the test set plus this margin.
FLOOR_MARGIN = 0.10
# max |Y - (alpha A_hat Y + (1 - alpha) G)| allowed after a converged lp_iterate
LP_FIXED_POINT_TOL = 1e-8

# Checks that fail because of a named fault in the library. They count as
# failed operations; any other failing check also makes the run incorrect.
KNOWN_FAULTS = {
    "cs.matches_published_cs":
        "labelprop.py:80 propagates E = Z - Y; C&S propagates E = Y - Z",
    "floor.fastgcn": "trainers.py:87 fanout=10 is 10 nodes per layer",
    "floor.ladies": "trainers.py:87 fanout=10 is 10 nodes per layer",
    "sampled.fastgcn_ladies_curves_differ":
        "samplers.py:248 union with B_l adds nothing after self-loops",
}


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


# ------------------------------------------------------ reference algebra


def adjacency_with_self_loops(g) -> sp.csr_matrix:
    """Binary A + I of a library Graph, canonical CSR."""
    n = g.num_nodes
    a = sp.csr_matrix((np.ones(g.num_edges), g.col_indices, g.row_offsets), shape=(n, n))
    a = (a + sp.identity(n, format="csr")).tocsr()
    a.data[:] = 1.0
    a.sort_indices()
    return a


def normalized(a: sp.csr_matrix, kind: str) -> sp.csr_matrix:
    """D_out^-1 A (row), A D_in^-1 (col) or D_out^-1/2 A D_in^-1/2 (sym)."""
    d_out = np.asarray(a.sum(axis=1)).ravel()
    d_in = np.asarray(a.sum(axis=0)).ravel()
    inv = lambda d, p: np.where(d > 0, np.power(np.maximum(d, 1e-300), -p), 0.0)
    if kind == "row":
        out = sp.diags(inv(d_out, 1.0)) @ a
    elif kind == "col":
        out = a @ sp.diags(inv(d_in, 1.0))
    else:
        out = sp.diags(inv(d_out, 0.5)) @ a @ sp.diags(inv(d_in, 0.5))
    out = out.tocsr()
    out.sort_indices()
    return out


def same_matrix(got: sp.spmatrix, want: sp.spmatrix, rtol: float = 1e-12) -> tuple:
    """(equal, detail): same sparsity pattern and values within rtol."""
    got, want = sp.csr_matrix(got), sp.csr_matrix(want)
    got.sort_indices()
    got.sum_duplicates()
    if got.shape != want.shape:
        return False, f"shape {got.shape} != {want.shape}"
    if not (np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)):
        return False, f"pattern differs: nnz {got.nnz} vs {want.nnz}"
    err = float(np.max(np.abs(got.data - want.data), initial=0.0))
    scale = float(np.max(np.abs(want.data), initial=1.0))
    return err <= rtol * scale, f"max abs diff {err:.3g}"


def close(got, want, rtol: float) -> tuple:
    err = float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want), initial=0.0))
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1.0)
    return err <= rtol * scale, f"max abs diff {err:.3g} (scale {scale:.3g})"


def support_within(block: sp.spmatrix, ref: sp.csr_matrix, rows, cols) -> bool:
    """Every nonzero of block sits on an edge of ref[rows][:, cols]."""
    block = sp.csr_matrix(block)
    block.eliminate_zeros()
    mask = ref[rows][:, cols]
    mask.data[:] = 1.0
    return block.multiply(mask).nnz == block.nnz


def published_cs(s: sp.csr_matrix, z, y_train, train, alpha: float, steps: int):
    """Correct & Smooth: propagate E = Y - Z from the training rows, rescale
    each unlabeled row to the mean training error norm, add it to Z, then
    clamp the training rows to Y and smooth."""
    def diffuse(g):
        h = g.copy()
        for _ in range(steps):
            h = alpha * (s @ h) + (1.0 - alpha) * g
        return h

    e = np.zeros_like(z)
    e[train] = y_train - z[train]
    e_hat = diffuse(e)
    sigma = np.abs(e[train]).sum(axis=1).mean()
    rows = np.ones(z.shape[0], dtype=bool)
    rows[train] = False
    norms = np.abs(e_hat).sum(axis=1)
    rows &= norms > 0
    e_hat[rows] *= (sigma / norms[rows])[:, None]
    g = z + e_hat
    g[train] = y_train
    return diffuse(g)


# ------------------------------------------------------------ per workload


def finite(r) -> tuple:
    """(ok, detail): finite loss and val curves, every accuracy in [0, 1]."""
    curves = np.asarray(list(r.loss_curve) + list(r.val_acc_curve), dtype=np.float64)
    accs = np.asarray([r.train_acc, r.val_acc, r.test_acc, *r.val_acc_curve])
    ok = bool(np.all(np.isfinite(curves)) and np.all((accs >= 0) & (accs <= 1)))
    return ok, f"{len(r.loss_curve)} losses, accs in [{accs.min():.3f}, {accs.max():.3f}]"


def trial_checks(results: list, majority: float) -> list:
    """(method, TrialResult) pairs: finite curves and the accuracy floor."""
    out = []
    for method, r in results:
        out.append(Check(f"trial.{method}.finite", *finite(r)))
        floor = majority + FLOOR_MARGIN
        out.append(Check(f"floor.{method}", r.test_acc >= floor,
                         f"test {r.test_acc:.4f} vs floor {floor:.4f}"))
    return out


def selected_trial(log):
    """The trial whose config the search returns: the last axis's winner."""
    visit = log.axis_visits[-1]
    return visit.results[visit.candidates.index(visit.chosen)]


def search_checks(searches: list) -> list:
    """(method, GreedySearchLog) pairs: the selection is the best trial,
    and every trial's curves are finite."""
    out = []
    for method, log in searches:
        best = max(t.val_acc for t in log.trials)
        out.append(Check(f"search.{method}.selected_is_best", log.final_val_acc >= best,
                         f"selected val {log.final_val_acc:.4f}, best trial {best:.4f}"))
        bad = [d for ok, d in map(finite, log.trials) if not ok]
        out.append(Check(f"search.{method}.all_trials_finite", not bad,
                         f"{log.trial_count} trials" + (f"; {bad[0]}" if bad else "")))
    return out


def sampled_checks(ds, results: dict, seed: int) -> list:
    g = ds.graph
    ref_bin = adjacency_with_self_loops(g)
    ref = normalized(ref_bin, "sym")
    a = sg.normalize_adjacency(g, "sym")
    rng = np.random.default_rng(seed)
    batch = np.sort(rng.choice(ds.split.train, size=512, replace=False))
    out = []

    def support(name, plan):
        ok = all(support_within(plan.block(l), ref, plan.nodes(l), plan.nodes(l + 1))
                 for l in range(len(plan.blocks)))
        return Check(f"sampled.{name}_support_in_adjacency", ok, f"{len(plan.blocks)} blocks")

    q = 10
    plan = node_wise_sample(g, a, batch, q, 2, rng)
    out.append(support("node_wise", plan))
    deg = np.diff(ref.indptr)
    over = sum(int(np.sum(np.diff(plan.block(l).indptr) > np.minimum(q, deg[plan.nodes(l)])))
               for l in range(2))
    out.append(Check("sampled.node_wise_rows_within_fanout", over == 0,
                     f"{over} rows over min(Q={q}, deg)"))
    full = node_wise_sample(g, a, batch, int(deg.max()), 2, rng)
    per_block = [same_matrix(full.block(l), ref[full.nodes(l)][:, full.nodes(l + 1)])
                 for l in range(2)]
    out.append(Check("sampled.node_wise_full_fanout_is_adjacency",
                     all(ok for ok, _ in per_block), "; ".join(d for _, d in per_block)))
    for variant in ("fastgcn", "ladies"):
        out.append(support(variant, layer_wise_sample(g, a, batch, 256, 2, variant, rng)))

    node_sets = {"saint_node": saint_node_sample(a, 1000, rng),
                 "saint_edge": saint_edge_sample(g, 500, rng),
                 "saint_rw": random_walk_sample(g, 333, 2, rng)}
    raw = sp.csr_matrix((np.ones(g.num_edges), g.col_indices, g.row_offsets),
                        shape=(g.num_nodes, g.num_nodes))
    for name, nodes in node_sets.items():
        plan = subgraph_batch(g, a, nodes)
        nodes = np.unique(nodes)
        sub = raw[nodes][:, nodes]
        sub.sort_indices()
        want = normalized(adjacency_with_self_loops(
            sg.Graph(nodes.size, sub.indptr.astype(np.int64), sub.indices.astype(np.int64))), "sym")
        ok, detail = same_matrix(plan.block(0), want)
        ok = ok and support_within(plan.block(0), ref, nodes, nodes)
        out.append(Check(f"sampled.{name}_subgraph_renormalized", ok,
                         f"{nodes.size} nodes, {detail}"))

    fast, ladies = results["fastgcn"], results["ladies"]
    same = fast.loss_curve == ladies.loss_curve
    out.append(Check("sampled.fastgcn_ladies_curves_differ", not same,
                     "loss curves bit-identical" if same else "loss curves differ"))
    return out


def search_graph_checks(ds) -> list:
    g, x = ds.graph, ds.features.astype(np.float64)
    ref_bin = adjacency_with_self_loops(g)
    out = []
    refs = {}
    for kind in ("sym", "row", "col"):
        refs[kind] = normalized(ref_bin, kind)
        ok, detail = same_matrix(sg.normalize_adjacency(g, kind).to_scipy(), refs[kind])
        out.append(Check(f"search.normalize_adjacency_{kind}", ok, detail))
    s = refs["sym"]
    a = sg.normalize_adjacency(g, "sym")

    k = 3
    hops = precompute_hops(a, x, k)
    want, per_hop = x, []
    for level in range(1, k + 1):
        want = s @ want
        per_hop.append(close(hops.hops[level], want, 1e-10))
    hops.release()
    out.append(Check("search.precompute_hops_is_power", all(ok for ok, _ in per_hop),
                     "; ".join(f"hop {l}: {d}" for l, (_, d) in enumerate(per_hop, 1))))

    labels, train = ds.labels, ds.split.train
    y_train = np.eye(labels.num_classes)[labels.labels[train]]
    src = np.zeros((g.num_nodes, labels.num_classes))
    src[train] = y_train
    alpha = 0.75
    y = sg.lp_iterate(a, src, src, alpha, 1000, tol=1e-10)
    resid = float(np.max(np.abs(y - (alpha * (s @ y) + (1 - alpha) * src))))
    out.append(Check("search.lp_iterate_fixed_point", resid <= LP_FIXED_POINT_TOL,
                     f"residual {resid:.3g} (tol {LP_FIXED_POINT_TOL:g})"))

    # base scores: nearest-centroid softmax over the raw features
    centroids = np.stack([x[train][labels.labels[train] == c].mean(axis=0)
                          for c in range(labels.num_classes)])
    logits = x @ centroids.T - 0.5 * (centroids ** 2).sum(axis=1)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    z /= z.sum(axis=1, keepdims=True)
    cfg = sg.DiffusionConfig(alpha=alpha, num_propagations=20)
    got = sg.correct_and_smooth(a, z, labels, ds.split, cfg, tol=0.0)
    want = published_cs(s, z, y_train, train, alpha, 20)
    ok, detail = close(got, want, 1e-9)
    test = ds.split.test
    acc = lambda scores: float((scores[test].argmax(axis=1) == labels.labels[test]).mean())
    out.append(Check("cs.matches_published_cs", ok,
                     f"{detail}; test acc library {acc(got):.4f}, published {acc(want):.4f}"))
    return out


def engcn_checks(ds, results: dict) -> list:
    g, labels, split = ds.graph, ds.labels, ds.split
    s = normalized(adjacency_with_self_loops(g), "sym")
    a = sg.normalize_adjacency(g, "sym")
    stages = int(results["engcn"].config["num_layers"])
    state = engcn_init(ds.features, labels, split)
    want_x = ds.features.astype(np.float64)
    want_y = state.y_cur.copy()
    out = []
    for stage in range(1, stages + 1):
        # no node clears the threshold on uniform scores, so this only
        # advances the stage index
        sle_update(state, np.zeros((g.num_nodes, labels.num_classes)), 0.9)
        engcn_propagate(state, a)
        want_x, want_y = s @ want_x, s @ want_y
        ok_x, dx = close(state.x_cur, want_x, 1e-5)  # float32 features
        ok_y, dy = close(state.y_cur, want_y, 1e-10)
        out.append(Check(f"engcn.stage{stage}_features_are_power", ok_x and ok_y,
                         f"X: {dx}; Y: {dy}"))
    sizes = list(results["engcn"].extras["pseudo_sizes"]) + [results["engcn"].extras["final_pseudo_size"]]
    out.append(Check("engcn.pseudo_set_never_shrinks",
                     all(after >= before for before, after in zip(sizes, sizes[1:])),
                     f"sizes {sizes}"))
    return out


def run(workload: str, ds, trials: list, searches: list, seed: int) -> list:
    """All checks of a workload; trials and searches are (method, result)
    pairs from the last round."""
    test_labels = ds.labels.labels[ds.split.test]
    majority = float(np.bincount(test_labels).max() / test_labels.size)
    selected = [(m, selected_trial(log)) for m, log in searches]
    out = trial_checks(trials + selected, majority) + search_checks(searches)
    if workload == "sampled-50k":
        out += sampled_checks(ds, dict(trials), seed)
    elif workload == "search-50k":
        out += search_graph_checks(ds)
    elif workload == "engcn-wide-50k":
        out += engcn_checks(ds, dict(trials))
    return out
