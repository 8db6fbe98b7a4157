"""Precompute-based predictors (SGC, SIGN, SAGN) and the sampled GNN.

The precompute family trains plain feed-forward networks on hop-propagated
features computed once up front, and their dense layers are nn's MLP: SGC
is a one-layer MLP on X^K (nn.MLPConfig and init_mlp; it has no config of
its own), SIGN's readout over its per-hop projections is a one-layer MLP
head, and SAGN's fusion network is a one-hidden-layer MLP; SIGN and SAGN
share one config, HopConfig. The sampled GNN consumes BatchPlans from the
samplers module. Every dropout mask is nn.dropout_mask's. All backward passes are hand-written and covered by
finite-difference checks in the tests. Every function computes in the
dtype of its inputs and parameters; the init_* functions take that dtype.

The sampled GNN's eval forward, which the trainers run over the whole
graph, computes its dense part in row blocks of a caller-given size and
materializes a hidden layer only where the next layer's sparse product
reads all of it, so its memory follows the block size, not the graph
size, at every layer a narrowing layer follows (GraphSAGE's layer-wise
batched inference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scalegnn.graph import NormalizedAdjacency, csr_matmul, spmm
from scalegnn.nn import (
    MLPConfig,
    MLPParams,
    dropout_mask,
    init_mlp,
    kaiming_uniform,
    mlp_backward,
    mlp_forward,
)
from scalegnn.rng import make_rng
from scalegnn.samplers import BatchPlan


# ---------------------------------------------------------------- hop cache


@dataclass(frozen=True)
class HopFeatures:
    hops: list  # X^0..X^K; None where a hop was not kept (precompute_hops' first)
    K: int

    def release(self) -> None:
        """Drop this object's references to its hop matrices."""
        self.hops.clear()


def precompute_hops(a: NormalizedAdjacency, x: np.ndarray, K: int,
                    first: int = 0) -> HopFeatures:
    """X^l = Â X^{l-1} for l = 1..K. Hops first..K stay resident (that is
    the point of the cache): X^0 is the caller's x, every other hop a new
    matrix. A hop below first is dropped as soon as the next one is built,
    with None in its place, so SGC, which reads only X^K and passes
    first=K, holds one new matrix (two while one step runs), not K."""
    if K < 0:
        raise ValueError("hop count must be >= 0")
    if not 0 <= first <= K:
        raise ValueError(f"first hop kept must be in [0, {K}], got {first}")
    hops = [np.asarray(x)]
    for l in range(1, K + 1):
        hops.append(spmm(a, hops[-1]))
        if l - 1 < first:
            hops[l - 1] = None
    return HopFeatures(hops, K)


# ---------------------------------------------------------------------- SGC


def sgc_forward(hops: HopFeatures, params: MLPParams, config: MLPConfig,
                mode: str = "eval", rng=None):
    """SGC, logistic regression on X^K: config's one-layer MLP on the last
    hop. Returns mlp_forward's (logits, trace)."""
    return mlp_forward(params, config, hops.hops[-1], mode, rng)


def sgc_backward(hops: HopFeatures, params: MLPParams, config: MLPConfig,
                 trace, grad_logits: np.ndarray) -> dict:
    return mlp_backward(params, config, trace, grad_logits, input_grad=False)[0]


# ---------------------------------------------------------- SIGN and SAGN


@dataclass
class HopConfig:
    """A hop model over hops X^0..X^K of in_dim features: SIGN projects
    each hop to width hidden, and SAGN's fusion MLP has one hidden layer
    of that width."""

    K: int
    in_dim: int
    hidden: int
    num_classes: int
    dropout: float = 0.0
    seed: int = 0

    def head(self) -> MLPConfig:
        """SIGN's linear readout of the K+1 concatenated hop projections."""
        return MLPConfig([(self.K + 1) * self.hidden, self.num_classes])

    def fusion(self) -> MLPConfig:
        """SAGN's fusion MLP, from the attended hops to the logits."""
        return MLPConfig([self.in_dim, self.hidden, self.num_classes],
                         dropout_rate=self.dropout, seed=self.seed)


# --------------------------------------------------------------------- SIGN


@dataclass
class SIGNParams:
    omegas: list  # K+1 projections (in_dim, hidden)
    head: MLPParams  # one layer, HopConfig.head()

    def trainable(self) -> dict:
        out = {f"omega{k}": w for k, w in enumerate(self.omegas)}
        for name, arr in self.head.trainable().items():
            out[f"head_{name}"] = arr
        return out


def init_sign(config: HopConfig, dtype=np.float64) -> SIGNParams:
    rng = make_rng(config.seed)
    omegas = [kaiming_uniform(rng, config.in_dim, config.hidden, dtype)
              for _ in range(config.K + 1)]
    # the head's weights come from the same stream, after the omegas
    fan_in, fan_out = config.head().layer_dims
    head = MLPParams([kaiming_uniform(rng, fan_in, fan_out, dtype)],
                     [np.zeros(fan_out, dtype=dtype)])
    return SIGNParams(omegas, head)


def sign_forward(hops: HopFeatures, params: SIGNParams, config: HopConfig,
                 mode: str = "eval", rng=None):
    """Per-hop projection, concat, ReLU, optional dropout, the head.

    Returns (logits, trace) in train mode and (logits, None) otherwise.
    """
    if hops.K != config.K:
        raise ValueError(f"hop cache has K={hops.K}, model expects K={config.K}")
    H = config.hidden
    pre = np.empty((hops.hops[0].shape[0], (config.K + 1) * H),
                   dtype=np.result_type(hops.hops[0], params.omegas[0]))
    for k in range(config.K + 1):
        np.matmul(hops.hops[k], params.omegas[k], out=pre[:, k * H:(k + 1) * H])
    if mode != "train":
        h = np.maximum(pre, 0.0, out=pre)
        return mlp_forward(params.head, config.head(), h, "eval")[0], None
    h = np.maximum(pre, 0.0)
    mask = None
    if config.dropout > 0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        mask = dropout_mask(rng, h.shape, config.dropout, h.dtype)
        h = h * mask
    logits, head_trace = mlp_forward(params.head, config.head(), h, "train")
    return logits, {"pre": pre, "mask": mask, "head": head_trace}


def sign_backward(hops: HopFeatures, params: SIGNParams, config: HopConfig,
                  trace: dict, grad_logits: np.ndarray) -> dict:
    head_grads, g = mlp_backward(params.head, config.head(), trace["head"], grad_logits)
    grads = {f"head_{name}": v for name, v in head_grads.items()}
    if trace["mask"] is not None:
        g = g * trace["mask"]
    g = g * (trace["pre"] > 0)
    H = config.hidden
    for k in range(config.K + 1):
        grads[f"omega{k}"] = hops.hops[k].T @ g[:, k * H:(k + 1) * H]
    return grads


# --------------------------------------------------------------------- SAGN

ATTENTION_SLOPE = 0.2  # leaky-ReLU slope of the hop-attention scores


@dataclass
class SAGNParams:
    att_u: np.ndarray  # (in_dim,)
    att_v: list  # K vectors (in_dim,)
    skip: np.ndarray  # (in_dim, in_dim)
    mlp: MLPParams

    def trainable(self) -> dict:
        out = {"att_u": self.att_u}
        for k, v in enumerate(self.att_v):
            out[f"att_v{k}"] = v
        out["skip"] = self.skip
        for name, arr in self.mlp.trainable().items():
            out[f"mlp_{name}"] = arr
        return out


def init_sagn(config: HopConfig, dtype=np.float64) -> SAGNParams:
    if config.K < 1:
        raise ValueError("hop attention needs K >= 1")
    rng = make_rng(config.seed)
    d = config.in_dim
    att_u = kaiming_uniform(rng, d, 1, dtype).ravel()
    att_v = [kaiming_uniform(rng, d, 1, dtype).ravel() for _ in range(config.K)]
    # the skip starts at zero, so the MLP first reads the attended hops alone
    skip = np.zeros((d, d), dtype)
    mlp = init_mlp(config.fusion(), dtype)
    return SAGNParams(att_u, att_v, skip, mlp)


def _leaky(z):
    return np.where(z > 0, z, ATTENTION_SLOPE * z)


def _leaky_grad(z):
    return np.where(z > 0, 1.0, ATTENTION_SLOPE).astype(z.dtype, copy=False)


def sagn_forward(hops: HopFeatures, params: SAGNParams, config: HopConfig,
                 mode: str = "eval", rng=None):
    """Per-node softmax attention over hops 1..K, plus a raw-feature skip
    into the fusion MLP.

    Returns (logits, trace) in train mode and (logits, None) otherwise.
    """
    if hops.K < 1:
        raise ValueError("hop attention needs K >= 1 precomputed hops")
    if hops.K != config.K:
        raise ValueError(f"hop cache has K={hops.K}, model expects K={config.K}")
    x0 = hops.hops[0]
    base = x0 @ params.att_u  # (n,)
    hop_scores = np.stack([hops.hops[k + 1] @ params.att_v[k] for k in range(config.K)], axis=1)
    pre = base[:, None] + hop_scores  # (n, K)
    scores = _leaky(pre)
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    t = e / e.sum(axis=1, keepdims=True)  # attention weights (n, K)
    fused = np.zeros_like(x0)
    for k in range(config.K):
        fused += t[:, k:k + 1] * hops.hops[k + 1]
    mlp_in = x0 @ params.skip
    mlp_in += fused
    if mode != "train":
        del fused  # n x d, not needed by the eval MLP pass
        return mlp_forward(params.mlp, config.fusion(), mlp_in, mode="eval")[0], None
    logits, mlp_trace = mlp_forward(params.mlp, config.fusion(), mlp_in,
                                    mode="train", rng=rng)
    trace = {"t": t, "pre": pre, "mlp_trace": mlp_trace, "mlp_in": mlp_in}
    return logits, trace


def sagn_backward(hops: HopFeatures, params: SAGNParams, config: HopConfig,
                  trace: dict, grad_logits: np.ndarray) -> dict:
    mlp_grads, g_in = mlp_backward(params.mlp, config.fusion(),
                                   trace["mlp_trace"], grad_logits)
    grads = {f"mlp_{k}": v for k, v in mlp_grads.items()}
    x0 = hops.hops[0]
    grads["skip"] = x0.T @ g_in
    t, pre = trace["t"], trace["pre"]
    # dL/dT_{ik} = <g_in_i, X^{k+1}_i>
    dt = np.stack([np.einsum("nd,nd->n", g_in, hops.hops[k + 1]) for k in range(config.K)], axis=1)
    ds = t * (dt - (t * dt).sum(axis=1, keepdims=True))  # softmax jacobian
    dpre = ds * _leaky_grad(pre)
    grads["att_u"] = x0.T @ dpre.sum(axis=1)
    for k in range(config.K):
        grads[f"att_v{k}"] = hops.hops[k + 1].T @ dpre[:, k]
    return grads


# -------------------------------------------------------------- sampled GNN


@dataclass
class SampledGNNConfig:
    dims: list  # input, hidden..., output
    dropout: float = 0.0
    seed: int = 0

    @property
    def depth(self) -> int:
        return len(self.dims) - 1


@dataclass
class SampledGNNParams:
    w_self: list
    w_neigh: list
    bias: list

    def trainable(self) -> dict:
        out = {}
        for i, (ws, wn, b) in enumerate(zip(self.w_self, self.w_neigh, self.bias)):
            out[f"W_self{i}"] = ws
            out[f"W_neigh{i}"] = wn
            out[f"b{i}"] = b
        return out


def init_sampled_gnn(config: SampledGNNConfig, dtype=np.float64) -> SampledGNNParams:
    rng = make_rng(config.seed)
    w_self, w_neigh, bias = [], [], []
    for i in range(config.depth):
        w_self.append(kaiming_uniform(rng, config.dims[i], config.dims[i + 1], dtype))
        w_neigh.append(kaiming_uniform(rng, config.dims[i], config.dims[i + 1], dtype))
        bias.append(np.zeros(config.dims[i + 1], dtype=dtype))
    return SampledGNNParams(w_self, w_neigh, bias)


def _gather_self(h: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """h rows at pos, zero rows where pos is -1 (node absent from B_{l+1})."""
    out = h[np.clip(pos, 0, h.shape[0] - 1)]
    out[pos < 0] = 0.0
    return out


def _row_blocks(n: int, chunk: int | None):
    """(start, stop) of consecutive row blocks of chunk rows covering n rows;
    one block when chunk is None."""
    step = max(n, 1) if chunk is None else chunk
    return ((s, min(s + step, n)) for s in range(0, n, step))


def _dense_rows(h, pos, shared, agg, w_self, w_neigh, bias, relu, chunk, out=None):
    """A non-narrowing eval layer's output, self_h W_self + (Â h) W_neigh +
    bias (relu'd when relu), one row block at a time: yields (start, block)
    per block of chunk output rows, written into out's rows when out is
    given. agg is Â h; pos places each output row in h (see _gather_self)."""
    for s, e in _row_blocks(agg.shape[0], chunk):
        self_h = h[s:e] if shared else _gather_self(h, pos[s:e])
        z = self_h @ w_self if out is None else np.matmul(self_h, w_self, out=out[s:e])
        z += agg[s:e] @ w_neigh
        z += bias
        if relu:
            np.maximum(z, 0.0, out=z)
        yield s, z


def _eval_forward(plan, h, params, depth, memo, chunk):
    """sampled_gnn_forward's eval mode on input features h (see there)."""
    narrows = [w.shape[1] < w.shape[0] for w in params.w_neigh]
    rows = None  # a fused layer's output, as _dense_rows' (start, block) pairs
    for i in range(depth):
        l = depth - 1 - i  # block index: deepest first
        block, pos, relu = plan.block(l), plan.self_positions(l), i < depth - 1
        w_self, w_neigh, bias = params.w_self[i], params.w_neigh[i], params.bias[i]
        if narrows[i]:  # Â (h W_neigh): both GEMMs per input row block
            n, width = block.shape[1], w_neigh.shape[1]
            hs, hn = (np.empty((n, width), dtype=np.result_type(h, w_neigh))
                      for _ in range(2))
            if rows is None:
                rows = ((s, h[s:e]) for s, e in _row_blocks(n, chunk))
            for s, hb in rows:
                np.matmul(hb, w_self, out=hs[s:s + hb.shape[0]])
                np.matmul(hb, w_neigh, out=hn[s:s + hb.shape[0]])
            z = hs if plan.shared else _gather_self(hs, pos)
            z += csr_matmul(block, hn)
            z += bias
            h, rows = (np.maximum(z, 0.0, out=z) if relu else z), None
            continue
        if i > 0 or memo is None:
            agg = csr_matmul(block, h)
        elif "agg0" in memo:
            agg = memo["agg0"]
        else:
            agg = memo["agg0"] = csr_matmul(block, h)
        if relu and narrows[i + 1]:  # fused: the next layer reads the blocks
            rows = _dense_rows(h, pos, plan.shared, agg, w_self, w_neigh, bias,
                               relu, chunk)
            continue
        z = np.empty((block.shape[0], w_self.shape[1]), dtype=np.result_type(h, w_self))
        for _ in _dense_rows(h, pos, plan.shared, agg, w_self, w_neigh, bias, relu,
                             chunk, out=z):
            pass
        h = z
    return h


def sampled_gnn_forward(plan: BatchPlan, x: np.ndarray, params: SampledGNNParams,
                        config: SampledGNNConfig, mode: str = "eval", rng=None,
                        memo: dict | None = None, chunk: int | None = None):
    """Mean-style aggregator with separate self and neighbor weights.

    Layer i maps features on B_{K-i} to B_{K-i-1}; relu between layers,
    final layer linear. Plan and model depth must agree (shared subgraph
    plans fit any depth by construction). Returns (logits, trace) in train
    mode and (logits, None) otherwise. A shared plan over every row of x
    reads x itself, not a gathered copy.

    Eval mode multiplies the block Â at the narrower of each layer's input
    and output widths: Â (h W_neigh) when W_neigh narrows, (Â h) W_neigh
    otherwise. Train mode does not: it always forms Â h, which the backward
    pass needs. Eval runs every layer's dense part in row blocks of chunk
    rows (one block when chunk is None), so no (Â h) W_neigh temporary is
    built, and a hidden layer that feeds a narrowing layer is never built
    at all: each of its row blocks goes straight into that layer's two
    GEMMs, h W_self and h W_neigh, whose results are kept, and one Â
    product follows at the narrow width. A hidden layer is built in full
    only when the next layer's Â h reads all of its rows. Row-blocked
    GEMMs may round differently from one whole-matrix GEMM, so the logits
    of different chunks can differ in their last bits.

    memo is internal, for a caller that evaluates the same plan and x
    repeatedly (the trainer's per-epoch full-graph evaluation): an eval
    forward stores in it the first layer's Â x, which no parameter changes,
    and later eval forwards with the same memo reuse it.
    """
    depth = config.depth
    if not plan.shared and len(plan.blocks) != depth:
        raise ValueError(f"plan has {len(plan.blocks)} blocks, model depth is {depth}")
    train = mode == "train"
    if train and config.dropout > 0 and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    x, inputs = np.asarray(x), plan.nodes(depth)
    h = x if plan.shared and inputs.size == x.shape[0] else x[inputs]
    if not train:
        return _eval_forward(plan, h, params, depth, memo, chunk), None
    layers = []
    for i in range(depth):
        l = depth - 1 - i  # block index: deepest first
        block, w_neigh = plan.block(l), params.w_neigh[i]
        pos = plan.self_positions(l)
        self_h = h if plan.shared else _gather_self(h, pos)  # shared: B_l is B_{l+1}
        agg = csr_matmul(block, h)
        z = self_h @ params.w_self[i]
        z += agg @ w_neigh
        z += params.bias[i]
        rec = {"h": h, "agg": agg, "self_h": self_h, "pos": pos, "z": z, "mask": None}
        if i < depth - 1:
            h = np.maximum(z, 0.0)
            if config.dropout > 0:
                mask = dropout_mask(rng, h.shape, config.dropout, h.dtype)
                h = h * mask
                rec["mask"] = mask
        else:
            h = z
        layers.append(rec)
    return h, {"layers": layers}


def sampled_gnn_backward(plan: BatchPlan, params: SampledGNNParams,
                         config: SampledGNNConfig, trace: dict,
                         grad_logits: np.ndarray) -> dict:
    depth = config.depth
    grads = {}
    g = np.asarray(grad_logits)
    for i in range(depth - 1, -1, -1):
        rec = trace["layers"][i]
        if i < depth - 1:
            if rec["mask"] is not None:
                g = g * rec["mask"]
            g = g * (rec["z"] > 0)
        grads[f"W_self{i}"] = rec["self_h"].T @ g
        grads[f"W_neigh{i}"] = rec["agg"].T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        if i > 0:
            l = depth - 1 - i
            # the CSC view Â^T sums each output row in the CSR transpose's order
            back = csr_matmul(plan.block(l).T, g @ params.w_neigh[i].T)
            self_part = g @ params.w_self[i].T
            if plan.shared:  # B_l is B_{l+1}: positions are the identity
                back += self_part
            else:
                pos = rec["pos"]
                ok = pos >= 0
                back[pos[ok]] += self_part[ok]  # positions are unique
            g = back
    return grads
