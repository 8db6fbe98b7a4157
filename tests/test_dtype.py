"""The dtype policy: a trial computes in its features' dtype.

Feature-width work (hops, parameters, activations, sparse products) follows
Dataset.features; label-width work stays float64. The normalized adjacency
builds its scipy form once per dtype, and sampled blocks come out in the
features' dtype, so no product upcasts.
"""

import dataclasses
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp

from scalegnn import graph, nn
from scalegnn.harness import METHODS
from scalegnn.synth import SyntheticSpec
from scalegnn.trainers import dataset_from_sbm, run_trial

H32 = dict(epochs=3, hidden_dim=32, batch_size=256)
S300 = dict(epochs=3, hidden_dim=32, batch_size=300)
SHORT = {"graphsage": H32, "fastgcn": H32, "ladies": H32, "clustergcn": H32,
         "saint-node": S300, "saint-edge": S300, "saint-rw": S300,
         "sgc": dict(epochs=3, batch_size=256), "sign": dict(H32, dropout=0.2),
         "sagn": dict(H32, dropout=0.2), "lp": dict(num_propagations=5),
         "cs": dict(H32, dropout=0.2),
         "engcn": dict(epochs=2, hidden_dim=32, batch_size=256, num_layers=2,
                       dropout=0.2)}


@pytest.fixture(scope="module")
def sbm3k():
    """The acceptance tests' 3k-node SBM, with float32 features."""
    return dataset_from_sbm(SyntheticSpec(3000, 5, 0.05, 0.005, feature_dim=16,
                                          separation=0.6, noise=1.0, seed=0))


def test_short_configs_cover_every_method():
    assert set(SHORT) == set(METHODS)


def patch_everywhere(monkeypatch, original, wrapper):
    """Rebind every scalegnn module's name for original to wrapper."""
    for name, module in list(sys.modules.items()):
        if name == "scalegnn" or name.startswith("scalegnn."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


@pytest.mark.parametrize("method", sorted(SHORT))
def test_float32_trial_never_upcasts(sbm3k, monkeypatch, method):
    assert sbm3k.features.dtype == np.float32
    seen = []  # (function, input dtype, output dtype)
    mixed_blocks = []  # (block dtype, input dtype) of csr_matmul calls that differ

    def watch(fn, x_at, logits=lambda out: out):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((fn.__name__, args[x_at].dtype, logits(out).dtype))
            if fn is graph.csr_matmul and args[0].dtype != args[1].dtype:
                mixed_blocks.append((args[0].dtype, args[1].dtype))
            return out
        return wrapper

    patch_everywhere(monkeypatch, graph.spmm, watch(graph.spmm, 1))
    patch_everywhere(monkeypatch, graph.csr_matmul, watch(graph.csr_matmul, 1))
    patch_everywhere(monkeypatch, nn.mlp_forward,
                     watch(nn.mlp_forward, 2, lambda out: out[0]))
    # on a fresh Dataset the trial builds its own adjacency and hops, whose
    # products are watched too
    run_trial(method, SHORT[method], dataclasses.replace(sbm3k), seed=0)
    upcasts = [s for s in seen if s[1] != s[2]]
    assert not upcasts, upcasts[:3]
    assert not mixed_blocks, mixed_blocks[:3]  # blocks come out in x's dtype
    if method != "lp":  # lp only propagates float64 label scores
        assert any(s[1] == np.float32 for s in seen), method


@pytest.mark.parametrize("method", sorted(SHORT))
def test_float32_trial_within_band_of_float64(sbm3k, method):
    """On the 3k SBM at seed 0, a float32 trial's loss curve is within 1e-6
    relative of the float64 trial's (measured: at most 2.5e-7 over all
    methods at seeds 0 and 1), and every reported accuracy is equal."""
    ds64 = dataclasses.replace(sbm3k, features=sbm3k.features.astype(np.float64))
    f32 = run_trial(method, SHORT[method], sbm3k, seed=0)
    f64 = run_trial(method, SHORT[method], ds64, seed=0)
    lo32, lo64 = np.array(f32.loss_curve), np.array(f64.loss_curve)
    assert np.all(np.abs(lo32 - lo64) <= 1e-6 * np.abs(lo64)), (lo32, lo64)
    assert f32.val_acc_curve == f64.val_acc_curve
    assert ((f32.train_acc, f32.val_acc, f32.test_acc)
            == (f64.train_acc, f64.val_acc, f64.test_acc))
    ck32, ck64 = f32.extras["param_checksum"], f64.extras["param_checksum"]
    assert abs(ck32 - ck64) <= 1e-5 * abs(ck64)


def test_adjacency_builds_scipy_form_once_per_dtype(sbm3k, monkeypatch):
    built = []

    def csr_matrix(arg, *args, **kwargs):
        built.append(np.asarray(arg[0]).dtype)
        return sp.csr_matrix(arg, *args, **kwargs)

    monkeypatch.setattr(graph, "sp", types.SimpleNamespace(csr_matrix=csr_matrix))
    ds = dataclasses.replace(sbm3k)
    # float32 features and float64 label embeddings (engcn), float32 hops
    # (sign), a float32 full-graph evaluation (graphsage): one adjacency,
    # one form per dtype
    for method in ("engcn", "sign", "graphsage"):
        run_trial(method, SHORT[method], ds, seed=0)
    assert sorted(map(str, built)) == ["float32", "float64"]
    a = ds.adjacency("sym")
    assert a.to_scipy(np.float32) is a.to_scipy(np.float32)
    f32, f64 = a.to_scipy(np.float32), a.to_scipy(np.float64)
    assert np.shares_memory(f32.indices, f64.indices)
    assert np.shares_memory(f32.indptr, f64.indptr)
    assert np.shares_memory(f64.data, a.values)
    assert np.array_equal(f32.data, a.values.astype(np.float32))
    assert len(built) == 2
    # float64 diffusion of float32 base-model scores (cs) reads only the
    # float64 form: it keeps that one and drops the float32 copy
    run_trial("cs", SHORT["cs"], ds, seed=0)
    assert ds.adjacency("sym") is a and set(a._scipy) == {np.dtype(np.float64)}
    assert a.to_scipy(np.float64) is f64
    assert len(built) == 2


def test_spmm_and_csr_matmul_run_in_the_input_dtype():
    g = graph.build_graph([(0, 1), (1, 2), (2, 3)], 4, symmetrize=True)
    a = graph.normalize_adjacency(g, "sym")
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    dense = a.to_scipy().toarray()
    for dtype in (np.float32, np.float64):
        out = graph.spmm(a, x.astype(dtype))
        assert out.dtype == dtype
        np.testing.assert_allclose(out, dense @ x, rtol=1e-6)
        mixed = graph.csr_matmul(a.to_scipy(np.float64), x.astype(dtype))
        assert mixed.dtype == dtype
    assert graph.spmm(a, np.arange(4)).dtype == np.float64  # ints promote


@pytest.mark.parametrize("method", ["sgc", "graphsage", "engcn"])
def test_integer_features_compute_in_float64(sbm3k, method):
    counts = np.rint(sbm3k.features * 3).astype(np.int64)
    ints = dataclasses.replace(sbm3k, features=counts)
    assert ints.features.dtype == np.float64
    floats = dataclasses.replace(sbm3k, features=counts.astype(np.float64))
    a = run_trial(method, SHORT[method], ints, seed=0)
    b = run_trial(method, SHORT[method], floats, seed=0)
    assert a.loss_curve == b.loss_curve and a.val_acc == b.val_acc
