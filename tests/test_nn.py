"""MLP numerics against finite-difference oracles and closed-form cases."""

import numpy as np
import pytest

from scalegnn.nn import (
    AdamState,
    MLPConfig,
    MLPParams,
    TrainingDiverged,
    adam_step,
    accuracy,
    cross_entropy,
    dropout_mask,
    fit,
    gradcheck,
    init_mlp,
    log_softmax_row,
    mlp_backward,
    mlp_forward,
    one_hot,
    score_in_chunks,
    shuffled_batches,
    softmax_row,
)
from scalegnn.rng import make_rng


def test_identity_linear_layer():
    config = MLPConfig([3, 3])
    params = MLPParams([np.eye(3)], [np.zeros(3)])
    x = np.random.default_rng(0).normal(size=(4, 3))
    logits, _ = mlp_forward(params, config, x, mode="eval")
    assert np.array_equal(logits, x)


def test_no_dropout_train_eval_match():
    config = MLPConfig([4, 8, 3], dropout_rate=0.0, seed=1)
    params = init_mlp(config)
    x = np.random.default_rng(1).normal(size=(5, 4))
    train_logits, trace = mlp_forward(params, config, x, mode="train")
    eval_logits, _ = mlp_forward(params, config, x, mode="eval")
    assert trace is not None
    assert np.array_equal(train_logits, eval_logits)


def test_forward_deterministic():
    config = MLPConfig([4, 8, 3], dropout_rate=0.3, seed=7)
    x = np.random.default_rng(2).normal(size=(6, 4))
    outs = []
    for _ in range(2):
        params = init_mlp(config)
        logits, _ = mlp_forward(params, config, x, mode="train", rng=make_rng(99))
        outs.append(logits)
    assert np.array_equal(outs[0], outs[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.1, 0.2, 0.5])
def test_dropout_mask_is_the_scaled_keep_draw(dtype, rate):
    """The values and the draws of (u < keep).astype(dtype) / keep."""
    rng, ref = make_rng(3), make_rng(3)
    mask = dropout_mask(rng, (7, 5), rate, dtype)
    keep = 1.0 - rate
    want = (ref.random((7, 5)) < keep).astype(dtype) / keep
    assert mask.dtype == want.dtype == dtype
    assert np.array_equal(mask, want)
    assert rng.random() == ref.random()


def test_forward_shape_error():
    config = MLPConfig([4, 2])
    params = init_mlp(config)
    with pytest.raises(ValueError, match="features"):
        mlp_forward(params, config, np.zeros((3, 5)), mode="eval")


def test_softmax_symmetry_and_shift():
    assert np.allclose(softmax_row(np.array([0.0, 0.0])), [0.5, 0.5])
    rng = np.random.default_rng(3)
    v = rng.normal(size=(10, 6))
    assert np.allclose(softmax_row(v), softmax_row(v + 13.7), atol=1e-12)
    assert np.allclose(softmax_row(v).sum(axis=1), 1.0, atol=1e-9)


def test_softmax_stable():
    p = softmax_row(np.array([1000.0, 0.0]))
    assert np.isfinite(p).all()
    assert p[0] > 1 - 1e-12


def test_log_softmax_shift_invariant():
    rng = np.random.default_rng(4)
    v = rng.normal(size=(8, 5))
    assert np.allclose(log_softmax_row(v), log_softmax_row(v - 4.2), atol=1e-9)
    assert np.allclose(np.exp(log_softmax_row(v)), softmax_row(v), atol=1e-12)


def test_cross_entropy_confident():
    labels = np.array([0, 2, 1])
    logits = 20.0 * one_hot(labels, 3)
    loss, _ = cross_entropy(logits, labels)
    assert loss < 1e-8


def test_cross_entropy_uniform():
    loss, _ = cross_entropy(np.zeros((6, 7)), np.zeros(6, dtype=np.int64))
    assert abs(loss - np.log(7)) < 1e-12


def test_cross_entropy_empty_batch():
    with pytest.raises(ValueError, match="empty"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_cross_entropy_grad_oracle():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)

    def f(p):
        loss, grad = cross_entropy(p["logits"], labels)
        return loss, {"logits": grad}

    report = gradcheck(f, {"logits": logits}, tolerance=1e-6)
    assert report["max_rel_err"] < 1e-6


def test_backward_zero_grad():
    config = MLPConfig([3, 4, 2], seed=0)
    params = init_mlp(config)
    x = np.random.default_rng(6).normal(size=(5, 3))
    _, trace = mlp_forward(params, config, x, mode="train")
    grads, gx = mlp_backward(params, config, trace, np.zeros((5, 2)))
    assert all(np.all(g == 0) for g in grads.values())
    assert np.all(gx == 0)


def test_backward_row_duplication_invariant():
    config = MLPConfig([3, 6, 4], seed=2)
    params = init_mlp(config)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 4, size=5)

    def grads_for(xb, yb):
        logits, trace = mlp_forward(params, config, xb, mode="train")
        _, gl = cross_entropy(logits, yb)
        g, _ = mlp_backward(params, config, trace, gl)
        return g

    g1 = grads_for(x, y)
    g2 = grads_for(np.repeat(x, 2, axis=0), np.repeat(y, 2))
    for k in g1:
        assert np.allclose(g1[k], g2[k], atol=1e-12)


def test_backward_trace_reuse_rejected():
    config = MLPConfig([3, 2])
    params = init_mlp(config)
    _, trace = mlp_forward(params, config, np.zeros((2, 3)), mode="train")
    mlp_backward(params, config, trace, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="consumed"):
        mlp_backward(params, config, trace, np.zeros((2, 2)))


def mlp_loss_fn(params_obj, config, x, y):
    def f(_):
        logits, trace = mlp_forward(params_obj, config, x, mode="train")
        loss, gl = cross_entropy(logits, y)
        grads, _ = mlp_backward(params_obj, config, trace, gl)
        return loss, grads
    return f


def test_gradcheck_two_layer():
    config = MLPConfig([4, 6, 3], seed=3)
    params = init_mlp(config)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(7, 4))
    y = rng.integers(0, 3, size=7)
    report = gradcheck(mlp_loss_fn(params, config, x, y), params.trainable())
    assert report["max_rel_err"] < 1e-5, report


def test_gradcheck_randomized_configs():
    rng = np.random.default_rng(9)
    for trial in range(6):
        depth = int(rng.integers(2, 5))
        dims = [int(rng.integers(3, 7)) for _ in range(depth + 1)]
        config = MLPConfig(dims, seed=trial)
        params = init_mlp(config)
        # biases away from zero: behind a unit that is dead on every row, a
        # zero bias puts the next pre-activation exactly on the ReLU kink,
        # where central differences are not the derivative
        for b in params.biases:
            b[:] = rng.uniform(0.1, 0.5, size=b.shape)
        x = rng.normal(size=(8, dims[0]))
        y = rng.integers(0, dims[-1], size=8)
        report = gradcheck(mlp_loss_fn(params, config, x, y), params.trainable())
        assert report["max_rel_err"] < 1e-5, (trial, report["max_rel_err"], report["worst"])


def test_gradcheck_linear_least_squares():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(9, 4))
    y = rng.normal(size=(9, 2))
    w = rng.normal(size=(4, 2))

    def f(p):
        r = x @ p["w"] - y
        loss = 0.5 * np.sum(r * r) / x.shape[0]
        return loss, {"w": x.T @ r / x.shape[0]}

    report = gradcheck(f, {"w": w})
    assert report["max_rel_err"] < 1e-7


def test_gradcheck_negative_control():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))
    w = rng.normal(size=(3, 2))

    def f(p):
        r = x @ p["w"] - y
        grad = x.T @ r / x.shape[0]
        grad = grad.copy()
        grad[0, 0] += 1.0  # deliberately wrong
        return 0.5 * np.sum(r * r) / x.shape[0], {"w": grad}

    report = gradcheck(f, {"w": w}, tolerance=1e-5)
    assert not report["passed"]
    assert report["max_rel_err"] > 1e-5


def test_adam_zero_grad_identity():
    p = {"w": np.ones((2, 2))}
    state = AdamState(learning_rate=0.1, weight_decay=0.0)
    adam_step(state, p, {"w": np.zeros((2, 2))})
    assert np.array_equal(p["w"], np.ones((2, 2)))


def test_adam_first_step_sign():
    g = np.array([[0.5, -2.0, 1e-3]])
    p = {"w": np.zeros((1, 3))}
    state = AdamState(learning_rate=0.01)
    adam_step(state, p, {"w": g})
    assert np.allclose(p["w"], -0.01 * np.sign(g), atol=1e-6)


def test_adam_lr_zero_identity():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(3, 3))
    p = {"w": w.copy()}
    state = AdamState(learning_rate=0.0, weight_decay=0.3)
    adam_step(state, p, {"w": rng.normal(size=(3, 3))})
    assert np.array_equal(p["w"], w)


def test_adam_decoupled_weight_decay():
    # with zero grads the only effect is the (1 - lr*wd) shrink per step
    p = {"w": np.full((2, 2), 2.0)}
    state = AdamState(learning_rate=0.1, weight_decay=0.5)
    adam_step(state, p, {"w": np.zeros((2, 2))})
    assert np.allclose(p["w"], 2.0 * (1 - 0.1 * 0.5))


def test_training_deterministic_curves():
    config = MLPConfig([4, 8, 3], dropout_rate=0.0, seed=5)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(20, 4))
    y = rng.integers(0, 3, size=20)

    def run():
        params = init_mlp(config)
        state = AdamState(learning_rate=0.01, weight_decay=1e-4)
        losses = []
        for _ in range(10):
            logits, trace = mlp_forward(params, config, x, mode="train")
            loss, gl = cross_entropy(logits, y)
            grads, _ = mlp_backward(params, config, trace, gl)
            adam_step(state, params.trainable(), grads)
            losses.append(loss)
        return losses, params

    l1, p1 = run()
    l2, p2 = run()
    assert l1 == l2
    for a, b in zip(p1.weights, p2.weights):
        assert np.array_equal(a, b)
    assert l1[-1] < l1[0]


def test_accuracy_tie_breaks_low_index():
    logits = np.array([[1.0, 1.0, 0.0]])
    assert accuracy(logits, np.array([0])) == 1.0
    assert accuracy(logits, np.array([1])) == 0.0


class TestFit:
    def test_epoch_without_steps_logs_nan(self):
        log = fit(2, lambda epoch: [] if epoch == 0 else [0], lambda _: 1.5)
        assert np.isnan(log.loss_curve[0]) and log.loss_curve[1] == 1.5
        assert log.steps == 1
        assert len(log.epoch_seconds) == 2

    def test_evaluate_runs_once_per_epoch_after_its_steps(self):
        events = []

        def step(batch):
            events.append(("step", batch))
            return 0.0

        def evaluate(epoch):
            events.append(("eval", epoch))
            return float(epoch)

        log = fit(2, lambda epoch: [f"{epoch}a", f"{epoch}b"], step, evaluate)
        assert events == [("step", "0a"), ("step", "0b"), ("eval", 0),
                          ("step", "1a"), ("step", "1b"), ("eval", 1)]
        assert log.val_curve == [0.0, 1.0]
        assert len(log.eval_seconds) == 2

    def test_no_evaluate_leaves_val_curve_empty(self):
        log = fit(3, lambda _: [0], lambda _: 1.0)
        assert log.loss_curve == [1.0] * 3 and log.val_curve == []

    def test_nonfinite_loss_raises_training_diverged(self):
        losses = iter([1.0, 1.0, 1.0, float("nan")])
        with pytest.raises(TrainingDiverged, match="epoch 1, step 1"):
            fit(2, lambda _: [0, 1], lambda _: next(losses))
        assert issubclass(TrainingDiverged, ValueError)

    def test_shuffled_batches_cover_each_index_once(self):
        idx = np.arange(10, 20)
        chunks = list(shuffled_batches(make_rng(0), idx, 4))
        assert [c.size for c in chunks] == [4, 4, 2]
        assert np.array_equal(np.sort(np.concatenate(chunks)), idx)

    def test_score_in_chunks_passes_slices_and_concatenates(self):
        x = np.arange(20.0).reshape(10, 2)
        seen = []

        def score(rows):
            seen.append(rows)
            return rows * 2

        out = score_in_chunks(score, x, 4)
        assert np.array_equal(out, x * 2)
        assert [r.shape[0] for r in seen] == [4, 4, 2]
        assert all(np.shares_memory(r, x) for r in seen)  # slices, not copies
