"""Label diffusion against a dense linear-solve oracle.

The iteration Y <- alpha*A_hat Y + (1-alpha)*G contracts to
Y* = (1-alpha)(I - alpha*A_hat)^{-1} G, so np.linalg.solve on the dense
matrix gives an independent fixed point to converge to.
"""

import numpy as np
import pytest

from scalegnn.graph import DataSplit, LabelVector, build_graph, normalize_adjacency
from scalegnn.labelprop import (DiffusionConfig, autoscale, build_zeros_source,
                                correct_and_smooth, lp_iterate,
                                residual_error_iterate)
from scalegnn.nn import one_hot
from scalegnn.rng import make_rng


def random_graph(rng, n, avg_degree=3):
    m = max(1, int(n * avg_degree / 2))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    edges = np.stack([src[keep], dst[keep]], axis=1)
    if edges.size == 0:
        edges = np.array([[0, min(1, n - 1)]])
    return build_graph(edges, n, symmetrize=True)


def dense_solve(a, g, alpha):
    ahat = a.to_scipy().toarray()
    n = ahat.shape[0]
    return np.linalg.solve(np.eye(n) - alpha * ahat, (1.0 - alpha) * g)


def random_split(rng, n, num_train):
    perm = rng.permutation(n)
    n_val = max(1, (n - num_train) // 2)
    return DataSplit(train=np.sort(perm[:num_train]),
                     val=np.sort(perm[num_train:num_train + n_val]),
                     test=np.sort(perm[num_train + n_val:]))


class TestLpIterate:
    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9, 0.99])
    @pytest.mark.parametrize("kind", ["row", "col", "sym"])
    def test_converges_to_dense_solve(self, alpha, kind):
        rng = make_rng(11)
        for _ in range(5):
            n = int(rng.integers(4, 21))
            g_graph = random_graph(rng, n)
            a = normalize_adjacency(g_graph, kind)
            g = rng.standard_normal((n, 3))
            y0 = rng.standard_normal((n, 3))
            # contraction factor alpha per step: alpha^k * spread < 1e-10
            k = int(np.ceil(np.log(1e-12) / np.log(alpha)))
            got = lp_iterate(a, y0, g, alpha, k, tol=0.0)
            want = dense_solve(a, g, alpha)
            assert np.max(np.abs(got - want)) < 1e-8

    def test_alpha_zero_returns_source(self):
        rng = make_rng(0)
        g_graph = random_graph(rng, 8)
        a = normalize_adjacency(g_graph, "row")
        g = rng.standard_normal((8, 2))
        y0 = rng.standard_normal((8, 2))
        out = lp_iterate(a, y0, g, 0.0, 5)
        assert np.array_equal(out, g)

    def test_k_zero_returns_start(self):
        rng = make_rng(1)
        g_graph = random_graph(rng, 6)
        a = normalize_adjacency(g_graph, "sym")
        y0 = rng.standard_normal((6, 2))
        out = lp_iterate(a, y0, np.zeros((6, 2)), 0.9, 0)
        assert np.array_equal(out, y0)

    def test_exact_step_count_with_tol_zero(self):
        # with tol=0 the result is exactly the k-step linear recurrence,
        # reproduced here with dense matrix powers
        rng = make_rng(2)
        g_graph = random_graph(rng, 7)
        a = normalize_adjacency(g_graph, "row")
        ahat = a.to_scipy().toarray()
        g = rng.standard_normal((7, 2))
        y = rng.standard_normal((7, 2))
        alpha, k = 0.8, 3
        want = y.copy()
        for _ in range(k):
            want = alpha * ahat @ want + (1 - alpha) * g
        got = lp_iterate(a, y, g, alpha, k, tol=0.0)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_early_exit_near_fixed_point(self):
        # starting at the fixed point, the first step moves by ~0 and the
        # loop exits without drifting
        rng = make_rng(3)
        g_graph = random_graph(rng, 9)
        a = normalize_adjacency(g_graph, "sym")
        g = rng.standard_normal((9, 2))
        star = dense_solve(a, g, 0.5)
        out = lp_iterate(a, star, g, 0.5, 1000, tol=1e-9)
        assert np.max(np.abs(out - star)) < 1e-8

    # per-step contraction by alpha holds in the operator norm that is
    # <= 1 for the kind: rows sum to 1 (row), columns sum to 1 (col),
    # spectral norm 1 by symmetry (sym); the sup-norm of a sym-normalized
    # matrix can exceed 1, so the check is norm-matched per kind
    @pytest.mark.parametrize("kind,err_norm", [
        ("row", lambda d: np.abs(d).sum(axis=1).max()),
        ("col", lambda d: np.abs(d).sum(axis=0).max()),
        ("sym", lambda d: np.linalg.norm(d, 2)),
    ])
    def test_contracts_by_alpha_each_step(self, kind, err_norm):
        rng = make_rng(4)
        for alpha in (0.5, 0.9):
            for _ in range(3):
                n = int(rng.integers(5, 21))
                g_graph = random_graph(rng, n)
                a = normalize_adjacency(g_graph, kind)
                g = rng.standard_normal((n, 2))
                star = dense_solve(a, g, alpha)
                y = rng.standard_normal((n, 2))
                for _ in range(10):
                    before = err_norm(y - star)
                    y = lp_iterate(a, y, g, alpha, 1, tol=0.0)
                    after = err_norm(y - star)
                    assert after <= alpha * before + 1e-12


class TestZerosVariant:
    def test_source_rows(self):
        labels = LabelVector(np.array([2, 0, 1, 1]), 3)
        split = DataSplit(train=np.array([0, 2]), val=np.array([1]),
                          test=np.array([3]))
        g, y0 = build_zeros_source(labels, split)
        assert np.array_equal(g[0], [0, 0, 1])
        assert np.array_equal(g[2], [0, 1, 0])
        assert np.array_equal(g[[1, 3]], np.zeros((2, 3)))
        assert np.array_equal(g, y0)

    def test_k_zero_prediction_is_training_labels(self):
        labels = LabelVector(np.array([1, 0, 1]), 2)
        split = DataSplit(train=np.array([0]), val=np.array([1]),
                          test=np.array([2]))
        g_graph = build_graph(np.array([[0, 1], [1, 2]]), 3, symmetrize=True)
        a = normalize_adjacency(g_graph, "sym")
        g, y0 = build_zeros_source(labels, split)
        out = lp_iterate(a, y0, g, 0.75, 0)
        assert np.array_equal(out, g)

    def test_two_node_path_closed_form(self):
        # one edge, self-loops added by normalization: A_hat is the 2x2
        # all-0.5 matrix, and (I - 0.5*A_hat)^{-1} * 0.5 * G with node 0
        # labeled class 0 solves to [[0.75, 0], [0.25, 0]]
        labels = LabelVector(np.array([0, 1]), 2)
        split = DataSplit(train=np.array([0]), val=np.array([], dtype=np.int64),
                          test=np.array([1]))
        g_graph = build_graph(np.array([[0, 1]]), 2, symmetrize=True)
        a = normalize_adjacency(g_graph, "sym")
        g, y0 = build_zeros_source(labels, split)
        out = lp_iterate(a, y0, g, 0.5, 200, tol=0.0)
        assert np.max(np.abs(out - np.array([[0.75, 0.0], [0.25, 0.0]]))) < 1e-10
        assert out[1].argmax() == labels.labels[0]

    def test_empty_train_rejected(self):
        labels = LabelVector(np.array([0, 1]), 2)
        split = DataSplit(train=np.array([], dtype=np.int64),
                          val=np.array([0]), test=np.array([1]))
        with pytest.raises(ValueError):
            build_zeros_source(labels, split)

    @pytest.mark.parametrize("kind", ["row", "sym"])
    def test_train_argmax_preserved_at_half_alpha(self, kind):
        # converged zeros solution keeps the true class on training rows
        # when alpha <= 0.5
        rng = make_rng(7)
        for _ in range(10):
            n = int(rng.integers(5, 21))
            g_graph = random_graph(rng, n)
            labels = LabelVector(rng.integers(0, 3, size=n), 3)
            split = random_split(rng, n, num_train=max(2, n // 3))
            g, _ = build_zeros_source(labels, split)
            a = normalize_adjacency(g_graph, kind)
            star = dense_solve(a, g, 0.5)
            got = star[split.train].argmax(axis=1)
            assert np.array_equal(got, labels.labels[split.train])


class TestResidual:
    def test_perfect_predictions_zero_error(self):
        labels = LabelVector(np.array([0, 1, 1, 0]), 2)
        split = DataSplit(train=np.array([0, 1]), val=np.array([2]),
                          test=np.array([3]))
        g_graph = random_graph(make_rng(5), 4)
        a = normalize_adjacency(g_graph, "sym")
        z = one_hot(labels.labels, 2)
        e_hat = residual_error_iterate(a, z, labels, split, 0.9, 50)
        assert np.array_equal(e_hat, np.zeros((4, 2)))

    def test_alpha_zero_returns_raw_error(self):
        rng = make_rng(6)
        n = 6
        g_graph = random_graph(rng, n)
        a = normalize_adjacency(g_graph, "row")
        labels = LabelVector(rng.integers(0, 2, size=n), 2)
        split = random_split(rng, n, 2)
        z = rng.random((n, 2))
        e_hat = residual_error_iterate(a, z, labels, split, 0.0, 7)
        want = np.zeros((n, 2))
        want[split.train] = z[split.train] - one_hot(labels.labels[split.train], 2)
        assert np.max(np.abs(e_hat - want)) < 1e-15

    @pytest.mark.parametrize("alpha", [0.5, 0.75, 0.9, 0.99])
    def test_converges_to_dense_solve(self, alpha):
        rng = make_rng(8)
        n = 12
        g_graph = random_graph(rng, n)
        a = normalize_adjacency(g_graph, "sym")
        labels = LabelVector(rng.integers(0, 3, size=n), 3)
        split = random_split(rng, n, 4)
        z = rng.random((n, 3))
        e = np.zeros((n, 3))
        e[split.train] = z[split.train] - one_hot(labels.labels[split.train], 3)
        k = int(np.ceil(np.log(1e-12) / np.log(alpha)))
        got = residual_error_iterate(a, z, labels, split, alpha, k, tol=0.0)
        want = dense_solve(a, e, alpha)
        assert np.max(np.abs(got - want)) < 1e-8


class TestAutoscale:
    def test_identity_when_norms_match_target(self):
        e_hat = np.array([[0.5, -0.5], [0.25, 0.75], [-1.0, 0.0]])
        train_idx = np.array([0])
        train_errors = np.array([[0.5, -0.5]])  # mean L1 norm 1.0
        out = autoscale(e_hat, train_errors, train_idx)
        assert np.max(np.abs(out - e_hat)) < 1e-15

    def test_halves_row_with_double_norm(self):
        e_hat = np.array([[0.2, -0.8], [1.5, -0.5]])
        out = autoscale(e_hat, np.array([[0.2, -0.8]]), np.array([0]))
        assert np.allclose(out[1], [0.75, -0.25])
        assert np.array_equal(out[0], e_hat[0])

    def test_zero_rows_pass_through(self):
        e_hat = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = autoscale(e_hat, np.array([[1.0, 0.0]]), np.array([0]))
        assert np.array_equal(out[1], [0.0, 0.0])

    def test_input_not_mutated(self):
        e_hat = np.array([[1.0, 0.0], [2.0, 0.0]])
        before = e_hat.copy()
        autoscale(e_hat, np.array([[1.0, 0.0]]), np.array([0]))
        assert np.array_equal(e_hat, before)


class TestCorrectAndSmooth:
    def setup_case(self, seed=9, n=10):
        rng = make_rng(seed)
        g_graph = random_graph(rng, n)
        a = normalize_adjacency(g_graph, "sym")
        labels = LabelVector(rng.integers(0, 3, size=n), 3)
        split = random_split(rng, n, 3)
        z = rng.random((n, 3))
        z /= z.sum(axis=1, keepdims=True)
        return a, labels, split, z

    def test_alpha_zero_clamps_training_rows(self):
        for auto in (False, True):
            a, labels, split, z = self.setup_case()
            config = DiffusionConfig(alpha=0.0, num_propagations=3,
                                     autoscale=auto)
            out = correct_and_smooth(a, z, labels, split, config)
            truth = one_hot(labels.labels[split.train], 3)
            assert np.max(np.abs(out[split.train] - truth)) < 1e-15
            rest = np.setdiff1d(np.arange(10), split.train)
            assert np.max(np.abs(out[rest] - z[rest])) < 1e-15

    def test_autoscale_off_matches_manual_composition(self):
        a, labels, split, z = self.setup_case(seed=10)
        config = DiffusionConfig(alpha=0.8, num_propagations=15,
                                 autoscale=False)
        out = correct_and_smooth(a, z, labels, split, config, tol=0.0)
        e_hat = residual_error_iterate(a, z, labels, split, 0.8, 15, tol=0.0)
        g = z - e_hat  # E = Z - Y propagated, so Z - E_hat adds Y - Z
        g[split.train] = one_hot(labels.labels[split.train], 3)
        want = lp_iterate(a, g, g, 0.8, 15, tol=0.0)
        assert np.array_equal(out, want)

    def test_deterministic(self):
        a, labels, split, z = self.setup_case(seed=11)
        config = DiffusionConfig(alpha=0.75, num_propagations=20)
        out1 = correct_and_smooth(a, z, labels, split, config)
        out2 = correct_and_smooth(a, z, labels, split, config)
        assert np.array_equal(out1, out2)

    def test_finite_scores(self):
        a, labels, split, z = self.setup_case(seed=12)
        config = DiffusionConfig(alpha=0.9, num_propagations=30)
        out = correct_and_smooth(a, z, labels, split, config)
        assert np.isfinite(out).all()


class TestDiffusionConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            DiffusionConfig(alpha=1.0, num_propagations=1)
        with pytest.raises(ValueError):
            DiffusionConfig(alpha=-0.1, num_propagations=1)

    def test_negative_propagations(self):
        with pytest.raises(ValueError):
            DiffusionConfig(alpha=0.5, num_propagations=-1)
