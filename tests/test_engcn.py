"""Stage-wise ensembling: state construction, propagation accounting,
pseudo-set growth, and the centered log-softmax vote."""

import tracemalloc

import numpy as np
import pytest

from scalegnn.engcn import (SLEConfig, engcn_init, engcn_propagate,
                            engcn_stage_forward, engcn_train_stage,
                            majority_vote, sle_update)
from scalegnn.graph import (DataSplit, LabelVector, build_graph,
                            normalize_adjacency)
from scalegnn.instrument import op_counter
from scalegnn.models import precompute_hops
from scalegnn.nn import MLPConfig, init_mlp, mlp_forward, one_hot
from scalegnn.rng import make_rng
from scalegnn.synth import SyntheticSpec, generate_sbm
from scalegnn.trainers import Dataset, run_trial


def toy_setup(n=20, d=6, c=3, seed=0, num_train=8):
    rng = make_rng(seed)
    m = 2 * n
    edges = np.stack([rng.integers(0, n, m), rng.integers(0, n, m)], axis=1)
    edges = edges[edges[:, 0] != edges[:, 1]]
    g = build_graph(edges, n, symmetrize=True)
    x = rng.standard_normal((n, d)).astype(np.float32)
    labels = LabelVector(rng.integers(0, c, size=n), c)
    perm = rng.permutation(n)
    split = DataSplit(np.sort(perm[:num_train]),
                      np.sort(perm[num_train:num_train + 4]),
                      np.sort(perm[num_train + 4:]))
    return g, x, labels, split


def traced_peak(fn) -> int:
    """Peak bytes fn allocates, measured by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def small_config(d, c, **kw):
    defaults = dict(threshold=0.8, num_stages=2, epochs_per_stage=3,
                    phi=MLPConfig([d, 8, c], seed=1),
                    psi=MLPConfig([c, 8, c], seed=2),
                    batch_size=8, learning_rate=0.01, seed=0)
    defaults.update(kw)
    return SLEConfig(**defaults)


def small_trial(**kw):
    """small_config's settings as an engcn trial config (phi without
    dropout, no weight decay)."""
    cfg = dict(threshold=0.8, num_layers=2, epochs=3, hidden_dim=8,
               batch_size=8, learning_rate=0.01, weight_decay=0.0,
               dropout=0.0, warm_start=True)
    cfg.update(kw)
    return cfg


def engcn_trial(g, x, labels, split, cfg, seed=0):
    return run_trial("engcn", cfg, Dataset(g, x, labels, split), seed=seed)


class TestInit:
    def test_label_matrix_rows(self):
        g, x, labels, split = toy_setup()
        state = engcn_init(x, labels, split)
        sums = state.y_cur.sum(axis=1)
        assert np.array_equal(sums[split.train], np.ones(split.train.size))
        others = np.setdiff1d(np.arange(20), split.train)
        assert np.array_equal(sums[others], np.zeros(others.size))
        row = split.train[0]
        assert state.y_cur[row, labels.labels[row]] == 1.0

    def test_all_train_fully_one_hot(self):
        g, x, labels, _ = toy_setup()
        split = DataSplit(np.arange(20), np.array([], dtype=np.int64),
                          np.array([], dtype=np.int64))
        state = engcn_init(x, labels, split)
        assert np.array_equal(state.y_cur, one_hot(labels.labels, 3))

    def test_pseudo_set_is_train(self):
        g, x, labels, split = toy_setup()
        state = engcn_init(x, labels, split)
        assert np.array_equal(state.pseudo_train, np.sort(split.train))
        assert np.array_equal(state.pseudo_labels[split.train],
                              labels.labels[split.train])
        rest = np.setdiff1d(np.arange(20), split.train)
        assert (state.pseudo_labels[rest] == -1).all()

    def test_empty_train_rejected(self):
        g, x, labels, _ = toy_setup()
        split = DataSplit(np.array([], dtype=np.int64), np.arange(5),
                          np.arange(5, 20))
        with pytest.raises(ValueError):
            engcn_init(x, labels, split)


class TestPropagate:
    def test_identity_adjacency_fixed_point(self):
        # no edges: self-loop normalization yields the identity matrix
        _, x, labels, split = toy_setup()
        g = build_graph(np.zeros((0, 2), dtype=np.int64), 20)
        a = normalize_adjacency(g, "sym")
        state = engcn_init(x, labels, split)
        state.stage = 1
        x_before, y_before = state.x_cur.copy(), state.y_cur.copy()
        engcn_propagate(state, a)
        assert np.max(np.abs(state.x_cur - x_before)) < 1e-12
        assert np.max(np.abs(state.y_cur - y_before)) < 1e-12

    def test_stage_zero_rejected(self):
        g, x, labels, split = toy_setup()
        a = normalize_adjacency(g, "sym")
        state = engcn_init(x, labels, split)
        with pytest.raises(ValueError):
            engcn_propagate(state, a)

    def test_two_steps_equal_dense_square(self):
        g, x, labels, split = toy_setup(n=9, num_train=4)
        a = normalize_adjacency(g, "sym")
        dense = a.to_scipy().toarray()
        state = engcn_init(x, labels, split)
        state.stage = 1
        engcn_propagate(state, a)
        engcn_propagate(state, a)
        want = (dense @ dense) @ x.astype(np.float64)
        assert np.max(np.abs(state.x_cur - want)) < 1e-6  # float32 features
        y0 = np.zeros((9, 3))
        y0[split.train] = one_hot(labels.labels[split.train], 3)
        assert np.max(np.abs(state.y_cur - (dense @ dense) @ y0)) < 1e-12

    def test_label_mass_conserved_on_regular_graph_row_norm(self):
        # row normalization is column-stochastic only when the graph is
        # regular; on a ring every column sums to one and the label-matrix
        # column sums are conserved
        n = 12
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        g = build_graph(ring, n, symmetrize=True)
        a = normalize_adjacency(g, "row")
        _, x, labels, split = toy_setup(n=n, num_train=5)
        state = engcn_init(x, labels, split)
        state.stage = 1
        before = state.y_cur.sum(axis=0)
        engcn_propagate(state, a)
        after = state.y_cur.sum(axis=0)
        assert np.max(np.abs(after - before)) < 1e-12

    def test_spmm_count_and_memory(self):
        g, x, labels, split = toy_setup(n=400, d=64)
        a = normalize_adjacency(g, "sym")
        state = engcn_init(x.astype(np.float64), labels, split)
        state.stage = 1
        op_counter.reset()
        peak = traced_peak(lambda: engcn_propagate(state, a))
        assert op_counter.spmm_calls == 2
        # the new feature and label matrices, and no second feature copy
        new_bytes = state.x_cur.nbytes + state.y_cur.nbytes
        assert new_bytes <= peak < new_bytes + 0.25 * state.x_cur.nbytes


class TestStageForward:
    def test_stage_zero_ignores_psi(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3)
        state = engcn_init(x, labels, split)
        phi = init_mlp(config.phi)
        psi_a = init_mlp(config.psi)
        psi_b = init_mlp(MLPConfig([3, 8, 3], seed=99))
        batch = np.arange(20)
        out_a = engcn_stage_forward(state, phi, psi_a, config, batch)
        out_b = engcn_stage_forward(state, phi, psi_b, config, batch)
        assert np.array_equal(out_a, out_b)

    def test_zero_psi_reduces_to_phi(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3)
        a = normalize_adjacency(g, "sym")
        state = engcn_init(x, labels, split)
        state.stage = 1
        engcn_propagate(state, a)
        phi = init_mlp(config.phi)
        psi = init_mlp(config.psi)
        for w in psi.weights:
            w[:] = 0.0
        for b in psi.biases:
            b[:] = 0.0
        batch = np.arange(20)
        got = engcn_stage_forward(state, phi, psi, config, batch)
        want, _ = mlp_forward(phi, config.phi, state.x_cur[batch].astype(np.float64),
                              mode="eval")
        assert np.array_equal(got, want)

    def test_additive_in_phi_and_psi(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3)
        a = normalize_adjacency(g, "sym")
        state = engcn_init(x, labels, split)
        state.stage = 1
        engcn_propagate(state, a)
        phi = init_mlp(config.phi)
        psi = init_mlp(config.psi)
        zero_phi = init_mlp(config.phi)
        zero_psi = init_mlp(config.psi)
        for p in (zero_phi, zero_psi):
            for w in p.weights:
                w[:] = 0.0
            for b in p.biases:
                b[:] = 0.0
        batch = np.arange(20)
        both = engcn_stage_forward(state, phi, psi, config, batch)
        only_phi = engcn_stage_forward(state, phi, zero_psi, config, batch)
        only_psi = engcn_stage_forward(state, zero_phi, psi, config, batch)
        assert np.max(np.abs(both - (only_phi + only_psi))) < 1e-12

    def test_empty_batch_rejected(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3)
        state = engcn_init(x, labels, split)
        phi, psi = init_mlp(config.phi), init_mlp(config.psi)
        with pytest.raises(ValueError):
            engcn_stage_forward(state, phi, psi, config,
                                np.array([], dtype=np.int64))


class TestTrainStage:
    def test_zero_epochs_snapshot_equals_incoming(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3, epochs_per_stage=0)
        state = engcn_init(x, labels, split)
        phi, psi = init_mlp(config.phi), init_mlp(config.psi)
        w_before = [w.copy() for w in phi.weights]
        log = engcn_train_stage(state, phi, psi, config, make_rng(0))
        assert all(np.array_equal(a, b)
                   for a, b in zip(phi.weights, w_before))
        assert log.loss_curve == [] and log.steps == 0

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            g, x, labels, split = toy_setup()
            config = small_config(6, 3)
            state = engcn_init(x, labels, split)
            phi, psi = init_mlp(config.phi), init_mlp(config.psi)
            engcn_train_stage(state, phi, psi, config, make_rng(5))
            outs.append(phi)
        assert all(np.array_equal(a, b)
                   for a, b in zip(outs[0].weights, outs[1].weights))

    def test_loss_decreases_on_separable_toy(self):
        rng = make_rng(3)
        n = 50
        y = np.repeat(np.array([0, 1]), 25)
        x = (np.where(y[:, None] == 0, -2.0, 2.0)
             + 0.1 * rng.standard_normal((n, 4))).astype(np.float32)
        labels = LabelVector(y, 2)
        split = DataSplit(np.arange(40), np.arange(40, 45), np.arange(45, 50))
        g = build_graph(np.array([[0, 1]]), n, symmetrize=True)
        config = small_config(4, 2, epochs_per_stage=20)
        state = engcn_init(x, labels, split)
        phi, psi = init_mlp(config.phi), init_mlp(config.psi)
        log = engcn_train_stage(state, phi, psi, config, make_rng(0))
        assert log.loss_curve[-1] <= log.loss_curve[0]

    def test_psi_untouched_at_stage_zero(self):
        g, x, labels, split = toy_setup()
        config = small_config(6, 3)
        state = engcn_init(x, labels, split)
        phi, psi = init_mlp(config.phi), init_mlp(config.psi)
        psi_before = [w.copy() for w in psi.weights]
        engcn_train_stage(state, phi, psi, config, make_rng(1))
        assert all(np.array_equal(a, b)
                   for a, b in zip(psi.weights, psi_before))


class TestSleUpdate:
    def setup_state(self):
        g, x, labels, split = toy_setup()
        return engcn_init(x, labels, split), labels, split

    def test_threshold_one_no_growth(self):
        state, labels, split = self.setup_state()
        logits = np.zeros((20, 3))  # softmax max = 1/3 everywhere
        before = state.pseudo_train.copy()
        sle_update(state, logits, 1.0)
        assert np.array_equal(state.pseudo_train, before)
        assert state.stage == 1

    def test_confident_node_enters_with_argmax(self):
        state, labels, split = self.setup_state()
        node = np.setdiff1d(np.arange(20), split.train)[0]
        logits = np.zeros((20, 3))
        logits[node] = [0.0, 5.0, 0.0]  # softmax max ~0.987
        sle_update(state, logits, 0.9)
        assert node in state.pseudo_train
        assert state.pseudo_labels[node] == 1

    def test_true_labels_protected(self):
        state, labels, split = self.setup_state()
        node = split.train[0]
        wrong = (labels.labels[node] + 1) % 3
        logits = np.zeros((20, 3))
        logits[node, wrong] = 10.0
        sle_update(state, logits, 0.5)
        assert state.pseudo_labels[node] == labels.labels[node]

    def test_membership_monotone_label_refreshes(self):
        state, labels, split = self.setup_state()
        node = np.setdiff1d(np.arange(20), split.train)[0]
        logits = np.zeros((20, 3))
        logits[node] = [5.0, 0.0, 0.0]
        sle_update(state, logits, 0.9)
        assert state.pseudo_labels[node] == 0
        # next stage: same node clears with a different class
        logits2 = np.zeros((20, 3))
        logits2[node] = [0.0, 0.0, 5.0]
        size_before = state.pseudo_train.size
        sle_update(state, logits2, 0.9)
        assert state.pseudo_labels[node] == 2
        assert state.pseudo_train.size >= size_before
        assert node in state.pseudo_train
        # a node that stops clearing the threshold keeps membership
        logits3 = np.zeros((20, 3))
        sle_update(state, logits3, 0.9)
        assert node in state.pseudo_train

    def test_wrong_shape_rejected(self):
        state, _, _ = self.setup_state()
        with pytest.raises(ValueError):
            sle_update(state, np.zeros((5, 3)), 0.9)


class TestMajorityVote:
    def test_single_snapshot_is_argmax(self):
        rng = make_rng(2)
        logits = rng.standard_normal((30, 4))
        assert np.array_equal(majority_vote([logits]), logits.argmax(axis=1))

    def test_hand_built_two_snapshot_case(self):
        # centered scores: [1, -1] and [-1.5, 1.5]; sum [-0.5, 0.5] -> class 1
        z1 = np.array([[0.0, -2.0]])
        z2 = np.array([[-3.0, 0.0]])
        assert majority_vote([z1, z2])[0] == 1

    def test_per_node_constant_invariance(self):
        rng = make_rng(4)
        logits = [rng.standard_normal((10, 3)) for _ in range(3)]
        base = majority_vote(logits)
        shifted = [l + rng.standard_normal((10, 1)) for l in logits]
        assert np.array_equal(majority_vote(shifted), base)

    def test_tie_takes_lowest_class(self):
        z = np.array([[0.0, 0.0, 0.0]])
        assert majority_vote([z])[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            majority_vote([])


class TestRun:
    def run_fixture(self, **kw):
        spec = SyntheticSpec(num_nodes=120, num_classes=3, p_in=0.1,
                             p_out=0.01, feature_dim=6, separation=1.5,
                             noise=0.8, split_fractions=(0.2, 0.2, 0.6),
                             seed=1)
        g, x, labels, split = generate_sbm(spec)
        return engcn_trial(g, x, labels, split, small_trial(**kw))

    def test_metric_lengths(self):
        r = self.run_fixture(num_layers=2)
        assert len(r.extras["stage_val_acc"]) == 3
        assert len(r.extras["stage_test_acc"]) == 3
        assert len(r.extras["pseudo_sizes"]) == 3
        assert len(r.loss_curve) == 3 * r.config["epochs"]
        assert len(r.val_acc_curve) == 3 * r.config["epochs"]

    def test_spmm_total_is_twice_stages(self):
        for k in (0, 1, 3):
            op_counter.reset()
            self.run_fixture(num_layers=k)
            assert op_counter.spmm_calls == 2 * k

    def test_feature_memory_flat_in_stage_count(self):
        # wide features, so what each stage adds at label width (its cached
        # logits) stays small
        spec = SyntheticSpec(num_nodes=400, num_classes=3, p_in=0.05,
                             p_out=0.005, feature_dim=256, seed=1)
        g, x, labels, split = generate_sbm(spec)
        x = x.astype(np.float64)
        peaks = {}
        for k in (1, 2, 3, 5):
            cfg = small_trial(num_layers=k, batch_size=64)
            peaks[k] = traced_peak(
                lambda: engcn_trial(g, x, labels, split, cfg)) / x.nbytes
        # from stage 2 on each propagation overlaps two owned matrices; the
        # one of stage 1 reads the caller's x, and scoring all nodes copies
        # no feature matrix, so one stage stays below two matrices
        assert peaks[5] - peaks[2] < 0.25, peaks
        assert peaks[5] <= 3.0, peaks
        assert peaks[1] < 2.0, peaks

    def test_scoring_builds_no_all_node_hidden_layer(self):
        # hidden width far above the class count: one all-node float64
        # hidden layer (psi's) outweighs everything else a run holds, so
        # scoring every node at once would show in the peak
        spec = SyntheticSpec(num_nodes=2000, num_classes=4, p_in=0.01,
                             p_out=0.002, feature_dim=16, seed=0)
        g, x, labels, split = generate_sbm(spec)
        cfg = small_trial(num_layers=2, epochs=1, hidden_dim=256, batch_size=256)
        hidden_layer = 2000 * 256 * 8
        peak = traced_peak(lambda: engcn_trial(g, x, labels, split, cfg))
        assert peak < hidden_layer, peak / hidden_layer

    def test_precomputed_hops_memory_grows_linearly(self):
        spec = SyntheticSpec(num_nodes=400, num_classes=3, p_in=0.05,
                             p_out=0.005, feature_dim=64, seed=1)
        g, x, _, _ = generate_sbm(spec)
        x = x.astype(np.float64)
        a = normalize_adjacency(g, "sym")
        peaks = [traced_peak(lambda: precompute_hops(a, x, k)) / x.nbytes
                 for k in (1, 2, 4)]
        assert np.allclose(np.array(peaks) - peaks[0], [0, 1, 3], atol=0.1), peaks

    def test_pseudo_sizes_monotone(self):
        r = self.run_fixture(num_layers=3)
        sizes = r.extras["pseudo_sizes"] + [r.extras["final_pseudo_size"]]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_stage_zero_only_votes_equal_stage_logits_argmax(self):
        r = self.run_fixture(num_layers=0)
        assert len(r.extras["stage_val_acc"]) == 1

    def test_deterministic(self):
        r1 = self.run_fixture(num_layers=2)
        r2 = self.run_fixture(num_layers=2)
        assert (r1.train_acc, r1.val_acc, r1.test_acc) == \
            (r2.train_acc, r2.val_acc, r2.test_acc)
        assert r1.extras["stage_val_acc"] == r2.extras["stage_val_acc"]

    def test_cold_start_differs_from_warm(self):
        warm = self.run_fixture(num_layers=2)
        cold = self.run_fixture(num_layers=2, warm_start=False)
        assert warm.extras["stage_val_acc"][1:] != cold.extras["stage_val_acc"][1:]
