import numpy as np
import pytest

from sci import encoder, training
from sci.core import make_rng
from sci.errors import (DegenerateTriplet, DimensionMismatch, Diverged,
                        KinkTooClose)

from conftest import clone_model, linear_model, mlp_model, random_batch


def one_triplet(q, pos, neg):
    return training.TripletBatch(np.array([q], dtype=np.float32),
                                 np.array([pos], dtype=np.float32),
                                 np.array([neg], dtype=np.float32))


def raw_identity_model(dim):
    """Both towers = identity, no output normalization: similarities are the
    raw dot products of the inputs themselves."""
    m = linear_model(dim, dim, normalize=False)
    m.params_q["W"] = np.eye(dim, dtype=np.float32)
    m.params_i["W"] = np.eye(dim, dtype=np.float32)
    return m


def direct_loss(m, batch, delta):
    """The direct-path hinge, as reported by `grad` (lambda 0: no swap pass)."""
    return training.grad(m, batch, training.LossConfig(delta, 0.0)).loss_original


def swap_loss(m, batch, delta):
    """The swapped-path hinge, as reported by `grad`."""
    return training.grad(m, batch, training.LossConfig(delta, 1.0)).loss_swap


class TestLossConfig:
    def test_convex_weights(self):
        assert training.LossConfig(0.2, 0.3, "convex").weights() == (0.7, 0.3)

    def test_additive_weights(self):
        assert training.LossConfig(0.2, 0.3, "additive").weights() == (1.0, 0.3)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            training.LossConfig(0.2, 1.5)

    def test_margin_positive(self):
        with pytest.raises(ValueError):
            training.LossConfig(0.0, 0.3)

    def test_unknown_combine_mode(self):
        with pytest.raises(ValueError, match="unknown combine_mode 'x'"):
            training.LossConfig(0.2, 0.3, "x")


class TestLossOriginal:
    def test_hinge_arithmetic(self):
        # S+ = 0.9, S- = 0.1, delta = 1.0 -> max(0, 1 - 0.9 + 0.1) = 0.2
        m = raw_identity_model(2)
        batch = one_triplet([1.0, 0.0], [0.9, 0.0], [0.1, 0.0])
        assert direct_loss(m, batch, 1.0) == pytest.approx(0.2, abs=1e-7)

    def test_inactive_hinge_zero(self):
        m = raw_identity_model(2)
        batch = one_triplet([1.0, 0.0], [2.0, 0.0], [-2.0, 0.0])
        assert direct_loss(m, batch, 0.5) == 0.0

    def test_batch_mean_matches_per_triplet_oracle(self, rng):
        m = raw_identity_model(3)
        qs = rng.normal(size=(3, 3)).astype(np.float32)
        ps = rng.normal(size=(3, 3)).astype(np.float32)
        ns = rng.normal(size=(3, 3)).astype(np.float32)
        delta = 0.3
        oracle = np.mean([max(0.0, delta - q @ p + q @ n)
                          for q, p, n in zip(qs.astype(np.float64),
                                             ps.astype(np.float64),
                                             ns.astype(np.float64))])
        batch = training.TripletBatch(qs, ps, ns)
        assert direct_loss(m, batch, delta) == pytest.approx(oracle, abs=1e-6)


class TestLossSwap:
    def test_symmetric_parameters_make_swap_equal(self, rng):
        m = linear_model(4, 4, seed=5)
        m.params_i = {k: v.copy() for k, v in m.params_q.items()}
        batch = random_batch(rng, 6, 4)
        assert swap_loss(m, batch, 0.2) == direct_loss(m, batch, 0.2)

    def test_inactive_hinges_zero(self):
        m = raw_identity_model(2)
        batch = one_triplet([1.0, 0.0], [2.0, 0.0], [-2.0, 0.0])
        assert swap_loss(m, batch, 0.5) == 0.0

    def test_matches_explicit_routing_oracle(self, rng):
        m = linear_model(4, 3, seed=9)
        batch = random_batch(rng, 5, 4)
        delta = 0.2
        fq = lambda x: encoder.encode_batch(m, encoder.QUERY,
                                            x[None])[0].astype(np.float64)
        fi = lambda x: encoder.encode_batch(m, encoder.ITEM,
                                            x[None])[0].astype(np.float64)
        oracle = np.mean([
            max(0.0, delta - fi(q) @ fq(p) + fi(q) @ fq(n))
            for q, p, n in zip(batch.queries, batch.pos_items, batch.neg_items)])
        assert swap_loss(m, batch, delta) == pytest.approx(oracle, abs=1e-6)


class TestLossTotal:
    def test_lambda_zero_equals_original(self, rng):
        m = linear_model(4, 3)
        batch = random_batch(rng, 4, 4)
        for mode in (training.CONVEX, training.ADDITIVE):
            cfg = training.LossConfig(0.2, 0.0, mode)
            assert training.grad(m, batch, cfg).loss_value == \
                direct_loss(m, batch, 0.2)

    @staticmethod
    def _assert_weighted_sum(rng, mode):
        m = linear_model(4, 3, seed=3)
        batch = random_batch(rng, 6, 4)
        cfg = training.LossConfig(0.2, 0.3, mode)
        report = training.grad(m, batch, cfg)
        w_o, w_s = cfg.weights()
        assert report.loss_original > 0.0 and report.loss_swap > 0.0
        assert report.loss_value == \
            w_o * report.loss_original + w_s * report.loss_swap

    def test_convex_arithmetic(self, rng):
        self._assert_weighted_sum(rng, training.CONVEX)

    def test_additive_arithmetic(self, rng):
        self._assert_weighted_sum(rng, training.ADDITIVE)


class TestGrad:
    def test_inactive_hinges_zero_gradient(self):
        m = raw_identity_model(2)
        batch = one_triplet([1.0, 0.0], [5.0, 0.0], [-5.0, 0.0])
        report = training.grad(m, batch, training.LossConfig(0.5, 0.3))
        for g in list(report.grad_q.values()) + list(report.grad_i.values()):
            assert np.all(g == 0.0)

    def test_lambda_zero_no_swap_contribution(self, rng):
        # With lambda = 0, mutating the swap path's routing (items through the
        # query tower) cannot change anything: gradients must equal the
        # original-path-only gradient computed by finite differences.
        m = linear_model(3, 3, seed=11)
        batch = random_batch(rng, 4, 3)
        cfg = training.LossConfig(0.2, 0.0)
        report = training.grad(m, batch, cfg)
        assert report.loss_swap == 0.0
        h = 1e-5
        for params, analytic in ((m.params_q, report.grad_q),
                                 (m.params_i, report.grad_i)):
            w = params["W"]
            for idx in np.ndindex(w.shape):
                orig = w[idx]
                w[idx] = np.float32(orig + h)
                lp = direct_loss(m, batch, 0.2)
                w[idx] = np.float32(orig - h)
                lm = direct_loss(m, batch, 0.2)
                # Parameters are stored in float32, so the step actually
                # applied is the rounded one.
                step = float(np.float32(orig + h)) - float(np.float32(orig - h))
                w[idx] = orig
                numeric = (lp - lm) / step
                assert analytic["W"][idx] == pytest.approx(numeric, abs=2e-3)

    def test_matches_finite_differences(self, rng):
        m = linear_model(4, 4, seed=13)
        batch = random_batch(rng, 6, 4)
        err = training.grad_check(m, batch, training.LossConfig(0.2, 0.3), 1e-5)
        assert err < 1e-4


class TestGradCheck:
    def test_linear(self, rng):
        m = linear_model(4, 4, seed=1)
        batch = random_batch(rng, 8, 4)
        assert training.grad_check(m, batch,
                                   training.LossConfig(0.2, 0.3), 1e-5) < 1e-4

    def test_mlp(self, rng):
        m = mlp_model(4, 3, hidden=5, seed=2)
        batch = random_batch(rng, 6, 4)
        assert training.grad_check(m, batch,
                                   training.LossConfig(0.2, 0.3), 1e-5) < 1e-3

    def test_kink_guard(self):
        m = raw_identity_model(2)
        # hinge argument is exactly 0: delta - S+ + S- = 0.5 - 0.5 + 0.0
        batch = one_triplet([1.0, 0.0], [0.5, 0.0], [0.0, 0.0])
        with pytest.raises(KinkTooClose):
            training.grad_check(m, batch, training.LossConfig(0.5, 0.0), 1e-5)

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_step_must_be_positive(self, rng, h):
        m = linear_model(4, 4, seed=1)
        with pytest.raises(ValueError, match="h must be positive"):
            training.grad_check(m, random_batch(rng, 8, 4),
                                training.LossConfig(0.2, 0.3), h)


class TestTrain:
    def _dataset(self, rng, n_batches=4):
        return [random_batch(rng, 8, 4) for _ in range(n_batches)]

    def test_zero_learning_rate_is_identity(self, rng):
        m = linear_model(4, 4, seed=3)
        before = clone_model(m)
        cfg = training.TrainConfig(3, 0.0, 0)
        m, _ = training.train(m, self._dataset(rng), cfg)
        assert m == before

    def test_deterministic(self, rng):
        data = self._dataset(rng)
        cfg = training.TrainConfig(5, 0.1, 42)
        m1, h1 = training.train(linear_model(4, 4, seed=3), data, cfg)
        m2, h2 = training.train(linear_model(4, 4, seed=3), data, cfg)
        assert m1 == m2
        assert h1 == h2

    def test_loss_decreases_on_learnable_data(self, rng):
        # Positives share the query's direction, negatives oppose it.
        qs = rng.normal(size=(64, 4)).astype(np.float32)
        norm = qs / np.linalg.norm(qs, axis=1, keepdims=True)
        noise = 0.05 * rng.normal(size=(64, 4)).astype(np.float32)
        batches = [training.TripletBatch(qs[i:i + 16],
                                         (norm + noise)[i:i + 16],
                                         (-norm + noise)[i:i + 16])
                   for i in range(0, 64, 16)]
        cfg = training.TrainConfig(200, 0.05, 0, training.LossConfig(0.2, 0.3))
        _, history = training.train(linear_model(4, 4, seed=5), batches, cfg)
        assert history[-1][3] < history[0][3]

    def test_zero_epochs_leave_the_model(self, rng):
        m = linear_model(4, 4, seed=3)
        before = clone_model(m)
        m, history = training.train(m, self._dataset(rng),
                                    training.TrainConfig(0, 0.1, 0))
        assert m == before and history == []

    # a float is not truncated by `range`, and a bool is not one epoch
    @pytest.mark.parametrize("epochs", [-1, -200, 2.5, True])
    def test_negative_epochs(self, epochs):
        with pytest.raises(ValueError, match=f"epochs .* got {epochs}"):
            training.TrainConfig(epochs, 0.05, 0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"),
                                    float("-inf")])
    def test_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError,
                           match=f"learning_rate must be finite, got {lr}"):
            training.TrainConfig(1, lr, 0)

    def test_last_update_of_an_epoch_is_checked(self, rng):
        # One batch per epoch: no later loss would see the overflowed update.
        m = linear_model(4, 4, seed=3)
        with pytest.raises(Diverged) as exc:
            training.train(m, self._dataset(rng, n_batches=1),
                           training.TrainConfig(2, 1e300, 0))
        assert exc.value.epoch == 0

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="empty dataset"):
            training.train(linear_model(4, 4), [],
                           training.TrainConfig(1, 0.1, 0))

    def test_history_shape(self, rng):
        cfg = training.TrainConfig(4, 0.01, 0)
        _, history = training.train(linear_model(4, 4), self._dataset(rng), cfg)
        assert [row[0] for row in history] == [0, 1, 2, 3]
        assert all(len(row) == 4 for row in history)


class TestSymmetrizationOperator:
    def test_orthogonal_pair(self):
        out = training.symmetrization_operator([1.0, 0.0], [0.0, 1.0])
        assert np.allclose(out, [[0.0, 0.5], [0.5, 0.0]])

    def test_parallel_pair(self):
        out = training.symmetrization_operator([1.0, 0.0], [1.0, 0.0])
        assert np.allclose(out, [[1.0, 0.0], [0.0, 0.0]])

    def test_zero_delta(self):
        out = training.symmetrization_operator([1.0, 2.0], [0.0, 0.0])
        assert np.all(out == 0.0)

    def test_always_symmetric(self, rng):
        for _ in range(10):
            out = training.symmetrization_operator(rng.normal(size=5),
                                                   rng.normal(size=5))
            assert np.array_equal(out, out.T)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"\(2,\) vs \(3,\)"):
            training.symmetrization_operator([1.0, 0.0], [1.0, 0.0, 0.0])


class TestLinearGradClosedForm:
    def test_worked_example(self):
        out = training.linear_grad_closed_form(
            np.eye(2), np.eye(2), [1.0, 0.0], [0.0, -1.0], [0.0, 0.0], 0.5)
        assert np.allclose(out, [[0.0, 0.5], [1.0, 0.0]])

    def test_lambda_zero_is_direct_term(self, rng):
        w = rng.normal(size=(3, 3)).astype(np.float32)
        q = rng.normal(size=3)
        pos = rng.normal(size=3)
        neg = rng.normal(size=3)
        out = training.linear_grad_closed_form(w, w, q, pos, neg, 0.0)
        expected = w.astype(np.float64) @ np.outer(neg - pos, q)
        assert np.allclose(out, expected, atol=1e-6)

    def test_parallel_case(self):
        out = training.linear_grad_closed_form(
            np.eye(2), np.eye(2), [1.0, 0.0], [0.0, 0.0], [1.0, 0.0], 0.3)
        assert np.allclose(out, [[1.3, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("w_i, q, message", [
        # Without its check, the first would return a gradient and the
        # second a bare numpy error.
        (np.ones((4, 3)), [1.0, 0.0, 0.0], "inconsistent shapes"),
        (np.ones((2, 3)), [1.0, 0.0, 0.0, 0.0], "weight/input dim mismatch")],
        ids=["towers-differ", "input-width"])
    def test_shape_mismatch(self, w_i, q, message):
        with pytest.raises(DimensionMismatch, match=message):
            training.linear_grad_closed_form(np.ones((2, 3)), w_i, q,
                                             np.zeros(len(q)), np.ones(len(q)),
                                             0.5)


class TestCollapseProbe:
    def test_lambda_zero(self):
        r = training.collapse_probe(np.eye(2), np.eye(2), [1.0, 0.0],
                                    [0.0, 0.0], [0.0, 1.0], 0.0)
        assert r.kind == "lambda_zero"

    def test_parallel(self):
        r = training.collapse_probe(np.eye(2), np.eye(2), [2.0, 0.0],
                                    [0.0, 0.0], [1.0, 0.0], 0.3)
        assert r.kind == "parallel"
        assert r.cosine == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        r = training.collapse_probe(np.eye(2), np.eye(2), [1.0, 0.0],
                                    [0.0, 0.0], [0.0, 1.0], 0.3)
        assert r.kind == "orthogonal"

    def test_independent(self, rng):
        r = training.collapse_probe(rng.normal(size=(3, 3)),
                                    rng.normal(size=(3, 3)),
                                    [1.0, 0.2, -0.3], [0.0, 0.1, 0.4],
                                    [0.5, -0.6, 0.2], 0.3)
        assert r.kind == "independent"

    def test_degenerate_triplet(self):
        with pytest.raises(DegenerateTriplet):
            training.collapse_probe(np.eye(2), np.eye(2), [1.0, 0.0],
                                    [0.5, 0.5], [0.5, 0.5], 0.3)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match=r"\(2,\) vs \(3,\)"):
            training.collapse_probe(np.eye(2), np.eye(2), [1.0, 0.0],
                                    [0.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.3)


class TestTripletBatch:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            training.TripletBatch(np.zeros((2, 3)), np.zeros((2, 3)),
                                  np.zeros((3, 3)))

    def test_records_compare_by_value(self, rng):
        m = linear_model(4, 4)
        cfg = training.LossConfig()
        a = random_batch(rng, 8, 4)
        b = training.TripletBatch(a.queries.copy(), a.pos_items.copy(),
                                  a.neg_items.copy())
        assert a == b
        ga, gb = training.grad(m, a, cfg), training.grad(m, b, cfg)
        assert ga == gb
        b.neg_items[3, 1] += 1.0
        gb.grad_i["W"][0, 0] += 1.0
        assert a != b and ga != gb

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            training.TripletBatch(np.zeros((0, 3)), np.zeros((0, 3)),
                                  np.zeros((0, 3)))
