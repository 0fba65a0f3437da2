import numpy as np
import pytest

from sci import encoder
from sci.core import make_rng
from sci.errors import DimensionMismatch

from conftest import linear_model, mlp_model


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = linear_model(8, 4, seed=3)
        b = linear_model(8, 4, seed=3)
        assert a == b

    def test_linear_shapes(self):
        m = linear_model(8, 4)
        assert m.params_q["W"].shape == (4, 8)
        assert set(m.params_q) == {"W"}

    def test_mlp_shapes(self):
        m = mlp_model(8, 4, hidden=16)
        assert m.params_q["W1"].shape == (16, 8)
        assert m.params_q["W2"].shape == (4, 16)
        assert m.params_q["b1"].shape == (16,)
        assert m.params_q["b2"].shape == (4,)

    def test_towers_independent(self):
        m = linear_model(8, 4)
        assert not np.array_equal(m.params_q["W"], m.params_i["W"])

    def test_bound_respected(self):
        m = linear_model(16, 16, seed=1)
        bound = 1.0 / np.sqrt(16)
        for p in (m.params_q["W"], m.params_i["W"]):
            assert np.all(np.abs(p) <= bound)

    def test_mlp_biases_zero(self):
        m = mlp_model(8, 4, hidden=8)
        assert np.all(m.params_q["b1"] == 0.0)
        assert np.all(m.params_q["b2"] == 0.0)

    def test_bad_arch(self):
        with pytest.raises(ValueError):
            encoder.init("conv", 8, 4, make_rng(0))

    def test_mlp_needs_hidden(self):
        with pytest.raises(ValueError):
            encoder.init(encoder.MLP1, 8, 4, make_rng(0))

    @pytest.mark.parametrize("arch, dims", [(encoder.LINEAR, (0, 4, 3)),
                                            (encoder.LINEAR, (8, 0, 3)),
                                            (encoder.MLP1, (0, 4, 3)),
                                            (encoder.MLP1, (8, -1, 3)),
                                            (encoder.LINEAR, (True, 4, 3)),
                                            (encoder.LINEAR, (8, 4.0, 3)),
                                            (encoder.MLP1, (8, 4, True))])
    def test_dims_below_one(self, arch, dims):
        # dims: input_dim, output_dim, hidden_dim; a bool or a float is
        # refused by name before any range is read
        typed = [f"{name} must be an integer, got {dim}" for name, dim in zip(
            ("input_dim", "output_dim", "hidden_dim"), dims)
            if type(dim) is not int]
        match = typed[0] if typed else f"no {arch} model"
        with pytest.raises(ValueError, match=match):
            encoder.init(arch, *dims[:2], make_rng(0), hidden_dim=dims[2])


class TestLayout:
    def test_names_and_shapes_in_draw_order(self):
        assert list(encoder.DualTowerModel.layout(
            encoder.LINEAR, 8, 4, 0).items()) == [("W", (4, 8))]
        assert list(encoder.DualTowerModel.layout(
            encoder.MLP1, 8, 4, 6).items()) == [
                ("W1", (6, 8)), ("b1", (6,)), ("W2", (4, 6)), ("b2", (4,))]


class TestEncode:
    """One input vector is encoded as a batch of one row."""

    def test_identity_map_unit_input(self):
        m = linear_model(2, 2)
        m.params_q["W"] = np.eye(2, dtype=np.float32)
        out = encoder.encode_batch(m, encoder.QUERY, [[0.6, 0.8]])
        assert np.allclose(out, [[0.6, 0.8]], atol=1e-6)

    def test_normalization_absorbs_scale(self):
        m = linear_model(2, 2)
        m.params_q["W"] = 2.0 * np.eye(2, dtype=np.float32)
        out = encoder.encode_batch(m, encoder.QUERY, [[1.0, 0.0]])
        assert np.allclose(out, [[1.0, 0.0]], atol=1e-6)

    def test_mlp_matches_straight_line_oracle(self):
        m = mlp_model(4, 3, hidden=5, seed=7, normalize=False)
        x = np.array([0.3, -0.2, 0.5, 0.1])
        p = m.params_i
        h = np.tanh(p["W1"].astype(np.float64) @ x + p["b1"])
        expected = p["W2"].astype(np.float64) @ h + p["b2"]
        out = encoder.encode_batch(m, encoder.ITEM, x[None])[0]
        assert np.allclose(out, expected, atol=1e-5)

    def test_unit_output_when_normalized(self, rng):
        m = mlp_model(6, 4, hidden=8, seed=2)
        out = encoder.encode_batch(m, encoder.QUERY, rng.normal(size=(1, 6)))[0]
        assert np.linalg.norm(out.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)

    def test_dimension_mismatch(self):
        m = linear_model(4, 4)
        with pytest.raises(DimensionMismatch):
            encoder.encode_batch(m, encoder.QUERY, [[1.0, 2.0]])

    def test_either_tower_accepts_either_input(self, rng):
        # The swap mechanism needs both towers to accept the same input space.
        m = linear_model(4, 3)
        x = rng.normal(size=(1, 4))
        q = encoder.encode_batch(m, encoder.QUERY, x)
        i = encoder.encode_batch(m, encoder.ITEM, x)
        assert q.shape == i.shape == (1, 3)


class TestEncodeBatch:
    def test_empty_batch(self):
        for m in (linear_model(4, 3), mlp_model(4, 3, hidden=5)):
            out = encoder.encode_batch(m, encoder.QUERY, np.zeros((0, 4)))
            assert out.shape == (0, 3) and out.dtype == np.float32
            assert m.encode_calls == 0

    def test_empty_batch_still_checks_the_tower(self):
        with pytest.raises(ValueError, match="unknown tower"):
            encoder.encode_batch(linear_model(4, 3), "other", np.zeros((0, 4)))

    def test_singleton_equals_encode(self, rng):
        m = linear_model(4, 3)
        x = rng.normal(size=4).astype(np.float32)
        assert np.array_equal(encoder.encode_batch(m, encoder.ITEM, [x]),
                              encoder.encode_batch(m, encoder.ITEM, x[None]))

    @pytest.mark.parametrize("shape", [(4,), (0,), (1, 1, 4)])
    def test_only_two_dimensional_batches(self, shape):
        m = linear_model(4, 3)
        with pytest.raises(DimensionMismatch, match="input_dim 4"):
            encoder.encode_batch(m, encoder.QUERY, np.zeros(shape))
        assert m.encode_calls == 0

    def test_batch_equals_loop(self, rng):
        m = mlp_model(5, 4, hidden=6, seed=4)
        xs = rng.normal(size=(100, 5)).astype(np.float32)
        batched = encoder.encode_batch(m, encoder.QUERY, xs)
        looped = np.concatenate([encoder.encode_batch(m, encoder.QUERY, row)
                                 for row in xs[:, None]])
        assert np.array_equal(batched, looped)

    def test_encode_calls_counter(self, rng):
        m = linear_model(4, 3)
        assert m.encode_calls == 0
        encoder.encode_batch(m, encoder.QUERY, rng.normal(size=(10, 4)))
        assert m.encode_calls == 10
        encoder.encode_batch(m, encoder.ITEM, rng.normal(size=(1, 4)))
        assert m.encode_calls == 11

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, rng, bad):
        m = linear_model(4, 3)
        xs = rng.normal(size=(5, 4))
        xs[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            encoder.encode_batch(m, encoder.QUERY, xs)
        assert m.encode_calls == 0
