import numpy as np
import pytest

from sci import core
from sci.errors import ZeroNorm


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = core.make_rng(7).random(100)
        b = core.make_rng(7).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(core.make_rng(0).random(10),
                                  core.make_rng(1).random(10))


class TestAsF32:
    def test_dtype(self):
        assert core.as_f32([1.0, 2.0]).dtype == np.float32

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            core.as_f32([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            core.as_f32([float("inf")])


class TestL2Normalize:
    """One vector is normalized as a one-row batch."""

    def test_three_four_five(self):
        assert np.allclose(core.row_normalize(np.array([[3.0, 4.0]])),
                           [[0.6, 0.8]])

    def test_unit_vector_unchanged(self):
        v = np.array([[0.0, 1.0]])
        assert np.allclose(core.row_normalize(v), v)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroNorm):
            core.row_normalize(np.array([[0.0, 0.0]]))

    def test_unit_norm_property(self, rng):
        for _ in range(20):
            v = rng.normal(size=(1, 8))
            n = np.linalg.norm(core.row_normalize(v)[0])
            assert n == pytest.approx(1.0, abs=1e-6)


class TestSquaredL2Distance:
    """One distance is a 1 x 1 pairwise_sq_dists."""

    def test_identical_is_zero(self, rng):
        a = rng.normal(size=(1, 8)).astype(np.float32)
        assert core.pairwise_sq_dists(a, a)[0, 0] == 0.0

    def test_direct_arithmetic(self):
        assert core.pairwise_sq_dists(np.array([[0.0, 0.0]]),
                                      np.array([[3.0, 4.0]]))[0, 0] == 25.0

    def test_matches_expansion_identity(self, rng):
        a = rng.normal(size=32).astype(np.float32)
        b = rng.normal(size=32).astype(np.float32)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        expansion = a64 @ a64 - 2.0 * (a64 @ b64) + b64 @ b64
        assert core.pairwise_sq_dists(a[None], b[None])[0, 0] == \
            pytest.approx(expansion, rel=1e-5)


class TestRowNormalize:
    def test_rows_unit(self, rng):
        x = rng.normal(size=(5, 4))
        out = core.row_normalize(x)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    def test_zero_row_raises(self):
        with pytest.raises(ZeroNorm):
            core.row_normalize(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestPairwiseSqDists:
    def test_matches_scalar_routine(self, rng):
        x = rng.normal(size=(7, 5)).astype(np.float32)
        c = rng.normal(size=(3, 5)).astype(np.float32)
        d = core.pairwise_sq_dists(x, c)
        for i in range(7):
            for j in range(3):
                diff = x[i].astype(np.float64) - c[j].astype(np.float64)
                assert d[i, j] == pytest.approx(
                    sum(float(v) * float(v) for v in diff), rel=1e-12)

    def test_row_subset_is_bitwise_stable(self, rng):
        # Scoring a subset of rows must give the exact same numbers as
        # scoring everything and slicing: exhaustive-probe search relies on it.
        x = rng.normal(size=(20, 6)).astype(np.float32)
        c = rng.normal(size=(1, 6)).astype(np.float32)
        full = core.pairwise_sq_dists(x, c)
        subset = core.pairwise_sq_dists(x[4:9], c)
        assert np.array_equal(full[4:9], subset)
