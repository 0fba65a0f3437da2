import numpy as np
import pytest

from sci import diagnostics, encoder, training
from sci.data_io import SyntheticSpec, gen_synthetic
from sci.errors import DimensionMismatch

from conftest import linear_model


def pair_model(dim, seed=0, normalize=True, symmetric=False):
    m = linear_model(dim, dim, seed=seed, normalize=normalize)
    if symmetric:
        m.params_i = {k: v.copy() for k, v in m.params_q.items()}
    return m


class TestAlignmentError:
    def test_symmetric_parameters_give_zero(self, rng):
        m = pair_model(4, symmetric=True)
        pairs = rng.normal(size=(5, 2, 4))
        assert diagnostics.alignment_error(
            m, pairs[:, 0], pairs[:, 1]).alignment_error == 0.0

    def test_matches_four_encode_oracle(self, rng):
        m = pair_model(3, seed=6)
        pairs = rng.normal(size=(2, 2, 3))
        gaps = []
        for q, i in pairs:
            direct = float(
                encoder.encode_batch(m, encoder.QUERY, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.ITEM, i)[0].astype(np.float64))
            swapped = float(
                encoder.encode_batch(m, encoder.ITEM, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.QUERY, i)[0].astype(np.float64))
            gaps.append((direct - swapped) ** 2)
        report = diagnostics.alignment_error(m, pairs[:, 0], pairs[:, 1])
        assert report.alignment_error == pytest.approx(np.mean(gaps), rel=1e-6)
        assert report.n_pairs == 2

    def test_similarity_gap_arithmetic(self):
        # Similarities 0.9 direct vs 0.7 swapped -> squared gap 0.04.
        assert (0.9 - 0.7) ** 2 == pytest.approx(0.04)

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError):
            diagnostics.alignment_error(pair_model(3), [], [])

    def test_pair_arrays_must_line_up(self, rng):
        m = pair_model(3)
        qs = rng.normal(size=(4, 3))
        for items in (qs[:3], qs[:, :2], qs[0]):
            with pytest.raises(DimensionMismatch):
                diagnostics.alignment_error(m, qs, items)


class TestAnisotropy:
    def test_isotropic_cloud_cond_near_one(self, rng):
        m = pair_model(6, normalize=False)
        m.params_q["W"] = np.eye(6, dtype=np.float32)
        m.params_i["W"] = np.eye(6, dtype=np.float32)
        x = rng.normal(size=(8000, 6)).astype(np.float32)
        report = diagnostics.anisotropy(m, x)
        assert report.cond_q < 1.3
        assert report.cond_i < 1.3
        assert not report.floored_q

    def test_rank_one_cloud_hits_floor(self, rng):
        m = pair_model(4, normalize=False)
        m.params_q["W"] = np.eye(4, dtype=np.float32)
        direction = np.array([1.0, 2.0, 0.5, -1.0], dtype=np.float32)
        x = np.outer(rng.normal(size=50), direction).astype(np.float32)
        report = diagnostics.anisotropy(m, x)
        assert report.floored_q
        cov = np.cov(x @ m.params_q["W"].T, rowvar=False)
        lam_max = float(np.linalg.eigvalsh(cov)[-1])
        assert report.cond_q == pytest.approx(lam_max / diagnostics.EPS_DEFAULT,
                                              rel=1e-4)

    def test_whitened_inputs_give_squared_weight_ratio(self):
        # Four zero-mean, orthogonal +-1 columns of a Sylvester Hadamard
        # matrix plus a zero row: X^T X = 8 I over 9 rows, so the sample
        # covariance is exactly I, the raw-score embedding covariance is
        # W W^T = diag(1, 4, 9, 16) and its condition number is 16.
        h2 = np.array([[1.0, 1.0], [1.0, -1.0]])
        h8 = np.kron(np.kron(h2, h2), h2)
        x = np.vstack([h8[:, 1:5], np.zeros((1, 4))]).astype(np.float32)
        assert np.array_equal(diagnostics._sample_cov(x), np.eye(4))
        m = pair_model(4, normalize=False)
        m.params_q["W"] = np.diag([1.0, 2.0, 3.0, 4.0]).astype(np.float32)
        m.params_i["W"] = np.eye(4, dtype=np.float32)
        report = diagnostics.anisotropy(m, x)
        assert report.cond_q == pytest.approx(16.0)
        assert report.cond_i == pytest.approx(1.0)
        assert not report.floored_q and not report.floored_i

    def test_one_dimensional_output(self, rng):
        m = linear_model(3, 1, seed=4, normalize=False)
        report = diagnostics.anisotropy(m, rng.normal(size=(20, 3)))
        assert report.cond_q == 1.0
        assert report.cond_i == 1.0
        assert not report.floored_q and not report.floored_i

    def test_identical_towers_zero_gap(self, rng):
        m = pair_model(4, symmetric=True)
        report = diagnostics.anisotropy(m, rng.normal(size=(100, 4)))
        assert report.cov_fro_gap == 0.0

    def test_needs_enough_inputs(self, rng):
        m = pair_model(4)
        with pytest.raises(ValueError):
            diagnostics.anisotropy(m, rng.normal(size=(3, 4)))


class TestPairSimilarityStats:
    def _fixed_similarity_model(self):
        # Identity towers without normalization: similarity = raw dot product.
        m = pair_model(2, normalize=False)
        m.params_q["W"] = np.eye(2, dtype=np.float32)
        m.params_i["W"] = np.eye(2, dtype=np.float32)
        return m

    def test_identical_similarities(self):
        m = self._fixed_similarity_model()
        s = diagnostics.pair_similarity_stats(m, [[0.5, 0.0]] * 2,
                                              [[1.0, 0.0]] * 2)
        assert (s.mean, s.median, s.min, s.max, s.std) == (0.5, 0.5, 0.5, 0.5, 0.0)

    def test_three_values(self):
        m = self._fixed_similarity_model()
        s = diagnostics.pair_similarity_stats(
            m, [[v, 0.0] for v in (0.2, 0.4, 0.9)], [[1.0, 0.0]] * 3)
        assert s.mean == pytest.approx(0.5, abs=1e-7)
        assert s.median == pytest.approx(0.4, abs=1e-7)
        assert s.min == pytest.approx(0.2, abs=1e-7)
        assert s.max == pytest.approx(0.9, abs=1e-7)

    def test_even_count_median_is_lower_middle(self):
        m = self._fixed_similarity_model()
        queries = [[v, 0.0] for v in (0.1, 0.2, 0.3, 0.4)]
        assert diagnostics.pair_similarity_stats(
            m, queries, [[1.0, 0.0]] * 4).median == \
            pytest.approx(0.2, abs=1e-7)

    def test_training_raises_pair_similarity(self):
        spec = SyntheticSpec(400, 50, 8, 4, 0.8, 0.1, 0)
        data = gen_synthetic(spec)
        q_rows = sorted(data.qrels)
        i_rows = [next(iter(data.qrels[q])) for q in q_rows]
        pairs = data.query_features[q_rows], data.item_features[i_rows]
        m = pair_model(8, seed=1)
        before = diagnostics.pair_similarity_stats(m, *pairs).mean
        cfg = training.TrainConfig(30, 0.05, 0,
                                   training.LossConfig(0.2, 0.3, "additive"))
        m, _ = training.train(m, data.triplets, cfg)
        after = diagnostics.pair_similarity_stats(m, *pairs).mean
        assert after > before


class TestDiagnose:
    def test_report_keys(self, rng):
        m = pair_model(4, seed=2)
        pairs = rng.normal(size=(6, 2, 4))
        report = diagnostics.diagnose(m, pairs[:, 0], pairs[:, 1],
                                      rng.normal(size=(30, 4)))
        assert set(report) == {"alignment_error", "n_pairs", "cond_q",
                               "cond_i", "cov_fro_gap", "pair_stats"}
        assert set(report["pair_stats"]) == {"mean", "median", "min", "max",
                                             "std"}

    def test_encodes_each_pair_tower_once(self, rng):
        # direct and swapped similarities (2 towers x 2 sides each) plus both
        # towers over the pooled inputs: the direct pairs are shared with the
        # pair statistics, not encoded again
        m = pair_model(4, seed=2)
        pairs = rng.normal(size=(6, 2, 4))
        before = m.encode_calls
        diagnostics.diagnose(m, pairs[:, 0], pairs[:, 1],
                             rng.normal(size=(30, 4)))
        assert m.encode_calls - before == 4 * 6 + 2 * 30

    def test_matches_the_public_reports(self, rng):
        m = pair_model(4, seed=3)
        pairs = rng.normal(size=(7, 2, 4))
        report = diagnostics.diagnose(m, pairs[:, 0], pairs[:, 1],
                                      rng.normal(size=(30, 4)))
        align = diagnostics.alignment_error(m, pairs[:, 0], pairs[:, 1])
        stats = diagnostics.pair_similarity_stats(m, pairs[:, 0], pairs[:, 1])
        assert report["alignment_error"] == align.alignment_error
        assert report["pair_stats"] == vars(stats)
