import numpy as np
import pytest

from sci import diagnostics, encoder, training
from sci.core import make_rng
from sci.data_io import SyntheticSpec, gen_synthetic

from conftest import linear_model


def pair_model(dim, seed=0, normalize=True, symmetric=False):
    m = linear_model(dim, dim, seed=seed, normalize=normalize)
    if symmetric:
        m.params_i = {k: v.copy() for k, v in m.params_q.items()}
    return m


class TestAlignmentError:
    def test_symmetric_parameters_give_zero(self, rng):
        m = pair_model(4, symmetric=True)
        pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(5)]
        assert diagnostics.alignment_error(m, pairs).alignment_error == 0.0

    def test_matches_four_encode_oracle(self, rng):
        m = pair_model(3, seed=6)
        pairs = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(2)]
        gaps = []
        for q, i in pairs:
            direct = float(
                encoder.encode_batch(m, encoder.QUERY, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.ITEM, i)[0].astype(np.float64))
            swapped = float(
                encoder.encode_batch(m, encoder.ITEM, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.QUERY, i)[0].astype(np.float64))
            gaps.append((direct - swapped) ** 2)
        report = diagnostics.alignment_error(m, pairs)
        assert report.alignment_error == pytest.approx(np.mean(gaps), rel=1e-6)
        assert report.n_pairs == 2

    def test_similarity_gap_arithmetic(self):
        # Similarities 0.9 direct vs 0.7 swapped -> squared gap 0.04.
        assert (0.9 - 0.7) ** 2 == pytest.approx(0.04)

    def test_empty_pairs_raise(self):
        with pytest.raises(ValueError):
            diagnostics.alignment_error(pair_model(3), [])


class TestJacobiEigenvalues:
    def test_diagonal_matrix(self):
        evals = diagnostics.jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(evals, [1.0, 2.0, 3.0])

    def test_matches_reference_eigensolver(self, rng):
        for _ in range(10):
            a = rng.normal(size=(8, 8))
            sym = (a + a.T) / 2.0
            ours = diagnostics.jacobi_eigenvalues(sym)
            ref = np.linalg.eigvalsh(sym)
            assert np.allclose(ours, ref, rtol=1e-6, atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            diagnostics.jacobi_eigenvalues(np.zeros((2, 3)))

    def test_one_by_one(self):
        assert diagnostics.jacobi_eigenvalues([[4.0]]) == [4.0]

    def test_stops_once_converged(self, monkeypatch):
        # A d=64 query-tower covariance as `sci diagnose` builds it, on which
        # an off-diagonal measure of total minus diagonal mass stalls at
        # rounding noise above tol and runs every sweep.
        data = gen_synthetic(SyntheticSpec(3000, 300, 64, 8, 0.8, 0.5, seed=3))
        model = encoder.init(encoder.MLP1, 64, 64, make_rng(3), hidden_dim=32)
        pool = np.concatenate([data.query_features[:300],
                               data.item_features[:300]])
        cov = diagnostics._sample_cov(
            encoder.encode_batch(model, encoder.QUERY, pool))
        rotations = []
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda n: rotations.append(n) or eye(n))
        evals = diagnostics.jacobi_eigenvalues(cov)
        monkeypatch.undo()
        pairs_per_sweep = 64 * 63 // 2
        assert len(rotations) <= 15 * pairs_per_sweep
        ref = np.linalg.eigvalsh(cov)
        assert np.max(np.abs(evals - ref)) <= 1e-12 * ref[-1]


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
        pairs = [([0.5, 0.0], [1.0, 0.0])] * 2
        s = diagnostics.pair_similarity_stats(m, pairs)
        assert (s.mean, s.median, s.min, s.max, s.std) == (0.5, 0.5, 0.5, 0.5, 0.0)

    def test_three_values(self):
        m = self._fixed_similarity_model()
        pairs = [([v, 0.0], [1.0, 0.0]) for v in (0.2, 0.4, 0.9)]
        s = diagnostics.pair_similarity_stats(m, pairs)
        assert s.mean == pytest.approx(0.5, abs=1e-7)
        assert s.median == pytest.approx(0.4, abs=1e-7)
        assert s.min == pytest.approx(0.2, abs=1e-7)
        assert s.max == pytest.approx(0.9, abs=1e-7)

    def test_even_count_median_is_lower_middle(self):
        m = self._fixed_similarity_model()
        pairs = [([v, 0.0], [1.0, 0.0]) for v in (0.1, 0.2, 0.3, 0.4)]
        assert diagnostics.pair_similarity_stats(m, pairs).median == \
            pytest.approx(0.2, abs=1e-7)

    def test_training_raises_pair_similarity(self):
        spec = SyntheticSpec(400, 50, 8, 4, 0.8, 0.1, 0)
        data = gen_synthetic(spec)
        pairs = [(data.query_features[q], data.item_features[next(iter(rel))])
                 for q, rel in sorted(data.qrels.items())]
        m = pair_model(8, seed=1)
        before = diagnostics.pair_similarity_stats(m, pairs).mean
        cfg = training.TrainConfig(30, 0.05, 0,
                                   training.LossConfig(0.2, 0.3, "additive"))
        m, _ = training.train(m, data.triplets, cfg)
        after = diagnostics.pair_similarity_stats(m, pairs).mean
        assert after > before


class TestDiagnose:
    def test_report_keys(self, rng):
        m = pair_model(4, seed=2)
        pairs = [(rng.normal(size=4), rng.normal(size=4)) for _ in range(6)]
        report = diagnostics.diagnose(m, pairs, rng.normal(size=(30, 4)))
        assert set(report) == {"alignment_error", "n_pairs", "cond_q",
                               "cond_i", "cov_fro_gap", "pair_stats"}
        assert set(report["pair_stats"]) == {"mean", "median", "min", "max",
                                             "std"}
