import ast
import pathlib

import numpy as np
import pytest

from sci import diagnostics, encoder, training
from sci.core import make_rng
from sci.data_io import SyntheticSpec, gen_synthetic
from sci.errors import DimensionMismatch

from conftest import linear_model, mlp_model


def pair_model(dim, seed=0, normalize=True, symmetric=False):
    m = linear_model(dim, dim, seed=seed, normalize=normalize)
    if symmetric:
        m.params_i = {k: v.copy() for k, v in m.params_q.items()}
    return m


def same_rows(n):
    """The pairs (r, r) for r < n."""
    return np.repeat(np.arange(n), 2).reshape(n, 2)


def pair_report(model, queries, items, seed=0, pairs=None):
    """`diagnose` of `pairs`, by default the pairs (queries[r], items[r]),
    over a pool of twice output_dim + 1 random inputs."""
    pool = make_rng(seed).normal(size=(2 * model.output_dim + 1,
                                       model.input_dim))
    pairs = same_rows(len(queries)) if pairs is None else pairs
    return diagnostics.diagnose(model, queries, items, pairs, pool)


class TestAlignmentError:
    def test_symmetric_parameters_give_zero(self, rng):
        m = pair_model(4, symmetric=True)
        pairs = rng.normal(size=(5, 2, 4))
        assert pair_report(m, pairs[:, 0], pairs[:, 1])["alignment_error"] == 0.0

    def test_matches_four_encode_oracle(self, rng):
        m = pair_model(3, seed=6)
        pairs = rng.normal(size=(2, 2, 3))
        gaps = []
        for q, i in pairs[:, :, None]:
            direct = float(
                encoder.encode_batch(m, encoder.QUERY, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.ITEM, i)[0].astype(np.float64))
            swapped = float(
                encoder.encode_batch(m, encoder.ITEM, q)[0].astype(np.float64) @
                encoder.encode_batch(m, encoder.QUERY, i)[0].astype(np.float64))
            gaps.append((direct - swapped) ** 2)
        report = pair_report(m, pairs[:, 0], pairs[:, 1])
        assert report["alignment_error"] == pytest.approx(np.mean(gaps), rel=1e-6)
        assert report["n_pairs"] == 2

    def test_similarity_gap_arithmetic(self):
        # Similarities 0.9 direct vs 0.7 swapped -> squared gap 0.04.
        assert (0.9 - 0.7) ** 2 == pytest.approx(0.04)

    def test_empty_pairs_raise(self):
        rows = np.ones((2, 3))
        with pytest.raises(ValueError, match="empty pair list"):
            pair_report(pair_model(3), rows, rows,
                        pairs=np.empty((0, 2), dtype=np.intp))

    def test_pair_arrays_must_line_up(self, rng):
        m = pair_model(3)
        qs = rng.normal(size=(4, 3))
        for items in (qs[:3], qs[:, :2], qs[0]):
            with pytest.raises(DimensionMismatch):
                pair_report(m, qs, items)
        # pairs are rows of (query row, item row) integers inside 4 x 4 rows
        for pairs, error in (([0, 1], DimensionMismatch),
                             ([[0, 1, 2]], DimensionMismatch),
                             ([[0.0, 1.0]], ValueError),
                             ([[True, False]], ValueError),
                             ([[-1, 0]], DimensionMismatch),
                             ([[0, -1]], DimensionMismatch),
                             ([[4, 0]], DimensionMismatch),
                             ([[0, 4]], DimensionMismatch)):
            with pytest.raises(error, match="pairs"):
                pair_report(m, qs, qs, pairs=np.array(pairs))


def smallest_eigenvalue(model, tower, x):
    """The eigenvalue that `anisotropy` floors at EPS_DEFAULT."""
    cov = diagnostics._sample_cov(encoder.encode_batch(model, tower, x))
    return float(np.linalg.eigvalsh(cov)[0])


class TestAnisotropy:
    def test_isotropic_cloud_cond_near_one(self, rng):
        m = pair_model(6, normalize=False)
        m.params_q["W"] = np.eye(6, dtype=np.float32)
        m.params_i["W"] = np.eye(6, dtype=np.float32)
        x = rng.normal(size=(8000, 6)).astype(np.float32)
        report = diagnostics.anisotropy(m, x)
        assert report["cond_q"] < 1.3
        assert report["cond_i"] < 1.3
        assert smallest_eigenvalue(m, encoder.QUERY, x) >= diagnostics.EPS_DEFAULT

    def test_rank_one_cloud_hits_floor(self, rng):
        m = pair_model(4, normalize=False)
        m.params_q["W"] = np.eye(4, dtype=np.float32)
        direction = np.array([1.0, 2.0, 0.5, -1.0], dtype=np.float32)
        x = np.outer(rng.normal(size=50), direction).astype(np.float32)
        report = diagnostics.anisotropy(m, x)
        assert smallest_eigenvalue(m, encoder.QUERY, x) < diagnostics.EPS_DEFAULT
        cov = np.cov(x @ m.params_q["W"].T, rowvar=False)
        lam_max = float(np.linalg.eigvalsh(cov)[-1])
        assert report["cond_q"] == pytest.approx(
            lam_max / diagnostics.EPS_DEFAULT, rel=1e-4)

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
        assert report["cond_q"] == pytest.approx(16.0)
        assert report["cond_i"] == pytest.approx(1.0)
        for tower in (encoder.QUERY, encoder.ITEM):
            assert smallest_eigenvalue(m, tower, x) >= diagnostics.EPS_DEFAULT

    def test_one_dimensional_output(self, rng):
        m = linear_model(3, 1, seed=4, normalize=False)
        x = rng.normal(size=(20, 3))
        report = diagnostics.anisotropy(m, x)
        assert report["cond_q"] == 1.0
        assert report["cond_i"] == 1.0
        for tower in (encoder.QUERY, encoder.ITEM):
            assert smallest_eigenvalue(m, tower, x) >= diagnostics.EPS_DEFAULT

    def test_identical_towers_zero_gap(self, rng):
        m = pair_model(4, symmetric=True)
        report = diagnostics.anisotropy(m, rng.normal(size=(100, 4)))
        assert report["cov_fro_gap"] == 0.0

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
        s = pair_report(m, [[0.5, 0.0]] * 2, [[1.0, 0.0]] * 2)["pair_stats"]
        assert (s["mean"], s["median"], s["min"], s["max"], s["std"]) == \
            (0.5, 0.5, 0.5, 0.5, 0.0)

    def test_three_values(self):
        m = self._fixed_similarity_model()
        s = pair_report(m, [[v, 0.0] for v in (0.2, 0.4, 0.9)],
                        [[1.0, 0.0]] * 3)["pair_stats"]
        assert s["mean"] == pytest.approx(0.5, abs=1e-7)
        assert s["median"] == pytest.approx(0.4, abs=1e-7)
        assert s["min"] == pytest.approx(0.2, abs=1e-7)
        assert s["max"] == pytest.approx(0.9, abs=1e-7)

    def test_even_count_median_is_lower_middle(self):
        m = self._fixed_similarity_model()
        queries = [[v, 0.0] for v in (0.1, 0.2, 0.3, 0.4)]
        assert pair_report(m, queries, [[1.0, 0.0]] * 4)["pair_stats"][
            "median"] == pytest.approx(0.2, abs=1e-7)

    def test_training_raises_pair_similarity(self):
        spec = SyntheticSpec(400, 50, 8, 4, 0.8, 0.1, 0)
        data = gen_synthetic(spec)
        q_rows = sorted(data.qrels)
        i_rows = [next(iter(data.qrels[q])) for q in q_rows]
        pairs = data.query_features[q_rows], data.item_features[i_rows]
        m = pair_model(8, seed=1)
        before = pair_report(m, *pairs)["pair_stats"]["mean"]
        cfg = training.TrainConfig(30, 0.05, 0,
                                   training.LossConfig(0.2, 0.3, "additive"))
        m, _ = training.train(m, data.triplets, cfg)
        after = pair_report(m, *pairs)["pair_stats"]["mean"]
        assert after > before


class TestDiagnose:
    def test_report_keys(self, rng):
        m = pair_model(4, seed=2)
        pairs = rng.normal(size=(6, 2, 4))
        report = diagnostics.diagnose(m, pairs[:, 0], pairs[:, 1],
                                      same_rows(6), rng.normal(size=(30, 4)))
        assert set(report) == {"alignment_error", "n_pairs", "cond_q",
                               "cond_i", "cov_fro_gap", "pair_stats"}
        assert set(report["pair_stats"]) == {"mean", "median", "min", "max",
                                             "std"}

    def test_encodes_each_pair_tower_once(self, rng):
        # both towers over the query rows and over the item rows, however
        # many pairs name a row, plus both towers over the pooled inputs: the
        # direct pairs are shared with the pair statistics, not encoded again
        m = pair_model(4, seed=2)
        pairs = rng.normal(size=(6, 2, 4))
        for rows in (same_rows(6), np.argwhere(np.ones((6, 6)))):
            before = m.encode_calls
            diagnostics.diagnose(m, pairs[:, 0], pairs[:, 1], rows,
                                 rng.normal(size=(30, 4)))
            assert m.encode_calls - before == 2 * (6 + 6) + 2 * 30

    @pytest.mark.parametrize("model", [pair_model(16, seed=4),
                                       mlp_model(16, 16, 32, seed=4)],
                             ids=["linear", "mlp1"])
    def test_blocked_pairs_equal_one_batch_bitwise(self, rng, model):
        # Three blocks of pairs, the last one partial.
        n = 2 * diagnostics._PAIR_ROWS + 7
        qs = rng.normal(size=(n, 16)).astype(np.float32)
        its = rng.normal(size=(n, 16)).astype(np.float32)
        want = {}
        for name, (tq, ti) in {"direct": (encoder.QUERY, encoder.ITEM),
                               "swapped": (encoder.ITEM, encoder.QUERY)}.items():
            a = encoder.encode_batch(model, tq, qs).astype(np.float64)
            b = encoder.encode_batch(model, ti, its).astype(np.float64)
            want[name] = np.einsum("ij,ij->i", a, b)
        direct = want["direct"]
        report = diagnostics.diagnose(model, qs, its, same_rows(n), qs[:64])
        assert report["alignment_error"] == float(
            np.mean((direct - want["swapped"]) ** 2))
        assert report["pair_stats"]["mean"] == float(np.mean(np.sort(direct)))
        assert report["pair_stats"]["max"] == float(direct.max())
        # Shuffled pairs that repeat rows, over the same three blocks, read
        # as the same pairs copied out to aligned rows.
        p = rng.integers(0, [300, 200], size=(n, 2))
        assert len(np.unique(p[:, 0])) < n and len(np.unique(p[:, 1])) < n
        assert diagnostics.diagnose(model, qs[:300], its[:200], p, qs[:64]) == \
            diagnostics.diagnose(model, qs[p[:, 0]], its[p[:, 1]],
                                 same_rows(n), qs[:64])


def test_no_encode_batch_inside_a_loop():
    # Rows are encoded once per tower; an encode inside a loop (a
    # comprehension included) is a per-pair or per-block encode.
    tree = ast.parse(pathlib.Path(diagnostics.__file__).read_text())

    def encodes(root):
        return [node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode_batch"]

    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    assert len(encodes(tree)) >= 4
    assert [line for loop in ast.walk(tree) if isinstance(loop, loops)
            for line in encodes(loop)] == []
