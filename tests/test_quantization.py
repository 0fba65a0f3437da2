import itertools

import numpy as np
import pytest

from sci import quantization as pq
from sci.clustering import kmeans
from sci.core import make_rng, pairwise_sq_dists
from sci.errors import BadSubspaceSplit, CorruptCode, DimensionMismatch


def exact_cover_residuals(rng, m, ksub, sub_dim, repeats=4):
    """Residuals built by tiling ksub distinct codewords per subspace."""
    words = rng.normal(size=(m, ksub, sub_dim)).astype(np.float32)
    rows = []
    for r in range(ksub * repeats):
        rows.append(np.concatenate([words[s, r % ksub] for s in range(m)]))
    return np.asarray(rows, dtype=np.float32), words


def sq_dist(a, b):
    """Squared L2 distance of two vectors, as a 1 x 1 pairwise_sq_dists."""
    return float(pairwise_sq_dists(np.reshape(a, (1, -1)),
                                   np.reshape(b, (1, -1)))[0, 0])


class TestPqTrain:
    def test_exact_cover_zero_error(self, rng):
        residuals, _ = exact_cover_residuals(rng, m=2, ksub=4, sub_dim=3)
        cb = pq.pq_train(residuals, 2, 4, make_rng(0))
        assert np.allclose(cb.train_mse, 0.0, atol=1e-10)
        recon = np.concatenate([
            pq.pq_reconstruct(cb, pq.pq_encode_batch(cb, [r])) for r in residuals])
        assert np.allclose(recon, residuals, atol=1e-6)

    def test_m1_degenerates_to_kmeans(self, rng):
        x = rng.normal(size=(60, 4)).astype(np.float32)
        cb = pq.pq_train(x, 1, 8, make_rng(5))
        ref = kmeans(x, 8, rng=make_rng(5))
        assert np.array_equal(cb.codebooks[0], ref.centers)

    def test_error_close_to_lloyd_oracle(self, rng):
        x = rng.normal(size=(200, 16)).astype(np.float32)
        cb = pq.pq_train(x, 4, 16, make_rng(1))
        codes = pq.pq_encode_batch(cb, x)
        recon = cb.codebooks[np.arange(4)[None, :], codes.astype(np.intp)]
        diff = x.reshape(200, 4, 4).astype(np.float64) - recon
        ours = float(np.mean(np.einsum("nms,nms->n", diff, diff)))
        oracle = 0.0
        for s in range(4):
            oracle += kmeans(x.reshape(200, 4, 4)[:, s, :], 16,
                             rng=make_rng(100 + s)).inertia / 200.0
        assert ours <= oracle * 1.05

    def test_bad_split(self, rng):
        with pytest.raises(BadSubspaceSplit):
            pq.pq_train(rng.normal(size=(40, 10)).astype(np.float32), 3, 4,
                        make_rng(0))

    @pytest.mark.parametrize("m", [0, -2, 2.0, True])
    def test_fewer_than_one_subspace(self, rng, m):
        # a bool or a float is refused by name before any split is tried
        error, match = ((BadSubspaceSplit, f"m={m}") if type(m) is int else
                        (ValueError, f"m must be an integer, got {m}"))
        with pytest.raises(error, match=match):
            pq.pq_train(rng.normal(size=(40, 8)).astype(np.float32), m, 4,
                        make_rng(0))

    def test_ksub_limit(self, rng):
        for ksub in (0, -1, 257, 300, 4.0, True):
            with pytest.raises(ValueError, match=f"ksub .*got {ksub}"):
                pq.pq_train(rng.normal(size=(400, 4)).astype(np.float32), 2,
                            ksub, make_rng(0))


class TestPqEncode:
    def test_codeword_exact_vector(self, rng):
        residuals, words = exact_cover_residuals(rng, m=4, ksub=8, sub_dim=2)
        cb = pq.PqCodebook(words, np.zeros(4))
        target = np.concatenate([words[0, 3], words[1, 7], words[2, 0],
                                 words[3, 1]])
        assert np.array_equal(pq.pq_encode_batch(cb, [target]), [[3, 7, 0, 1]])

    def test_zero_vector_zero_code(self):
        words = np.ones((2, 4, 3), dtype=np.float32)
        words[:, 0, :] = 0.0
        cb = pq.PqCodebook(words, np.zeros(2))
        assert np.array_equal(
            pq.pq_encode_batch(cb, np.zeros((1, 6), dtype=np.float32)), [[0, 0]])

    def test_matches_exhaustive_scan(self, rng):
        cb = pq.pq_train(rng.normal(size=(100, 8)).astype(np.float32), 2, 8,
                         make_rng(2))
        for _ in range(20):
            r = rng.normal(size=8).astype(np.float32)
            code = pq.pq_encode_batch(cb, [r])[0]
            best = min(itertools.product(range(8), repeat=2),
                       key=lambda c: sq_dist(
                           r, np.concatenate([cb.codebooks[0, c[0]],
                                              cb.codebooks[1, c[1]]])))
            assert tuple(code) == best


class TestPqReconstruct:
    def test_lossless_on_codeword_exact(self, rng):
        residuals, _ = exact_cover_residuals(rng, m=2, ksub=4, sub_dim=2)
        cb = pq.pq_train(residuals, 2, 4, make_rng(0))
        r = residuals[5]
        recon = pq.pq_reconstruct(cb, pq.pq_encode_batch(cb, [r]))
        assert np.allclose(recon, [r], atol=1e-6)

    def test_error_within_training_distortion(self, rng):
        x = rng.normal(size=(300, 8)).astype(np.float32)
        cb = pq.pq_train(x, 2, 16, make_rng(3))
        errors = []
        for r in x:
            recon = pq.pq_reconstruct(cb, pq.pq_encode_batch(cb, [r]))
            errors.append(sq_dist(r, recon))
        assert np.mean(errors) <= float(cb.train_mse.sum()) * 1.01

    def test_rows_match_one_row_calls(self, rng):
        cb = pq.pq_train(rng.normal(size=(50, 6)).astype(np.float32), 3, 4,
                         make_rng(2))
        codes = pq.pq_encode_batch(cb, rng.normal(size=(7, 6)).astype(np.float32))
        recon = pq.pq_reconstruct(cb, codes)
        assert recon.shape == (7, 6) and recon.dtype == np.float32
        for i in range(7):
            assert np.array_equal(recon[i:i + 1],
                                  pq.pq_reconstruct(cb, codes[i:i + 1]))
        assert pq.pq_reconstruct(cb, codes[:0]).shape == (0, 6)
        with pytest.raises(DimensionMismatch):
            pq.pq_reconstruct(cb, codes[0])

    def test_corrupt_code(self, rng):
        cb = pq.pq_train(rng.normal(size=(50, 4)).astype(np.float32), 2, 16,
                         make_rng(0))
        for code in (255, 16):  # 16 == ksub, the first code out of range
            with pytest.raises(CorruptCode):
                pq.pq_reconstruct(cb, np.array([[code, 0]], dtype=np.uint8))

    @pytest.mark.parametrize("codes", [np.array([[257, 1]]),
                                       np.array([[1.7, 1]]),
                                       np.array([[-255, 1]]),
                                       np.array([[2**63 + 1, 1]],
                                                dtype=np.uint64)],
                             ids=["wraps-to-1", "float", "negative", "uint64"])
    def test_codes_are_checked_before_any_cast(self, rng, codes):
        # Each of these would read as the codes [1, 1] after a uint8 cast.
        cb = pq.pq_train(rng.normal(size=(50, 4)).astype(np.float32), 2, 4,
                         make_rng(0))
        with pytest.raises(CorruptCode):
            pq.pq_reconstruct(cb, codes)


class TestAdcTable:
    def test_codeword_entry_zero(self, rng):
        cb = pq.pq_train(rng.normal(size=(50, 6)).astype(np.float32), 3, 4,
                         make_rng(1))
        qr = np.concatenate([cb.codebooks[0, 2], cb.codebooks[1, 1],
                             cb.codebooks[2, 3]])
        table = pq.adc_table(cb, qr[None])[0]
        assert table[0, 2] == pytest.approx(0.0, abs=1e-10)
        assert table[1, 1] == pytest.approx(0.0, abs=1e-10)

    def test_entries_non_negative(self, rng):
        cb = pq.pq_train(rng.normal(size=(50, 6)).astype(np.float32), 3, 4,
                         make_rng(1))
        table = pq.adc_table(cb, rng.normal(size=(5, 6)).astype(np.float32))
        assert np.all(table >= 0.0)

    def test_dimension_check(self, rng):
        cb = pq.pq_train(rng.normal(size=(50, 6)).astype(np.float32), 3, 4,
                         make_rng(1))
        for shape in ((1, 5), (6,), (1, 1, 6)):
            with pytest.raises(DimensionMismatch):
                pq.adc_table(cb, np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("dim, m", [(12, 3), (16, 8), (64, 4)])
    def test_rows_equal_a_single_residual_oracle_bitwise(self, rng, dim, m):
        cb = pq.pq_train(rng.normal(size=(200, dim)).astype(np.float32), m,
                         16, make_rng(2))
        residuals = rng.normal(size=(40, dim)).astype(np.float32)
        tables = pq.adc_table(cb, residuals)
        assert tables.shape == (40, m, 16)
        cw = cb.codebooks.astype(np.float64)
        for table, qr in zip(tables, residuals):
            q_subs = qr.reshape(m, dim // m).astype(np.float64)
            diff = cw - q_subs[:, None, :]
            assert np.array_equal(table, np.einsum("mks,mks->mk", diff, diff))


class TestAdcDistance:
    def test_all_zero_table(self):
        assert pq.adc_distances_batch(
            np.zeros((3, 4)), np.array([[1, 2, 3]], dtype=np.uint8))[0] == 0.0

    def test_m1_equals_direct_distance(self, rng):
        cb = pq.pq_train(rng.normal(size=(40, 4)).astype(np.float32), 1, 8,
                         make_rng(4))
        qr = rng.normal(size=4).astype(np.float32)
        table = pq.adc_table(cb, qr[None])[0]
        for code in range(8):
            direct = sq_dist(qr, cb.codebooks[0, code])
            assert pq.adc_distances_batch(
                table, np.array([[code]], dtype=np.uint8))[0] \
                == pytest.approx(direct, rel=1e-10)

    def test_equals_reconstruct_and_measure(self, rng):
        cb = pq.pq_train(rng.normal(size=(120, 12)).astype(np.float32), 3, 8,
                         make_rng(6))
        for _ in range(50):
            qr = rng.normal(size=12).astype(np.float32)
            codes = pq.pq_encode_batch(
                cb, rng.normal(size=(1, 12)).astype(np.float32))
            table = pq.adc_table(cb, qr[None])[0]
            via_table = pq.adc_distances_batch(table, codes)[0]
            direct = sq_dist(qr, pq.pq_reconstruct(cb, codes))
            assert via_table == pytest.approx(direct, rel=1e-5)

    def test_batch_matches_scalar(self, rng):
        cb = pq.pq_train(rng.normal(size=(60, 8)).astype(np.float32), 2, 8,
                         make_rng(7))
        codes = pq.pq_encode_batch(cb,
                                   rng.normal(size=(10, 8)).astype(np.float32))
        table = pq.adc_table(cb, rng.normal(size=(1, 8)).astype(np.float32))[0]
        batch = pq.adc_distances_batch(table, codes)
        for i in range(len(codes)):
            assert batch[i] == pq.adc_distances_batch(table, codes[i:i + 1])[0]

    @pytest.mark.parametrize("codes_dtype", [np.uint8, np.int64])
    def test_equals_a_two_array_fancy_index_bitwise(self, rng, codes_dtype):
        # the one-gather lookup against table[s, codes[r, s]] summed per row,
        # on a wide table such as a query's probed tables side by side
        m, width = 8, 4 * 16
        table = rng.normal(size=(m, width)) ** 2
        codes = rng.integers(0, width, size=(500, m)).astype(codes_dtype)
        want = table[np.arange(m), codes].sum(axis=1)
        assert pq.adc_distances_batch(table, codes).tobytes() == want.tobytes()
