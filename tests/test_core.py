import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sci import (clustering, core, diagnostics, encoder, evaluation, ivf,
                 quantization, training)
from sci.errors import DimensionMismatch, ZeroNorm

from conftest import linear_model

SRC = pathlib.Path(core.__file__).parent


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
        # The second shape spans several 1024-row blocks, and its subset
        # crosses a block edge.
        for n, k, d, lo, hi in ((20, 1, 6, 4, 9), (5000, 4, 16, 1020, 1030)):
            x = rng.normal(size=(n, d)).astype(np.float32)
            c = rng.normal(size=(k, d)).astype(np.float32)
            full = core.pairwise_sq_dists(x, c)
            subset = core.pairwise_sq_dists(x[lo:hi], c)
            assert np.array_equal(full[lo:hi], subset)

    def test_blocks_equal_one_expression_bitwise(self, rng):
        # One block, several 1024-row blocks, and one row per block
        # (k*d = 80000 > 2^16). float32 inputs are promoted block by block.
        for n, k, d in ((20, 3, 6), (3000, 4, 16), (3, 5000, 16)):
            x32 = rng.normal(size=(n, d)).astype(np.float32)
            c32 = rng.normal(size=(k, d)).astype(np.float32)
            x, c = x32.astype(np.float64), c32.astype(np.float64)
            diff = x[:, None, :] - c[None, :, :]
            want = np.einsum("ijk,ijk->ij", diff, diff)
            assert np.array_equal(core.pairwise_sq_dists(x, c), want)
            assert np.array_equal(core.pairwise_sq_dists(x32, c32), want)

    def test_memory_is_bounded_by_the_output(self, rng):
        # The output is 20000 x 64 float64 = 10 MB; an unblocked difference
        # tensor would add 20000 x 64 x 16 x 8 B = 164 MB.
        x = rng.normal(size=(20000, 16)).astype(np.float32)
        c = rng.normal(size=(64, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            core.pairwise_sq_dists(x, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_rows_of_x_are_not_copied_whole(self, rng):
        # One row against 200000 float32 rows: the output is 1.6 MB; a float64
        # copy of x would add 25.6 MB.
        x = rng.normal(size=(200000, 16)).astype(np.float32)
        c = rng.normal(size=(1, 16))
        tracemalloc.start()
        try:
            core.pairwise_sq_dists(x, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200000 * 8 + 4 * core._BLOCK_ELEMS * 8

    def test_empty_rows(self):
        d = core.pairwise_sq_dists(np.zeros((0, 3)), np.ones((2, 3)))
        assert d.shape == (0, 2)
        assert core.pairwise_sq_dists(np.ones((2, 3)), np.zeros((0, 3))).shape \
            == (2, 0)
        assert np.array_equal(
            core.pairwise_sq_dists(np.ones((2, 0)), np.ones((3, 0))),
            np.zeros((2, 3)))


def _argmin_oracle(x, c):
    """argmin over the explicit kernel (first, i.e. lowest, index among the
    minima) and the gathered distance."""
    d = core.pairwise_sq_dists(x, c)
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(d.shape[0]), idx]


def _one_ulp_pair(x):
    """Two centres whose exact distances to the row x differ by one ulp."""
    base = x + 0.5
    # From this offset of coordinate 0, each step of one ulp of x[0] moves
    # the squared distance by under one of its own ulps, so the candidates'
    # distances pass through consecutive floats.
    dist = core.pairwise_sq_dists(x[None], base[None])[0, 0]
    step = np.spacing(x[0])
    base[0] = x[0] + np.spacing(dist) / (8 * step)
    cands = np.repeat(base[None], 400, axis=0)
    cands[:, 0] += np.arange(400) * step
    d = core.pairwise_sq_dists(x[None], cands)[0]
    for i in range(len(d)):
        hit = np.flatnonzero(d == np.nextafter(d[i], np.inf))
        if hit.size:
            return cands[i], cands[hit[0]]
    raise AssertionError("no one-ulp pair found")


class TestNearest:
    def test_duplicate_centres_go_to_the_lowest_index(self, rng,
                                                       monkeypatch):
        x = rng.normal(size=(50, 4))
        c = rng.normal(size=(5, 4))
        c[3] = c[1]
        c[4] = c[1]
        idx, _ = core.nearest(x, c)
        assert not np.isin(idx, [3, 4]).any()
        near_1 = core.nearest(c[[1]], c)[0]
        assert near_1.tolist() == [1]
        # Rows planted on the duplicates tie three ways; at 4 elements a
        # block the rerank takes one pair at a time.
        x[::5] = c[1]
        want = _argmin_oracle(x, c)
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 4)
        for got, expected in zip(core.nearest(x, c), want):
            assert np.array_equal(got, expected)

    def test_matches_argmin_oracle(self, rng):
        for _ in range(10):
            x = rng.normal(size=(40, 3)).astype(np.float32)
            # a coarse grid plants many exact ties
            c = np.round(rng.normal(size=(12, 3))).astype(np.float32)
            d = core.pairwise_sq_dists(x, c)
            idx, dist = core.nearest(x, c)
            want = np.array([min(range(12), key=lambda j: (row[j], j))
                             for row in d])
            assert np.array_equal(idx, want)
            assert np.array_equal(dist, d[np.arange(40), want])

    @pytest.mark.parametrize("offset", [1e3, 5e3, 1e4])
    @pytest.mark.parametrize("d", [4, 16])
    def test_one_ulp_gap_and_a_duplicate(self, rng, offset, d):
        for _ in range(10):
            x = offset + rng.normal(size=(1, d))
            near, far = _one_ulp_pair(x[0])
            others = offset + 3.0 + rng.normal(size=(3, d))
            # far first, then near and its exact duplicate; and near first.
            for c, want, lost in (
                    (np.vstack([others[:2], far, near, near, others[2:]]), 3, 2),
                    (np.vstack([near, far, others, near]), 0, 1)):
                exact = core.pairwise_sq_dists(x, c)[0]
                assert exact[lost] == np.nextafter(exact[want], np.inf)
                # The expansion identity's rounding error exceeds the one-ulp
                # gap, so a score alone cannot order these two centres.
                identity = (x[0] @ x[0] - 2.0 * (c @ x[0])
                            + np.einsum("ij,ij->i", c, c))
                assert np.abs(identity - exact).max() > np.spacing(exact[want])
                idx, dist = core.nearest(x, c)
                assert idx.tolist() == [want]
                assert dist.tolist() == [exact[want]]

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(n=st.integers(0, 300), k=st.integers(1, 300),
           d=st.sampled_from([0, 1, 2, 3, 16, 17, 64, 257]),
           offset=st.sampled_from([0.0, 1e3, 1e4]),
           ties=st.sampled_from(["none", "duplicates", "grid"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=0, k=3, d=4, offset=0.0, ties="none", seed=0)
    @example(n=5, k=3, d=0, offset=0.0, ties="none", seed=0)
    @example(n=7, k=1, d=3, offset=0.0, ties="none", seed=0)
    @example(n=300, k=300, d=16, offset=1e4, ties="duplicates", seed=1)
    def test_equals_the_argmin_oracle_bitwise(self, n, k, d, offset, ties, seed):
        n = min(n, 2_000_000 // (k * max(d, 1)))
        rng = core.make_rng(seed)
        x = offset + rng.normal(size=(n, d))
        c = offset + rng.normal(size=(k, d))
        if ties == "duplicates":
            c[rng.integers(0, k, size=k // 2)] = c[0]
            x[:n // 3] = c[rng.integers(0, k, size=n // 3)]
        elif ties == "grid":
            x, c = np.round(x), np.round(c)
        for a, b in ((x, c), (x.astype(np.float32), c.astype(np.float32))):
            idx, dist = core.nearest(a, b)
            want_idx, want_dist = _argmin_oracle(a, b)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(dist, want_dist)

    @staticmethod
    def _assert_oracle(x, c, dtypes=(np.float64, np.float32)):
        for dtype in dtypes:
            a, b = x.astype(dtype), c.astype(dtype)
            idx, dist = core.nearest(a, b)
            want_idx, want_dist = _argmin_oracle(a, b)
            assert np.array_equal(idx, want_idx)
            assert np.array_equal(dist, want_dist, equal_nan=True)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(k=st.sampled_from([3, 16, 300]), d=st.sampled_from([1, 16, 257]),
           extra=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    @example(k=16, d=16, extra=1, seed=0)
    @example(k=16, d=257, extra=1, seed=0)
    def test_ties_at_a_block_edge(self, k, d, extra, seed):
        # A block holds _BLOCK_ELEMS // max(k, d) rows. The last row of the
        # first block and the first row of the second sit exactly halfway
        # between centres 1 and 2, on a grid where both distances are exact.
        edge = core._BLOCK_ELEMS // max(k, d)
        rng = core.make_rng(seed)
        x = rng.normal(size=(edge + extra, d))
        c = 10.0 + rng.normal(size=(k, d))
        x[edge - 1:edge + 1] = np.round(4.0 * rng.normal(size=d)) / 4.0
        c[1], c[2] = x[edge - 1] + 0.125, x[edge - 1] - 0.125
        tied = core.pairwise_sq_dists(x[edge - 1:edge + 1], c)
        assert (tied[:, 1] == tied[:, 2]).all()
        assert (tied.argmin(axis=1) == 1).all()
        self._assert_oracle(x, c)

    def test_single_and_tied_rows_in_one_block(self, rng):
        # Odd rows tie between the duplicate centres 2 and 5, even rows keep
        # one centre; a NaN row keeps every centre, and so does a 1e200 row,
        # whose margin and exact distances overflow to inf (float64 only:
        # 1e200 has no float32 value).
        c = rng.normal(size=(8, 4))
        c[5] = c[2]
        x = rng.normal(size=(40, 4))
        x[1::2] = c[2] + 1e-3 * rng.normal(size=(20, 4))
        x[10] = np.nan
        x[12] = 1e200
        exact = core.pairwise_sq_dists(x, c)
        assert np.array_equal(exact[1::2, 2], exact[1::2, 5])
        assert np.isinf(exact[12]).all()
        self._assert_oracle(x, c, (np.float64,))
        # A NaN centre makes every margin NaN, so every row keeps every
        # centre and, as in argmin, the first NaN distance wins.
        c[3] = np.nan
        self._assert_oracle(x, c, (np.float64,))

    @staticmethod
    def _nearest_peak(x, c):
        tracemalloc.start()
        try:
            core.nearest(x, c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_memory_is_bounded_by_the_outputs(self, rng):
        # The outputs are 2 x 20000 x 8 B = 320 KB; the full 20000 x 1024
        # score matrix would be 164 MB. float64 inputs, so nothing is copied.
        x = rng.normal(size=(20000, 16))
        c = rng.normal(size=(1024, 16))
        assert (self._nearest_peak(x, c)
                < 2 * 20000 * 8 + 4 * core._BLOCK_ELEMS * 8)

    def test_memory_is_bounded_by_the_outputs_when_d_exceeds_k(self, rng):
        # Rows per block follow max(k, d), so the final gather x - c[best]
        # stays one block; sized by k alone it would be 4096 x 257 x 8 B.
        x = rng.normal(size=(20000, 257))
        c = rng.normal(size=(16, 257))
        assert (self._nearest_peak(x, c)
                < 2 * 20000 * 8 + 4 * core._BLOCK_ELEMS * 8)

    def test_float32_memory_is_bounded_by_the_outputs(self, rng):
        # A float64 copy of all of x would be 20000 x 16 x 8 B = 2.56 MB,
        # over the bound; each block of rows is promoted on its own.
        x = rng.normal(size=(20000, 16)).astype(np.float32)
        c = rng.normal(size=(1024, 16)).astype(np.float32)
        assert (self._nearest_peak(x, c)
                < 2 * 20000 * 8 + 4 * core._BLOCK_ELEMS * 8)


def _nearest_k_oracle(q, p, keys, k, cols=None):
    """Per row of q: a full lexsort of its own columns of p (all, or the
    non-negative entries of cols[r]) by (explicit-kernel distance, key), cut
    to k, as (columns, distances)."""
    out = []
    for r in range(len(q)):
        own = np.arange(len(p)) if cols is None else cols[r][cols[r] >= 0]
        d = core.pairwise_sq_dists(p[own], q[r:r + 1])[:, 0]
        order = np.lexsort((keys[own], d))[:k]
        out.append((own[order].tolist(), d[order].tolist()))
    return out


def _all_columns(m, n):
    """cols for m rows that may each take every one of n columns."""
    return np.tile(np.arange(n), (m, 1))


class TestNearestK:
    @staticmethod
    def _first_k(q, p, keys, k, cols):
        """The first k pairs of each row of `_nearest_k`, as the oracle's."""
        p = p.astype(np.float64)
        rows, at, dist = core._nearest_k(q, p, core._sum_sq(p), keys, k, cols)
        assert np.all(rows[1:] >= rows[:-1])
        return [(at[rows == r][:k].tolist(), dist[rows == r][:k].tolist())
                for r in range(len(q))]

    @pytest.mark.parametrize("offset", [1e3, 1e4])
    @pytest.mark.parametrize("d", [4, 16])
    def test_one_ulp_gap_at_the_kth_place(self, rng, offset, d):
        k = 4
        for _ in range(10):
            x = offset + rng.normal(size=(1, d))
            near, far = _one_ulp_pair(x[0])
            closer = x + 1e-3 * rng.normal(size=(k - 1, d))
            others = offset + 3.0 + rng.normal(size=(3, d))
            # far has the lower key: only the exact distance puts near k-th
            p = np.vstack([closer, far, others, near])
            exact = core.pairwise_sq_dists(p, x)[:, 0]
            assert exact[k - 1] == np.nextafter(exact[-1], np.inf)
            # The expansion identity's rounding error exceeds the one-ulp
            # gap, so a score alone cannot order the two.
            identity = (x[0] @ x[0] - 2.0 * (p @ x[0])
                        + np.einsum("ij,ij->i", p, p))
            assert np.abs(identity - exact).max() > np.spacing(exact[-1])
            keys = np.arange(len(p))
            got = self._first_k(x, p, keys, k, _all_columns(1, len(p)))
            assert got == _nearest_k_oracle(x, p, keys, k)
            assert got[0][0][-1] == len(p) - 1

    @pytest.mark.parametrize("copy_key", [0, 100])
    def test_duplicate_rows_under_two_ids_straddle_k(self, rng, copy_key):
        # The k-th nearest row of query 0 is appended again under another
        # key: ranks k and k + 1 tie, and the lower key takes the k-th place.
        k = 5
        p = rng.normal(size=(40, 8))
        q = rng.normal(size=(3, 8))
        kth = int(np.argsort(core.pairwise_sq_dists(p, q[:1])[:, 0])[k - 1])
        p = np.vstack([p, p[kth]])
        keys = np.append(np.arange(1, 41), copy_key)
        got = self._first_k(q, p, keys, k, _all_columns(3, 41))
        assert got == _nearest_k_oracle(q, p, keys, k)
        assert got[0][0][-1] == (40 if copy_key == 0 else kth)

    def test_own_columns_fewer_than_k_and_none(self, rng):
        p = rng.normal(size=(30, 4))
        q = rng.normal(size=(4, 4))
        keys = rng.permutation(30)
        cols = np.full((4, 12), -1)
        cols[0] = np.arange(12)
        cols[1, :3] = [29, 5, 7]
        cols[3, :8] = np.arange(20, 28)     # row 2 has no column at all
        for k in (1, 6, 40):
            got = self._first_k(q, p, keys, k, cols)
            assert got == _nearest_k_oracle(q, p, keys, k, cols)
            assert got[2] == ([], [])
        empty = np.full((2, 0), -1)
        assert self._first_k(q[:2], p, keys, 3, empty) == [([], [])] * 2
        assert self._first_k(q, p[:0], keys[:0], 3, _all_columns(4, 0)) == \
            [([], [])] * 4

    def test_overflowing_scores_keep_their_columns(self, rng, monkeypatch):
        # Rows of norm 1e200 score +inf and lie at distance +inf, so with k
        # past the finite ones they are kept and ordered by key. At k=6
        # every pair survives; at 4 elements a block the rerank takes one
        # pair at a time.
        p = rng.normal(size=(6, 4))
        p[[1, 4]] = 1e200
        q = rng.normal(size=(2, 4))
        keys = np.array([5, 3, 0, 1, 4, 2])
        for block_elems in (core._BLOCK_ELEMS, 4):
            monkeypatch.setattr(core, "_BLOCK_ELEMS", block_elems)
            for k in (3, 5, 6):
                assert self._first_k(q, p, keys, k, _all_columns(2, 6)) == \
                    _nearest_k_oracle(q, p, keys, k)

    def test_only_the_k_best_survive_on_generic_data(self, rng):
        # Distinct distances leave no tie at the k-th place, so the margin
        # keeps exactly k columns a row (fewer when a row has fewer): a
        # margin that never cuts fails here.
        p = rng.normal(size=(500, 16))
        q = rng.normal(size=(20, 16))
        cols = np.full((20, 120), -1)
        for r in range(20):
            cols[r, :100 + r] = rng.permutation(500)[:100 + r]
        cols[7, 6:] = -1
        for c, want in ((_all_columns(20, 500), [10] * 20),
                        (cols, [10] * 7 + [6] + [10] * 12)):
            rows, _, _ = core._nearest_k(q, p, core._sum_sq(p),
                                         np.arange(500), 10, c)
            assert np.bincount(rows, minlength=20).tolist() == want
        assert self._first_k(q, p, np.arange(500), 10, cols) == \
            _nearest_k_oracle(q, p, np.arange(500), 10, cols)


class TestTopK:
    def test_equal_distances_in_ascending_key_order(self):
        d = np.array([2.0, 1.0, 1.0, 1.0, 0.5])
        keys = np.array([9, 30, 10, 20, 7], dtype=np.uint64)
        assert core.top_k(d, keys, 4).tolist() == [4, 2, 3, 1]

    def test_matches_sorted_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            d = rng.integers(0, 5, size=n).astype(np.float64)
            keys = rng.permutation(1000)[:n].astype(np.uint64)
            k = int(rng.integers(1, n + 1))
            want = sorted(range(n), key=lambda i: (d[i], keys[i]))[:k]
            assert core.top_k(d, keys, k).tolist() == want

    def test_rows_of_a_matrix_are_selected_independently(self, rng):
        d = rng.integers(0, 4, size=(30, 12)).astype(np.float64)
        keys = rng.permutation(12).astype(np.uint64)
        got = core.top_k(d, keys, 5)
        assert got.shape == (30, 5)
        for row, want in zip(d, got):
            assert np.array_equal(core.top_k(row, keys, 5), want)

    def test_k_at_least_n_returns_everything(self):
        d = np.array([3.0, 1.0, 2.0])
        keys = np.arange(3)
        assert core.top_k(d, keys, 3).tolist() == [1, 2, 0]
        assert core.top_k(d, keys, 10).tolist() == [1, 2, 0]

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(n=st.integers(1, 60), rows=st.sampled_from([0, 1, 3]),
           k_frac=st.floats(0.0, 1.0),
           pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5, -3.0,
                                          np.inf, -np.inf, np.nan]),
                         min_size=1, max_size=5),
           boundary_ties=st.integers(0, 4), key_range=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    @example(n=5, rows=0, k_frac=0.5, pool=[np.nan], boundary_ties=0,
             key_range=1, seed=0)
    @example(n=6, rows=0, k_frac=0.5, pool=[1.0, np.nan], boundary_ties=3,
             key_range=2, seed=3)
    def test_equals_a_full_lexsort(self, n, rows, k_frac, pool, boundary_ties,
                                   key_range, seed):
        # Values from a small pool (ties, +-0, +-inf, NaN) and keys from a
        # small range (duplicate keys); then copies of the k-th smallest value
        # planted around the cut. rows=0 is a 1-D input.
        rng = core.make_rng(seed)
        shape = (rows, n) if rows else (n,)
        d = rng.choice(np.array(pool), size=shape)
        keys = rng.integers(0, key_range, size=n).astype(np.uint64)
        k = 1 + int(k_frac * n)     # 1 .. n + 1
        kth = np.sort(d, axis=-1)[..., min(k, n) - 1]
        for j in rng.integers(0, n, size=boundary_ties):
            d[..., j] = kth
        want = np.lexsort((np.broadcast_to(keys, d.shape), d))[..., :k]
        assert np.array_equal(core.top_k(d, keys, k), want)


def _callers(func_name):
    """src/sci modules that call <anything>.<func_name>: np.argmin as well as
    an array's .argmin()."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == func_name:
                found.add(path.name)
    return found


@pytest.mark.parametrize("func_name",
                         ["argmin", "argsort", "argpartition", "lexsort",
                          "partition", "unique"])
def test_selection_rules_live_only_in_core(func_name):
    assert _callers(func_name) <= {"core.py"}


def _broadcasts_none(node):
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and any(isinstance(e, ast.Constant) and e.value is None
                    for e in node.slice.elts))


def _functions_with(match):
    """(module, function) of every src/sci function holding a node for
    which match(node) is true."""
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(map(match,
                                                           ast.walk(fn))):
                found.add((path.name, fn.name))
    return found


def test_difference_tensors_live_only_in_the_kernel():
    # A subtraction with a None-indexed operand builds a broadcast difference
    # tensor. Only the kernel may do so.
    assert _functions_with(
        lambda node: isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Sub)
        and (_broadcasts_none(node.left) or _broadcasts_none(node.right))
    ) == {("core.py", "pairwise_sq_dists")}


def test_sums_of_squares_live_only_in_sum_sq():
    # An einsum of one expression with itself is a sum of squares. Only
    # _sum_sq may compute one, so every squared norm shares its arithmetic.
    assert _functions_with(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "einsum" and len(node.args) == 3
        and ast.dump(node.args[1]) == ast.dump(node.args[2])
    ) == {("core.py", "_sum_sq")}


def test_exact_pair_reranks_live_only_in_pair_sq():
    # `_sum_sq` of a difference of two gathered (subscripted) arrays is the
    # exact rerank of chosen pairs. Only _pair_sq may take one, so `nearest`
    # and `_nearest_k` share its chunking and a third copy fails here.
    assert _functions_with(
        lambda node: isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "_sum_sq"
        and node.args and isinstance(node.args[0], ast.BinOp)
        and isinstance(node.args[0].op, ast.Sub)
        and isinstance(node.args[0].left, ast.Subscript)
        and isinstance(node.args[0].right, ast.Subscript)
    ) == {("core.py", "_pair_sq")}


def test_array_shapes_are_read_only_in_the_shape_rule():
    # Every array input goes through core._rows; top_k reads .ndim to tell a
    # vector from a matrix, and write_vectors keeps its own ValueError.
    assert _functions_with(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "ndim"
    ) == {("core.py", "_rows"), ("core.py", "top_k"),
          ("data_io.py", "write_vectors")}


def _build(ids, x):
    return ivf.build(linear_model(4, 4), ids, x, ivf.STANDARD, ivf.FLAT, 2,
                     core.make_rng(0))


def _brute(ids, x):
    return evaluation.brute_force_search(ids, x, x[:2], 3)


def _sweep(ids, x):
    m = linear_model(4, 4)
    index = ivf.build(m, np.arange(len(x)), x, ivf.STANDARD, ivf.FLAT, 2,
                      core.make_rng(0))
    return evaluation.nprobe_sweep(index, index, m, ids, x, {}, [1], [1])


class TestAsIds:
    def test_integers_become_uint64(self):
        out = core.as_ids(np.arange(3, dtype=np.int32))
        assert out.dtype == np.uint64 and out.tolist() == [0, 1, 2]

    def test_empty_is_accepted(self):
        assert core.as_ids([]).dtype == np.uint64

    @pytest.mark.parametrize("ids", [np.arange(40) + 0.5, np.arange(40) - 1,
                                     [-1] + list(range(1, 40))],
                             ids=["float", "negative_int64", "negative_list"])
    @pytest.mark.parametrize("call", [_build, _brute, _sweep])
    def test_every_entry_point_refuses_bad_ids(self, rng, call, ids):
        x = rng.normal(size=(40, 4)).astype(np.float32)
        with pytest.raises(ValueError, match="ids must be"):
            call(ids, x)


def _rows_sites():
    """(name, call, width): call(x) passes x to one entry point as the array
    under test, with every other argument valid; width is the number of
    columns that entry point expects of x, or None when any is fine."""
    m = linear_model(4, 4)
    rng = core.make_rng(3)
    items = rng.normal(size=(40, 4)).astype(np.float32)
    cents = clustering.kmeans(items, 2, core.make_rng(0))
    cb = quantization.pq_train(items, 2, 4, core.make_rng(0))
    table = quantization.adc_table(cb, items[:1])[0]
    index = ivf.build(m, np.arange(40), items, ivf.CI, ivf.FLAT, 2,
                      core.make_rng(0))
    ids = lambda x: np.arange(len(x))
    return [
        ("kmeans", lambda x: clustering.kmeans(x, 2, core.make_rng(0)), None),
        ("assign_batch", lambda x: clustering.assign_batch(cents, x), 4),
        ("pq_train", lambda x: quantization.pq_train(x, 1, 2,
                                                     core.make_rng(0)), None),
        ("pq_encode_batch", lambda x: quantization.pq_encode_batch(cb, x), 4),
        ("pq_reconstruct",
         lambda x: quantization.pq_reconstruct(cb, x.astype(np.uint8)), 2),
        ("adc_table", lambda x: quantization.adc_table(cb, x), 4),
        ("adc_distances_batch",
         lambda x: quantization.adc_distances_batch(table, x.astype(int)), 2),
        ("build", lambda x: ivf.build(m, ids(x), x, ivf.CI, ivf.FLAT, 1,
                                      core.make_rng(0)), 4),
        ("search_batch", lambda x: ivf.search_batch(index, m, x, 2, 3), 4),
        ("brute_force_items",
         lambda x: evaluation.brute_force_search(ids(x), x, items[:2], 3), 4),
        ("brute_force_queries",
         lambda x: evaluation.brute_force_search(ids(items), items, x, 3), 4),
        ("nprobe_sweep", lambda x: evaluation.nprobe_sweep(
            index, index, m, ids(x), x, {}, [1], [1]), 4),
        ("encode_batch", lambda x: encoder.encode_batch(m, encoder.QUERY, x),
         4),
        ("diagnose", lambda x: diagnostics.diagnose(m, x, x, [[0, 0]], items),
         4),
        ("triplet_grad", lambda x: training.grad(
            m, training.TripletBatch(x, x, x), training.LossConfig()), 4),
    ]


# Every (entry point, malformed shape) pair; a wrong width is only malformed
# where a width is expected.
_ROWS_CASES = [(name, shape) for name, _, width in _rows_sites()
               for shape in ("1-D", "3-D", "zero-width", "wrong-width")
               if width is not None or shape != "wrong-width"]


class TestRows:
    def test_rows_pass_through_without_a_copy(self):
        x = np.ones((3, 2), dtype=np.float32)
        assert core._rows(x, "x", 2) is x
        codes = np.ones((3, 2), dtype=np.int64)
        assert core._rows(codes, "codes", 2, None) is codes

    def test_message_names_the_input_shape_and_width(self):
        with pytest.raises(DimensionMismatch,
                           match=r"residuals have shape \(3, 5\), not rows "
                                 r"of width 4"):
            core._rows(np.ones((3, 5)), "residuals", 4)

    @pytest.mark.parametrize("name, shape", _ROWS_CASES,
                             ids=[f"{n}-{s}" for n, s in _ROWS_CASES])
    def test_every_entry_point_refuses_malformed_rows(self, name, shape):
        call, width = {n: (c, w) for n, c, w in _rows_sites()}[name]
        w = width or 4
        x = {"1-D": np.ones(w), "3-D": np.ones((5, 2, w)),
             "zero-width": np.ones((5, 0)),
             "wrong-width": np.ones((5, w + 1))}[shape]
        with pytest.raises(DimensionMismatch):
            call(x.astype(np.float32))


class TestEqual:
    def test_arrays_compare_by_value_and_uncompared_fields_are_skipped(self):
        a = clustering.Centroids(np.ones((2, 3), np.float32), 1.5, 4, [9.0])
        b = clustering.Centroids(np.ones((2, 3), np.float32), 1.5, 4, [])
        assert a == b and not a != b
        b.centers[1, 2] = 0.5
        assert a != b

    @pytest.mark.parametrize("a, b, equal", [
        ({"W": np.ones(2)}, {"W": np.ones(2)}, True),
        ({"W": np.ones(2)}, {"V": np.ones(2)}, False),
        ([np.ones(2), np.zeros(1)], [np.ones(2), np.zeros(1)], True),
        ([np.ones(2)], [np.ones(2), np.ones(2)], False),
        ((1, "a"), (1, "b"), False),
        (None, None, True),
        (np.ones(2), None, False),
    ])
    def test_members(self, a, b, equal):
        assert core._equal(a, b) is equal

    def test_a_record_never_equals_another_type(self):
        cb = quantization.PqCodebook(np.zeros((1, 2, 2), np.float32),
                                     np.zeros(1))
        assert cb != None
        assert cb != cb.codebooks
