import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from sci import core, evaluation, ivf
from sci.errors import ZeroNorm

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
        # (k*d = 80000 > 2^16).
        for n, k, d in ((20, 3, 6), (3000, 4, 16), (3, 5000, 16)):
            x = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
            c = rng.normal(size=(k, d)).astype(np.float32).astype(np.float64)
            diff = x[:, None, :] - c[None, :, :]
            want = np.einsum("ijk,ijk->ij", diff, diff)
            assert np.array_equal(core.pairwise_sq_dists(x, c), want)

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

    def test_empty_rows(self):
        d = core.pairwise_sq_dists(np.zeros((0, 3)), np.ones((2, 3)))
        assert d.shape == (0, 2)
        assert core.pairwise_sq_dists(np.ones((2, 3)), np.zeros((0, 3))).shape \
            == (2, 0)
        assert np.array_equal(
            core.pairwise_sq_dists(np.ones((2, 0)), np.ones((3, 0))),
            np.zeros((2, 3)))


class TestNearest:
    def test_duplicate_centres_go_to_the_lowest_index(self, rng):
        x = rng.normal(size=(50, 4))
        c = rng.normal(size=(5, 4))
        c[3] = c[1]
        c[4] = c[1]
        idx, _ = core.nearest(x, c)
        assert not np.isin(idx, [3, 4]).any()
        near_1 = core.nearest(c[[1]], c)[0]
        assert near_1.tolist() == [1]

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

    def test_k_at_least_n_returns_everything(self):
        d = np.array([3.0, 1.0, 2.0])
        keys = np.arange(3)
        assert core.top_k(d, keys, 3).tolist() == [1, 2, 0]
        assert core.top_k(d, keys, 10).tolist() == [1, 2, 0]


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
                         ["argmin", "argsort", "argpartition", "lexsort"])
def test_selection_rules_live_only_in_core(func_name):
    assert _callers(func_name) <= {"core.py"}


def _broadcasts_none(node):
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and any(isinstance(e, ast.Constant) and e.value is None
                    for e in node.slice.elts))


def test_difference_tensors_live_only_in_the_kernel():
    # A subtraction with a None-indexed operand builds a broadcast difference
    # tensor. Only the kernel and adc_table's per-subspace table may do so.
    found = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and (_broadcasts_none(node.left)
                             or _broadcasts_none(node.right))):
                    found.add((path.name, fn.name))
    assert found == {("core.py", "pairwise_sq_dists"),
                     ("quantization.py", "adc_table")}


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
