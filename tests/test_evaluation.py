import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sci import encoder, evaluation, ivf
from sci.core import make_rng
from sci.errors import DimensionMismatch, MismatchedCorpora

from conftest import count_message, linear_model


class TestBruteForceSearch:
    def test_query_in_corpus_ranks_first(self, rng):
        feats = rng.normal(size=(20, 4)).astype(np.float32)
        ids, dists = evaluation.brute_force_search(np.arange(20), feats,
                                                   feats[7:8], 5)
        assert (ids[0, 0], dists[0, 0]) == (7, 0.0)

    def test_k_at_least_corpus_returns_full_sort(self, rng):
        feats = rng.normal(size=(10, 3)).astype(np.float32)
        ids, dists = evaluation.brute_force_search(np.arange(10), feats,
                                                   rng.normal(size=(1, 3)), 50)
        assert ids.shape == dists.shape == (1, 10)
        dists = dists[0].tolist()
        assert dists == sorted(dists)

    def test_agrees_with_full_sort_oracle(self, rng):
        feats = rng.normal(size=(1000, 16)).astype(np.float32)
        q = rng.normal(size=16).astype(np.float32)
        ids, _ = evaluation.brute_force_search(np.arange(1000), feats,
                                               q[None], 10)
        d = np.einsum("ij,ij->i",
                      feats.astype(np.float64) - q.astype(np.float64),
                      feats.astype(np.float64) - q.astype(np.float64))
        oracle = sorted(range(1000), key=lambda i: (d[i], i))[:10]
        assert ids[0].tolist() == oracle

    @pytest.mark.parametrize("k", [0, -1, True, 2.5, "3"])
    def test_k_below_one(self, rng, k):
        feats = rng.normal(size=(10, 3)).astype(np.float32)
        with pytest.raises(ValueError, match=count_message("k", k)):
            evaluation.brute_force_search(np.arange(10), feats, feats[:1], k)

    def test_tie_break_by_id(self):
        feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]],
                         dtype=np.float32)
        ids, _ = evaluation.brute_force_search(
            [9, 3, 5], feats, np.array([[1.0, 0.0]], dtype=np.float32), 3)
        assert ids[0].tolist() == [3, 9, 5]

    def test_batch_rows_equal_one_row_calls(self, rng):
        feats = rng.normal(size=(200, 8)).astype(np.float32)
        item_ids = rng.permutation(200)
        queries = rng.normal(size=(12, 8)).astype(np.float32)
        ids, dists = evaluation.brute_force_search(item_ids, feats, queries, 7)
        assert ids.shape == dists.shape == (12, 7)
        for row, q in enumerate(queries):
            one_ids, one_dists = evaluation.brute_force_search(
                item_ids, feats, q[None], 7)
            assert np.array_equal(ids[row], one_ids[0])
            assert dists[row].tobytes() == one_dists[0].tobytes()

    def test_arrays_must_line_up(self, rng):
        feats = rng.normal(size=(10, 3)).astype(np.float32)
        q = rng.normal(size=(2, 3))
        for ids, x, queries in ((np.arange(9), feats, q),
                                (np.arange(10), feats, q[:, :2]),
                                (np.arange(10), feats, q[0])):
            with pytest.raises(DimensionMismatch):
                evaluation.brute_force_search(ids, x, queries, 3)


def _value(run, qrels, metric, k):
    """One metric at one cutoff, read from `evaluate`."""
    return evaluation.evaluate(run, qrels, [k]).values[f"{metric}@{k}"]


class TestRecall:
    def test_all_found(self):
        run = {0: [1, 2, 3]}
        qrels = {0: {1: 1, 2: 1}}
        assert _value(run, qrels, "recall", 3) == 1.0

    def test_found_past_cutoff(self):
        run = {0: list(range(11))}
        qrels = {0: {10: 1}}
        assert _value(run, qrels, "recall", 10) == 0.0

    def test_two_query_average(self):
        run = {0: [1], 1: [5, 6]}
        qrels = {0: {1: 1, 2: 1}, 1: {5: 1, 6: 1}}
        assert _value(run, qrels, "recall", 2) == 0.75


class TestPrecision:
    def test_one_of_ten(self):
        run = {0: list(range(10))}
        qrels = {0: {4: 1}}
        assert _value(run, qrels, "precision", 10) == pytest.approx(0.1)

    def test_none_found(self):
        run = {0: [1, 2, 3]}
        qrels = {0: {9: 1}}
        assert _value(run, qrels, "precision", 3) == 0.0

    def test_perfect_at_one(self):
        run = {0: [7]}
        qrels = {0: {7: 1}}
        assert _value(run, qrels, "precision", 1) == 1.0

    def test_equals_mrr_at_one(self):
        run = {0: [7], 1: [2], 2: [4]}
        qrels = {0: {7: 1}, 1: {3: 1}, 2: {4: 1}}
        values = evaluation.evaluate(run, qrels, [1]).values
        assert values["precision@1"] == values["mrr@1"]


class TestMrr:
    def test_first_relevant_at_rank_3(self):
        run = {0: [9, 8, 5, 1]}
        qrels = {0: {5: 1}}
        assert _value(run, qrels, "mrr", 10) == pytest.approx(1.0 / 3.0)

    def test_relevant_past_cutoff(self):
        run = {0: list(range(11))}
        qrels = {0: {10: 1}}
        assert _value(run, qrels, "mrr", 10) == 0.0

    def test_two_query_average(self):
        run = {0: [1], 1: [9, 2]}
        qrels = {0: {1: 1}, 1: {2: 1}}
        assert _value(run, qrels, "mrr", 10) == pytest.approx(0.75)


class TestNdcg:
    def test_single_relevant_rank_1(self):
        run = {0: [1, 2, 3]}
        qrels = {0: {1: 1}}
        assert _value(run, qrels, "ndcg", 3) == pytest.approx(1.0, abs=1e-9)

    def test_single_relevant_rank_2(self):
        run = {0: [9, 1, 3]}
        qrels = {0: {1: 1}}
        assert _value(run, qrels, "ndcg", 3) == \
            pytest.approx(1.0 / math.log2(3.0), abs=1e-9)

    def test_two_relevant_ranks_2_and_3(self):
        run = {0: [9, 1, 2]}
        qrels = {0: {1: 1, 2: 1}}
        dcg = 1.0 / math.log2(3.0) + 1.0 / math.log2(4.0)
        idcg = 1.0 / math.log2(2.0) + 1.0 / math.log2(3.0)
        assert _value(run, qrels, "ndcg", 3) == \
            pytest.approx(dcg / idcg, abs=1e-9)


class TestCutoffValidation:
    @pytest.mark.parametrize("metric", evaluation.METRICS,
                             ids=lambda metric: f"{metric}_at_k")
    @pytest.mark.parametrize("k", [0, -1, True, 2.5, "3"])
    def test_k_below_one_rejected(self, metric, k):
        run, qrels = {0: [1, 2]}, {0: {1: 1}}
        assert _value(run, qrels, metric, 1) == 1.0
        # a bad cutoff anywhere in the list, also after a good one
        for k_list in ([k], [1, k]):
            with pytest.raises(ValueError, match=count_message("k", k)):
                evaluation.evaluate(run, qrels, k_list)


class TestSkippedQueries:
    def test_queries_without_relevance_are_skipped_not_zeroed(self):
        run = {0: [1], 1: [2]}
        qrels = {0: {1: 1}}
        report = evaluation.evaluate(run, qrels, [1])
        assert report.n_skipped == 1
        # query 1 must not drag the mean down
        assert report.values["recall@1"] == 1.0

    def test_report_counts(self):
        run = {0: [1], 1: [2], 2: [3]}
        qrels = {0: {1: 1}}
        report = evaluation.evaluate(run, qrels, [1])
        assert report.n_queries == 3
        assert report.n_skipped == 2


def _reference_metric(run, qrels, metric, k):
    """One metric at one cutoff, straight from its definition: the mean over
    the queries of run with a relevant (grade >= 1) item, binary gains."""
    per_query = []
    for qid, ranked in run.items():
        rel = {i for i, grade in qrels.get(qid, {}).items() if grade >= 1}
        if not rel:
            continue
        top = ranked[:k]
        hits = [rank for rank, item in enumerate(top, start=1) if item in rel]
        if metric == "precision":
            per_query.append(len(hits) / k)
        elif metric == "recall":
            per_query.append(len(hits) / len(rel))
        elif metric == "mrr":
            per_query.append(1.0 / hits[0] if hits else 0.0)
        else:
            dcg = 0.0
            for rank in hits:
                dcg += 1.0 / math.log2(rank + 1)
            idcg = sum(1.0 / math.log2(r + 1)
                       for r in range(1, min(len(rel), k) + 1))
            per_query.append(dcg / idcg)
    return float(np.mean(per_query)) if per_query else 0.0


class TestEvaluate:
    def test_equals_the_metric_functions_bitwise(self, rng):
        # Graded and zero-grade judgements, queries with no relevant item or
        # no qrels at all, and runs shorter than the cutoffs.
        run = {q: rng.permutation(30)[:int(rng.integers(1, 12))].tolist()
               for q in range(40)}
        qrels = {q: {int(i): int(rng.integers(0, 3))
                     for i in rng.permutation(30)[:int(rng.integers(0, 6))]}
                 for q in range(0, 40, 2)}
        report = evaluation.evaluate(run, qrels, [1, 3, 10, 20])
        want = {f"{metric}@{k}": _reference_metric(run, qrels, metric, k)
                for k in (1, 3, 10, 20) for metric in evaluation.METRICS}
        assert list(report.values.items()) == list(want.items())
        skipped = sum(1 for q in run
                      if not any(g >= 1 for g in qrels.get(q, {}).values()))
        assert report.n_skipped == skipped
        assert 0 < report.n_skipped < report.n_queries == 40

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(run=st.dictionaries(
               st.integers(0, 9), st.lists(st.integers(0, 11), unique=True,
                                           max_size=12), max_size=8),
           qrels=st.dictionaries(
               st.integers(0, 9), st.dictionaries(st.integers(0, 11),
                                                  st.integers(0, 2),
                                                  max_size=12), max_size=8),
           k_list=st.lists(st.one_of(st.integers(1, 14),
                                     st.integers(1, 10**12),
                                     st.just(10**12)),
                           min_size=1, max_size=6))
    @example(run={}, qrels={0: {1: 1}}, k_list=[1, 5])
    @example(run={0: [3, 1]}, qrels={0: {1: 0, 2: 1}}, k_list=[2, 10**12])
    @example(run={0: [], 1: [2]}, qrels={0: {1: 1}, 1: {2: 1}},
             k_list=[3, 3, 1])
    # a row with no hit adds no reciprocal rank at a cutoff past every row
    @example(run={0: [4, 2], 1: [3]}, qrels={0: {2: 1}, 1: {9: 1}},
             k_list=[1, 10**12])
    # cutoffs beyond 2**53 and beyond the float range
    @example(run={0: [1, 2]}, qrels={0: {2: 1}}, k_list=[2**53 + 1, 10**400])
    def test_equals_the_reference_bitwise(self, run, qrels, k_list):
        # Runs shorter and longer than the cutoffs, repeated cutoffs and
        # cutoffs far past every row, zero grades, queries without qrels.
        report = evaluation.evaluate(run, qrels, k_list)
        want = {f"{metric}@{k}": _reference_metric(run, qrels, metric, k)
                for k in k_list for metric in evaluation.METRICS}
        assert list(report.values.items()) == list(want.items())
        scored = sum(1 for q in run
                     if any(g >= 1 for g in qrels.get(q, {}).values()))
        assert (report.n_queries, report.n_skipped) == (len(run),
                                                       len(run) - scored)

    @pytest.mark.parametrize("run", [{0: [5, 5]}, {0: [1], 3: [2, 7, 2]}])
    def test_repeated_item_is_refused(self, run):
        # NDCG used to count the repeat while precision and recall did not.
        qid = list(run)[-1]
        with pytest.raises(ValueError, match=f"query {qid} ranks an item "
                                             "twice"):
            evaluation.evaluate(run, {0: {5: 1}}, [2])

    def test_empty_k_list_is_refused(self):
        with pytest.raises(ValueError, match="k_list is empty"):
            evaluation.evaluate({0: [1]}, {0: {1: 1}}, [])

    def test_array_cutoffs_are_read_as_the_list(self):
        run, qrels = {0: [3, 1, 2], 1: [4]}, {0: {1: 1, 2: 1}, 1: {9: 1}}
        for k_list in ([1, 3], [3, 1, 3], [2]):
            want = evaluation.evaluate(run, qrels, k_list)
            got = evaluation.evaluate(run, qrels, np.array(k_list))
            assert list(got.values.items()) == list(want.values.items())
        with pytest.raises(ValueError, match="k_list is empty"):
            evaluation.evaluate(run, qrels, np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            evaluation.evaluate(run, qrels, np.array([2, 0]))


class TestNprobeSweep:
    def _setup(self, rng, seed=0):
        m = linear_model(4, 4, seed=seed)
        feats = rng.normal(size=(60, 4)).astype(np.float32)
        ids = np.arange(60)
        std = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 4,
                        make_rng(seed))
        ci = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 4, make_rng(seed))
        query_ids = np.arange(10)
        queries = rng.normal(size=(10, 4)).astype(np.float32)
        # relevance = exact top-3 under the model, so full-probe metrics hit 1
        # queries encoded one row at a time, as ivf.search does
        e_q = np.concatenate([encoder.encode_batch(m, encoder.QUERY, f[None])
                              for f in queries])
        top, _ = evaluation.brute_force_search(
            ids, encoder.encode_batch(m, encoder.ITEM, feats), e_q, 3)
        qrels = {qid: {i: 1 for i in row}
                 for qid, row in zip(query_ids.tolist(), top.tolist())}
        return m, std, ci, query_ids, queries, qrels

    def test_full_probe_equals_brute_force_metrics(self, rng):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        sweep = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                        [4], [3])
        for method in ("standard", "ci"):
            assert sweep.values[(method, 4, "recall", 3)] == pytest.approx(1.0)

    def test_aligned_towers_make_modes_equal(self, rng):
        m = linear_model(4, 4, seed=1)
        m.params_i = {k: v.copy() for k, v in m.params_q.items()}
        feats = rng.normal(size=(60, 4)).astype(np.float32)
        ids = np.arange(60)
        std = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 4, make_rng(1))
        ci = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 4, make_rng(1))
        query_ids = np.arange(8)
        queries = rng.normal(size=(8, 4)).astype(np.float32)
        qrels = {q: {q % 60: 1} for q in query_ids.tolist()}
        sweep = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                        [1], [3])
        for metric in evaluation.METRICS:
            assert sweep.values[("ci", 1, metric, 3)] == \
                sweep.values[("standard", 1, metric, 3)]

    @pytest.mark.parametrize("nprobe_list, k_list, message", [
        ([1], [], "k_list is empty"),
        ([1], [2, 0], "k must be >= 1, got 0"),
        ([], [3], "nprobe_list is empty"),
        ([4, 0], [3], "nprobe must be >= 1, got 0")],
        ids=["empty-k", "k-zero", "empty-nprobe", "nprobe-zero"])
    def test_cutoffs_refused_before_any_encode(self, rng, nprobe_list, k_list,
                                               message):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        calls = m.encode_calls
        with pytest.raises(ValueError, match=message):
            evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                    nprobe_list, k_list)
        assert m.encode_calls == calls

    def test_array_cutoffs_are_read_as_the_lists(self, rng):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        want = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                       [1, 4], [3, 1])
        got = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                      np.array([1, 4]), np.array([3, 1]))
        assert list(got.values.items()) == list(want.values.items())
        assert got.matches == want.matches
        empty = np.array([], dtype=np.int64)
        calls = m.encode_calls
        for nprobe_list, k_list, name in ((empty, np.array([3]), "nprobe"),
                                          (np.array([1]), empty, "k")):
            with pytest.raises(ValueError, match=f"{name}_list is empty"):
                evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                        nprobe_list, k_list)
        assert m.encode_calls == calls

    def test_mismatched_corpora(self, rng):
        m = linear_model(4, 4)
        feats = rng.normal(size=(60, 4)).astype(np.float32)
        ids = np.arange(60)
        std = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 4, make_rng(0))
        ci = ivf.build(m, ids[:30], feats[:30], ivf.CI, ivf.FLAT, 4,
                       make_rng(0))
        with pytest.raises(MismatchedCorpora):
            evaluation.nprobe_sweep(std, ci, m, [], np.zeros((0, 4)), {}, [1],
                                    [1])

    def test_query_ids_must_line_up(self, rng):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        for ids, q in ((query_ids[:9], queries), (query_ids, queries[:9]),
                       (query_ids[:1], queries[0])):
            with pytest.raises(DimensionMismatch):
                evaluation.nprobe_sweep(std, ci, m, ids, q, qrels, [1], [3])

    def test_csv_format(self, rng):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        sweep = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                        [1, 4], [3])
        # the CSV rows, in order: 2 methods x 2 nprobe x 4 metrics x 1 cutoff
        assert list(sweep.values) == [
            (method, nprobe, metric, 3) for method in ("standard", "ci")
            for nprobe in (1, 4) for metric in evaluation.METRICS]

    def test_matches_structure(self, rng):
        m, std, ci, query_ids, queries, qrels = self._setup(rng)
        sweep = evaluation.nprobe_sweep(std, ci, m, query_ids, queries, qrels,
                                        [1, 4], [3])
        # full probe: CI always reaches the standard full-probe value
        for metric, k, np_std, np_ci in sweep.matches:
            if np_std == 4:
                assert np_ci is not None
