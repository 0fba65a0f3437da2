"""Exact-search oracle, IR metrics, and the nprobe sweep harness.

Runs are dicts query_id -> ranked item id list. Qrels are dicts
query_id -> {item_id: grade}, grade >= 1 meaning relevant. Queries with an
empty relevant set are skipped (not scored as zero) and the skip count is
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ivf
from .core import _row_ids, _rows, pairwise_sq_dists, top_k
from .errors import MismatchedCorpora

METRICS = ("precision", "recall", "mrr", "ndcg")


def brute_force_search(ids, X, Q, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending squared-L2 top-k of each query row of Q over the items
    `ids` (n,) with rows X (n, d), ties by ascending item id.

    Returns (ids, dists) arrays of shape (nq, min(k, n)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    X = _rows(X, "item features X")
    ids = _row_ids(ids, X, "X")
    Q = _rows(Q, "queries Q", X.shape[1])
    out_ids = np.empty((len(Q), min(k, len(ids))), dtype=np.uint64)
    out_dists = np.empty(out_ids.shape, dtype=np.float64)
    for row, q in enumerate(Q):
        d = pairwise_sq_dists(X, q[None])[:, 0]
        order = top_k(d, ids, k)
        out_ids[row] = ids[order]
        out_dists[row] = d[order]
    return out_ids, out_dists


def _relevant_sets(run, qrels):
    """qid -> relevant item set, in run order, for the queries of run that
    have a relevant item."""
    rels = {}
    for qid in run:
        rel = {item for item, grade in qrels.get(qid, {}).items() if grade >= 1}
        if rel:
            rels[qid] = rel
    return rels


def _precision(top, rel, k):
    return len(set(top) & rel) / k


def _recall(top, rel, k):
    return len(set(top) & rel) / len(rel)


def _reciprocal_rank(top, rel, k):
    for rank, item in enumerate(top, start=1):
        if item in rel:
            return 1.0 / rank
    return 0.0


def _ndcg(top, rel, k):
    dcg = 0.0
    for rank, item in enumerate(top, start=1):
        if item in rel:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(len(rel), k) + 1))
    return dcg / idcg if idcg > 0.0 else 0.0


_PER_QUERY = {"precision": _precision, "recall": _recall,
              "mrr": _reciprocal_rank, "ndcg": _ndcg}


@dataclass
class EvalReport:
    values: dict       # "metric@k" -> value in [0, 1]
    n_queries: int
    n_skipped: int


def evaluate(run, qrels, k_list) -> EvalReport:
    """Every metric of METRICS at every cutoff of k_list: the mean over the
    queries of run that have a relevant item, the relevant sets built once.
    NDCG is binary-gain: every relevant item gains 1, whatever its grade."""
    rels = _relevant_sets(run, qrels)
    values = {}
    for k in k_list:
        if k < 1:
            raise ValueError("k must be >= 1")
        for metric in METRICS:
            per_query = [_PER_QUERY[metric](run[qid][:k], rel, k)
                         for qid, rel in rels.items()]
            values[f"{metric}@{k}"] = (float(np.mean(per_query)) if per_query
                                       else 0.0)
    return EvalReport(values, len(run), len(run) - len(rels))


@dataclass
class SweepResult:
    # (method, nprobe, metric, cutoff) -> value, in CSV row order
    values: dict
    # (metric, cutoff, standard_nprobe, smallest ci_nprobe whose value >=
    # the standard value, or None)
    matches: list


def nprobe_sweep(index_std: ivf.IvfIndex, index_ci: ivf.IvfIndex, model,
                 query_ids, Q, qrels, nprobe_list, k_list) -> SweepResult:
    """Full metric grid for both build modes across nprobe values.

    Q holds one feature row per entry of `query_ids`. Also reports, per
    metric/cutoff, the smallest CI nprobe that reaches each Standard
    nprobe's value.
    """
    if index_std.n_items != index_ci.n_items or index_std.dim != index_ci.dim:
        raise MismatchedCorpora("indexes do not cover the same corpus")
    Q = _rows(Q, "queries Q")
    query_ids = _row_ids(query_ids, Q, "Q")
    k_max = max(k_list)
    values = {}
    for method, index in (("standard", index_std), ("ci", index_ci)):
        for nprobe in nprobe_list:
            results = ivf.search_batch(index, model, Q, nprobe, k_max)
            run = {qid: [item for item, _ in result.ranked]
                   for qid, result in zip(query_ids.tolist(), results)}
            report = evaluate(run, qrels, k_list)
            for k in k_list:
                for metric in METRICS:
                    values[(method, nprobe, metric, k)] = \
                        report.values[f"{metric}@{k}"]

    matches = [(metric, k, np_std,
                next((np_ci for np_ci in nprobe_list
                      if values[("ci", np_ci, metric, k)]
                      >= values[("standard", np_std, metric, k)]), None))
               for metric in METRICS for k in k_list for np_std in nprobe_list]
    return SweepResult(values, matches)
