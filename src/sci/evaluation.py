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
from .core import as_ids, pairwise_sq_dists, top_k
from .errors import DimensionMismatch, MismatchedCorpora

METRICS = ("precision", "recall", "mrr", "ndcg")


def brute_force_search(ids, X, Q, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending squared-L2 top-k of each query row of Q over the items
    `ids` (n,) with rows X (n, d), ties by ascending item id.

    Returns (ids, dists) arrays of shape (nq, min(k, n)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ids = as_ids(ids)
    X = np.asarray(X, dtype=np.float32)
    Q = np.asarray(Q, dtype=np.float32)
    if (X.ndim != 2 or ids.shape != (len(X),) or Q.ndim != 2
            or Q.shape[1] != X.shape[1]):
        raise DimensionMismatch(f"ids {ids.shape}, X {X.shape} and queries "
                                f"{Q.shape} do not line up")
    out_ids = np.empty((len(Q), min(k, len(ids))), dtype=np.uint64)
    out_dists = np.empty(out_ids.shape, dtype=np.float64)
    for row, q in enumerate(Q):
        d = pairwise_sq_dists(X, q[None])[:, 0]
        order = top_k(d, ids, k)
        out_ids[row] = ids[order]
        out_dists[row] = d[order]
    return out_ids, out_dists


def _relevant(qrels, qid):
    return {item for item, grade in qrels.get(qid, {}).items() if grade >= 1}


def _mean_over_queries(run, qrels, k, per_query):
    """Mean of per_query(top-k ranked ids, relevant set, grades) over the
    queries with a relevant item."""
    if k < 1:
        raise ValueError("k must be >= 1")
    values = [per_query(run[qid][:k], rel, qrels[qid])
              for qid in run if (rel := _relevant(qrels, qid))]
    return float(np.mean(values)) if values else 0.0


def recall_at_k(run, qrels, k: int) -> float:
    return _mean_over_queries(
        run, qrels, k, lambda top, rel, _: len(set(top) & rel) / len(rel))


def precision_at_k(run, qrels, k: int) -> float:
    return _mean_over_queries(
        run, qrels, k, lambda top, rel, _: len(set(top) & rel) / k)


def mrr_at_k(run, qrels, k: int) -> float:
    def per_query(top, rel, _):
        for rank, item in enumerate(top, start=1):
            if item in rel:
                return 1.0 / rank
        return 0.0
    return _mean_over_queries(run, qrels, k, per_query)


def ndcg_at_k(run, qrels, k: int, graded: bool = False) -> float:
    """Binary-gain NDCG by default; 2^grade - 1 gains behind the flag."""
    def gain(g):
        return (2.0 ** g - 1.0) if graded else 1.0

    def per_query(top, rel, grades):
        dcg = 0.0
        for rank, item in enumerate(top, start=1):
            if item in rel:
                dcg += gain(grades[item]) / math.log2(rank + 1)
        ideal = sorted((grades[item] for item in rel), reverse=True)[:k]
        idcg = sum(gain(g) / math.log2(r + 1)
                   for r, g in enumerate(ideal, start=1))
        return dcg / idcg if idcg > 0.0 else 0.0
    return _mean_over_queries(run, qrels, k, per_query)


def skipped_queries(run, qrels) -> int:
    return sum(1 for qid in run if not _relevant(qrels, qid))


@dataclass
class EvalReport:
    values: dict       # "metric@k" -> value in [0, 1]
    n_queries: int
    n_skipped: int


def evaluate(run, qrels, k_list) -> EvalReport:
    values = {}
    for k in k_list:
        values[f"precision@{k}"] = precision_at_k(run, qrels, k)
        values[f"recall@{k}"] = recall_at_k(run, qrels, k)
        values[f"mrr@{k}"] = mrr_at_k(run, qrels, k)
        values[f"ndcg@{k}"] = ndcg_at_k(run, qrels, k)
    return EvalReport(values, len(run), skipped_queries(run, qrels))


@dataclass
class SweepResult:
    # rows: (method, nprobe, metric, cutoff, value)
    rows: list
    # matches: (metric, cutoff, standard_nprobe, smallest ci_nprobe whose
    # value >= the standard value, or None)
    matches: list

    def value(self, method, nprobe, metric, cutoff):
        for m, np_, met, cut, v in self.rows:
            if (m, np_, met, cut) == (method, nprobe, metric, cutoff):
                return v
        raise KeyError((method, nprobe, metric, cutoff))


def nprobe_sweep(index_std: ivf.IvfIndex, index_ci: ivf.IvfIndex, model,
                 query_ids, Q, qrels, nprobe_list, k_list) -> SweepResult:
    """Full metric grid for both build modes across nprobe values.

    Q holds one feature row per entry of `query_ids`. Also reports, per
    metric/cutoff, the smallest CI nprobe that reaches each Standard
    nprobe's value.
    """
    if index_std.n_items != index_ci.n_items or index_std.dim != index_ci.dim:
        raise MismatchedCorpora("indexes do not cover the same corpus")
    query_ids = as_ids(query_ids)
    Q = np.asarray(Q, dtype=np.float32)
    if Q.ndim != 2 or query_ids.shape != (len(Q),):
        raise DimensionMismatch(f"query_ids {query_ids.shape} do not line up "
                                f"with the rows of Q {Q.shape}")
    k_max = max(k_list)
    rows = []
    grid = {}
    for method, index in (("standard", index_std), ("ci", index_ci)):
        for nprobe in nprobe_list:
            run = {}
            for qid, feat in zip(query_ids.tolist(), Q):
                result = ivf.search(index, model, feat, nprobe, k_max)
                run[qid] = [item for item, _ in result.ranked]
            report = evaluate(run, qrels, k_list)
            for k in k_list:
                for metric in METRICS:
                    v = report.values[f"{metric}@{k}"]
                    rows.append((method, nprobe, metric, k, v))
                    grid[(method, nprobe, metric, k)] = v

    matches = []
    for metric in METRICS:
        for k in k_list:
            for np_std in nprobe_list:
                target = grid[("standard", np_std, metric, k)]
                found = next((np_ci for np_ci in nprobe_list
                              if grid[("ci", np_ci, metric, k)] >= target),
                             None)
                matches.append((metric, k, np_std, found))
    return SweepResult(rows, matches)


def sweep_csv(result: SweepResult) -> str:
    lines = ["method,nprobe,metric,cutoff,value"]
    for method, nprobe, metric, cutoff, value in result.rows:
        lines.append(f"{method},{nprobe},{metric},{cutoff},{value:.6g}")
    return "\n".join(lines) + "\n"
