"""Exact-search oracle, IR metrics, and the nprobe sweep harness.

Runs are dicts query_id -> ranked item id list, no item twice. Qrels are
dicts query_id -> {item_id: grade}, grade >= 1 meaning relevant. Queries
with an empty relevant set are skipped (not scored as zero) and the skip
count is reported. Every metric is a column reduction of one 0/1 hit
matrix, a row per scored query and a column per rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ivf
from .core import _check_count, _row_ids, _rows, pairwise_sq_dists, top_k
from .errors import MismatchedCorpora

METRICS = ("precision", "recall", "mrr", "ndcg")


def brute_force_search(ids, X, Q, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact ascending squared-L2 top-k of each query row of Q over the items
    `ids` (n,) with rows X (n, d), ties by ascending item id.

    Returns (ids, dists) arrays of shape (nq, min(k, n)).
    """
    _check_count("k", k)
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


def _check_cutoffs(name, values) -> None:
    """Refuse an empty list (or array) of cutoffs, or one that fails the
    count rule (`core._check_count`)."""
    if len(values) == 0:
        raise ValueError(f"{name}_list is empty")
    for value in values:
        _check_count(name, value)


@dataclass
class EvalReport:
    values: dict       # "metric@k" -> value in [0, 1]
    n_queries: int
    n_skipped: int


def evaluate(run, qrels, k_list) -> EvalReport:
    """Every metric of METRICS at every cutoff of k_list: the mean over the
    queries of run that have a relevant item. NDCG is binary-gain. The hit
    matrix is as wide as the longest row; a cutoff past a row's end reads
    its last column. Sums run in rank order, so the values are bitwise the
    definitions' (the ideal DCG is the left-to-right sum that `sum` gave
    before Python 3.12 made it compensated)."""
    _check_cutoffs("k", k_list)
    rows, n_rel = [], []
    for qid, ranked in run.items():
        if len(set(ranked)) != len(ranked):
            raise ValueError(f"query {qid} ranks an item twice")
        judged = qrels.get(qid, {})
        if n := sum(grade >= 1 for grade in judged.values()):
            rows.append([judged.get(i, 0) >= 1 for i in ranked[:max(k_list)]])
            n_rel.append(n)
    width = max(map(len, rows), default=0)
    depth = max(width, min(max(n_rel, default=0), max(k_list)))
    # gain[r] = 1 / log2(r + 1); column c of the sums covers ranks 1..c
    gain = np.r_[0.0, [1.0 / math.log2(r + 1) for r in range(1, depth + 1)]]
    hits = np.zeros((len(rows), width + 1), dtype=bool)
    for hit, row in zip(hits, rows):
        hit[1:len(row) + 1] = row
    n_rel = np.array(n_rel, dtype=np.int64)
    found = np.cumsum(hits, axis=1)
    dcg = np.cumsum(hits * gain[:width + 1], axis=1)
    ideal = np.cumsum(gain)
    # the rank of the first hit is the count of found's leading zeros
    first = np.where(found[:, -1] > 0, (found == 0).sum(axis=1), np.inf)
    values = {}
    for k in k_list:
        c = min(k, width)
        # in METRICS order; precision by Python's int division, exact for any k
        per_query = (np.array([f / k for f in range(c + 1)])[found[:, c]],
                     found[:, c] / n_rel,
                     np.where(first <= c, 1.0 / first, 0.0),
                     dcg[:, c] / ideal[np.minimum(n_rel, min(k, depth))])
        for metric, value in zip(METRICS, per_query):
            values[f"{metric}@{k}"] = float(np.mean(value)) if rows else 0.0
    return EvalReport(values, len(run), len(run) - len(rows))


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
    _check_cutoffs("k", k_list)
    _check_cutoffs("nprobe", nprobe_list)
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
            report = evaluate(run, qrels, k_list).values
            values.update(((method, nprobe, metric, k),
                           report[f"{metric}@{k}"])
                          for k in k_list for metric in METRICS)

    matches = [(metric, k, np_std,
                next((np_ci for np_ci in nprobe_list
                      if values[("ci", np_ci, metric, k)]
                      >= values[("standard", np_std, metric, k)]), None))
               for metric in METRICS for k in k_list for np_std in nprobe_list]
    return SweepResult(values, matches)
