"""Representation-space diagnostics.

Alignment error (mean squared gap between direct and swapped cross-tower
similarities), covariance anisotropy (condition numbers from the eigenvalues
`numpy.linalg.eigvalsh` returns), covariance compatibility (relative Frobenius
gap), and ground-truth pair similarity statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder
from .errors import DimensionMismatch

# Pairs encoded per block. A bounded working set keeps the allocator from
# handing a call's few MB of float64 temporaries back to the OS and
# page-faulting them in again on the next call.
_PAIR_ROWS = 1024

EPS_DEFAULT = 1e-12  # floor on the smallest eigenvalue in a condition number


@dataclass
class AlignmentReport:
    alignment_error: float
    n_pairs: int


@dataclass
class AnisotropyReport:
    cond_q: float
    cond_i: float
    cov_fro_gap: float
    # True when the lambda_min floor kicked in for the respective tower.
    floored_q: bool = False
    floored_i: bool = False


@dataclass
class SimilarityStats:
    mean: float
    median: float
    min: float
    max: float
    std: float


def _similarities(model, queries, items, tower_q, tower_i) -> np.ndarray:
    """Row-wise S(f_tower_q(queries[r]), f_tower_i(items[r])) over two aligned
    (n, d) pair arrays, in float64."""
    qs = np.asarray(queries, dtype=np.float32)
    its = np.asarray(items, dtype=np.float32)
    if len(qs) == 0:
        raise ValueError("empty pair list")
    if qs.ndim != 2 or qs.shape != its.shape:
        raise DimensionMismatch(
            f"query rows {qs.shape} do not line up with item rows {its.shape}")
    out = np.empty(len(qs))
    for start in range(0, len(qs), _PAIR_ROWS):
        rows = slice(start, start + _PAIR_ROWS)
        a = encoder.encode_batch(model, tower_q, qs[rows]).astype(np.float64)
        b = encoder.encode_batch(model, tower_i, its[rows]).astype(np.float64)
        np.einsum("ij,ij->i", a, b, out=out[rows])
    return out


def _alignment(model, queries, items, direct) -> AlignmentReport:
    swapped = _similarities(model, queries, items, encoder.ITEM, encoder.QUERY)
    err = float(np.mean((direct - swapped) ** 2))
    return AlignmentReport(err, len(direct))


def alignment_error(model, queries, items) -> AlignmentReport:
    """Mean over pairs (queries[r], items[r]) of
    (S(f_q(Q), f_i(I)) - S(f_i(Q), f_q(I)))^2."""
    direct = _similarities(model, queries, items, encoder.QUERY, encoder.ITEM)
    return _alignment(model, queries, items, direct)


def _sample_cov(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


def anisotropy(model, inputs) -> AnisotropyReport:
    """Condition numbers of the per-tower embedding covariances over a pooled
    input set, plus the relative Frobenius gap between the two covariances."""
    x = np.asarray(inputs, dtype=np.float32)
    if x.shape[0] <= model.output_dim:
        raise ValueError("need more inputs than output_dim for a full-rank covariance")
    emb_q = encoder.encode_batch(model, encoder.QUERY, x)
    emb_i = encoder.encode_batch(model, encoder.ITEM, x)
    cov_q = _sample_cov(emb_q)
    cov_i = _sample_cov(emb_i)

    def cond(cov):
        evals = np.linalg.eigvalsh(cov)
        lam_min = float(evals[0])
        lam_max = float(evals[-1])
        floored = lam_min < EPS_DEFAULT
        return lam_max / max(lam_min, EPS_DEFAULT), floored

    cond_q, floored_q = cond(cov_q)
    cond_i, floored_i = cond(cov_i)
    denom = max(np.linalg.norm(cov_q), np.linalg.norm(cov_i))
    gap = float(np.linalg.norm(cov_q - cov_i) / denom) if denom > 0.0 else 0.0
    return AnisotropyReport(cond_q, cond_i, gap, floored_q, floored_i)


def _stats(direct) -> SimilarityStats:
    sims = np.sort(direct)
    median = float(sims[(len(sims) - 1) // 2])
    return SimilarityStats(float(np.mean(sims)), median, float(sims[0]),
                           float(sims[-1]), float(np.std(sims)))


def pair_similarity_stats(model, queries, items) -> SimilarityStats:
    """Statistics of S(f_q(Q), f_i(I)) over the pairs (queries[r], items[r]).

    Median is the lower middle element for even counts.
    """
    return _stats(_similarities(model, queries, items, encoder.QUERY,
                                encoder.ITEM))


def diagnose(model, queries, items, inputs) -> dict:
    """All three reports as one plain dict (the JSON document of the
    `diagnose` CLI subcommand); the pairs are (queries[r], items[r])."""
    direct = _similarities(model, queries, items, encoder.QUERY, encoder.ITEM)
    align = _alignment(model, queries, items, direct)
    aniso = anisotropy(model, inputs)
    stats = _stats(direct)
    return {
        "alignment_error": align.alignment_error,
        "n_pairs": align.n_pairs,
        "cond_q": aniso.cond_q,
        "cond_i": aniso.cond_i,
        "cov_fro_gap": aniso.cov_fro_gap,
        "pair_stats": {
            "mean": stats.mean,
            "median": stats.median,
            "min": stats.min,
            "max": stats.max,
            "std": stats.std,
        },
    }
