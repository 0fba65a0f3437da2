"""Representation-space diagnostics.

`diagnose` reports alignment error (mean squared gap between direct and
swapped cross-tower similarities), ground-truth pair similarity statistics,
and `anisotropy`: covariance condition numbers (from the eigenvalues
`numpy.linalg.eigvalsh` returns) and covariance compatibility (relative
Frobenius gap).
"""

from __future__ import annotations

import numpy as np

from . import encoder
from .core import _rows
from .errors import DimensionMismatch

# Pairs encoded per block. A bounded working set keeps the allocator from
# handing a call's few MB of float64 temporaries back to the OS and
# page-faulting them in again on the next call.
_PAIR_ROWS = 1024

EPS_DEFAULT = 1e-12  # floor on the smallest eigenvalue in a condition number


def _similarities(model, queries, items, tower_q, tower_i) -> np.ndarray:
    """Row-wise S(f_tower_q(queries[r]), f_tower_i(items[r])) over two aligned
    (n, d) pair arrays, in float64."""
    if len(queries) == 0:
        raise ValueError("empty pair list")
    qs, its = _rows(queries, "queries"), _rows(items, "items")
    if qs.shape != its.shape:
        raise DimensionMismatch(
            f"query rows {qs.shape} do not line up with item rows {its.shape}")
    out = np.empty(len(qs))
    for start in range(0, len(qs), _PAIR_ROWS):
        rows = slice(start, start + _PAIR_ROWS)
        a = encoder.encode_batch(model, tower_q, qs[rows]).astype(np.float64)
        b = encoder.encode_batch(model, tower_i, its[rows]).astype(np.float64)
        np.einsum("ij,ij->i", a, b, out=out[rows])
    return out


def _sample_cov(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


def anisotropy(model, inputs) -> dict:
    """Condition numbers of the per-tower embedding covariances over a pooled
    input set (`cond_q`, `cond_i`), plus the relative Frobenius gap between
    the two covariances (`cov_fro_gap`)."""
    x = _rows(inputs, "inputs")
    if x.shape[0] <= model.output_dim:
        raise ValueError("need more inputs than output_dim for a full-rank covariance")
    cov_q = _sample_cov(encoder.encode_batch(model, encoder.QUERY, x))
    cov_i = _sample_cov(encoder.encode_batch(model, encoder.ITEM, x))

    def cond(cov):
        evals = np.linalg.eigvalsh(cov)
        return float(evals[-1]) / max(float(evals[0]), EPS_DEFAULT)

    denom = max(np.linalg.norm(cov_q), np.linalg.norm(cov_i))
    gap = float(np.linalg.norm(cov_q - cov_i) / denom) if denom > 0.0 else 0.0
    return {"cond_q": cond(cov_q), "cond_i": cond(cov_i), "cov_fro_gap": gap}


def diagnose(model, queries, items, inputs) -> dict:
    """The `diagnose` CLI subcommand's JSON document: alignment error and
    similarity statistics over the pairs (queries[r], items[r]), plus the
    `anisotropy` of the pooled inputs. The median is the lower middle element
    for even counts."""
    direct = _similarities(model, queries, items, encoder.QUERY, encoder.ITEM)
    swapped = _similarities(model, queries, items, encoder.ITEM, encoder.QUERY)
    sims = np.sort(direct)
    return {
        "alignment_error": float(np.mean((direct - swapped) ** 2)),
        "n_pairs": len(direct),
        **anisotropy(model, inputs),
        "pair_stats": {
            "mean": float(np.mean(sims)),
            "median": float(sims[(len(sims) - 1) // 2]),
            "min": float(sims[0]),
            "max": float(sims[-1]),
            "std": float(np.std(sims)),
        },
    }
