"""Representation-space diagnostics.

`diagnose` reports alignment error (mean squared gap between direct and
swapped cross-tower similarities), ground-truth pair similarity statistics,
and `anisotropy`: covariance condition numbers (from the eigenvalues
`numpy.linalg.eigvalsh` returns) and covariance compatibility (relative
Frobenius gap). A pair is a (query row, item row) index into two row arrays.
"""

from __future__ import annotations

import numpy as np

from . import encoder
from .core import _rows
from .errors import DimensionMismatch

# Pairs scored per block: a bounded working set of gathered float64 rows keeps
# the allocator from handing pages back to the OS and faulting them in again.
_PAIR_ROWS = 1024

EPS_DEFAULT = 1e-12  # floor on the smallest eigenvalue in a condition number


def _similarities(a, b, pairs) -> np.ndarray:
    """Row-wise a[q] . b[i] in float64 over each pair (q, i) of encoded rows."""
    out = np.empty(len(pairs))
    for start in range(0, len(pairs), _PAIR_ROWS):
        rows = slice(start, start + _PAIR_ROWS)
        np.einsum("ij,ij->i", a[pairs[rows, 0]].astype(np.float64),
                  b[pairs[rows, 1]].astype(np.float64), out=out[rows])
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


def diagnose(model, queries, items, pairs, inputs) -> dict:
    """The `diagnose` CLI subcommand's JSON document: alignment error and
    similarity statistics over (queries[q], items[i]) for each row (q, i) of
    `pairs`, an (n >= 1, 2) integer array, plus the `anisotropy` of the pooled
    inputs. The median is the lower middle element for even counts."""
    q_q = encoder.encode_batch(model, encoder.QUERY, queries)
    q_i = encoder.encode_batch(model, encoder.ITEM, queries)
    i_q = encoder.encode_batch(model, encoder.QUERY, items)
    i_i = encoder.encode_batch(model, encoder.ITEM, items)
    pairs = _rows(pairs, "pairs", 2, None)
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    if not np.issubdtype(pairs.dtype, np.integer):
        raise ValueError(f"pairs must be integer rows, got dtype {pairs.dtype}")
    if np.any((pairs < 0) | (pairs >= (len(q_q), len(i_i)))):
        raise DimensionMismatch(f"pairs name rows outside ({len(q_q)}, {len(i_i)})")
    direct = _similarities(q_q, i_i, pairs)
    swapped = _similarities(q_i, i_q, pairs)
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
