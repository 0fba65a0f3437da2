"""Representation-space diagnostics.

Alignment error (mean squared gap between direct and swapped cross-tower
similarities), covariance anisotropy (condition numbers via a cyclic Jacobi
eigensolver), covariance compatibility (relative Frobenius gap), and
ground-truth pair similarity statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder

EPS_DEFAULT = 1e-12


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


def _pair_arrays(pairs):
    qs = np.asarray([p[0] for p in pairs], dtype=np.float32)
    its = np.asarray([p[1] for p in pairs], dtype=np.float32)
    return qs, its


def alignment_error(model, pairs) -> AlignmentReport:
    """Mean over pairs of (S(f_q(Q), f_i(I)) - S(f_i(Q), f_q(I)))^2."""
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    qs, its = _pair_arrays(pairs)
    fq_q = encoder.encode_batch(model, encoder.QUERY, qs).astype(np.float64)
    fi_i = encoder.encode_batch(model, encoder.ITEM, its).astype(np.float64)
    fi_q = encoder.encode_batch(model, encoder.ITEM, qs).astype(np.float64)
    fq_i = encoder.encode_batch(model, encoder.QUERY, its).astype(np.float64)
    direct = np.einsum("ij,ij->i", fq_q, fi_i)
    swapped = np.einsum("ij,ij->i", fi_q, fq_i)
    err = float(np.mean((direct - swapped) ** 2))
    return AlignmentReport(err, len(pairs))


def jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-10,
                       max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via cyclic Jacobi rotations.

    Iterates until the off-diagonal Frobenius mass, summed from the entries
    themselves, falls below tol. Returns eigenvalues in ascending order.
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if n == 1:
        return a.reshape(1).copy()
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q_idx in range(p + 1, n):
                apq = a[p, q_idx]
                if apq == 0.0:
                    continue
                diff = a[q_idx, q_idx] - a[p, p]
                if abs(apq) < 1e-300 * abs(diff):
                    a[p, q_idx] = a[q_idx, p] = 0.0
                    continue
                theta = diff / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta**2 would overflow
                    t = 1.0 / (2.0 * theta)
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q_idx, q_idx] = c
                rot[p, q_idx] = s
                rot[q_idx, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def _sample_cov(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.float64)
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


def anisotropy(model, inputs, epsilon: float = EPS_DEFAULT) -> AnisotropyReport:
    """Condition numbers of the per-tower embedding covariances over a pooled
    input set, plus the relative Frobenius gap between the two covariances."""
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    x = np.asarray(inputs, dtype=np.float32)
    if x.shape[0] <= model.output_dim:
        raise ValueError("need more inputs than output_dim for a full-rank covariance")
    emb_q = encoder.encode_batch(model, encoder.QUERY, x)
    emb_i = encoder.encode_batch(model, encoder.ITEM, x)
    cov_q = _sample_cov(emb_q)
    cov_i = _sample_cov(emb_i)

    def cond(cov):
        evals = jacobi_eigenvalues(cov)
        lam_min = float(evals[0])
        lam_max = float(evals[-1])
        floored = lam_min < epsilon
        return lam_max / max(lam_min, epsilon), floored

    cond_q, floored_q = cond(cov_q)
    cond_i, floored_i = cond(cov_i)
    denom = max(np.linalg.norm(cov_q), np.linalg.norm(cov_i))
    gap = float(np.linalg.norm(cov_q - cov_i) / denom) if denom > 0.0 else 0.0
    return AnisotropyReport(cond_q, cond_i, gap, floored_q, floored_i)


def pair_similarity_stats(model, pairs) -> SimilarityStats:
    """Statistics of S(f_q(Q), f_i(I)) over ground-truth pairs.

    Median is the lower middle element for even counts.
    """
    if len(pairs) == 0:
        raise ValueError("empty pair list")
    qs, its = _pair_arrays(pairs)
    fq_q = encoder.encode_batch(model, encoder.QUERY, qs).astype(np.float64)
    fi_i = encoder.encode_batch(model, encoder.ITEM, its).astype(np.float64)
    sims = np.sort(np.einsum("ij,ij->i", fq_q, fi_i))
    median = float(sims[(len(sims) - 1) // 2])
    return SimilarityStats(float(np.mean(sims)), median, float(sims[0]),
                           float(sims[-1]), float(np.std(sims)))


def diagnose(model, pairs, inputs, epsilon: float = EPS_DEFAULT) -> dict:
    """All three reports as one plain dict (the JSON document of the
    `diagnose` CLI subcommand)."""
    align = alignment_error(model, pairs)
    aniso = anisotropy(model, inputs, epsilon)
    stats = pair_similarity_stats(model, pairs)
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
