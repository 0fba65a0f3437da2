"""Dense vector primitives: float32 storage, 64-bit accumulation, seeded RNG.

Vectors and matrices are plain numpy float32 arrays. All reductions are
performed in float64 so results do not drift with vector length.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroNorm


def make_rng(seed: int) -> np.random.Generator:
    """Seeded, platform-stable generator (PCG64 counter stream).

    Identical seed produces an identical stream on every platform. No OS
    entropy is consumed anywhere in the package.
    """
    return np.random.Generator(np.random.PCG64(seed))


def as_f32(x, name: str = "vector") -> np.ndarray:
    """Coerce to a float32 array, rejecting NaN/Inf."""
    a = np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def row_normalize(x: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a 2-D float64 array. Raises ZeroNorm on a zero row."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if np.any(norms == 0.0):
        raise ZeroNorm("zero row encountered during normalization")
    return x / norms[:, None]


def pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances, rows of x against rows of c (float64).

    Computed with the explicit difference (not the expansion identity) so the
    result is exactly the per-row sum of squared differences.
    """
    x = x.astype(np.float64, copy=False)
    c = c.astype(np.float64, copy=False)
    diff = x[:, None, :] - c[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)
