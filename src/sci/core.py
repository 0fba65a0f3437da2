"""Dense vector primitives: float32 storage, 64-bit accumulation, seeded RNG,
and the package's one squared-L2 kernel with its nearest / top-k rules.

Vectors and matrices are plain numpy float32 arrays. All reductions are
performed in float64 so results do not drift with vector length. Every k-means
assignment, PQ encode, coarse probe, list scan and exact search selects through
`nearest` (ties to the lowest index) or `top_k` (ties by ascending key).
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroNorm

# Float64 elements in one difference tensor of `pairwise_sq_dists` (512 KiB),
# or one row of x against all of c when that alone is larger.
_BLOCK_ELEMS = 1 << 16


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


def as_ids(ids) -> np.ndarray:
    """Coerce ids to uint64, refusing (not truncating or wrapping) a
    non-integer dtype or a negative id."""
    a = np.asarray(ids)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"ids must be integers, got dtype {a.dtype}")
    if np.any(a < 0):
        raise ValueError("ids must be non-negative")
    return a.astype(np.uint64, copy=False)


def row_normalize(x: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a 2-D float64 array. Raises ZeroNorm on a zero row."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if np.any(norms == 0.0):
        raise ZeroNorm("zero row encountered during normalization")
    return x / norms[:, None]


def pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances, rows of x against rows of c (float64).

    Computed with the explicit difference (not the expansion identity) so the
    result is exactly the per-row sum of squared differences. Rows of x are
    taken in blocks, so one difference tensor holds at most
    max(_BLOCK_ELEMS, k*d) elements for c of shape (k, d); no bit changes.
    """
    x = x.astype(np.float64, copy=False)
    c = c.astype(np.float64, copy=False)
    step = max(1, _BLOCK_ELEMS // max(1, c.shape[0] * x.shape[1]))
    out = np.empty((x.shape[0], c.shape[0]))
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - c[None, :, :]
        np.einsum("ijk,ijk->ij", diff, diff, out=out[start:start + step])
    return out


def nearest(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of x, the index of its nearest row of c by squared L2
    (ties to the lowest index) and that squared distance (float64)."""
    d = pairwise_sq_dists(x, c)
    idx = np.argmin(d, axis=1)
    return idx, d[np.arange(d.shape[0]), idx]


def top_k(d: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of d in ascending order, ties
    broken by ascending key (all positions when k >= len(d))."""
    return np.lexsort((keys, d))[:k]
