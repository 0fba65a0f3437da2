"""Seeded k-means: k-means++ initialization followed by Lloyd iterations.

Fully deterministic given (vectors, k, seed). Empty clusters are repaired by
stealing the point currently farthest from its assigned centroid, so the
number of clusters stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import nearest, pairwise_sq_dists
from .errors import DimensionMismatch, TooFewPoints

MAX_ITERS = 25
TOL = 1e-4


@dataclass
class Centroids:
    centers: np.ndarray  # (k, dim) float32
    inertia: float
    iterations_run: int
    inertia_history: list = field(default_factory=list, compare=False)

    def __eq__(self, other):
        if not isinstance(other, Centroids):
            return NotImplemented
        return (np.array_equal(self.centers, other.centers)
                and self.inertia == other.inertia
                and self.iterations_run == other.iterations_run)

    @property
    def k(self):
        return self.centers.shape[0]

    @property
    def dim(self):
        return self.centers.shape[1]


def _kmeans_pp_init(x64, k, rng):
    n = x64.shape[0]
    centers = np.empty((k, x64.shape[1]))
    first = int(rng.integers(0, n))
    centers[0] = x64[first]
    closest = pairwise_sq_dists(x64, centers[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining mass at distance 0: fall back to uniform choice.
            idx = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(closest), r))
            idx = min(idx, n - 1)
        centers[j] = x64[idx]
        closest = np.minimum(closest,
                             pairwise_sq_dists(x64, centers[j:j + 1])[:, 0])
    return centers


def kmeans(vectors, k: int, rng=None) -> Centroids:
    """Cluster into exactly k centers; inertia is non-increasing per iteration."""
    x = np.asarray(vectors, dtype=np.float32)
    if x.ndim != 2:
        raise DimensionMismatch("expected a 2-D array of vectors")
    n = x.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < k:
        raise TooFewPoints(f"{n} vectors for k={k}")
    if rng is None:
        raise ValueError("an explicit rng is required for determinism")
    x64 = x.astype(np.float64)
    centers = _kmeans_pp_init(x64, k, rng)

    inertia_history = []
    iterations = 0
    for it in range(MAX_ITERS):
        labels, point_d = nearest(x64, centers)

        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        while empties.size:
            # Steal the farthest point whose cluster can spare it, so a
            # later repair cannot re-empty an earlier one.
            eligible = np.flatnonzero(counts[labels] > 1)
            victim = int(eligible[np.argmax(point_d[eligible])])
            labels[victim] = empties[0]
            point_d[victim] = 0.0
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)

        inertia = float(point_d.sum())
        inertia_history.append(inertia)
        iterations = it + 1

        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x64)
        new_centers = sums / counts[:, None]
        move = new_centers - centers
        shift = float(np.max(np.sqrt(np.einsum("ij,ij->i", move, move))))
        centers = new_centers
        if shift < TOL:
            break

    final_inertia = float(nearest(x64, centers)[1].sum())
    inertia_history.append(final_inertia)
    return Centroids(centers.astype(np.float32), final_inertia, iterations,
                     inertia_history)


def assign_batch(centroids: Centroids, x) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center of each row by squared L2; ties broken by lowest index."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != centroids.dim:
        raise DimensionMismatch(f"shape {x.shape} vs centroids dim {centroids.dim}")
    return nearest(x, centroids.centers)
