import numpy as np
import pytest

from sci import clustering
from sci.core import make_rng, pairwise_sq_dists
from sci.errors import DimensionMismatch, TooFewPoints

from conftest import count_message


def lloyd_oracle(x, k, rng, iters=50):
    """Plain Lloyd from a random-subset init, for inertia comparison."""
    x = x.astype(np.float64)
    centers = x[rng.choice(len(x), size=k, replace=False)]
    for _ in range(iters):
        d = pairwise_sq_dists(x, centers)
        labels = np.argmin(d, axis=1)
        for j in range(k):
            members = x[labels == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    d = pairwise_sq_dists(x, centers)
    return float(d[np.arange(len(x)), np.argmin(d, axis=1)].sum())


def kmeans_reference(vectors, k, rng):
    """Lloyd's loop as first written: the explicit all-pairs kernel, argmin,
    np.add.at and the empty-cluster repair. Returns the Centroids fields and
    the number of repairs."""
    x64 = np.asarray(vectors, dtype=np.float32).astype(np.float64)
    n = len(x64)
    centers = clustering._kmeans_pp_init(x64, k, rng)
    history, repairs = [], 0
    for it in range(clustering.MAX_ITERS):
        d = pairwise_sq_dists(x64, centers)
        labels = np.argmin(d, axis=1)
        point_d = d[np.arange(n), labels]
        counts = np.bincount(labels, minlength=k)
        empties = np.flatnonzero(counts == 0)
        while empties.size:
            eligible = np.flatnonzero(counts[labels] > 1)
            victim = int(eligible[np.argmax(point_d[eligible])])
            labels[victim] = empties[0]
            point_d[victim] = 0.0
            repairs += 1
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
        history.append(float(point_d.sum()))
        sums = np.zeros_like(centers)
        np.add.at(sums, labels, x64)
        new_centers = sums / counts[:, None]
        move = new_centers - centers
        shift = float(np.max(np.sqrt(np.einsum("ij,ij->i", move, move))))
        centers = new_centers
        if shift < clustering.TOL:
            break
    d = pairwise_sq_dists(x64, centers)
    inertia = float(d[np.arange(n), np.argmin(d, axis=1)].sum())
    history.append(inertia)
    return centers.astype(np.float32), inertia, it + 1, history, repairs


class TestKmeans:
    def test_k1_center_is_mean(self, rng):
        x = rng.normal(size=(50, 4)).astype(np.float32)
        c = clustering.kmeans(x, 1, rng=make_rng(0))
        assert np.allclose(c.centers[0], x.astype(np.float64).mean(axis=0),
                           atol=1e-5)

    def test_two_separated_blobs(self, rng):
        a = rng.normal(size=(40, 3)).astype(np.float32) * 0.01 + 10.0
        b = rng.normal(size=(40, 3)).astype(np.float32) * 0.01 - 10.0
        x = np.concatenate([a, b])
        c = clustering.kmeans(x, 2, rng=make_rng(1))
        means = sorted([a.astype(np.float64).mean(axis=0),
                        b.astype(np.float64).mean(axis=0)],
                       key=lambda v: v[0])
        got = sorted(c.centers.tolist(), key=lambda v: v[0])
        assert np.allclose(got, means, atol=1e-4)

    def test_beats_naive_lloyd_best_of_10(self):
        x = make_rng(3).normal(size=(200, 6)).astype(np.float32)
        ours = clustering.kmeans(x, 8, rng=make_rng(3)).inertia
        oracle_rng = make_rng(99)
        best = min(lloyd_oracle(x, 8, oracle_rng) for _ in range(10))
        assert ours <= best * 1.05

    def test_inertia_non_increasing(self, rng):
        x = rng.normal(size=(300, 5)).astype(np.float32)
        c = clustering.kmeans(x, 6, rng=make_rng(2))
        hist = c.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self, rng):
        x = rng.normal(size=(100, 4)).astype(np.float32)
        c1 = clustering.kmeans(x, 5, rng=make_rng(7))
        c2 = clustering.kmeans(x, 5, rng=make_rng(7))
        assert c1 == c2

    def test_exact_k_clusters_with_duplicates(self):
        # More clusters than distinct points forces the empty-cluster repair.
        x = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]], dtype=np.float32),
                      5, axis=0)
        c = clustering.kmeans(x, 4, rng=make_rng(0))
        assert c.k == 4

    @pytest.mark.parametrize("case", ["blobs", "offset", "duplicates"])
    def test_bitwise_equal_to_the_reference_loop(self, case):
        rng = make_rng(11)
        if case == "blobs":
            x, k = rng.normal(size=(3000, 16)).astype(np.float32), 64
        elif case == "offset":
            # Far from the origin, where a matrix-product score rounds
            # coarsely and near-ties are common.
            x = (1e3 + rng.normal(size=(800, 8))).astype(np.float32)
            k = 16
        else:
            # Six distinct points for k = 20: every iteration repairs.
            x = np.repeat(rng.normal(size=(6, 4)).astype(np.float32), 5,
                          axis=0)
            k = 20
        got = clustering.kmeans(x, k, rng=make_rng(5))
        centers, inertia, iterations, history, repairs = kmeans_reference(
            x, k, make_rng(5))
        assert np.array_equal(got.centers, centers)
        assert got.inertia == inertia
        assert got.iterations_run == iterations
        assert got.inertia_history == history
        if case == "duplicates":
            assert repairs > 0

    @pytest.mark.parametrize("k", [0, -1, True, 2.5, "3"])
    def test_k_below_one(self, k):
        with pytest.raises(ValueError, match=count_message("k", k)):
            clustering.kmeans(np.zeros((3, 2), dtype=np.float32), k,
                              rng=make_rng(0))

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            clustering.kmeans(np.zeros((3, 2), dtype=np.float32), 5,
                              rng=make_rng(0))

    def test_requires_rng(self):
        with pytest.raises(TypeError):
            clustering.kmeans(np.zeros((10, 2), dtype=np.float32), 2)


class TestAssign:
    def _centroids(self):
        centers = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0], [0.0, 4.0],
                            [0.0, 6.0], [5.0, 5.0]], dtype=np.float32)
        return clustering.Centroids(centers, 0.0, 0)

    def test_exact_center(self):
        c = self._centroids()
        labels, d = clustering.assign_batch(c, [[5.0, 5.0]])
        assert (labels[0], d[0]) == (5, 0.0)

    def test_tie_break_lowest_index(self):
        c = self._centroids()
        # (2, 0) is equidistant from centers 1 and 2.
        labels, _ = clustering.assign_batch(c, [[2.0, 0.0]])
        assert labels[0] == 1

    def test_matches_linear_scan(self, rng):
        c = self._centroids()
        for _ in range(20):
            x = rng.normal(size=2).astype(np.float32) * 3.0
            labels, d = clustering.assign_batch(c, [x])
            dists = [float(np.sum((x.astype(np.float64) -
                                   ctr.astype(np.float64)) ** 2))
                     for ctr in c.centers]
            assert labels[0] == int(np.argmin(dists))
            assert d[0] == pytest.approx(min(dists), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            clustering.assign_batch(self._centroids(), [[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatch):
            clustering.assign_batch(self._centroids(), [1.0, 2.0])

    def test_batch_matches_scalar(self, rng):
        c = self._centroids()
        xs = rng.normal(size=(15, 2)).astype(np.float32)
        labels, dists = clustering.assign_batch(c, xs)
        for i, x in enumerate(xs):
            j, d = clustering.assign_batch(c, x[None])
            assert labels[i] == j[0]
            assert dists[i] == d[0]
