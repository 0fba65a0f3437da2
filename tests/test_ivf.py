import struct
import tracemalloc

import numpy as np
import pytest

from sci import clustering, encoder, evaluation, ivf, quantization
from sci import core
from sci.core import make_rng
from sci.errors import (CorruptFile, CorruptIndex, DimensionMismatch,
                        DuplicateItem, TooFewPoints)

from conftest import clone_model, count_message, linear_model


def make_items(rng, n, dim):
    """Item ids 0..n-1 and their feature rows."""
    return np.arange(n, dtype=np.uint64), \
        rng.normal(size=(n, dim)).astype(np.float32)


def ranked(ids, dists):
    """One row of a `brute_force_search` result in `SearchResult.ranked` form."""
    return list(zip(ids.tolist(), dists.tolist()))


def symmetric_model(dim, seed=0):
    m = linear_model(dim, dim, seed=seed)
    m.params_i = {k: v.copy() for k, v in m.params_q.items()}
    return m


class TestComputeResidual:
    """The residual `build` stores: assign the structural vector as a one-row
    batch, subtract that centroid from the representation vector."""

    def _centroids(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]],
                           dtype=np.float32)
        return clustering.Centroids(centers, 0.0, 0)

    @staticmethod
    def _residual(e_struct, e_repr, c):
        labels, _ = clustering.assign_batch(c, [e_struct])
        r = ivf._residuals(np.array([e_repr], dtype=np.float32), c.centers,
                           labels)
        return labels[0], r[0]

    def test_centered_item(self):
        c = self._centroids()
        cid, r = self._residual([1.0, 0.0], [1.0, 0.0], c)
        assert cid == 0
        assert np.all(r == 0.0)

    def test_cross_space_arithmetic(self):
        c = self._centroids()
        cid, r = self._residual([2.0, 2.0], [2.1, 2.0], c)
        assert cid == 2
        assert np.allclose(r, [0.1, 0.0], atol=1e-6)

    def test_aligned_towers_match_single_space_residual(self, rng):
        c = self._centroids()
        e = rng.normal(size=2).astype(np.float32)
        cid, r = self._residual(e, e, c)
        expected = e.astype(np.float64) - c.centers[cid].astype(np.float64)
        assert np.allclose(r, expected, atol=1e-6)


class TestBuild:
    def test_symmetric_towers_identical_assignments(self, rng):
        m = symmetric_model(6)
        ids, feats = make_items(rng, 80, 6)
        std = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 4, make_rng(1))
        ci = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 4, make_rng(1))
        for a, b in zip(std.list_ids, ci.list_ids):
            assert np.array_equal(a, b)

    def test_nlist_one_is_exhaustive(self, rng):
        m = linear_model(4, 4, seed=2)
        ids, feats = make_items(rng, 30, 4)
        index = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 1, make_rng(0))
        assert len(index.list_ids[0]) == 30
        q = rng.normal(size=4).astype(np.float32)
        got = ivf.search(index, m, q, 1, 30)
        e_q = encoder.encode_batch(m, encoder.QUERY, q[None])
        ref_ids, ref_dists = evaluation.brute_force_search(
            ids, encoder.encode_batch(m, encoder.ITEM, feats), e_q, 30)
        assert got.ranked == ranked(ref_ids[0], ref_dists[0])

    def test_mode_specific_clustering_spaces(self, rng):
        # Two tight latent blobs; item tower = identity, query tower = a
        # 90-degree rotation, so the two spaces cluster differently.
        m = linear_model(2, 2, normalize=False)
        m.params_i["W"] = np.eye(2, dtype=np.float32)
        m.params_q["W"] = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.float32)
        blob_a = rng.normal(size=(20, 2)).astype(np.float32) * 0.05 + [3.0, 0.0]
        blob_b = rng.normal(size=(20, 2)).astype(np.float32) * 0.05 - [3.0, 0.0]
        feats = np.concatenate([blob_a, blob_b])
        ids = np.arange(40)

        std = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 2, make_rng(4))
        ci = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 2, make_rng(4))

        e_item = encoder.encode_batch(m, encoder.ITEM, feats)
        e_query = encoder.encode_batch(m, encoder.QUERY, feats)
        std_oracle = clustering.kmeans(e_item, 2, rng=make_rng(4))
        ci_oracle = clustering.kmeans(e_query, 2, rng=make_rng(4))
        std_labels, _ = clustering.assign_batch(std_oracle, e_item)
        ci_labels, _ = clustering.assign_batch(ci_oracle, e_query)

        for index, labels in ((std, std_labels), (ci, ci_labels)):
            for j in range(2):
                assert set(index.list_ids[j].tolist()) == \
                    set(np.flatnonzero(labels == j).tolist())

    def test_duplicate_ids_rejected(self, rng):
        m = linear_model(4, 4)
        ids, feats = make_items(rng, 10, 4)
        ids[3] = 0
        with pytest.raises(DuplicateItem, match="item id 0 repeated at row 3"):
            ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 2, make_rng(0))

    @pytest.mark.parametrize("mode, variant, residual_space, message", [
        ("x", ivf.FLAT, ivf.RESIDUAL_REPR, "unknown mode 'x'"),
        (ivf.CI, "x", ivf.RESIDUAL_REPR, "unknown variant 'x'"),
        (ivf.CI, ivf.PQ, "x", "unknown residual_space 'x'")],
        ids=["mode", "variant", "residual_space"])
    def test_unknown_option(self, rng, mode, variant, residual_space,
                            message):
        m = linear_model(4, 4)
        with pytest.raises(ValueError, match=message):
            ivf.build(m, *make_items(rng, 40, 4), mode, variant, 2,
                      make_rng(0), pq_m=2, residual_space=residual_space)

    def test_ids_must_line_up_with_rows(self, rng):
        m = linear_model(4, 4)
        ids, feats = make_items(rng, 10, 4)
        for bad_ids, bad_feats in ((ids[:9], feats), (ids, feats[:9]),
                                   (ids[:, None], feats), (ids[:4], feats[0])):
            with pytest.raises(DimensionMismatch):
                ivf.build(m, bad_ids, bad_feats, ivf.STANDARD, ivf.FLAT, 2,
                          make_rng(0))

    def test_too_few_items(self, rng):
        m = linear_model(4, 4)
        with pytest.raises(TooFewPoints):
            ivf.build(m, *make_items(rng, 3, 4), ivf.STANDARD, ivf.FLAT, 8,
                      make_rng(0))

    @pytest.mark.parametrize("nlist", [0, -3, True, 2.5, "3"])
    def test_nlist_below_one(self, rng, nlist):
        m = linear_model(4, 4)
        with pytest.raises(ValueError, match=count_message("nlist", nlist)):
            ivf.build(m, *make_items(rng, 10, 4), ivf.STANDARD, ivf.FLAT,
                      nlist, make_rng(0))
        assert m.encode_calls == 0

    def test_pq_residual_space_ablation(self, rng):
        m = linear_model(6, 6, seed=3)
        ids, feats = make_items(rng, 64, 6)
        a = ivf.build(m, ids, feats, ivf.CI, ivf.PQ, 2, make_rng(0), pq_m=2,
                      pq_ksub=8, residual_space=ivf.RESIDUAL_REPR)
        b = ivf.build(m, ids, feats, ivf.CI, ivf.PQ, 2, make_rng(0), pq_m=2,
                      pq_ksub=8, residual_space=ivf.RESIDUAL_STRUCT)
        assert a.residual_space == ivf.RESIDUAL_REPR
        assert b.residual_space == ivf.RESIDUAL_STRUCT
        assert not np.array_equal(a.codebook.codebooks, b.codebook.codebooks)


class TestSearch:
    def test_exhaustive_probe_equals_brute_force(self, rng):
        m = linear_model(5, 5, seed=6)
        ids, feats = make_items(rng, 100, 5)
        for mode in (ivf.STANDARD, ivf.CI):
            index = ivf.build(m, ids, feats, mode, ivf.FLAT, 8, make_rng(2))
            e_items = encoder.encode_batch(m, encoder.ITEM, feats)
            for _ in range(10):
                q = rng.normal(size=5).astype(np.float32)
                got = ivf.search(index, m, q, 8, 10)
                ref_ids, ref_dists = evaluation.brute_force_search(
                    ids, e_items, encoder.encode_batch(m, encoder.QUERY, q[None]),
                    10)
                assert got.ranked == ranked(ref_ids[0], ref_dists[0])

    @pytest.mark.parametrize("variant", [ivf.FLAT, ivf.PQ])
    def test_model_of_another_output_dim_is_refused(self, rng, variant):
        ids, feats = make_items(rng, 60, 4)
        index = ivf.build(linear_model(4, 4, seed=1), ids, feats, ivf.CI,
                          variant, 4, make_rng(0), pq_m=2, pq_ksub=8)
        other = linear_model(4, 2, seed=1)
        with pytest.raises(DimensionMismatch,
                           match="model output_dim 2 != index dim 4"):
            ivf.search_batch(index, other, feats[:3], 2, 5)
        assert other.encode_calls == 0

    def test_stored_payload_query_ranks_first(self, rng):
        # With identical towers the query encoding of an item's feature
        # equals its stored payload exactly.
        m = symmetric_model(4, seed=8)
        ids, feats = make_items(rng, 40, 4)
        index = ivf.build(m, ids, feats, ivf.STANDARD, ivf.FLAT, 4, make_rng(1))
        result = ivf.search(index, m, feats[17], 4, 5)
        assert result.ranked[0][0] == 17
        assert result.ranked[0][1] == pytest.approx(0.0, abs=1e-10)

    def test_pq_lossless_construction_reproduces_flat(self, rng):
        # nlist=1, m=1, one codeword per item: residual quantization is exact,
        # so ADC scores equal the Flat distances.
        m = linear_model(4, 4, seed=9)
        ids, feats = make_items(rng, 24, 4)
        flat = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 1, make_rng(0))
        pq = ivf.build(m, ids, feats, ivf.CI, ivf.PQ, 1, make_rng(0), pq_m=1,
                       pq_ksub=24)
        assert pq.mean_reconstruction_error == pytest.approx(0.0, abs=1e-10)
        for _ in range(5):
            q = rng.normal(size=4).astype(np.float32)
            got_flat = ivf.search(flat, m, q, 1, 24)
            got_pq = ivf.search(pq, m, q, 1, 24)
            assert [i for i, _ in got_flat.ranked] == \
                [i for i, _ in got_pq.ranked]
            for (_, a), (_, b) in zip(got_flat.ranked, got_pq.ranked):
                assert a == pytest.approx(b, abs=1e-5)

    def test_probed_cluster_count(self, rng):
        m = linear_model(4, 4)
        index = ivf.build(m, *make_items(rng, 50, 4), ivf.CI, ivf.FLAT, 8,
                          make_rng(0))
        for nprobe in (1, 3, 8, 20):
            result = ivf.search(index, m, rng.normal(size=4).astype(np.float32),
                                nprobe, 5)
            assert len(result.probed_clusters) == min(nprobe, 8)

    def test_bad_arguments(self, rng):
        m = linear_model(4, 4)
        index = ivf.build(m, *make_items(rng, 20, 4), ivf.CI, ivf.FLAT, 2,
                          make_rng(0))
        for bad in (0, True, 2.5, "3"):
            for name, nprobe, k in (("nprobe", bad, 5), ("k", 1, bad)):
                with pytest.raises(ValueError,
                                   match=count_message(name, bad)):
                    ivf.search(index, m, np.zeros(4, dtype=np.float32),
                               nprobe, k)


class TestSearchBatch:
    @staticmethod
    def _indexes(rng):
        m = linear_model(6, 6, seed=4)
        ids, feats = make_items(rng, 120, 6)
        flat = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 8, make_rng(5))
        pq = ivf.build(m, ids, feats, ivf.STANDARD, ivf.PQ, 8, make_rng(5),
                       pq_m=2, pq_ksub=8)
        return m, flat, pq

    @pytest.mark.parametrize("block_elems", [core._BLOCK_ELEMS, 40])
    def test_rows_equal_single_query_search(self, rng, monkeypatch,
                                            block_elems):
        # A small block puts several blocks in a batch of 26 queries; at 40
        # the flat ones hold five queries, and the last holds a lone one.
        monkeypatch.setattr(ivf, "_BLOCK_ELEMS", block_elems)
        m, flat, pq = self._indexes(rng)
        Q = rng.normal(size=(26, 6)).astype(np.float32)
        for index in (flat, pq):
            for empty in (False, True):
                if empty:
                    j = int(np.argmax([len(ids) for ids in index.list_ids]))
                    index.list_ids[j] = index.list_ids[j][:0]
                    index.list_payload[j] = index.list_payload[j][:0]
                for nprobe in (1, 4, 8, 11):
                    for k in (5, 200):
                        batch = ivf.search_batch(index, m, Q, nprobe, k)
                        assert len(batch) == len(Q)
                        for q, got in zip(Q, batch):
                            want = ivf.search(index, m, q, nprobe, k)
                            assert got.ranked == want.ranked
                            assert got.probed_clusters == want.probed_clusters
                        if k == 200 and nprobe >= 8:
                            assert len(batch[0].ranked) == \
                                sum(len(ids) for ids in index.list_ids)

    @staticmethod
    def _reference_scan(index, m, Q, nprobe, k):
        """The scan written out: a full sort of the coarse distances, one
        `adc_distances_batch` per probed list, a full lexsort of all the
        candidates."""
        centers = index.centroids.centers
        e_q = encoder.encode_batch(m, encoder.QUERY, Q)
        out = []
        for e, coarse in zip(e_q, core.pairwise_sq_dists(e_q, centers)):
            probe = np.lexsort((np.arange(index.nlist), coarse))[:nprobe]
            ids = np.concatenate([index.list_ids[j] for j in probe])
            if index.variant == ivf.FLAT:
                dists = core.pairwise_sq_dists(
                    np.concatenate([index.list_payload[j] for j in probe]),
                    e[None])[:, 0]
            else:
                tables = quantization.adc_table(index.codebook, (
                    e.astype(np.float64) - centers[probe].astype(np.float64)
                ).astype(np.float32))
                dists = np.concatenate([
                    quantization.adc_distances_batch(t, index.list_payload[j])
                    for t, j in zip(tables, probe)])
            order = np.lexsort((ids, dists))[:k]
            out.append(([(int(ids[i]), float(dists[i])) for i in order],
                        probe.tolist()))
        return out

    def test_equals_a_per_list_scan_and_full_sort(self, rng):
        # Every item appears twice under two ids, so equal distances are
        # decided by id; nprobe=1 with k=300 leaves fewer candidates than k.
        m = linear_model(8, 8, seed=3)
        feats = rng.normal(size=(150, 8)).astype(np.float32)
        feats = np.concatenate([feats, feats])
        ids = rng.permutation(1000)[:300].astype(np.uint64)
        Q = np.concatenate([rng.normal(size=(12, 8)).astype(np.float32),
                            feats[:3]])
        for variant, ksub in ((ivf.FLAT, 16), (ivf.PQ, 16), (ivf.PQ, 256)):
            index = ivf.build(m, ids, feats, ivf.CI, variant, 6, make_rng(1),
                              pq_m=4, pq_ksub=ksub)
            for nprobe, k in ((1, 300), (2, 5), (3, 1), (6, 400), (9, 17)):
                got = ivf.search_batch(index, m, Q, nprobe, k)
                want = self._reference_scan(index, m, Q, nprobe, k)
                assert [(r.ranked, r.probed_clusters) for r in got] == want
                if nprobe == 1:
                    assert all(len(r.ranked) < k for r in got)

    def test_zero_rows_and_bad_shapes(self, rng):
        m, flat, _ = self._indexes(rng)
        assert ivf.search_batch(flat, m, np.zeros((0, 6), np.float32), 2,
                                5) == []
        for shape in ((6,), (2, 3, 6)):
            with pytest.raises(DimensionMismatch):
                ivf.search_batch(flat, m, np.zeros(shape, np.float32), 2, 5)

    def test_memory_does_not_grow_with_the_query_count(self, rng):
        # Unblocked, the ADC tables of 300 queries probing all 16 lists with
        # m=4, ksub=256 would take 300 x 16 x 4 x 256 x 8 B = 39 MB.
        m = linear_model(8, 8, seed=2)
        index = ivf.build(m, *make_items(rng, 600, 8), ivf.CI, ivf.PQ, 16,
                          make_rng(0), pq_m=4, pq_ksub=256)
        Q = rng.normal(size=(300, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            results = ivf.search_batch(index, m, Q, 16, 3)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 300
        assert peak - held < 6 * core._BLOCK_ELEMS * 8

    @pytest.mark.parametrize("block_elems", [core._BLOCK_ELEMS, 2000, 20])
    def test_flat_blocks_equal_the_reference_scan(self, rng, monkeypatch,
                                                  block_elems):
        # At 2000 the queries scan in sub-blocks of about eight rows, at 20
        # in blocks of two queries and sub-blocks of one, with the exact
        # distances taken two pairs at a time. Each item is stored twice
        # under two ids, two lists are emptied (so some queries probe only
        # empty lists at nprobe=1), and k runs past the candidates.
        monkeypatch.setattr(ivf, "_BLOCK_ELEMS", block_elems)
        monkeypatch.setattr(core, "_BLOCK_ELEMS", block_elems)
        m = linear_model(8, 8, seed=5)
        feats = rng.normal(size=(120, 8)).astype(np.float32)
        feats = np.concatenate([feats, feats])
        ids = rng.permutation(1000)[:240].astype(np.uint64)
        index = ivf.build(m, ids, feats, ivf.CI, ivf.FLAT, 8, make_rng(2))
        for j in np.argsort([len(i) for i in index.list_ids])[-2:]:
            index.list_ids[j] = index.list_ids[j][:0]
            index.list_payload[j] = index.list_payload[j][:0]
        Q = np.concatenate([rng.normal(size=(40, 8)).astype(np.float32),
                            feats[:3]])
        for rows in (Q[:1], Q[-1:], Q[:2], Q):
            for nprobe, k in ((1, 5), (1, 300), (3, 1), (3, 17), (8, 400)):
                got = ivf.search_batch(index, m, rows, nprobe, k)
                want = self._reference_scan(index, m, rows, nprobe, k)
                assert [(r.ranked, r.probed_clusters) for r in got] == want
        assert any(not r.ranked for r in ivf.search_batch(index, m, Q, 1, 5))

    def test_flat_memory_does_not_grow_with_the_query_count(self, rng):
        # 3000 queries make one encode block. Probing 4 of 16 lists, every
        # sub-block cuts its rows to their own columns; at k=600 every
        # candidate survives. Beyond the float64 union (600 x 8 x 8 B), each
        # temporary is one sub-block's worth of _BLOCK_ELEMS values, not
        # one block's: the block's candidate columns alone would take
        # 3000 x 150 x 8 B = 3.6 MB.
        m = linear_model(8, 8, seed=2)
        index = ivf.build(m, *make_items(rng, 600, 8), ivf.CI, ivf.FLAT, 16,
                          make_rng(0))
        Q = rng.normal(size=(3000, 8)).astype(np.float32)
        for rows, nprobe, k in ((Q, 4, 3), (Q, 16, 3), (Q[:300], 4, 600)):
            tracemalloc.start()
            try:
                results = ivf.search_batch(index, m, rows, nprobe, k)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results) == len(rows)
            assert peak - held < 6 * core._BLOCK_ELEMS * 8 + 600 * 8 * 8


class TestSerialization:
    def test_flat_round_trip(self, rng, tmp_path):
        m = linear_model(5, 5, seed=1)
        index = ivf.build(m, *make_items(rng, 60, 5), ivf.CI, ivf.FLAT, 4,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        assert ivf.load(path) == index

    def test_pq_round_trip(self, rng, tmp_path):
        m = linear_model(8, 8, seed=2)
        index = ivf.build(m, *make_items(rng, 80, 8), ivf.CI, ivf.PQ, 4,
                          make_rng(3), pq_m=2, pq_ksub=8,
                          residual_space=ivf.RESIDUAL_STRUCT)
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        loaded = ivf.load(path)
        assert loaded.residual_space == ivf.RESIDUAL_STRUCT
        assert loaded == index

    @staticmethod
    def _build_80(variant):
        m = linear_model(8, 8, seed=2)
        return ivf.build(m, *make_items(make_rng(4), 80, 8), ivf.CI, variant,
                         4, make_rng(3), pq_m=2, pq_ksub=8)

    @pytest.mark.parametrize("variant", [ivf.FLAT, ivf.PQ])
    def test_equal_indexes_compare_equal(self, tmp_path, variant):
        index = self._build_80(variant)
        assert self._build_80(variant) == index
        ivf.save(index, tmp_path / "index.scix")
        assert ivf.load(tmp_path / "index.scix") == index

    @pytest.mark.parametrize("variant, part", [
        (ivf.FLAT, "id"), (ivf.FLAT, "payload"), (ivf.FLAT, "centroid"),
        (ivf.PQ, "id"), (ivf.PQ, "payload"), (ivf.PQ, "centroid"),
        (ivf.PQ, "codeword")])
    def test_one_changed_value_makes_indexes_unequal(self, variant, part):
        index, other = self._build_80(variant), self._build_80(variant)
        array, at = {"id": (lambda i: i.list_ids[0], 0),
                     "payload": (lambda i: i.list_payload[0], (0, 0)),
                     "centroid": (lambda i: i.centroids.centers, (1, 2)),
                     "codeword": (lambda i: i.codebook.codebooks, (1, 3, 0)),
                     }[part]
        array(other)[at] += 1
        assert other != index and index != other

    def test_search_identical_after_round_trip(self, rng, tmp_path):
        m = linear_model(5, 5, seed=1)
        index = ivf.build(m, *make_items(rng, 60, 5), ivf.CI, ivf.FLAT, 4,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        loaded = ivf.load(path)
        q = rng.normal(size=5).astype(np.float32)
        assert ivf.search(loaded, m, q, 4, 10).ranked == \
            ivf.search(index, m, q, 4, 10).ranked

    def test_truncation_detected(self, rng, tmp_path):
        m = linear_model(5, 5, seed=1)
        index = ivf.build(m, *make_items(rng, 60, 5), ivf.CI, ivf.FLAT, 4,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        data = path.read_bytes()
        (tmp_path / "trunc.scix").write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptIndex) as exc:
            ivf.load(tmp_path / "trunc.scix")
        assert exc.value.offset <= len(data) // 2

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.scix").write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptIndex) as exc:
            ivf.load(tmp_path / "bad.scix")
        assert exc.value.offset == 0

    def test_trailing_bytes(self, rng, tmp_path):
        m = linear_model(5, 5, seed=1)
        index = ivf.build(m, *make_items(rng, 60, 5), ivf.CI, ivf.FLAT, 4,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptIndex):
            ivf.load(path)

    def test_corrupt_index_is_a_corrupt_file(self, tmp_path):
        (tmp_path / "bad.scix").write_bytes(b"SCIX")
        with pytest.raises(CorruptFile):
            ivf.load(tmp_path / "bad.scix")

    @staticmethod
    def _flat_file(dim, nlist, lists):
        """A hand-made flat .scix with zero-valued centroids and payloads,
        inertia 0 after one k-means iteration."""
        n_items = sum(len(ids) for ids in lists)
        parts = [b"SCIX", struct.pack("<I", 1), bytes([0, 1, 0, 0]),
                 struct.pack("<IIQ", dim, nlist, n_items),
                 b"\x00" * (4 * nlist * dim), struct.pack("<dI", 0.0, 1)]
        for ids in lists:
            parts.append(struct.pack("<Q", len(ids)))
            parts.append(np.asarray(ids, dtype="<u8").tobytes())
            parts.append(b"\x00" * (4 * len(ids) * dim))
        return b"".join(parts)

    def test_zero_nlist(self, tmp_path):
        path = tmp_path / "index.scix"
        path.write_bytes(self._flat_file(4, 0, []))
        with pytest.raises(CorruptIndex) as exc:
            ivf.load(path)
        assert exc.value.offset == 16

    def test_zero_dim(self, tmp_path):
        path = tmp_path / "index.scix"
        path.write_bytes(self._flat_file(0, 1, [[7]]))
        with pytest.raises(CorruptIndex) as exc:
            ivf.load(path)
        assert exc.value.offset == 12

    @pytest.mark.parametrize("pq_m", [1, 2, 255])
    def test_flat_index_with_sub_quantizers(self, tmp_path, pq_m):
        data = bytearray(self._flat_file(4, 1, [[7]]))
        data[10] = pq_m
        path = tmp_path / "index.scix"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndex, match=f"count {pq_m} for a flat") \
                as exc:
            ivf.load(path)
        assert exc.value.offset == 10

    @pytest.mark.parametrize("lists, position", [
        ([[3, 9], [5, 9, 4]], (1, 1)),
        ([[2, 2, 2]], (0, 1)),
        ([[8, 1], [], [6, 1, 8]], (2, 1))],
        ids=["across-lists", "within-a-list", "twice-after-an-empty-list"])
    def test_repeated_item_id(self, tmp_path, lists, position):
        dim, nlist = 2, len(lists)
        path = tmp_path / "index.scix"
        path.write_bytes(self._flat_file(dim, nlist, lists))
        # the first id, in file order, that an earlier id repeats
        j, row = position
        offset = 28 + 4 * nlist * dim + 12 + sum(
            8 + 8 * len(ids) + 4 * dim * len(ids) for ids in lists[:j])
        offset += 8 + 8 * row
        with pytest.raises(CorruptIndex,
                           match=f"item id {lists[j][row]} repeated") as exc:
            ivf.load(path)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("field, value, message", [
        ("<d", float("nan"), "non-finite"),
        ("<d", -5.0, "negative inertia"),
        ("<d", -0.5, "negative inertia"),
        ("<I", 0, "iteration count 0 outside 1..25"),
        ("<I", clustering.MAX_ITERS + 1, "iteration count 26 outside"),
        ("<I", 4000000000, "iteration count 4000000000 outside")])
    def test_centroid_block_build_never_writes(self, rng, tmp_path, field,
                                               value, message):
        m = linear_model(4, 4, seed=2)
        index = ivf.build(m, *make_items(rng, 40, 4), ivf.CI, ivf.FLAT, 2,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        # header 28, centroids 2 x 4 f32, then inertia f64, iterations u32
        offset = 28 + 4 * 2 * 4 + (0 if field == "<d" else 8)
        data = bytearray(path.read_bytes())
        data[offset:offset + struct.calcsize(field)] = struct.pack(field, value)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndex, match=message) as exc:
            ivf.load(path)
        assert exc.value.offset == offset

    def test_pq_code_not_below_ksub(self, rng, tmp_path):
        m = linear_model(8, 8, seed=2)
        index = ivf.build(m, *make_items(rng, 80, 8), ivf.CI, ivf.PQ, 4,
                          make_rng(3), pq_m=2, pq_ksub=16)
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        assert len(index.list_ids[0]) > 0
        first_code = 28 + 4 * 4 * 8 + 12 + 8 + 8 * len(index.list_ids[0])
        data = bytearray(path.read_bytes())
        assert data[first_code] == index.list_payload[0][0, 0]
        for code in (200, 16):  # 16 == ksub, the first code out of range
            data[first_code] = code
            path.write_bytes(bytes(data))
            with pytest.raises(CorruptIndex) as exc:
                ivf.load(path)
            assert exc.value.offset == first_code

    @pytest.mark.parametrize("ksub", [0, 257])
    def test_ksub_outside_1_to_256(self, rng, tmp_path, ksub):
        m = linear_model(8, 8, seed=2)
        index = ivf.build(m, *make_items(rng, 80, 8), ivf.CI, ivf.PQ, 4,
                          make_rng(3), pq_m=2, pq_ksub=16)
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        # ksub u32, then codebooks f32[2 * 16 * 4] and train_mse f64[2]
        data = bytearray(path.read_bytes())
        offset = len(data) - 4 * 2 * 16 * 4 - 8 * 2 - 4
        assert data[offset:offset + 4] == struct.pack("<I", 16)
        data[offset:offset + 4] = struct.pack("<I", ksub)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndex, match=f"bad ksub {ksub}") as exc:
            ivf.load(path)
        assert exc.value.offset == offset

    def test_non_finite_payload(self, rng, tmp_path):
        m = linear_model(4, 4, seed=2)
        index = ivf.build(m, *make_items(rng, 40, 4), ivf.CI, ivf.FLAT, 2,
                          make_rng(3))
        path = tmp_path / "index.scix"
        ivf.save(index, path)
        assert len(index.list_ids[0]) > 1
        # header 28, centroids 2 x 4 f32, inertia + iterations 12, count 8,
        # ids; then the second row of list 0, third coordinate
        bad = 28 + 4 * 2 * 4 + 12 + 8 + 8 * len(index.list_ids[0]) + 4 * (4 + 2)
        data = bytearray(path.read_bytes())
        data[bad:bad + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptIndex, match="non-finite") as exc:
            ivf.load(path)
        assert exc.value.offset == bad
