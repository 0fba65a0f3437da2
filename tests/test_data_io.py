import os
import stat
import struct

import numpy as np
import pytest

from sci import data_io, encoder
from sci.errors import CorruptFile, DuplicateQrel, ParseError

from conftest import linear_model, mlp_model


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        assert np.allclose(data_io.rotation_matrix(6, 0.0), np.eye(6))

    def test_orthogonal(self):
        r = data_io.rotation_matrix(8, 0.8)
        assert np.allclose(r @ r.T, np.eye(8), atol=1e-12)

    def test_odd_dim_last_axis_untouched(self):
        r = data_io.rotation_matrix(5, 1.0)
        assert r[4, 4] == 1.0
        assert np.all(r[4, :4] == 0.0)


class TestGenSynthetic:
    def test_no_misalignment_no_noise_matches_exactly(self):
        spec = data_io.SyntheticSpec(40, 10, 8, 4, 0.0, 0.0, 0)
        data = data_io.gen_synthetic(spec)
        for q in range(10):
            members = np.flatnonzero(data.item_labels == data.query_labels[q])
            assert np.allclose(data.query_features[q],
                               data.item_features[members[0]], atol=1e-7)

    def test_deterministic(self):
        spec = data_io.standard_benchmark(3)
        a = data_io.gen_synthetic(spec)
        b = data_io.gen_synthetic(spec)
        assert np.array_equal(a.item_features, b.item_features)
        assert np.array_equal(a.query_features, b.query_features)
        assert a.qrels == b.qrels

    def test_misalignment_lowers_matched_cosine(self):
        def mean_matched_cos(angle):
            spec = data_io.SyntheticSpec(200, 50, 8, 4, angle, 0.0, 0)
            data = data_io.gen_synthetic(spec)
            cosines = []
            for q in range(50):
                members = np.flatnonzero(
                    data.item_labels == data.query_labels[q])
                a = data.query_features[q].astype(np.float64)
                b = data.item_features[members[0]].astype(np.float64)
                cosines.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            return np.mean(cosines)

        assert mean_matched_cos(np.pi / 4) < mean_matched_cos(0.0)

    def test_qrels_are_cluster_identity(self):
        spec = data_io.SyntheticSpec(40, 10, 8, 4, 0.5, 0.1, 1)
        data = data_io.gen_synthetic(spec)
        for q, rel in data.qrels.items():
            members = set(
                np.flatnonzero(data.item_labels == data.query_labels[q])
                .tolist())
            assert set(rel) == members

    def test_triplet_labels_consistent(self):
        spec = data_io.SyntheticSpec(60, 12, 8, 4, 0.5, 0.0, 2)
        data = data_io.gen_synthetic(spec, triplets_per_query=2)
        total = sum(len(b) for b in data.triplets)
        assert total == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(3, 10, 8, 4, 0.5, 0.1, 0)
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(40, 10, 8, 4, -1.0, 0.1, 0)
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(40, 10, 8, 4, 0.5, -0.1, 0)

    @pytest.mark.parametrize("field, value", [
        ("n_queries", 0), ("n_queries", -1), ("n_latent_clusters", 0),
        ("n_latent_clusters", -2), ("input_dim", 0), ("input_dim", -1),
        ("noise_sigma", np.nan), ("noise_sigma", np.inf),
        ("noise_sigma", -np.inf)])
    def test_validation_rejects(self, field, value):
        fields = dict(n_items=40, n_queries=10, input_dim=8,
                      n_latent_clusters=4, tower_misalignment=0.5,
                      noise_sigma=0.1, seed=0)
        fields[field] = value
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(**fields)


class TestVectorFiles:
    def test_round_trip_bitwise(self, rng, tmp_path):
        x = rng.normal(size=(100, 8)).astype(np.float32)
        ids = np.arange(100, 200, dtype=np.uint64)
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, x, ids)
        got_x, got_ids = data_io.read_vectors(path)
        assert np.array_equal(got_x, x)
        assert np.array_equal(got_ids, ids)

    def test_missing_ids_default_to_range(self, rng, tmp_path):
        x = rng.normal(size=(5, 3)).astype(np.float32)
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, x)
        _, ids = data_io.read_vectors(path)
        assert np.array_equal(ids, np.arange(5))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.sciv"
        path.write_bytes(b"")
        with pytest.raises(CorruptFile) as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == 0

    def test_header_count_exceeds_payload(self, rng, tmp_path):
        x = rng.normal(size=(10, 4)).astype(np.float32)
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, x)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CorruptFile) as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == 20  # header is magic + u32 + u32 + u64

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.sciv"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(CorruptFile):
            data_io.read_vectors(path)

    def test_zero_dim_header(self, tmp_path):
        # dim 0 with a huge count used to pass the length check and then
        # allocate 10**12 default ids.
        path = tmp_path / "v.sciv"
        path.write_bytes(b"SCIV" + struct.pack("<IIQ", 1, 0, 10**12))
        with pytest.raises(CorruptFile) as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value(self, rng, tmp_path, bad):
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, rng.normal(size=(10, 4)))
        offset = 20 + 4 * (6 * 4 + 1)
        data = bytearray(path.read_bytes())
        data[offset:offset + 4] = struct.pack("<f", bad)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile, match="non-finite") as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_write_refuses_non_finite(self, rng, tmp_path, bad):
        x = rng.normal(size=(10, 4))
        x[6, 1] = bad
        path = tmp_path / "v.sciv"
        with pytest.raises(ValueError, match="NaN or Inf"):
            data_io.write_vectors(path, x)
        assert not path.exists()

    def test_write_refuses_zero_dim(self, tmp_path):
        with pytest.raises(ValueError):
            data_io.write_vectors(tmp_path / "v.sciv", np.zeros((3, 0)))

    def test_write_without_ids_removes_stale_ids(self, rng, tmp_path):
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, rng.normal(size=(4, 2)),
                              np.arange(10, 14, dtype=np.uint64))
        data_io.write_vectors(path, rng.normal(size=(4, 2)))
        assert not os.path.exists(str(path) + ".ids")
        _, ids = data_io.read_vectors(path)
        assert np.array_equal(ids, np.arange(4))

    def test_ids_length_mismatch(self, rng, tmp_path):
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, rng.normal(size=(4, 2)), np.arange(4))
        with open(str(path) + ".ids", "ab") as fh:
            fh.write(b"\x00" * 8)
        with pytest.raises(CorruptFile) as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == 32


class TestAtomicWrite:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with data_io.atomic_open(path) as fh:
                fh.write("new\n")
                raise RuntimeError("interrupted")
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with data_io.atomic_open(link) as fh:
            fh.write("new\n")
        assert link.is_symlink()
        assert target.read_text() == "new\n"

    def test_new_file_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        atomic = tmp_path / "atomic.txt"
        with data_io.atomic_open(atomic) as fh:
            fh.write("x")
        assert stat.S_IMODE(os.stat(atomic).st_mode) == \
            stat.S_IMODE(os.stat(plain).st_mode)


class TestModelFiles:
    def test_linear_round_trip(self, tmp_path):
        m = linear_model(8, 4, seed=3)
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        got = data_io.load_model(path)
        assert got == m

    def test_mlp_round_trip(self, tmp_path):
        m = mlp_model(8, 4, hidden=6, seed=3, normalize=False)
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        got = data_io.load_model(path)
        assert got == m
        assert got.normalize_output is False

    def test_truncated_model(self, tmp_path):
        m = linear_model(8, 4, seed=3)
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptFile):
            data_io.load_model(path)

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        m = mlp_model(4, 3, hidden=2, seed=1)
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        data = bytearray(path.read_bytes())
        data[10:22] = struct.pack("<III", 0xFFFFFFFF, 3, 0xFFFFFFFF)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile):
            data_io.load_model(path)

    def test_non_finite_parameter(self, tmp_path):
        m = linear_model(3, 2)
        m.params_i["W"][1, 2] = np.nan
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        with pytest.raises(CorruptFile, match="non-finite") as exc:
            data_io.load_model(path)
        # header (8 + 14 bytes), the query tower's W, then row 1 of the item W
        assert exc.value.offset == 22 + 4 * 6 + 4 * (1 * 3 + 2)

    def test_save_is_deterministic(self, tmp_path):
        m = linear_model(8, 4, seed=3)
        a, b = tmp_path / "a.scim", tmp_path / "b.scim"
        data_io.save_model(a, m)
        data_io.save_model(b, m)
        assert a.read_bytes() == b.read_bytes()


class TestQrels:
    def test_round_trip(self, tmp_path):
        qrels = {0: {3: 1, 5: 2}, 2: {1: 1}}
        path = tmp_path / "qrels.tsv"
        data_io.write_qrels(path, qrels)
        assert data_io.read_qrels(path) == qrels

    def test_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("0\t1\t1\n0\t1\t2\n")
        with pytest.raises(DuplicateQrel) as exc:
            data_io.read_qrels(path)
        assert exc.value.line == 2

    def test_non_integer_grade(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("0\t1\thigh\n")
        with pytest.raises(ParseError) as exc:
            data_io.read_qrels(path)
        assert exc.value.line == 1

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("0\t1\n")
        with pytest.raises(ParseError):
            data_io.read_qrels(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_bytes(b"0\t1\t1\n0\t\xff\t1\n")
        with pytest.raises(ParseError) as exc:
            data_io.read_qrels(path)
        assert exc.value.line == 2


class TestRuns:
    def test_round_trip_ordering(self, tmp_path):
        rows = [(0, 1, 9, 0.1), (0, 2, 7, 0.4), (1, 1, 3, 0.0)]
        path = tmp_path / "run.tsv"
        data_io.write_run(path, rows)
        run = data_io.read_run(path)
        assert run == {0: [9, 7], 1: [3]}

    def test_malformed(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("0\tone\t2\t0.5\n")
        with pytest.raises(ParseError):
            data_io.read_run(path)

    def test_non_utf8_byte(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_bytes(b"0\t1\t2\t0.5\n\n0\t2\t\x80\t0.25\n")
        with pytest.raises(ParseError) as exc:
            data_io.read_run(path)
        assert exc.value.line == 3


class TestHistoryCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "h.csv"
        data_io.write_history_csv(path, [(0, 0.5, 0.25, 0.425)])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss_original,loss_swap,loss_total"
        assert lines[1] == "0,0.5,0.25,0.425"
