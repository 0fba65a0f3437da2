import hashlib
import os
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci import data_io, encoder
from sci.core import make_rng
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
        assert data_io.gen_synthetic(spec) == a
        assert data_io.gen_synthetic(data_io.standard_benchmark(4)) != a

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
        data = data_io.gen_synthetic(spec)
        total = sum(len(b) for b in data.triplets)
        assert total == 12 * data_io.TRIPLETS_PER_QUERY

    def test_validation(self):
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(3, 10, 8, 4, 0.5, 0.1, 0)
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(40, 10, 8, 4, -1.0, 0.1, 0)
        with pytest.raises(ValueError):
            data_io.SyntheticSpec(40, 10, 8, 4, 0.5, -0.1, 0)

    @pytest.mark.parametrize("field, value", [
        ("n_queries", 0), ("n_queries", -1), ("n_latent_clusters", 0),
        ("n_latent_clusters", -2), ("n_latent_clusters", 1), ("input_dim", 0), ("input_dim", -1),
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
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


    @pytest.mark.parametrize("ids, second", [([10, 11, 12, 11], 3),
                                             ([0, 0, 1, 1], 1),
                                             ([7, 8, 9, 7], 3)])
    def test_repeated_id_is_refused_at_its_second_copy(self, rng, tmp_path,
                                                       ids, second):
        path = tmp_path / "v.sciv"
        data_io.write_vectors(path, rng.normal(size=(4, 2)))
        (tmp_path / "v.sciv.ids").write_bytes(
            np.array(ids, dtype="<u8").tobytes())
        with pytest.raises(CorruptFile, match=f"id {ids[second]} repeated") \
                as exc:
            data_io.read_vectors(path)
        assert exc.value.offset == 8 * second

    def test_write_refuses_repeated_ids(self, rng, tmp_path):
        path = tmp_path / "v.sciv"
        with pytest.raises(ValueError, match="id 5 repeated at row 2"):
            data_io.write_vectors(path, rng.normal(size=(3, 2)), [5, 6, 5])
        assert not path.exists()
        assert not (tmp_path / "v.sciv.ids").exists()

    @pytest.mark.parametrize("ids", [[5, 6], [5, 6, 7, 8]])
    def test_write_refuses_ids_of_another_length(self, rng, tmp_path, ids):
        path = tmp_path / "v.sciv"
        with pytest.raises(ValueError, match="ids length must match row count"):
            data_io.write_vectors(path, rng.normal(size=(3, 2)), ids)
        assert not path.exists()
        assert not (tmp_path / "v.sciv.ids").exists()


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

    def test_fifo_is_written_in_place(self, tmp_path):
        # A reader blocked on the FIFO sees the text only if the writer opens
        # the FIFO itself; a temp file renamed over it would replace it.
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []

        def read():
            with open(fifo) as fh:
                got.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        with data_io.atomic_open(fifo) as fh:
            fh.write("new\n")
        reader.join(timeout=10)
        assert not reader.is_alive() and got == ["new\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

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

    @pytest.mark.parametrize("arch, hidden, normalize, digest", [
        (encoder.LINEAR, 32, True,
         "64a2b374ac7d1f0a8c1358ce908fba823289f220a7d6ae68e693ca13a57c9768"),
        (encoder.MLP1, 5, False,
         "4ccb67c3667ba5720c8e863938a372af0b69fed0b4dc347858c29dcd53c0f48e")])
    def test_initial_model_bytes_are_pinned(self, tmp_path, arch, hidden,
                                            normalize, digest):
        # PCG64 draws and elementwise float arithmetic only (no BLAS), so the
        # bytes are the same on every platform; any change to the parameter
        # layout, the draw order or the init arithmetic changes them.
        m = encoder.init(arch, 8, 4, make_rng(7), hidden_dim=hidden,
                         normalize_output=normalize)
        path = tmp_path / "m.scim"
        data_io.save_model(path, m)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("arch, offset, value", [
        (encoder.LINEAR, 9, b"\x02"),
        (encoder.LINEAR, 9, b"\xff"),
        (encoder.LINEAR, 18, struct.pack("<I", 1)),
        (encoder.MLP1, 18, struct.pack("<I", 0)),
        (encoder.MLP1, 14, struct.pack("<I", 0)),
        (encoder.LINEAR, 10, struct.pack("<I", 0))],
        ids=["normalize-2", "normalize-255", "linear-hidden-1",
             "mlp1-hidden-0", "output-0", "input-0"])
    def test_header_no_model_has(self, tmp_path, arch, offset, value):
        # header: magic 0-3, version 4-7, arch 8, normalize 9, then input,
        # output and hidden dims at 10, 14 and 18
        path = tmp_path / "m.scim"
        model = (linear_model(3, 2) if arch == encoder.LINEAR
                 else mlp_model(3, 2, hidden=2))
        data_io.save_model(path, model)
        data = bytearray(path.read_bytes())
        data[offset:offset + len(value)] = value
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptFile) as exc:
            data_io.load_model(path)
        assert exc.value.offset == (9 if offset == 9 else 10)


class TestQrels:
    def test_round_trip(self, tmp_path):
        # A 19-digit id does not fit int64, so it must take the line path,
        # not saturate in the vectorized one.
        for qrels in ({0: {3: 1, 5: 2}, 2: {1: 1}},
                      {1: {9999999999999999999: 1}}):
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


def _read_qrels_line_by_line(path):
    """Reference reader: every line parsed on its own, in file order."""
    qrels = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            if "\ufffd" in line:
                raise ParseError(lineno, "not valid UTF-8")
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            if len(fields) != 3:
                raise ParseError(lineno, "expected 3 tab-separated fields")
            try:
                qid, item, grade = map(int, fields)
            except ValueError:
                raise ParseError(lineno, "non-integer field") from None
            rel = qrels.setdefault(qid, {})
            if item in rel:
                raise DuplicateQrel(lineno)
            rel[item] = grade
    return qrels


def _qrels_outcome(read, path):
    """Every (query, [(item, grade)]) in order, or the error and its line."""
    try:
        return [(q, list(rel.items())) for q, rel in read(path).items()]
    except (ParseError, DuplicateQrel) as exc:
        return type(exc), exc.line


# Well-formed lines, whose pairs repeat now and then, and odd lines: field
# counts, empty fields, what int() accepts beyond plain digits, what it
# refuses, what np.loadtxt reads but int() refuses (a reader built on it
# must refuse them too), and what int64 can and cannot hold.
_QREL_LINE = st.tuples(st.integers(0, 3), st.integers(0, 400),
                       st.integers(0, 3)).map(lambda t: "\t".join(map(str, t)))
_QREL_ODD_LINE = st.one_of(
    st.lists(st.sampled_from(["1", "2", "3", ""]), min_size=0, max_size=6),
    st.lists(st.sampled_from(
        ["5", "300", "007", "-2", "+3", " 4", "1_0", "9" * 18, "9" * 19,
         "9" * 25, "x", "", "\u0663", "\ufffd", "1.0", "\u01fe", "1\u01ff",
         "\x1c1", "2\x1f", "\x0b3", "\xa04", "1" + "0" * 18]),
        min_size=3, max_size=3)).map("\t".join)


class TestQrelsBlocks:
    @settings(derandomize=True, database=None, max_examples=500,
              deadline=None)
    @given(lines=st.lists(_QREL_LINE, max_size=40),
           odd=st.lists(st.tuples(st.integers(0, 40), _QREL_ODD_LINE),
                        max_size=2),
           newline=st.sampled_from(["\n", "\r\n", "\r"]),
           last_newline=st.booleans(),
           bad_byte=st.none() | st.integers(0, 10**6),
           block=st.sampled_from([1, 7, 64, 1 << 17]))
    def test_equals_a_line_by_line_reader(self, tmp_path_factory, lines, odd,
                                          newline, last_newline, bad_byte,
                                          block):
        # Small blocks put block edges inside every kind of line, so an
        # error is found in a block after others that were read whole.
        for at, line in odd:
            lines.insert(at, line)
        raw = bytearray((newline.join(lines)
                         + newline * last_newline).encode())
        if bad_byte is not None and raw:
            raw[bad_byte % len(raw)] = 0xFF
        path = tmp_path_factory.mktemp("qrels") / "qrels.tsv"
        path.write_bytes(bytes(raw))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data_io, "_QRELS_BLOCK", block)
            got = _qrels_outcome(data_io.read_qrels, path)
        assert got == _qrels_outcome(_read_qrels_line_by_line, path)

    def test_large_file_in_many_blocks(self, tmp_path, monkeypatch):
        # A duplicate far down the file is reported at its own line.
        monkeypatch.setattr(data_io, "_QRELS_BLOCK", 1000)
        qrels = {q: {i: 1 + (q + i) % 3 for i in range(0, 600, q + 1)}
                 for q in range(40)}
        path = tmp_path / "qrels.tsv"
        data_io.write_qrels(path, qrels)
        assert _qrels_outcome(data_io.read_qrels, path) == \
            _qrels_outcome(_read_qrels_line_by_line, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[2000:2001]))
        with pytest.raises(DuplicateQrel) as exc:
            data_io.read_qrels(path)
        assert exc.value.line == len(lines) + 1


class TestRuns:
    def test_round_trip_ordering(self, tmp_path):
        rows = [(0, 1, 9, 0.1), (0, 2, 7, 0.4), (1, 1, 3, 0.0)]
        path = tmp_path / "run.tsv"
        data_io.write_run(path, rows)
        run = data_io.read_run(path)
        assert run == {0: [9, 7], 1: [3]}

    def test_malformed(self, tmp_path):
        # a rank that is not an integer, then a score that is not a number
        for text in ("0\tone\t2\t0.5\n", "0\t1\t2\t0.5\n\n0\t2\t3\tx\n"):
            path = tmp_path / "run.tsv"
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                data_io.read_run(path)
            assert exc.value.line == text.count("\n")

    def test_repeated_item_is_refused(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("0\t1\t5\t0.9\n1\t1\t5\t0.9\n0\t2\t5\t0.8\n")
        with pytest.raises(ParseError, match="query 0 repeats item 5") as exc:
            data_io.read_run(path)
        assert exc.value.line == 3

    def test_repeated_rank_is_refused(self, tmp_path):
        path = tmp_path / "run.tsv"
        path.write_text("3\t1\t7\t0.9\n\n3\t1\t5\t0.9\n")
        with pytest.raises(ParseError, match="query 3 repeats rank 1") as exc:
            data_io.read_run(path)
        assert exc.value.line == 3

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
