import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sci import cli, data_io, ivf, training

from conftest import child_env


def run_ok(argv):
    assert cli.run(argv) == 0


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    model = str(root / "model.scim")
    index = str(root / "index.scix")
    run = str(root / "run.tsv")
    run_ok(["gen-data", "--items", "200", "--queries", "30", "--dim", "8",
            "--clusters", "4", "--misalign", "0.8", "--seed", "1",
            "--out", data])
    run_ok(["train", "--data", data, "--epochs", "3", "--lr", "0.02",
            "--mode", "additive", "--seed", "1", "--out", model])
    run_ok(["build-index", "--model", model, "--items",
            os.path.join(data, "items.sciv"), "--mode", "ci",
            "--variant", "flat", "--nlist", "4", "--seed", "1",
            "--out", index])
    run_ok(["search", "--index", index, "--model", model, "--queries",
            os.path.join(data, "queries.sciv"), "--nprobe", "2", "--k", "10",
            "--out", run])
    return {"root": root, "data": data, "model": model, "index": index,
            "run": run}


class TestGenData:
    def test_writes_expected_files(self, pipeline):
        for name in ("items.sciv", "items.sciv.ids", "queries.sciv",
                     "queries.sciv.ids", "triplets_q.sciv",
                     "triplets_pos.sciv", "triplets_neg.sciv", "qrels.tsv"):
            assert os.path.exists(os.path.join(pipeline["data"], name))

    def test_vector_headers(self, pipeline):
        items, ids = data_io.read_vectors(
            os.path.join(pipeline["data"], "items.sciv"))
        assert items.shape == (200, 8)
        assert len(ids) == 200

    @pytest.mark.parametrize("flag, value", [("--queries", "0"),
                                             ("--clusters", "0"),
                                             ("--clusters", "1"),
                                             ("--dim", "0"),
                                             ("--noise", "nan"),
                                             ("--noise", "inf")])
    def test_invalid_spec_writes_nothing(self, tmp_path, capsys, flag, value):
        out = tmp_path / "data"
        argv = ["gen-data", "--items", "40", "--queries", "10", "--dim", "4",
                "--clusters", "4", "--misalign", "0.5", "--noise", "0.1",
                "--out", str(out)]
        argv[argv.index(flag) + 1] = value
        capsys.readouterr()
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sci: error:")
        assert "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_model_and_history_written(self, pipeline):
        model = data_io.load_model(pipeline["model"])
        assert model.input_dim == 8
        history = open(pipeline["model"] + ".history.csv").read().strip()
        lines = history.split("\n")
        assert lines[0] == "epoch,loss_original,loss_swap,loss_total"
        assert len(lines) == 4  # header + 3 epochs


class TestDiagnose:
    def test_json_report(self, pipeline, tmp_path):
        out = str(tmp_path / "diag.json")
        run_ok(["diagnose", "--model", pipeline["model"], "--data",
                pipeline["data"], "--out", out])
        report = json.loads(open(out).read())
        assert "alignment_error" in report
        assert report["alignment_error"] >= 0.0
        assert report["cond_q"] >= 1.0

    @staticmethod
    def _unusable_lines(pipeline):
        """Qrels lines that name no pair: grade 0 for an item the query does
        not judge yet, an unknown item id and an unknown query id."""
        qrels = data_io.read_qrels(os.path.join(pipeline["data"], "qrels.tsv"))
        unjudged = min(set(range(200)) - set(qrels[0]))
        return f"0\t{unjudged}\t0\n0\t999999\t1\n999999\t{unjudged}\t2\n"

    def _diagnose(self, pipeline, tmp_path, qrels, name):
        """`sci diagnose` over a copy of the pipeline's data whose qrels.tsv
        is `qrels`; returns the exit code and the output path."""
        data = tmp_path / name
        shutil.copytree(pipeline["data"], data)
        (data / "qrels.tsv").write_text(qrels)
        out = tmp_path / f"{name}.json"
        return cli.run(["diagnose", "--model", pipeline["model"], "--data",
                        str(data), "--out", str(out)]), out

    def test_unusable_qrels_lines_are_skipped(self, pipeline, tmp_path):
        lines = open(os.path.join(pipeline["data"], "qrels.tsv")).readlines()
        mid = len(lines) // 2
        want = self._diagnose(pipeline, tmp_path, "".join(lines), "plain")
        got = self._diagnose(pipeline, tmp_path, "".join(
            lines[:mid] + [self._unusable_lines(pipeline)] + lines[mid:]),
            "padded")
        assert want[0] == got[0] == 0
        assert got[1].read_bytes() == want[1].read_bytes()

    def test_no_usable_pair_is_exit_1(self, pipeline, tmp_path, capsys):
        capsys.readouterr()
        code, out = self._diagnose(pipeline, tmp_path,
                                   self._unusable_lines(pipeline), "none")
        assert code == 1
        assert capsys.readouterr().err == "sci: error: empty pair list\n"
        assert not out.exists()


class TestBuildIndex:
    def test_index_loads(self, pipeline):
        index = ivf.load(pipeline["index"])
        assert index.mode == "ci"
        assert index.n_items == 200

    def test_pq_variant(self, pipeline, tmp_path):
        out = str(tmp_path / "pq.scix")
        run_ok(["build-index", "--model", pipeline["model"], "--items",
                os.path.join(pipeline["data"], "items.sciv"), "--mode",
                "standard", "--variant", "pq", "--nlist", "4", "--pq-m", "2",
                "--pq-ksub", "8", "--seed", "1", "--out", out])
        index = ivf.load(out)
        assert index.variant == "pq"
        assert index.codebook.m == 2


class TestSearchEval:
    def test_run_file_shape(self, pipeline):
        run = data_io.read_run(pipeline["run"])
        assert len(run) == 30
        assert all(len(ranked) == 10 for ranked in run.values())

    def test_run_file_equals_a_per_query_search_loop(self, pipeline, tmp_path):
        model = data_io.load_model(pipeline["model"])
        queries, query_ids = data_io.read_vectors(
            os.path.join(pipeline["data"], "queries.sciv"))
        pq = str(tmp_path / "pq.scix")
        run_ok(["build-index", "--model", pipeline["model"], "--items",
                os.path.join(pipeline["data"], "items.sciv"), "--variant",
                "pq", "--nlist", "4", "--pq-m", "2", "--pq-ksub", "8",
                "--out", pq])
        pq_run = str(tmp_path / "pq.tsv")
        run_ok(["search", "--index", pq, "--model", pipeline["model"],
                "--queries", os.path.join(pipeline["data"], "queries.sciv"),
                "--nprobe", "2", "--k", "10", "--out", pq_run])
        for index_path, run_path in ((pipeline["index"], pipeline["run"]),
                                     (pq, pq_run)):
            index = ivf.load(index_path)
            rows = []
            for qid, feat in zip(query_ids.tolist(), queries):
                result = ivf.search(index, model, feat, 2, 10)
                for rank, (item, score) in enumerate(result.ranked, start=1):
                    rows.append((qid, rank, item, score))
            want = tmp_path / "want.tsv"
            data_io.write_run(want, rows)
            with open(run_path, "rb") as fh:
                assert fh.read() == want.read_bytes()

    def test_eval_csv(self, pipeline, tmp_path):
        out = str(tmp_path / "eval.csv")
        run_ok(["eval", "--run", pipeline["run"], "--qrels",
                os.path.join(pipeline["data"], "qrels.tsv"), "--k", "1,10",
                "--out", out])
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "metric,cutoff,value"
        assert len(lines) == 1 + 8  # 4 metrics x 2 cutoffs
        for line in lines[1:]:
            value = float(line.split(",")[2])
            assert 0.0 <= value <= 1.0


class TestSweep:
    def test_sweep_csv(self, pipeline, tmp_path):
        out = str(tmp_path / "sweep.csv")
        run_ok(["sweep", "--model", pipeline["model"], "--items",
                os.path.join(pipeline["data"], "items.sciv"), "--queries",
                os.path.join(pipeline["data"], "queries.sciv"), "--qrels",
                os.path.join(pipeline["data"], "qrels.tsv"), "--nlist", "4",
                "--nprobe", "1,2,4", "--k", "10", "--seed", "1",
                "--out", out])
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "method,nprobe,metric,cutoff,value"
        assert len(lines) == 1 + 2 * 3 * 4  # methods x nprobe x metrics


class TestErrors:
    def test_missing_file_is_exit_1(self, tmp_path):
        assert cli.run(["build-index", "--model", str(tmp_path / "no.scim"),
                        "--items", str(tmp_path / "no.sciv"),
                        "--out", str(tmp_path / "o.scix")]) == 1

    def test_usage_error_is_exit_2(self):
        assert cli.run(["train"]) == 2

    def test_help_is_exit_0(self):
        assert cli.run(["--help"]) == 0

    def test_pq_code_not_below_ksub_is_exit_1(self, pipeline, tmp_path,
                                              capsys):
        path = tmp_path / "pq.scix"
        run_ok(["build-index", "--model", pipeline["model"], "--items",
                os.path.join(pipeline["data"], "items.sciv"), "--variant",
                "pq", "--nlist", "4", "--pq-m", "2", "--pq-ksub", "16",
                "--seed", "1", "--out", str(path)])
        index = ivf.load(path)
        assert len(index.list_ids[0]) > 0
        data = bytearray(path.read_bytes())
        data[28 + 4 * 4 * 8 + 12 + 8 + 8 * len(index.list_ids[0])] = 200
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert cli.run(["search", "--index", str(path), "--model",
                        pipeline["model"], "--queries",
                        os.path.join(pipeline["data"], "queries.sciv"),
                        "--out", str(tmp_path / "r.tsv")]) == 1
        err = capsys.readouterr().err
        assert "sci: error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("m", ["0", "-2"])
    @pytest.mark.parametrize("command", ["build-index", "sweep"])
    def test_pq_m_below_one_is_exit_1(self, pipeline, tmp_path, capsys,
                                      command, m):
        data = pipeline["data"]
        argv = [command, "--model", pipeline["model"], "--items",
                os.path.join(data, "items.sciv"), "--variant", "pq",
                "--nlist", "4", "--pq-m", m, "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--queries", os.path.join(data, "queries.sciv"),
                     "--qrels", os.path.join(data, "qrels.tsv")]
        capsys.readouterr()
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sci: error:") and err.count("\n") == 1
        assert f"m={m}" in err
        assert not (tmp_path / "out").exists()

    def test_train_without_triplets_is_exit_1(self, pipeline, tmp_path,
                                               capsys):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        for name in ("q", "pos", "neg"):
            path = data / f"triplets_{name}.sciv"
            rows, _ = data_io.read_vectors(path)
            data_io.write_vectors(path, rows[:0])
        capsys.readouterr()
        assert cli.run(["train", "--data", str(data), "--epochs", "1",
                        "--out", str(tmp_path / "m.scim")]) == 1
        err = capsys.readouterr().err
        assert err == f"sci: error: no triplets in {data}\n"
        assert not (tmp_path / "m.scim").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--nlist", "0"], "nlist must be >= 1, got 0"),
        (["--nlist", "-4"], "nlist must be >= 1, got -4"),
        (["--variant", "pq", "--pq-ksub", "0"], "ksub must lie in [1, 256]"),
        (["--variant", "pq", "--pq-ksub", "257"], "got 257"),
        (["--variant", "pq", "--pq-ksub", "201"],
         "200 residuals for ksub=201")],
        ids=["nlist-0", "nlist-negative", "pq-ksub-0", "pq-ksub-257",
             "pq-ksub-201"])
    @pytest.mark.parametrize("command", ["build-index", "sweep"])
    def test_index_flag_out_of_range_is_exit_1(self, pipeline, tmp_path,
                                               capsys, command, flags,
                                               message):
        data = pipeline["data"]
        argv = [command, "--model", pipeline["model"], "--items",
                os.path.join(data, "items.sciv"), "--nlist", "4", *flags,
                "--pq-m", "2", "--out", str(tmp_path / "out")]
        if command == "sweep":
            argv += ["--queries", os.path.join(data, "queries.sciv"),
                     "--qrels", os.path.join(data, "qrels.tsv")]
        capsys.readouterr()
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("sci: error:") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_negative_epochs_is_exit_1(self, pipeline, tmp_path, capsys):
        capsys.readouterr()
        assert cli.run(["train", "--data", pipeline["data"], "--epochs", "-1",
                        "--out", str(tmp_path / "m.scim")]) == 1
        err = capsys.readouterr().err
        assert err == "sci: error: epochs must be >= 0, got -1\n"
        assert not (tmp_path / "m.scim").exists()

    @pytest.mark.parametrize("flag", ["--nprobe", "--k"])
    def test_search_flag_below_one_names_the_flag(self, pipeline, tmp_path,
                                                  capsys, flag):
        argv = ["search", "--index", pipeline["index"], "--model",
                pipeline["model"], "--queries",
                os.path.join(pipeline["data"], "queries.sciv"), flag, "0",
                "--out", str(tmp_path / "run.tsv")]
        capsys.readouterr()
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"sci: error: {flag[2:]} must be >= 1, got 0\n"
        assert not (tmp_path / "run.tsv").exists()

    @pytest.mark.parametrize("lr, message", [
        ("nan", "learning_rate must be finite, got nan"),
        ("inf", "learning_rate must be finite, got inf"),
        ("1e300", "non-finite loss or parameters at epoch 0")])
    def test_train_never_writes_a_model_it_cannot_load(self, tmp_path, capsys,
                                                       lr, message):
        # One batch of 40 triplets, so the last update is the only one.
        data = str(tmp_path / "d")
        run_ok(["gen-data", "--items", "40", "--queries", "10", "--dim", "4",
                "--clusters", "2", "--misalign", "0.5", "--seed", "1",
                "--out", data])
        capsys.readouterr()
        assert cli.run(["train", "--data", data, "--epochs", "1", "--lr", lr,
                        "--out", str(tmp_path / "m.scim")]) == 1
        assert capsys.readouterr().err == f"sci: error: {message}\n"
        assert not (tmp_path / "m.scim").exists()

    def test_corrupt_index_is_exit_1(self, pipeline, tmp_path):
        bad = tmp_path / "bad.scix"
        bad.write_bytes(b"JUNKJUNK")
        assert cli.run(["search", "--index", str(bad), "--model",
                        pipeline["model"], "--queries",
                        os.path.join(pipeline["data"], "queries.sciv"),
                        "--out", str(tmp_path / "r.tsv")]) == 1


    @pytest.mark.parametrize("command", ["search", "sweep"])
    def test_repeated_query_ids_are_exit_1(self, pipeline, tmp_path, capsys,
                                           command):
        # search used to write a run that eval refuses, and sweep to drop
        # every row whose id repeats an earlier one
        queries = tmp_path / "queries.sciv"
        shutil.copy(os.path.join(pipeline["data"], "queries.sciv"), queries)
        ids = np.arange(30, dtype="<u8") // 2
        (tmp_path / "queries.sciv.ids").write_bytes(ids.tobytes())
        out = tmp_path / "out"
        argv = {"search": ["search", "--index", pipeline["index"]],
                "sweep": ["sweep", "--items",
                          os.path.join(pipeline["data"], "items.sciv"),
                          "--qrels",
                          os.path.join(pipeline["data"], "qrels.tsv"),
                          "--nlist", "4", "--nprobe", "1,2"]}[command]
        capsys.readouterr()
        assert cli.run([*argv, "--model", pipeline["model"], "--queries",
                        str(queries), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"sci: error: corrupt file at byte 8: {queries}.ids: id 0 "
            f"repeated\n")
        assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_command_takes_a_seed(self, capsys, command):
        capsys.readouterr()
        assert cli.run([command, "--help"]) == 0
        assert "--seed SEED" in capsys.readouterr().out

    def test_build_index_and_sweep_share_the_index_defaults(self):
        parser = cli.build_parser()
        common = ["--model", "m", "--items", "i", "--out", "o"]
        build = parser.parse_args(["build-index", *common])
        sweep = parser.parse_args(["sweep", *common, "--queries", "q",
                                   "--qrels", "r"])
        names = ["model", "items", "variant", "nlist", "pq_m", "pq_ksub",
                 "residual_space", "seed"]
        assert [getattr(build, n) for n in names] == \
            [getattr(sweep, n) for n in names] == \
            ["m", "i", ivf.FLAT, 16, 8, 16, ivf.RESIDUAL_REPR, 0]

    def test_loss_defaults_are_the_library_defaults(self):
        args = cli.build_parser().parse_args(["train", "--data", "d",
                                              "--out", "o"])
        loss = training.LossConfig()
        assert (args.margin, args.lambda_weight, args.mode) == \
            (loss.margin_delta, loss.lambda_weight, loss.combine_mode)


class TestNonFiniteInputs:
    """A NaN in any input file fails the command with exit 1 and the byte
    offset of the bad value, instead of flowing into the outputs."""

    @pytest.fixture
    def nan_data(self, pipeline, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(pipeline["data"], data)
        offset = 20 + 4 * (3 * 8 + 5)  # row 3, column 5 of 8
        raw = bytearray((data / "items.sciv").read_bytes())
        raw[offset:offset + 4] = struct.pack("<f", np.nan)
        (data / "items.sciv").write_bytes(bytes(raw))
        return data, offset

    def _fails_at(self, capsys, argv, offset):
        capsys.readouterr()
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert f"corrupt file at byte {offset}:" in err
        assert "non-finite" in err and "Traceback" not in err

    def test_build_index(self, pipeline, nan_data, tmp_path, capsys):
        data, offset = nan_data
        self._fails_at(capsys, ["build-index", "--model", pipeline["model"],
                                "--items", str(data / "items.sciv"),
                                "--nlist", "4", "--out",
                                str(tmp_path / "i.scix")], offset)
        assert not (tmp_path / "i.scix").exists()

    def test_sweep(self, pipeline, nan_data, tmp_path, capsys):
        data, offset = nan_data
        self._fails_at(capsys, ["sweep", "--model", pipeline["model"],
                                "--items", str(data / "items.sciv"),
                                "--queries", str(data / "queries.sciv"),
                                "--qrels", str(data / "qrels.tsv"),
                                "--nlist", "4", "--out",
                                str(tmp_path / "s.csv")], offset)
        assert not (tmp_path / "s.csv").exists()

    def test_diagnose(self, pipeline, nan_data, tmp_path, capsys):
        data, offset = nan_data
        self._fails_at(capsys, ["diagnose", "--model", pipeline["model"],
                                "--data", str(data), "--out",
                                str(tmp_path / "d.json")], offset)
        assert not (tmp_path / "d.json").exists()

    def test_search_with_nan_in_index(self, pipeline, tmp_path, capsys):
        path = tmp_path / "index.scix"
        data = bytearray(open(pipeline["index"], "rb").read())
        first_centroid = 28  # header: magic, version, 4 tags, dim, nlist, n
        data[first_centroid:first_centroid + 4] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(data))
        self._fails_at(capsys, ["search", "--index", str(path), "--model",
                                pipeline["model"], "--queries",
                                os.path.join(pipeline["data"], "queries.sciv"),
                                "--out", str(tmp_path / "r.tsv")],
                       first_centroid)


class TestCutoffLists:
    @pytest.mark.parametrize("k", ["0", "-1", "1,0", ",", ""])
    def test_eval_k_below_one_is_exit_2(self, pipeline, tmp_path, capsys, k):
        assert cli.run(["eval", "--run", pipeline["run"], "--qrels",
                        os.path.join(pipeline["data"], "qrels.tsv"),
                        "--k", k, "--out", str(tmp_path / "e.csv")]) == 2
        assert "integers >= 1" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()

    @pytest.mark.parametrize("flag", ["--nprobe", "--k"])
    def test_sweep_empty_or_zero_list_is_exit_2(self, pipeline, tmp_path,
                                                flag):
        for value in (",", "0"):
            assert cli.run(["sweep", "--model", pipeline["model"], "--items",
                            os.path.join(pipeline["data"], "items.sciv"),
                            "--queries",
                            os.path.join(pipeline["data"], "queries.sciv"),
                            "--qrels",
                            os.path.join(pipeline["data"], "qrels.tsv"),
                            flag, value, "--out",
                            str(tmp_path / "s.csv")]) == 2
        assert not (tmp_path / "s.csv").exists()


def _blas_threads_at_numpy_import(preset):
    """OPENBLAS_NUM_THREADS at the moment numpy is first imported, which is
    when the BLAS library reads it, in a child that imports sci.cli with the
    given thread variables set (and no others)."""
    script = textwrap.dedent("""
        import os, sys
        seen = []

        class Spy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
                return None

        sys.meta_path.insert(0, Spy())
        import sci.cli
        print(seen[0])
    """)
    out = subprocess.run([sys.executable, "-c", script],
                         env=child_env(preset), capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


class TestThreadCap:
    def test_cap_is_set_before_numpy_loads(self):
        assert _blas_threads_at_numpy_import({"SCI_THREADS": "1"}) == "1"

    @pytest.mark.parametrize("cap, preset, want", [("1", "2", "1"),
                                                   ("3", "2", "2"),
                                                   ("2", "many", "2"),
                                                   ("2", "0", "2")])
    def test_preset_value_is_capped(self, cap, preset, want):
        assert _blas_threads_at_numpy_import(
            {"SCI_THREADS": cap, "OPENBLAS_NUM_THREADS": preset}) == want

    def test_nearest_does_not_depend_on_the_thread_count(self):
        # 8192 x 64 rows against 256 centres: each block's matrix product is
        # large enough for OpenBLAS to split. Centre 9 duplicates centre 4 and
        # the first 500 rows sit near it, so the tie rerank runs too.
        script = textwrap.dedent("""
            import sys
            from sci import core
            rng = core.make_rng(6)
            x = rng.normal(size=(8192, 64))
            c = rng.normal(size=(256, 64))
            c[9] = c[4]
            x[:500] = c[4] + 1e-3 * rng.normal(size=(500, 64))
            idx, dist = core.nearest(x, c)
            sys.stdout.buffer.write(idx.astype("<i8").tobytes() + dist.tobytes())
        """)
        out = [subprocess.run([sys.executable, "-c", script],
                              env=child_env({"SCI_THREADS": threads}),
                              capture_output=True, check=True).stdout
               for threads in ("1", "2")]
        idx = np.frombuffer(out[0][:8192 * 8], dtype="<i8")
        assert len(out[0]) == 8192 * 16 and (idx[:500] == 4).all()
        assert out[0] == out[1]

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        # Selection scores with BLAS, whose rounding may change with the
        # thread count; nearest's exact rerank must absorb that. Search
        # encodes its queries as one batch (a matrix product), so the run
        # files are compared too.
        def pipeline(root, threads):
            data = str(root / "data")
            model = str(root / "model.scim")
            items = os.path.join(data, "items.sciv")
            commands = [
                ["gen-data", "--items", "2000", "--queries", "60", "--dim",
                 "16", "--clusters", "8", "--misalign", "0.8", "--noise",
                 "0.5", "--seed", "2", "--out", data],
                ["train", "--data", data, "--epochs", "1", "--lr", "0.05",
                 "--mode", "additive", "--seed", "2", "--out", model],
                ["build-index", "--model", model, "--items", items, "--mode",
                 "ci", "--variant", "flat", "--nlist", "32", "--seed", "2",
                 "--out", str(root / "flat.scix")],
                ["build-index", "--model", model, "--items", items, "--mode",
                 "standard", "--variant", "pq", "--nlist", "16", "--seed",
                 "2", "--out", str(root / "pq.scix")],
                *(["search", "--index", str(root / name), "--model", model,
                   "--queries", os.path.join(data, "queries.sciv"),
                   "--nprobe", "4", "--out", str(root / f"{name}.tsv")]
                  for name in ("flat.scix", "pq.scix")),
                ["sweep", "--model", model, "--items", items, "--queries",
                 os.path.join(data, "queries.sciv"), "--qrels",
                 os.path.join(data, "qrels.tsv"), "--nlist", "16",
                 "--variant", "pq", "--nprobe", "1,4", "--seed", "2",
                 "--out", str(root / "sweep.csv")]]
            script = textwrap.dedent("""
                import json, sys
                from sci import cli
                for argv in json.loads(sys.argv[1]):
                    if cli.run(argv) != 0:
                        sys.exit(f"failed: {argv}")
            """)
            subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                           env=child_env({"SCI_THREADS": threads}),
                           capture_output=True, check=True)
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        one = pipeline(tmp_path / "one", "1")
        two = pipeline(tmp_path / "two", "2")
        assert len(one) >= 14 and one.keys() == two.keys()
        for name in one:
            assert one[name] == two[name], f"{name} differs"
