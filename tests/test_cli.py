import json
import os
import shutil
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sci import cli, data_io, ivf


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

    def test_corrupt_index_is_exit_1(self, pipeline, tmp_path):
        bad = tmp_path / "bad.scix"
        bad.write_bytes(b"JUNKJUNK")
        assert cli.run(["search", "--index", str(bad), "--model",
                        pipeline["model"], "--queries",
                        os.path.join(pipeline["data"], "queries.sciv"),
                        "--out", str(tmp_path / "r.tsv")]) == 1


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


class TestThreadCap:
    def test_cap_is_set_before_numpy_loads(self):
        # Records the BLAS thread variable at the moment numpy is first
        # imported, which is when the BLAS library reads it.
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
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env["SCI_THREADS"] = "1"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "1"
