"""Golden CLI outputs: the SHA-256 of every file one fixed pipeline writes.

The pipeline (gen-data, train, diagnose, build-index, search, eval and
sweep) runs in a child process, once with SCI_THREADS=1 and once with
SCI_THREADS=2, and every file it writes must hash to the value recorded in
golden.json. Stderr is not compared: it holds wall times. Trained-model
bytes depend on the BLAS kernels, so golden.json also records the numpy
version and BLAS build it was made with.

A change that alters outputs on purpose regenerates golden.json with

    PYTHONPATH=src python3 tests/test_golden.py

and lists every changed file in CHANGES.md.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env

GOLDEN = Path(__file__).with_name("golden.json")

# name -> gen-data flags. "ties" has no noise, so the items of one latent
# cluster are identical rows and every k-means, PQ and top-k selection over
# them ties.
_DATA = {
    "d16": "--items 2000 --queries 100 --dim 16 --clusters 8 --misalign 0.8 "
           "--noise 0.1 --seed 3",
    "d64": "--items 600 --queries 40 --dim 64 --clusters 6 --misalign 0.6 "
           "--noise 0.2 --seed 4",
    "ties": "--items 300 --queries 20 --dim 8 --clusters 4 --misalign 0.8 "
            "--noise 0 --seed 5",
}
_TRAIN = {
    "d16": "--epochs 2 --lr 0.05 --mode additive --seed 3",
    "d64": "--arch mlp1 --hidden 32 --out-dim 32 --epochs 1 --lr 0.05 "
           "--seed 4",
    "ties": "--epochs 1 --lr 0.05 --seed 5",
}
# (data, index name, build-index flags, searched at every nprobe and k)
_INDEXES = [
    ("d16", "ci-flat", "--mode ci --variant flat --nlist 64", True),
    ("d16", "std-flat", "--mode standard --variant flat --nlist 32", False),
    ("d16", "ci-pq", "--mode ci --variant pq --nlist 32", False),
    ("d16", "std-pq", "--mode standard --variant pq --nlist 32", False),
    ("d16", "ci-pq256", "--mode ci --variant pq --nlist 16 --pq-ksub 256",
     True),
    ("d16", "ci-pq-struct",
     "--mode ci --variant pq --nlist 32 --residual-space struct", False),
    ("d64", "ci-flat", "--mode ci --variant flat --nlist 16", False),
    ("d64", "std-pq", "--mode standard --variant pq --nlist 16", False),
    ("ties", "ci-flat", "--mode ci --variant flat --nlist 16", False),
    ("ties", "ci-pq", "--mode ci --variant pq --nlist 8 --pq-m 4", False),
]
_SWEEPS = [
    ("d16", "flat", "--variant flat --nlist 32 --nprobe 1,2,4,8,32"),
    ("d16", "pq", "--variant pq --nlist 32 --nprobe 1,4,32 --k 1,10,100"),
    ("ties", "flat", "--variant flat --nlist 16 --nprobe 1,4"),
]


def pipeline():
    """The argv of every command, with paths relative to the output root."""
    cmds = []
    for data, flags in _DATA.items():
        model = f"{data}/model.scim"
        cmds += [["gen-data", *flags.split(), "--out", data],
                 ["train", "--data", data, *_TRAIN[data].split(),
                  "--out", model],
                 ["diagnose", "--model", model, "--data", data,
                  "--out", f"{data}/diagnose.json"]]
    for data, name, flags, full in _INDEXES:
        index = f"{data}/{name}.scix"
        cmds.append(["build-index", "--model", f"{data}/model.scim",
                     "--items", f"{data}/items.sciv", *flags.split(),
                     "--seed", "7", "--out", index])
        grid = [(1, 10), (1, 1000), (4, 10), (4, 1000), (64, 10),
                (64, 1000)] if full else [(4, 10)]
        for nprobe, k in grid:
            run = f"{data}/{name}.p{nprobe}.k{k}"
            cmds += [["search", "--index", index, "--model",
                      f"{data}/model.scim", "--queries",
                      f"{data}/queries.sciv", "--nprobe", str(nprobe),
                      "--k", str(k), "--out", f"{run}.tsv"],
                     ["eval", "--run", f"{run}.tsv", "--qrels",
                      f"{data}/qrels.tsv", "--k", "2,10,1",
                      "--out", f"{run}.eval.csv"]]
    # Cutoffs inside and far past the rows of a run whose rows differ in
    # length (nprobe 1 returns fewer than k=1000 items).
    cmds.append(["eval", "--run", "d16/ci-flat.p1.k1000.tsv", "--qrels",
                 "d16/qrels.tsv", "--k", "1,7,1000000000000",
                 "--out", "d16/ci-flat.p1.k1000.cutoffs.eval.csv"])
    for data, name, flags in _SWEEPS:
        cmds.append(["sweep", "--model", f"{data}/model.scim", "--items",
                     f"{data}/items.sciv", "--queries", f"{data}/queries.sciv",
                     "--qrels", f"{data}/qrels.tsv", *flags.split(),
                     "--seed", "7", "--out", f"{data}/sweep-{name}.csv"])
    return cmds


_CHILD = textwrap.dedent("""
    import json, sys
    from sci import cli
    for argv in json.loads(sys.argv[1]):
        if cli.run(argv) != 0:
            sys.exit(f"failed: {argv}")
""")


def run_pipeline(root, threads):
    """Run the pipeline under `root` in a child process with the given
    SCI_THREADS; the SHA-256 of every file written, by relative path."""
    done = subprocess.run([sys.executable, "-c", _CHILD,
                           json.dumps(pipeline())], cwd=root,
                          env=child_env({"SCI_THREADS": threads}),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def library_stack():
    """The numpy version and the BLAS it was built against."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")}}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_match_golden(tmp_path, threads):
    golden = json.loads(GOLDEN.read_text())
    got = run_pipeline(tmp_path, threads)
    want = golden["files"]
    differ = sorted(name for name in want.keys() | got.keys()
                    if want.get(name) != got.get(name))
    stack = library_stack()
    note = ("" if stack == golden["stack"] else
            f"; the library stack differs from the recorded one: "
            f"{stack} != {golden['stack']}")
    assert not differ, (f"{len(differ)} of {len(want)} files differ from "
                        f"golden.json: {', '.join(differ)}{note}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        files = run_pipeline(root, "1")
    GOLDEN.write_text(json.dumps({"stack": library_stack(), "files": files},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} hashes to {GOLDEN}")
