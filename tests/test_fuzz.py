"""Damaged files fail with a SciError and nothing else.

Small valid files of every format the package reads are cut at every
length and have single bytes changed. Loading each one either succeeds or
raises a SciError; for an index, so does searching what was loaded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sci import data_io, ivf
from sci.core import make_rng
from sci.errors import SciError

from conftest import linear_model, mlp_model

_INDEX_MODEL = linear_model(4, 4, seed=2)


def _search(path):
    index = ivf.load(path)
    ivf.search(index, _INDEX_MODEL, np.ones(4, dtype=np.float32), 3, 5)


# (file the loader opens, file that is damaged, loader)
CASES = [
    ("v.sciv", "v.sciv", data_io.read_vectors),
    ("v.sciv", "v.sciv.ids", data_io.read_vectors),
    ("linear.scim", "linear.scim", data_io.load_model),
    ("mlp1.scim", "mlp1.scim", data_io.load_model),
    ("flat.scix", "flat.scix", _search),
    ("pq.scix", "pq.scix", _search),
    ("qrels.tsv", "qrels.tsv", data_io.read_qrels),
    ("run.tsv", "run.tsv", data_io.read_run),
]
_IDS = [target for _, target, _ in CASES]


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    rng = make_rng(5)
    data_io.write_vectors(root / "v.sciv", rng.normal(size=(6, 3)),
                          np.arange(10, 16))
    data_io.save_model(root / "linear.scim", linear_model(3, 2, seed=1))
    data_io.save_model(root / "mlp1.scim", mlp_model(3, 2, hidden=2, seed=1))
    feats = rng.normal(size=(24, 4)).astype(np.float32)
    for variant in (ivf.FLAT, ivf.PQ):
        index = ivf.build(_INDEX_MODEL, np.arange(24), feats, ivf.CI,
                          variant, 3, make_rng(0), pq_m=2, pq_ksub=4)
        ivf.save(index, root / f"{variant}.scix")
    data_io.write_qrels(root / "qrels.tsv", {0: {1: 1, 4: 2}, 3: {2: 1}})
    data_io.write_run(root / "run.tsv", [(0, 1, 4, 0.25), (0, 2, 1, 0.5),
                                         (3, 1, 2, 0.125)])
    return {p.name: p.read_bytes() for p in root.iterdir()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


def _load(root, originals, main, target, damaged, load) -> bool:
    """Load `main` with `target` replaced by `damaged`; True when the load
    raised a SciError. Any other exception fails the test."""
    for name, data in originals.items():
        if name.startswith(main):
            (root / name).write_bytes(damaged if name == target else data)
    try:
        load(root / main)
    except SciError:
        return True
    return False


@pytest.mark.parametrize("main,target,load", CASES, ids=_IDS)
def test_every_truncation(originals, scratch, main, target, load):
    original = originals[target]
    assert not _load(scratch, originals, main, target, original, load)
    for length in range(len(original)):
        raised = _load(scratch, originals, main, target, original[:length],
                       load)
        # A cut TSV can still be a valid, shorter file; a binary one cannot.
        assert raised or target.endswith(".tsv"), length


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_single_byte_changes(originals, scratch, case, data):
    main, target, load = case
    original = originals[target]
    pos = data.draw(st.integers(0, len(original) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor mask")
    damaged = bytearray(original)
    damaged[pos] ^= flip
    _load(scratch, originals, main, target, bytes(damaged), load)
