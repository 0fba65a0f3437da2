"""Damaged files fail with a SciError and nothing else.

Small valid files of every format the package reads are cut at every
length and have single bytes changed. Loading each one either succeeds or
raises a SciError; for an index, so does searching what was loaded. A
damaged binary file that loads saves back to exactly its own bytes, so a
loader accepts nothing its writer would not write.
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


def _resave_vectors(path, out):
    data_io.write_vectors(out, *data_io.read_vectors(path))


def _resave_model(path, out):
    data_io.save_model(out, data_io.load_model(path))


def _resave_index(path, out):
    ivf.save(ivf.load(path), out)


# (file the loader opens, file that is damaged, loader, writer of what the
# loader read, or None for text)
CASES = [
    ("v.sciv", "v.sciv", data_io.read_vectors, _resave_vectors),
    ("v.sciv", "v.sciv.ids", data_io.read_vectors, _resave_vectors),
    ("linear.scim", "linear.scim", data_io.load_model, _resave_model),
    ("mlp1.scim", "mlp1.scim", data_io.load_model, _resave_model),
    ("flat.scix", "flat.scix", _search, _resave_index),
    ("pq.scix", "pq.scix", _search, _resave_index),
    ("qrels.tsv", "qrels.tsv", data_io.read_qrels, None),
    ("run.tsv", "run.tsv", data_io.read_run, None),
]
_IDS = [case[1] for case in CASES]


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


def _load(root, originals, case, damaged) -> bool:
    """Load `main` with `target` replaced by `damaged`; True when the load
    raised a SciError. Any other exception fails the test, and so does a
    loaded binary file that does not save back to the same bytes."""
    main, target, load, resave = case
    files = {name: damaged if name == target else data
             for name, data in originals.items() if name.startswith(main)}
    for name, data in files.items():
        (root / name).write_bytes(data)
    try:
        load(root / main)
    except SciError:
        return True
    if resave is not None:
        out = root / "resaved"
        out.mkdir(exist_ok=True)
        resave(root / main, out / main)
        assert {name: (out / name).read_bytes() for name in files} == files
    return False


@pytest.mark.parametrize("case", CASES, ids=_IDS)
def test_every_truncation(originals, scratch, case):
    target = case[1]
    original = originals[target]
    assert not _load(scratch, originals, case, original)
    for length in range(len(original)):
        raised = _load(scratch, originals, case, original[:length])
        # A cut TSV can still be a valid, shorter file; a binary one cannot.
        assert raised or target.endswith(".tsv"), length


def _damage(original, pos, flip):
    damaged = bytearray(original)
    damaged[pos] ^= flip
    return bytes(damaged)


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(case=st.sampled_from(CASES), data=st.data())
def test_single_byte_changes(originals, scratch, case, data):
    original = originals[case[1]]
    pos = data.draw(st.integers(0, len(original) - 1), label="position")
    flip = data.draw(st.integers(1, 255), label="xor mask")
    _load(scratch, originals, case, _damage(original, pos, flip))


_BY_TARGET = {case[1]: case for case in CASES}


@pytest.mark.parametrize("target, pos, flip", [
    ("linear.scim", 9, 0x02),     # normalize flag 3
    ("mlp1.scim", 9, 0xfe),       # normalize flag 255
    ("linear.scim", 18, 0x01),    # a linear model with hidden_dim 1
    ("flat.scix", 10, 0x01),      # a flat index with pq_m 1
    ("flat.scix", 10, 0xff),      # a flat index with pq_m 255
    ("v.sciv.ids", 8, 0x01)])     # ids 10, 10, 12, ...: a repeated id
def test_header_values_no_writer_makes(originals, scratch, target, pos,
                                       flip):
    """Header values, and other values no writer makes, that a random sample
    of byte changes can miss."""
    case = _BY_TARGET[target]
    assert _load(scratch, originals, case,
                 _damage(originals[target], pos, flip))
