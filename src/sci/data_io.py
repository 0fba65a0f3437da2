"""Synthetic benchmark generation and file I/O.

The generator plants latent cluster prototypes on the unit sphere, derives
item and query features from them, and rotates the item features by a fixed
angle. That rotation is the misalignment the training stage has to repair:
queries and items carry the same semantics in rotated subspaces.

File formats (all integers little-endian):
  vectors  "SCIV" | version u32 | dim u32 | count u64 | f32 row-major payload
           (ids, when present, live in a sibling <path>.ids file, u64/row)
  model    "SCIM" | version u32 | arch u8 | normalize u8 (0 or 1) |
           input u32 | output u32 | hidden u32 | params f32 (query tower
           then item tower, each in `DualTowerModel.layout` order)
  qrels    TSV query_id \t item_id \t grade
  runs     TSV query_id \t rank \t item_id \t score
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import uuid
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import encoder
from .core import _equal, _first_repeat, make_rng
from .errors import CorruptFile, DuplicateQrel, ParseError
from .training import TripletBatch

_VEC_MAGIC = b"SCIV"
_MODEL_MAGIC = b"SCIM"
_VERSION = 1
TRIPLETS_PER_QUERY = 4


@dataclass
class SyntheticSpec:
    n_items: int
    n_queries: int
    input_dim: int
    n_latent_clusters: int
    tower_misalignment: float  # rotation angle in radians, [0, pi]
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n_latent_clusters < 2:
            raise ValueError("need --clusters >= 2 to draw triplet negatives")
        if self.n_items < self.n_latent_clusters:
            raise ValueError("need at least one item per latent cluster")
        if self.n_queries < 1:
            raise ValueError("need at least one query")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if not 0.0 <= self.tower_misalignment <= np.pi:
            raise ValueError("misalignment angle must lie in [0, pi]")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and >= 0")


@dataclass
class SyntheticData:
    item_ids: np.ndarray
    item_features: np.ndarray
    query_ids: np.ndarray
    query_features: np.ndarray
    triplets: list        # list of TripletBatch
    qrels: dict           # query_id -> {item_id: grade}
    item_labels: np.ndarray
    query_labels: np.ndarray

    __eq__ = _equal


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Orthogonal rotation by `angle` in each disjoint coordinate plane
    (0,1), (2,3), ...; the last axis is untouched for odd dims."""
    rot = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for p in range(0, dim - 1, 2):
        rot[p, p] = c
        rot[p, p + 1] = -s
        rot[p + 1, p] = s
        rot[p + 1, p + 1] = c
    return rot


def standard_benchmark(seed: int) -> SyntheticSpec:
    """The misaligned desk-scale benchmark used throughout the test suite."""
    return SyntheticSpec(n_items=2000, n_queries=200, input_dim=16,
                         n_latent_clusters=8, tower_misalignment=0.8,
                         noise_sigma=0.1, seed=seed)


def gen_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Deterministic corpus, triplet batches and qrels from a seed.

    Relevance comes from latent cluster identity, independent of any model:
    every item sharing the query's latent cluster is relevant (grade 1).
    """
    rng = make_rng(spec.seed)
    d = spec.input_dim
    k = spec.n_latent_clusters

    protos = rng.normal(size=(k, d))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)

    item_labels = rng.permutation(np.arange(spec.n_items) % k)
    query_labels = rng.permutation(np.arange(spec.n_queries) % k)

    item_latent = protos[item_labels] + \
        spec.noise_sigma * rng.normal(size=(spec.n_items, d))
    query_latent = protos[query_labels] + \
        spec.noise_sigma * rng.normal(size=(spec.n_queries, d))

    rot = rotation_matrix(d, spec.tower_misalignment)
    item_features = (item_latent @ rot.T).astype(np.float32)
    query_features = query_latent.astype(np.float32)

    item_ids = np.arange(spec.n_items, dtype=np.uint64)
    query_ids = np.arange(spec.n_queries, dtype=np.uint64)

    # Triplets: positive from the query's cluster, negative from another.
    qrels, pos_rows, neg_rows = {}, [], []
    for q in range(spec.n_queries):
        same = item_labels == query_labels[q]
        members, others = np.flatnonzero(same), np.flatnonzero(~same)
        qrels[q] = {int(i): 1 for i in members}
        for _ in range(TRIPLETS_PER_QUERY):
            pos_rows.append(members[int(rng.integers(0, len(members)))])
            neg_rows.append(others[int(rng.integers(0, len(others)))])
    triplets = TripletBatch.batches(
        np.repeat(query_features, TRIPLETS_PER_QUERY, axis=0),
        item_features[pos_rows], item_features[neg_rows])

    return SyntheticData(item_ids, item_features, query_ids, query_features,
                         triplets, qrels, item_labels, query_labels)


# ---------------------------------------------------------------------------
# Containers: every binary file is read through one bounds-checked cursor,
# and every file is written through one atomic writer.


class Reader:
    """Bounds-checked cursor over the bytes of one file.

    Every size is checked, in Python ints, against the bytes left before
    anything is allocated. Any defect raises `error(offset, reason)`.
    """

    def __init__(self, path, error=CorruptFile):
        with open(path, "rb") as fh:
            self.data = memoryview(fh.read())
        self.path = os.fspath(path)
        self.offset = 0
        self._error = error

    def error(self, offset: int, reason: str) -> CorruptFile:
        return self._error(offset, f"{self.path}: {reason}")

    def take(self, n: int) -> memoryview:
        if n > len(self.data) - self.offset:
            raise self.error(self.offset, f"truncated: {n} bytes needed")
        self.offset += n
        return self.data[self.offset - n:self.offset]

    def tag(self, tags: dict) -> str:
        """Read a u8 tag and return its name in `tags` (name -> tag)."""
        names = {v: k for k, v in tags.items()}
        value, = self.unpack("<B")
        if value not in names:
            raise self.error(self.offset - 1, f"unknown tag {value}")
        return names[value]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, shape) -> np.ndarray:
        """The next array; a float array must hold only finite values."""
        dtype = np.dtype(dtype)
        start = self.offset
        a = np.frombuffer(self.take(math.prod(shape) * dtype.itemsize), dtype)
        if dtype.kind == "f" and not np.isfinite(a).all():
            bad = int(np.flatnonzero(~np.isfinite(a))[0])
            raise self.error(start + bad * dtype.itemsize, "non-finite float")
        return a.reshape(shape).copy()

    def end(self) -> None:
        if self.offset != len(self.data):
            raise self.error(self.offset, "trailing bytes")


def open_container(path, magic: bytes, error=CorruptFile) -> Reader:
    """A Reader past the magic and version fields of a binary format."""
    r = Reader(path, error)
    if r.take(4) != magic:
        raise r.error(0, "bad magic")
    if r.unpack("<I") != (_VERSION,):
        raise r.error(4, "unsupported version")
    return r


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temporary file beside `path` that replaces it on success, so a
    failed write leaves the old file whole. New files get the mode a plain
    `open(path, "w")` gives them. No fsync: not durable across power loss.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode) as fh:  # a device or FIFO is written in place
            yield fh
        return
    path = os.path.realpath(path)  # through a symlink, as open() writes
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def write_container(path, magic: bytes, parts) -> None:
    """Atomically write `magic`, the format version, then the `parts` bytes."""
    with atomic_open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", _VERSION))
        fh.writelines(parts)


# ---------------------------------------------------------------------------
# Vector files


def write_vectors(path, vectors, ids=None) -> None:
    """Rows to `path`, ids to `<path>.ids`; without ids, old .ids is removed."""
    x = np.asarray(vectors)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("expected a 2-D array of vectors with dim >= 1")
    if not (np.abs(x) <= np.finfo(np.float32).max).all():
        raise ValueError("vectors hold NaN or Inf or exceed the float32 range")
    if ids is not None:
        ids = np.asarray(ids, dtype=np.uint64)
        if ids.shape != (x.shape[0],):
            raise ValueError("ids length must match row count")
        if (pos := _first_repeat(ids)) is not None:
            raise ValueError(f"id {ids[pos]} repeated at row {pos}")
    header = struct.pack("<IQ", x.shape[1], x.shape[0])
    write_container(path, _VEC_MAGIC, [header, x.astype("<f4").tobytes()])
    ids_path = f"{os.fspath(path)}.ids"
    if ids is None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(ids_path)
    else:
        with atomic_open(ids_path, "wb") as fh:
            fh.write(ids.astype("<u8").tobytes())


def read_vectors(path):
    r = open_container(path, _VEC_MAGIC)
    dim, count = r.unpack("<IQ")
    if dim == 0:
        raise r.error(8, "dim is 0")
    vectors = r.array("<f4", (count, dim))
    r.end()
    ids_path = f"{os.fspath(path)}.ids"
    if not os.path.exists(ids_path):
        return vectors, np.arange(count, dtype=np.uint64)
    r = Reader(ids_path)
    ids = r.array("<u8", (count,))
    r.end()
    if (pos := _first_repeat(ids)) is not None:
        raise r.error(8 * pos, f"id {ids[pos]} repeated")
    return vectors, ids


# ---------------------------------------------------------------------------
# Model files

_ARCH_TAGS = {encoder.LINEAR: 0, encoder.MLP1: 1}


def save_model(path, model: encoder.DualTowerModel) -> None:
    shapes = model.layout(model.arch, model.input_dim, model.output_dim,
                          model.hidden_dim)
    header = struct.pack("<BBIII", _ARCH_TAGS[model.arch],
                         int(model.normalize_output), model.input_dim,
                         model.output_dim, model.hidden_dim)
    params = [tower[name].astype("<f4").tobytes()
              for tower in (model.params_q, model.params_i)
              for name in shapes]
    write_container(path, _MODEL_MAGIC, [header] + params)


def load_model(path) -> encoder.DualTowerModel:
    r = open_container(path, _MODEL_MAGIC)
    arch = r.tag(_ARCH_TAGS)
    norm, input_dim, output_dim, hidden_dim = r.unpack("<BIII")
    if norm > 1:
        raise r.error(9, f"normalize flag {norm} is not 0 or 1")
    try:
        shapes = encoder.DualTowerModel.layout(arch, input_dim, output_dim,
                                               hidden_dim)
    except ValueError as exc:
        raise r.error(10, str(exc)) from None  # the dims block, bytes 10-21
    towers = [{name: r.array("<f4", shape) for name, shape in shapes.items()}
              for _ in range(2)]
    r.end()
    return encoder.DualTowerModel(arch, input_dim, output_dim, hidden_dim,
                                  bool(norm), towers[0], towers[1])


# ---------------------------------------------------------------------------
# Qrels, runs, history


def _tsv_fields(lines, n_fields, first_lineno=1):
    """(line number, fields) for each non-empty line of `lines`, text decoded
    from UTF-8 with errors replaced."""
    for lineno, line in enumerate(lines, start=first_lineno):
        if "\ufffd" in line:
            raise ParseError(lineno, "not valid UTF-8")
        fields = line.rstrip("\n").split("\t")
        if fields == [""]:
            continue
        if len(fields) != n_fields:
            raise ParseError(lineno,
                             f"expected {n_fields} tab-separated fields")
        yield lineno, fields


def write_qrels(path, qrels) -> None:
    with atomic_open(path) as fh:
        for qid in sorted(qrels):
            for item in sorted(qrels[qid]):
                fh.write(f"{qid}\t{item}\t{qrels[qid][item]}\n")


# Characters of qrels text parsed in one vectorized step; its temporaries,
# about 2 MB, are what reading holds beyond the result.
_QRELS_BLOCK = 1 << 17


def _qrels_block_values(text):
    """The integers of a block of whole qrels lines, an (n, 3) int64 array,
    when every line is empty or three tab-separated runs of 1-18 ASCII digits
    (so int64 holds them); None for anything else, which the caller then
    parses line by line."""
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    tab, digit = b == 9, b - 48 < 10    # uint8 wraps below "0"
    if not (digit | tab | (b == 10)).all():
        return None
    prev = np.concatenate(([False], digit[:-1]))
    nxt = np.concatenate((digit[1:], [False]))
    # A field on each side of every tab; then every field is followed by a
    # tab, a newline or the end, and each non-empty line must read
    # field \t field \t field \n.
    if not (prev[tab] & nxt[tab]).all():
        return None
    starts, ends = np.flatnonzero(digit & ~prev), np.flatnonzero(digit & ~nxt)
    seps = np.append(b, 10)[ends + 1]
    if (len(ends) % 3 or (ends - starts).max(initial=0) >= 18
            or not (seps.reshape(-1, 3) == (9, 9, 10)).all()):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    # Text of blank lines alone parses as [0].
    return values.reshape(-1, 3) if values.size == len(ends) else None


def _merge_qrels_block(qrels, values) -> bool:
    """Add an (n, 3) block of (query, item, grade) rows to qrels in row order.
    If a (query, item) pair repeats, within the block or from an earlier
    one, leave qrels as it was and return False."""
    q, items, grades = (values[:, j].tolist() for j in range(3))
    cuts = (np.flatnonzero(values[1:, 0] != values[:-1, 0]) + 1).tolist()
    staged = {}
    for a, b in zip([0] + cuts, cuts + [len(q)]):
        rel = staged.setdefault(q[a], {})
        size = len(rel)
        rel.update(zip(items[a:b], grades[a:b]))
        if len(rel) != size + b - a:
            return False
    if any(not qrels[qid].keys().isdisjoint(rel)
           for qid, rel in staged.items() if qid in qrels):
        return False
    for qid, rel in staged.items():
        if qid in qrels:
            qrels[qid].update(rel)
        else:
            qrels[qid] = rel
    return True


def read_qrels(path):
    """query_id -> {item_id: grade}, in file order. Blocks of about
    _QRELS_BLOCK characters are parsed with one vectorized conversion; a block
    that does not pass every check is parsed again line by line, which raises
    the error of its first bad line."""
    qrels = {}
    lineno = 1
    with open(path, encoding="utf-8", errors="replace") as fh:
        while text := fh.read(_QRELS_BLOCK) + fh.readline():
            values = _qrels_block_values(text)
            if values is None or not _merge_qrels_block(qrels, values):
                for at, fields in _tsv_fields(text.split("\n"), 3, lineno):
                    try:
                        qid, item, grade = map(int, fields)
                    except ValueError:
                        raise ParseError(at, "non-integer field") from None
                    rel = qrels.setdefault(qid, {})
                    if item in rel:
                        raise DuplicateQrel(at)
                    rel[item] = grade
            lineno += text.count("\n")
    return qrels


def write_run(path, run_rows) -> None:
    """run_rows: iterable of (query_id, rank, item_id, score)."""
    with atomic_open(path) as fh:
        for qid, rank, item, score in run_rows:
            fh.write(f"{qid}\t{rank}\t{item}\t{score:.6g}\n")


def read_run(path):
    """query_id -> item ids in rank order, in file order. A query that lists
    a rank or an item twice raises ParseError at the second one's line."""
    run, listed = defaultdict(dict), set()
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, fields in _tsv_fields(fh, 4):
            try:
                qid, rank, item = map(int, fields[:3])
                float(fields[3])
            except ValueError:
                raise ParseError(lineno, "malformed field") from None
            if rank in run[qid]:
                raise ParseError(lineno, f"query {qid} repeats rank {rank}")
            if (qid, item) in listed:
                raise ParseError(lineno, f"query {qid} repeats item {item}")
            run[qid][rank] = item
            listed.add((qid, item))
    return {qid: [items[r] for r in sorted(items)]
            for qid, items in run.items()}


def write_history_csv(path, history) -> None:
    with atomic_open(path) as fh:
        fh.write("epoch,loss_original,loss_swap,loss_total\n")
        for epoch, l_o, l_s, l_t in history:
            fh.write(f"{epoch},{l_o:.6g},{l_s:.6g},{l_t:.6g}\n")
