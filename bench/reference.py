"""Independent re-implementations used to check the program's outputs.

Nothing here imports `sci`: the file readers, the tower forward pass, the
distances, the hinge loss and the IR metrics are written from the formats
and definitions in the project README, so a check compares two separate
computations rather than the program against itself.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# File readers and writers


def read_sciv(path):
    """`.sciv` rows (float32) and ids (uint64, from the sibling `.ids` file
    or 0..count-1)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"SCIV":
        raise ValueError(f"{path}: bad magic")
    _, dim, count = struct.unpack_from("<IIQ", data, 4)
    rows = np.frombuffer(data, dtype="<f4", offset=20).reshape(count, dim)
    try:
        with open(str(path) + ".ids", "rb") as fh:
            ids = np.frombuffer(fh.read(), dtype="<u8")
    except FileNotFoundError:
        ids = np.arange(count, dtype=np.uint64)
    return rows.astype(np.float32), ids.astype(np.uint64)


def write_sciv(path, rows, ids=None):
    rows = np.ascontiguousarray(rows, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"SCIV" + struct.pack("<IIQ", 1, rows.shape[1], rows.shape[0]))
        fh.write(rows.tobytes())
    if ids is not None:
        with open(str(path) + ".ids", "wb") as fh:
            fh.write(np.asarray(ids, dtype="<u8").tobytes())


@dataclass
class Model:
    arch: str
    normalize: bool
    towers: dict        # "query" / "item" -> {param name: float32 array}


def read_scim(path) -> Model:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"SCIM":
        raise ValueError(f"{path}: bad magic")
    arch = {0: "linear", 1: "mlp1"}[data[8]]
    normalize = bool(data[9])
    d_in, d_out, d_hid = struct.unpack_from("<III", data, 10)
    if arch == "linear":
        shapes = [("W", (d_out, d_in))]
    else:
        shapes = [("W1", (d_hid, d_in)), ("b1", (d_hid,)),
                  ("W2", (d_out, d_hid)), ("b2", (d_out,))]
    offset = 22
    towers = {}
    for tower in ("query", "item"):
        params = {}
        for name, shape in shapes:
            size = int(np.prod(shape))
            params[name] = np.frombuffer(data, dtype="<f4", count=size,
                                         offset=offset).reshape(shape).copy()
            offset += 4 * size
        towers[tower] = params
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return Model(arch, normalize, towers)


@dataclass
class Index:
    variant: str        # "flat" | "pq"
    mode: str           # "standard" | "ci"
    dim: int
    centers: np.ndarray             # (nlist, dim) float32
    lists: list                     # per list: uint64 ids
    payloads: list                  # per list: (n, dim) float32 | (n, m) uint8
    codebooks: np.ndarray | None    # (m, ksub, sub_dim) float32

    @property
    def nlist(self):
        return self.centers.shape[0]


def read_scix(path) -> Index:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"SCIX":
        raise ValueError(f"{path}: bad magic")
    variant = {0: "flat", 1: "pq"}[data[8]]
    mode = {0: "standard", 1: "ci"}[data[9]]
    pq_m = data[10]
    dim, nlist, _ = struct.unpack_from("<IIQ", data, 12)
    offset = 28
    centers = np.frombuffer(data, dtype="<f4", count=nlist * dim,
                            offset=offset).reshape(nlist, dim).copy()
    offset += 4 * nlist * dim + 8 + 4      # inertia f64, iterations u32
    lists, payloads = [], []
    for _ in range(nlist):
        count, = struct.unpack_from("<Q", data, offset)
        offset += 8
        lists.append(np.frombuffer(data, dtype="<u8", count=count,
                                   offset=offset).copy())
        offset += 8 * count
        if variant == "flat":
            payloads.append(np.frombuffer(data, dtype="<f4", count=count * dim,
                                          offset=offset).reshape(count, dim).copy())
            offset += 4 * count * dim
        else:
            payloads.append(np.frombuffer(data, dtype=np.uint8, count=count * pq_m,
                                          offset=offset).reshape(count, pq_m).copy())
            offset += count * pq_m
    codebooks = None
    if variant == "pq":
        ksub, = struct.unpack_from("<I", data, offset)
        offset += 4
        sub = dim // pq_m
        codebooks = np.frombuffer(data, dtype="<f4", count=pq_m * ksub * sub,
                                  offset=offset).reshape(pq_m, ksub, sub).copy()
        offset += 4 * pq_m * ksub * sub + 8 * pq_m
    if offset != len(data):
        raise ValueError(f"{path}: {len(data) - offset} trailing bytes")
    return Index(variant, mode, dim, centers, lists, payloads, codebooks)


def read_qrels(path):
    qrels = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                q, item, grade = (int(t) for t in line.split("\t"))
                qrels.setdefault(q, {})[item] = grade
    return qrels


def read_run(path):
    """query id -> [(item id, score)] in rank order."""
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                q, rank, item, score = line.split("\t")
                rows.setdefault(int(q), []).append((int(rank), int(item),
                                                    float(score)))
    return {q: [(item, score) for _, item, score in sorted(r)]
            for q, r in rows.items()}


def read_metric_csv(path, key_fields):
    """Rows of a `sci eval` / `sci sweep` CSV as {tuple(key fields): value}."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        out = {}
        for line in fh:
            fields = dict(zip(header, line.strip().split(",")))
            out[tuple(fields[k] for k in key_fields)] = float(fields["value"])
    return out


# ---------------------------------------------------------------------------
# Model arithmetic


def encode(model: Model, tower: str, x) -> np.ndarray:
    """Tower forward pass in float64, rounded to float32 like a stored
    embedding."""
    return forward64(model.towers[tower], model.arch, model.normalize,
                     x).astype(np.float32)


def forward64(params, arch, normalize, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    p = {k: v.astype(np.float64) for k, v in params.items()}
    if arch == "linear":
        z = x @ p["W"].T
    else:
        z = np.tanh(x @ p["W1"].T + p["b1"]) @ p["W2"].T + p["b2"]
    if normalize:
        z = z / np.sqrt((z * z).sum(axis=1))[:, None]
    return z


def hinge_args(params_a, params_b, arch, normalize, q, pos, neg, margin):
    """margin - s(q, pos) + s(q, neg), queries through tower a, items
    through tower b."""
    a = forward64(params_a, arch, normalize, q)
    return (margin - (a * forward64(params_b, arch, normalize, pos)).sum(1)
            + (a * forward64(params_b, arch, normalize, neg)).sum(1))


def swap_loss(towers, arch, normalize, q, pos, neg, margin, lam):
    """Additive objective L_direct + lam * L_swapped, batch mean."""
    direct = hinge_args(towers["query"], towers["item"], arch, normalize,
                        q, pos, neg, margin)
    swapped = hinge_args(towers["item"], towers["query"], arch, normalize,
                         q, pos, neg, margin)
    return (np.maximum(direct, 0.0).mean()
            + lam * np.maximum(swapped, 0.0).mean())


def sq_dists(x, c) -> np.ndarray:
    """Squared L2 distances, rows of x against rows of c, float64."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    out = np.empty((x.shape[0], c.shape[0]))
    for j in range(c.shape[0]):
        diff = x - c[j]
        out[:, j] = (diff * diff).sum(axis=1)
    return out


def adc(codebooks, query_residual, codes) -> np.ndarray:
    """Sum over subspaces of the squared distance from the query residual's
    sub-vector to the coded codeword."""
    m, _, sub = codebooks.shape
    qr = np.asarray(query_residual, dtype=np.float32).astype(np.float64)
    total = np.zeros(codes.shape[0])
    for s in range(m):
        cw = codebooks[s][codes[:, s]].astype(np.float64)
        diff = cw - qr[s * sub:(s + 1) * sub]
        total += (diff * diff).sum(axis=1)
    return total


def covariance(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


# ---------------------------------------------------------------------------
# IR metrics, binary relevance (grade >= 1)


def ir_metrics(run, qrels, cutoffs) -> dict:
    """{(metric, cutoff): mean over queries with a relevant item}."""
    sums = {(m, k): 0.0 for m in ("precision", "recall", "mrr", "ndcg")
            for k in cutoffs}
    scored = 0
    for q, ranked in run.items():
        rel = {i for i, g in qrels.get(q, {}).items() if g >= 1}
        if not rel:
            continue
        scored += 1
        for k in cutoffs:
            top = ranked[:k]
            hits = [r for r, item in enumerate(top, start=1) if item in rel]
            sums["precision", k] += len(hits) / k
            sums["recall", k] += len(hits) / len(rel)
            sums["mrr", k] += 1.0 / hits[0] if hits else 0.0
            ideal = sum(1.0 / math.log2(r + 1)
                        for r in range(1, min(k, len(rel)) + 1))
            sums["ndcg", k] += sum(1.0 / math.log2(r + 1) for r in hits) / ideal
    return {key: (v / scored if scored else 0.0) for key, v in sums.items()}
