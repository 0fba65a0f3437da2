"""IVF-Flat and IVF-PQ indexes in two build modes.

Standard mode clusters and stores item-tower embeddings only. The
consistency-oriented mode (CI) clusters items by their query-tower
embeddings (structural vectors), while fine payloads come from the item
tower (representation vectors); PQ residuals mix the two spaces: the
representation vector minus the structurally assigned centroid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import data_io, encoder
from .clustering import MAX_ITERS, Centroids, assign_batch, kmeans
from .core import (_BLOCK_ELEMS, _check_count, _equal, _first_repeat,
                   _nearest_k, _row_ids, _rows, _sum_sq, pairwise_sq_dists,
                   top_k)
from .errors import (CorruptIndex, DimensionMismatch, DuplicateItem,
                     TooFewPoints)
from .quantization import (PqCodebook, adc_distances_batch, adc_table,
                           pq_encode_batch, pq_reconstruct, pq_train)

FLAT = "flat"
PQ = "pq"
STANDARD = "standard"
CI = "ci"
RESIDUAL_REPR = "repr"
RESIDUAL_STRUCT = "struct"

_MAGIC = b"SCIX"


@dataclass
class IvfIndex:
    variant: str
    mode: str
    centroids: Centroids
    list_ids: list          # per cluster: (len,) uint64 array
    list_payload: list      # per cluster: (len, dim) f32 or (len, m) uint8
    codebook: PqCodebook | None = None
    residual_space: str = RESIDUAL_REPR
    mean_reconstruction_error: float | None = field(default=None, compare=False)

    __eq__ = _equal

    dim = property(lambda self: self.centroids.dim)
    nlist = property(lambda self: self.centroids.k)
    n_items = property(lambda self: sum(len(ids) for ids in self.list_ids))


@dataclass
class SearchResult:
    ranked: list            # [(item_id, score)], ascending squared distance
    probed_clusters: list


def _residuals(e, centers, rows) -> np.ndarray:
    """PQ residuals e[i] - centers[rows[i]], subtracted in float64, as f32."""
    return (e.astype(np.float64) -
            centers[rows].astype(np.float64)).astype(np.float32)


def build(model, ids, X, mode: str, variant: str, nlist: int, rng,
          pq_m: int = 8, pq_ksub: int = 16,
          residual_space: str = RESIDUAL_REPR) -> IvfIndex:
    """Build an index over item `ids` (n,) and their features `X` (n, d), row
    i belonging to ids[i]. Deterministic given rng."""
    if mode not in (STANDARD, CI):
        raise ValueError(f"unknown mode {mode!r}")
    if variant not in (FLAT, PQ):
        raise ValueError(f"unknown variant {variant!r}")
    if residual_space not in (RESIDUAL_REPR, RESIDUAL_STRUCT):
        raise ValueError(f"unknown residual_space {residual_space!r}")
    _check_count("nlist", nlist)
    X = _rows(X, "item features X")
    ids = _row_ids(ids, X, "X")
    if (pos := _first_repeat(ids)) is not None:
        raise DuplicateItem(f"item id {ids[pos]} repeated at row {pos}")
    if len(ids) < nlist:
        raise TooFewPoints(f"{len(ids)} items for nlist={nlist}")

    e_repr = encoder.encode_batch(model, encoder.ITEM, X)
    if mode == CI:
        e_struct = encoder.encode_batch(model, encoder.QUERY, X)
    else:
        e_struct = e_repr

    centroids = kmeans(e_struct, nlist, rng=rng)
    labels, _ = assign_batch(centroids, e_struct)

    codebook = codes = mean_recon = None
    if variant == PQ:
        base = e_repr if residual_space == RESIDUAL_REPR else e_struct
        residuals = _residuals(base, centroids.centers, labels)
        codebook = pq_train(residuals, pq_m, pq_ksub, rng)
        codes = pq_encode_batch(codebook, residuals)
        recon = pq_reconstruct(codebook, codes)
        diff = residuals.astype(np.float64) - recon.astype(np.float64)
        mean_recon = float(np.mean(_sum_sq(diff)))

    payload = e_repr if variant == FLAT else codes
    members = [np.flatnonzero(labels == j) for j in range(nlist)]
    list_ids = [ids[rows] for rows in members]
    list_payload = [payload[rows] for rows in members]

    return IvfIndex(variant, mode, centroids, list_ids, list_payload, codebook,
                    residual_space, mean_recon)


def search_batch(index: IvfIndex, model, Q, nprobe: int,
                 k: int) -> list[SearchResult]:
    """For each query row of Q (nq, input_dim): probe the nprobe nearest
    coarse clusters, score their members, and return the k best by ascending
    squared distance (ties by ascending item id).

    Per block of queries: one encode, one coarse distance matrix and, for PQ,
    one `adc_table` call; each output holds about _BLOCK_ELEMS values at most.
    A flat block of two or more queries is scanned at once (`_scan_flat`).
    Any other query gathers its probed lists in probe order, scores them in
    one call (exact distances, or one ADC gather: its n_probe tables side by
    side as one (m, n_probe * ksub) table, where a code c from the list
    probed p-th looks up column p * ksub + c) and takes `top_k`.
    """
    _check_count("k", k)
    _check_count("nprobe", nprobe)
    Q = _rows(Q, "queries Q")
    if model.output_dim != index.dim:
        raise DimensionMismatch(f"model output_dim {model.output_dim} != "
                                f"index dim {index.dim}")
    n_probe = min(nprobe, index.nlist)
    centers = index.centroids.centers
    cb = index.codebook
    sizes = np.fromiter(map(len, index.list_ids), np.intp, index.nlist)
    flat = index.variant == FLAT
    width = max(index.nlist, index.dim)
    if not flat:
        width = max(width, n_probe * cb.m * cb.ksub)
        offsets = np.arange(n_probe) * cb.ksub
    step = max(1, _BLOCK_ELEMS // width)
    results = []
    for start in range(0, len(Q), step):
        e_q = encoder.encode_batch(model, encoder.QUERY, Q[start:start + step])
        probed = top_k(pairwise_sq_dists(e_q, centers), np.arange(index.nlist),
                       n_probe)
        if flat and len(e_q) > 1:
            results += _scan_flat(index, e_q, probed, k, sizes)
            continue
        if not flat:
            residuals = _residuals(np.repeat(e_q, n_probe, axis=0), centers,
                                   probed.ravel())
            tables = adc_table(cb, residuals).reshape(
                len(e_q), n_probe, cb.m, cb.ksub).transpose(0, 2, 1, 3)
            tables = tables.reshape(len(e_q), cb.m, n_probe * cb.ksub)
        for r, probe in enumerate(probed.tolist()):
            ids = np.concatenate([index.list_ids[j] for j in probe])
            payload = np.concatenate([index.list_payload[j] for j in probe],
                                     dtype=np.float64 if flat else None)
            if flat:
                payload -= e_q[r]
                dists = _sum_sq(payload)
            else:
                dists = adc_distances_batch(tables[r], payload + np.repeat(
                    offsets, sizes[probe])[:, None])
            order = top_k(dists, ids, k)
            results.append(SearchResult(
                list(zip(ids[order].tolist(), dists[order].tolist())), probe))
    return results


def _scan_flat(index: IvfIndex, e_q, probed, k: int, sizes) -> list:
    """The flat list scan of a block of two or more queries e_q, row r
    probing the lists probed[r], of lengths sizes. The union of the block's
    probed lists is concatenated once, ids and payload in float64, with its
    squared norms. Each sub-block of _BLOCK_ELEMS // len(union) queries makes
    one `core._nearest_k` call, each row cut to its own lists' columns."""
    mark = np.zeros(index.nlist, dtype=bool)
    mark[probed] = True
    lists = np.flatnonzero(mark)
    ids = np.concatenate([index.list_ids[j] for j in lists.tolist()])
    payload = np.concatenate([index.list_payload[j] for j in lists.tolist()],
                             dtype=np.float64)
    p_sq = _sum_sq(payload)
    # the union column of each list's first member
    first = np.zeros(index.nlist, dtype=np.intp)
    first[lists] = np.cumsum(sizes[lists]) - sizes[lists]
    step = max(1, _BLOCK_ELEMS // max(1, len(ids)))
    results = []
    for start in range(0, len(e_q), step):
        probe = probed[start:start + step]
        cols = _ranges(first[probe], sizes[probe])
        rows, at, dist = _nearest_k(e_q[start:start + step], payload, p_sq,
                                    ids, k, cols)
        found, dist = ids[at].tolist(), dist.tolist()
        a = 0
        for count, lists_r in zip(np.bincount(rows, minlength=len(probe)
                                              ).tolist(), probe.tolist()):
            b = a + min(count, k)
            results.append(SearchResult(list(zip(found[a:b], dist[a:b])),
                                        lists_r))
            a += count
    return results


def _ranges(first, lens) -> np.ndarray:
    """An (m, w) int array whose row r holds the ranges first[r, p] +
    arange(lens[r, p]), p = 0, 1, ..., side by side, padded with -1 to the
    longest row; first and lens are (m, n_probe)."""
    ends = np.cumsum(lens, axis=1)
    width = int(ends[:, -1].max())
    out = np.full((len(lens), width), -1, dtype=np.intp)
    head = (np.arange(len(lens))[:, None] * width + ends - lens).ravel()
    lens = lens.ravel()
    pos = (np.repeat(head - (np.cumsum(lens) - lens), lens)
           + np.arange(lens.sum()))
    out.ravel()[pos] = pos + np.repeat(first.ravel() - head, lens)
    return out


def search(index: IvfIndex, model, query_feature, nprobe: int, k: int) -> SearchResult:
    """`search_batch` for one query feature vector."""
    return search_batch(index, model, np.reshape(query_feature, (1, -1)),
                        nprobe, k)[0]


# ---------------------------------------------------------------------------
# Serialization. Layout (all integers little-endian):
#   "SCIX" | version u32 | variant u8 | mode u8 | pq_m u8 (0 for flat) |
#   residual_space u8 | dim u32 | nlist u32 | n_items u64 |
#   centroid block: centers f32[nlist*dim], inertia f64, iterations u32 |
#   per cluster: count u64, ids u64[count], payload
#     (flat: f32[count*dim]; pq: u8[count*pq_m]) |
#   pq only: ksub u32, codebooks f32[m*ksub*sub_dim], train_mse f64[m]

_VARIANT_TAGS = {FLAT: 0, PQ: 1}
_MODE_TAGS = {STANDARD: 0, CI: 1}
_RESID_TAGS = {RESIDUAL_REPR: 0, RESIDUAL_STRUCT: 1}


def save(index: IvfIndex, path) -> None:
    pq_m = index.codebook.m if index.variant == PQ else 0
    parts = [struct.pack("<BBBBIIQ", _VARIANT_TAGS[index.variant],
                         _MODE_TAGS[index.mode], pq_m,
                         _RESID_TAGS[index.residual_space], index.dim,
                         index.nlist, index.n_items),
             index.centroids.centers.astype("<f4").tobytes(),
             struct.pack("<dI", index.centroids.inertia,
                         index.centroids.iterations_run)]
    dtype = "<f4" if index.variant == FLAT else np.uint8
    for ids, payload in zip(index.list_ids, index.list_payload):
        parts += [struct.pack("<Q", len(ids)), ids.astype("<u8").tobytes(),
                  payload.astype(dtype).tobytes()]
    if index.variant == PQ:
        cb = index.codebook
        parts += [struct.pack("<I", cb.ksub),
                  cb.codebooks.astype("<f4").tobytes(),
                  cb.train_mse.astype("<f8").tobytes()]
    data_io.write_container(path, _MAGIC, parts)


def load(path) -> IvfIndex:
    r = data_io.open_container(path, _MAGIC, CorruptIndex)
    variant = r.tag(_VARIANT_TAGS)
    mode = r.tag(_MODE_TAGS)
    pq_m, = r.unpack("<B")
    residual_space = r.tag(_RESID_TAGS)
    dim, nlist, n_items = r.unpack("<IIQ")
    if dim == 0 or nlist == 0:
        raise r.error(12 if dim == 0 else 16, "dim and nlist must be >= 1")
    if (pq_m != 0) if variant == FLAT else (pq_m == 0 or dim % pq_m != 0):
        raise r.error(10, f"bad PQ sub-quantizer count {pq_m} for a "
                          f"{variant} index")
    centers = r.array("<f4", (nlist, dim))
    inertia = float(r.array("<f8", ()))
    if inertia < 0.0:
        raise r.error(r.offset - 8, f"negative inertia {inertia}")
    iterations, = r.unpack("<I")
    if not 1 <= iterations <= MAX_ITERS:
        raise r.error(r.offset - 4, f"iteration count {iterations} outside "
                                    f"1..{MAX_ITERS}")
    centroids = Centroids(centers, inertia, iterations)
    dtype, width = ("<f4", dim) if variant == FLAT else (np.uint8, pq_m)

    list_ids, list_payload, id_offsets, payload_offsets = [], [], [], []
    for _ in range(nlist):
        count, = r.unpack("<Q")
        id_offsets.append(r.offset)
        list_ids.append(r.array("<u8", (count,)))
        payload_offsets.append(r.offset)
        list_payload.append(r.array(dtype, (count, width)))
    if sum(len(i) for i in list_ids) != n_items:
        raise r.error(r.offset, "n_items does not match list sizes")
    ids = np.concatenate(list_ids)
    if (pos := _first_repeat(ids)) is not None:
        at = np.concatenate([offset + 8 * np.arange(len(i))
                             for offset, i in zip(id_offsets, list_ids)])
        raise r.error(int(at[pos]), f"item id {ids[pos]} repeated")

    codebook = None
    if variant == PQ:
        ksub, = r.unpack("<I")
        if not 1 <= ksub <= 256:
            raise r.error(r.offset - 4, f"bad ksub {ksub}")
        for offset, codes in zip(payload_offsets, list_payload):
            bad = np.flatnonzero(codes >= ksub)
            if len(bad):
                raise r.error(offset + int(bad[0]), f"PQ code >= ksub {ksub}")
        codebook = PqCodebook(r.array("<f4", (pq_m, ksub, dim // pq_m)),
                              r.array("<f8", (pq_m,)))
    r.end()
    return IvfIndex(variant, mode, centroids, list_ids, list_payload, codebook,
                    residual_space)
