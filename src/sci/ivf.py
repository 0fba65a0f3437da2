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
from .clustering import Centroids, assign_batch, kmeans
from .core import as_ids, pairwise_sq_dists, top_k
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
    dim: int
    nlist: int
    centroids: Centroids
    list_ids: list          # per cluster: (len,) uint64 array
    list_payload: list      # per cluster: (len, dim) f32 or (len, m) uint8
    n_items: int
    codebook: PqCodebook | None = None
    residual_space: str = RESIDUAL_REPR
    mean_reconstruction_error: float | None = field(default=None, compare=False)


@dataclass
class SearchResult:
    ranked: list            # [(item_id, score)], ascending squared distance
    probed_clusters: list


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
    ids = as_ids(ids)
    X = np.asarray(X, dtype=np.float32)
    if X.ndim != 2 or ids.shape != (len(X),):
        raise DimensionMismatch(
            f"ids {ids.shape} do not line up with the rows of X {X.shape}")
    if len(np.unique(ids)) != len(ids):
        raise DuplicateItem("item ids must be unique")
    n = len(ids)
    if n < nlist:
        raise TooFewPoints(f"{n} items for nlist={nlist}")

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
        residuals = (base.astype(np.float64) -
                     centroids.centers[labels].astype(np.float64)).astype(np.float32)
        codebook = pq_train(residuals, pq_m, pq_ksub, rng)
        codes = pq_encode_batch(codebook, residuals)
        recon = pq_reconstruct(codebook, codes)
        diff = residuals.astype(np.float64) - recon.astype(np.float64)
        mean_recon = float(np.mean(np.einsum("ij,ij->i", diff, diff)))

    payload = e_repr if variant == FLAT else codes
    members = [np.flatnonzero(labels == j) for j in range(nlist)]
    list_ids = [ids[rows] for rows in members]
    list_payload = [payload[rows] for rows in members]

    return IvfIndex(variant, mode, int(e_repr.shape[1]), nlist, centroids,
                    list_ids, list_payload, n, codebook, residual_space,
                    mean_recon)


def search(index: IvfIndex, model, query_feature, nprobe: int, k: int) -> SearchResult:
    """Probe the nprobe nearest coarse clusters, score their members, return
    the k best by ascending squared distance (ties by ascending item id)."""
    if k < 1 or nprobe < 1:
        raise ValueError("k and nprobe must be >= 1")
    e_q = encoder.encode_batch(model, encoder.QUERY,
                               np.reshape(query_feature, (1, -1)))[0]
    c_dists = pairwise_sq_dists(e_q.reshape(1, -1), index.centroids.centers)[0]
    n_probe = min(nprobe, index.nlist)
    probed = top_k(c_dists, np.arange(index.nlist), n_probe)

    all_ids = []
    all_dists = []
    for j in probed:
        ids = index.list_ids[j]
        if len(ids) == 0:
            continue
        if index.variant == FLAT:
            d = pairwise_sq_dists(index.list_payload[j],
                                  e_q.reshape(1, -1))[:, 0]
        else:
            qr = e_q.astype(np.float64) - \
                index.centroids.centers[j].astype(np.float64)
            table = adc_table(index.codebook, qr.astype(np.float32))
            d = adc_distances_batch(table, index.list_payload[j])
        all_ids.append(ids)
        all_dists.append(d)

    if not all_ids:
        return SearchResult([], [int(j) for j in probed])
    ids = np.concatenate(all_ids)
    dists = np.concatenate(all_dists)
    order = top_k(dists, ids, k)
    ranked = [(int(ids[i]), float(dists[i])) for i in order]
    return SearchResult(ranked, [int(j) for j in probed])


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
    if variant == PQ and (pq_m == 0 or dim % pq_m != 0):
        raise r.error(10, f"bad PQ sub-quantizer count {pq_m}")
    centers = r.array("<f4", (nlist, dim))
    centroids = Centroids(centers, *r.unpack("<dI"))
    dtype, width = ("<f4", dim) if variant == FLAT else (np.uint8, pq_m)

    list_ids, list_payload, payload_offsets = [], [], []
    for _ in range(nlist):
        count, = r.unpack("<Q")
        list_ids.append(r.array("<u8", (count,)))
        payload_offsets.append(r.offset)
        list_payload.append(r.array(dtype, (count, width)))
    if sum(len(i) for i in list_ids) != n_items:
        raise r.error(r.offset, "n_items does not match list sizes")

    codebook = None
    if variant == PQ:
        ksub, = r.unpack("<I")
        if not 1 <= ksub <= 256:
            raise r.error(r.offset - 4, f"bad ksub {ksub}")
        for offset, codes in zip(payload_offsets, list_payload):
            bad = np.flatnonzero(codes >= ksub)
            if len(bad):
                raise r.error(offset + int(bad[0]), f"PQ code >= ksub {ksub}")
        sub_dim = dim // pq_m
        codebook = PqCodebook(pq_m, sub_dim, ksub,
                              r.array("<f4", (pq_m, ksub, sub_dim)),
                              r.array("<f8", (pq_m,)))
    r.end()
    return IvfIndex(variant, mode, dim, nlist, centroids, list_ids,
                    list_payload, n_items, codebook, residual_space)
