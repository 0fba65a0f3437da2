"""Product quantization of residual vectors and asymmetric distance lookup.

Vectors are split into m contiguous sub-vectors; each subspace gets its own
ksub-center codebook trained with the shared k-means primitive. Codes fit in
one byte per sub-quantizer (ksub <= 256). ADC tables are built for a batch of
residuals through the shared distance kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .core import _check_int, _equal, _rows, nearest, pairwise_sq_dists
from .errors import BadSubspaceSplit, CorruptCode, TooFewPoints


@dataclass
class PqCodebook:
    codebooks: np.ndarray   # (m, ksub, sub_dim) float32
    train_mse: np.ndarray   # per-subspace mean squared quantization error at train time

    __eq__ = _equal

    m = property(lambda self: self.codebooks.shape[0])
    ksub = property(lambda self: self.codebooks.shape[1])
    sub_dim = property(lambda self: self.codebooks.shape[2])
    dim = property(lambda self: self.m * self.sub_dim)


def _split(x: np.ndarray, m: int, sub_dim: int) -> np.ndarray:
    return x.reshape(x.shape[0], m, sub_dim)


def pq_train(residuals, m: int, ksub: int, rng) -> PqCodebook:
    x = _rows(residuals, "residuals")
    dim = x.shape[1]
    _check_int("m", m)
    _check_int("ksub", ksub)
    if m < 1 or dim % m != 0:
        raise BadSubspaceSplit(f"dim {dim} cannot be split into m={m} "
                               f"equal subspaces")
    if not 1 <= ksub <= 256:
        raise ValueError(f"ksub must lie in [1, 256] (one byte per code), "
                         f"got {ksub}")
    if x.shape[0] < ksub:
        raise TooFewPoints(f"{x.shape[0]} residuals for ksub={ksub}")
    sub_dim = dim // m
    subs = _split(x, m, sub_dim)
    codebooks = np.empty((m, ksub, sub_dim), dtype=np.float32)
    train_mse = np.empty(m)
    for s in range(m):
        cents = kmeans(subs[:, s, :], ksub, rng=rng)
        codebooks[s] = cents.centers
        train_mse[s] = cents.inertia / x.shape[0]
    return PqCodebook(codebooks, train_mse)


def pq_encode_batch(cb: PqCodebook, r) -> np.ndarray:
    x = _rows(r, "residuals", cb.dim)
    subs = _split(x, cb.m, cb.sub_dim)
    codes = np.empty((x.shape[0], cb.m), dtype=np.uint8)
    for s in range(cb.m):
        codes[:, s] = nearest(subs[:, s, :], cb.codebooks[s])[0]
    return codes


def pq_reconstruct(cb: PqCodebook, codes) -> np.ndarray:
    """(n, m) integer codes, each in [0, ksub) -> (n, dim) float32
    reconstructions. Codes are checked before any cast, so none wraps or
    truncates into range."""
    codes = _rows(codes, "codes", cb.m, None)
    if not np.issubdtype(codes.dtype, np.integer):
        raise CorruptCode(f"codes must be integers, got dtype {codes.dtype}")
    if np.any((codes < 0) | (codes >= cb.ksub)):
        raise CorruptCode(f"code values must lie in [0, {cb.ksub})")
    return cb.codebooks[np.arange(cb.m)[None, :],
                        codes].reshape(codes.shape[0], cb.dim)


def adc_table(cb: PqCodebook, residuals) -> np.ndarray:
    """Per-subspace squared distances from each residual row (n, dim) to
    every codeword: shape (n, m, ksub), float64, one `pairwise_sq_dists`
    per subspace."""
    x = _rows(residuals, "residuals", cb.dim)
    subs = _split(x, cb.m, cb.sub_dim)
    tables = np.empty((x.shape[0], cb.m, cb.ksub))
    for s in range(cb.m):
        tables[:, s] = pairwise_sq_dists(subs[:, s, :], cb.codebooks[s])
    return tables


def adc_distances_batch(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-row sum of lookups in one residual's (m, ksub) table: the squared
    distance between that residual and each code's reconstruction (up to
    accumulation order). Codes must be below ksub, as `ivf.load` checks."""
    m = table.shape[0]
    codes = _rows(codes, "codes", m, None)
    # one gather from the flat table, where row s starts at s * width
    flat_index = codes + np.arange(m) * table.shape[1]
    return np.take(table.ravel(), flat_index).sum(axis=1)
