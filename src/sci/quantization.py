"""Product quantization of residual vectors and asymmetric distance lookup.

Vectors are split into m contiguous sub-vectors; each subspace gets its own
ksub-center codebook trained with the shared k-means primitive. Codes fit in
one byte per sub-quantizer (ksub <= 256).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import kmeans
from .core import nearest
from .errors import BadSubspaceSplit, CorruptCode, DimensionMismatch


@dataclass
class PqCodebook:
    m: int
    sub_dim: int
    ksub: int
    codebooks: np.ndarray   # (m, ksub, sub_dim) float32
    train_mse: np.ndarray   # per-subspace mean squared quantization error at train time

    def __eq__(self, other):
        if not isinstance(other, PqCodebook):
            return NotImplemented
        return ((self.m, self.sub_dim, self.ksub) ==
                (other.m, other.sub_dim, other.ksub)
                and np.array_equal(self.codebooks, other.codebooks)
                and np.array_equal(self.train_mse, other.train_mse))

    @property
    def dim(self):
        return self.m * self.sub_dim


def _split(x: np.ndarray, m: int, sub_dim: int) -> np.ndarray:
    return x.reshape(x.shape[0], m, sub_dim)


def pq_train(residuals, m: int, ksub: int, rng) -> PqCodebook:
    x = np.asarray(residuals, dtype=np.float32)
    if x.ndim != 2:
        raise DimensionMismatch("expected a 2-D array of residuals")
    dim = x.shape[1]
    if dim % m != 0:
        raise BadSubspaceSplit(f"dim {dim} not divisible by m={m}")
    if ksub > 256:
        raise ValueError("ksub must fit in one byte (<= 256)")
    sub_dim = dim // m
    subs = _split(x, m, sub_dim)
    codebooks = np.empty((m, ksub, sub_dim), dtype=np.float32)
    train_mse = np.empty(m)
    for s in range(m):
        cents = kmeans(subs[:, s, :], ksub, rng=rng)
        codebooks[s] = cents.centers
        train_mse[s] = cents.inertia / x.shape[0]
    return PqCodebook(m, sub_dim, ksub, codebooks, train_mse)


def pq_encode_batch(cb: PqCodebook, r) -> np.ndarray:
    x = np.asarray(r, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] != cb.dim:
        raise DimensionMismatch(f"expected (n, {cb.dim}) residuals")
    subs = _split(x, cb.m, cb.sub_dim)
    codes = np.empty((x.shape[0], cb.m), dtype=np.uint8)
    for s in range(cb.m):
        codes[:, s] = nearest(subs[:, s, :], cb.codebooks[s])[0]
    return codes


def pq_reconstruct(cb: PqCodebook, codes) -> np.ndarray:
    """(n, m) codes -> (n, dim) float32 reconstructions."""
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2 or codes.shape[1] != cb.m:
        raise DimensionMismatch(f"codes shape {codes.shape} vs m={cb.m}")
    if np.any(codes >= cb.ksub):
        raise CorruptCode(f"code value >= ksub ({cb.ksub})")
    return cb.codebooks[np.arange(cb.m)[None, :],
                        codes.astype(np.intp)].reshape(codes.shape[0], cb.dim)


def adc_table(cb: PqCodebook, query_residual) -> np.ndarray:
    """Per-subspace squared distances from the query residual to every
    codeword: shape (m, ksub), float64."""
    qr = np.asarray(query_residual, dtype=np.float32)
    if qr.shape != (cb.dim,):
        raise DimensionMismatch(f"dim {qr.shape} vs codebook dim {cb.dim}")
    q_subs = qr.reshape(cb.m, cb.sub_dim).astype(np.float64)
    cw = cb.codebooks.astype(np.float64)
    diff = cw - q_subs[:, None, :]
    return np.einsum("mks,mks->mk", diff, diff)


def adc_distances_batch(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-row sum of table lookups: the squared distance between the query
    residual and each code's reconstruction (up to accumulation order)."""
    m = table.shape[0]
    if codes.ndim != 2 or codes.shape[1] != m:
        raise DimensionMismatch(f"codes shape {codes.shape} vs table m={m}")
    return table[np.arange(m), codes].sum(axis=1)
