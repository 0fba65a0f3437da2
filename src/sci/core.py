"""Dense vector primitives: float32 storage, 64-bit accumulation, seeded RNG,
and the package's squared-L2 selection: one exact per-pair arithmetic
(`_sum_sq` over an explicit difference), the all-pairs kernel built on it, and
the nearest / top-k rules.

Vectors and matrices are plain numpy float32 arrays. All reductions are
performed in float64 so results do not drift with vector length. Every k-means
assignment, PQ encode, coarse probe, list scan and exact search selects through
`nearest` (ties to the lowest index), `top_k` (ties by ascending key) or, for a
block of two or more flat queries, `_nearest_k` (`top_k`'s rule over each row's
own columns, scored like `nearest`).
`top_k` of one 1-D array sorts only the entries at or below its k-th smallest
value, found by one partition; rows of a matrix take one full sort.
`nearest` scores each block of _BLOCK_ELEMS // max(k, d) rows with one
centre-major matrix product, so per-row reductions run down contiguous rows;
an exact 0/1 count/index product names each row's single kept centre, only
tied rows are reranked (`_pair_sq`, which also reranks `_nearest_k`), and every
distance is recomputed exactly: the outputs of an argmin over the kernel.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch, ZeroNorm

# Float64 elements in one difference tensor of `pairwise_sq_dists`, or one
# score block or final gather of `nearest` (512 KiB), or one row of x against
# all of c when that alone is larger.
_BLOCK_ELEMS = 1 << 16
# Unit roundoff of float64, and its smallest subnormal (the absolute error
# bound of a product that underflows is half of it).
_U = 2.0 ** -53
_TINY = 2.0 ** -1074


def make_rng(seed: int) -> np.random.Generator:
    """Seeded, platform-stable generator (PCG64 counter stream).

    Identical seed produces an identical stream on every platform. No OS
    entropy is consumed anywhere in the package.
    """
    return np.random.Generator(np.random.PCG64(seed))


def as_f32(x, name: str = "vector") -> np.ndarray:
    """Coerce to a float32 array, rejecting NaN/Inf."""
    a = np.asarray(x, dtype=np.float32)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def as_ids(ids) -> np.ndarray:
    """Coerce ids to uint64, refusing (not truncating or wrapping) a
    non-integer dtype or a negative id."""
    a = np.asarray(ids)
    if a.size and not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"ids must be integers, got dtype {a.dtype}")
    if np.any(a < 0):
        raise ValueError("ids must be non-negative")
    return a.astype(np.uint64, copy=False)


def _rows(x, name: str, width: int | None = None,
          dtype=np.float32) -> np.ndarray:
    """The package's one shape rule for an array input: `x` as a 2-D array
    of `dtype` (kept as is for None) with at least one column, and exactly
    `width` columns when given. No copy when x already is one. Raises
    DimensionMismatch naming the input, its shape and the width."""
    a = np.asarray(x, dtype=dtype)
    if a.ndim != 2 or a.shape[1] < 1 or width not in (None, a.shape[1]):
        want = ">= 1" if width is None else width
        raise DimensionMismatch(f"{name} have shape {a.shape}, not rows of "
                                f"width {want}")
    return a


def _check_int(name: str, value) -> None:
    """The type half of the count rule: an integer, numpy's included; a bool
    or any other type is refused, not read as a number. Raises ValueError
    naming the argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(name: str, value) -> None:
    """The package's one rule for a count (k, nprobe, nlist, an evaluation
    cutoff): `_check_int`, then at least 1, each refusal a ValueError."""
    _check_int(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _row_ids(ids, x: np.ndarray, name: str) -> np.ndarray:
    """`as_ids` of ids that must hold one id per row of x."""
    ids = as_ids(ids)
    if ids.shape != (len(x),):
        raise DimensionMismatch(f"ids of shape {ids.shape} do not line up "
                                f"with the {len(x)} rows of {name}")
    return ids


def _first_repeat(ids: np.ndarray) -> int | None:
    """The position of the first id that repeats an earlier one, or None."""
    ordered = np.sort(ids)  # ~10x cheaper than np.unique(return_index=True)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    first = np.unique(ids, return_index=True)[1]  # each id's first position
    return int(np.setdiff1d(np.arange(len(ids)), first)[0])


def _equal(a, b) -> bool:
    """Value equality, the `__eq__` of every record that holds arrays:
    dataclasses field by field (skipping compare=False), dicts, lists and
    tuples member by member, arrays by `np.array_equal`, the rest by ==."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _equal(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a) if f.compare)
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(_equal(a[key], b[key]) for key in a))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(map(_equal, a, b)))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def row_normalize(x: np.ndarray) -> np.ndarray:
    """L2-normalize each row of a 2-D float64 array. Raises ZeroNorm on a zero row."""
    norms = np.sqrt(_sum_sq(x))
    if np.any(norms == 0.0):
        raise ZeroNorm("zero row encountered during normalization")
    return x / norms[:, None]


def _sum_sq(diff: np.ndarray, out=None) -> np.ndarray:
    """Sum of squares over the last axis, the one arithmetic of every squared
    norm and distance: the kernel and `nearest`'s rerank agree bitwise."""
    return np.einsum("...k,...k->...", diff, diff, out=out)


def pairwise_sq_dists(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances, rows of x against rows of c (float64).

    Each entry is `_sum_sq` of the explicit difference x_i - c_j, never the
    expansion ‖x‖² - 2x·c + ‖c‖², so it is exact up to the rounding of that
    one sum. Rows of x are taken in blocks and promoted to float64 there, so
    one difference tensor holds at most max(_BLOCK_ELEMS, k*d) elements for c
    of shape (k, d) and x is never copied whole; no bit changes.
    """
    c = c.astype(np.float64, copy=False)
    step = max(1, _BLOCK_ELEMS // max(1, c.shape[0] * x.shape[1]))
    out = np.empty((x.shape[0], c.shape[0]))
    for start in range(0, x.shape[0], step):
        diff = x[start:start + step, None, :] - c[None, :, :]
        _sum_sq(diff, out=out[start:start + step])
    return out


def _margin(x_norm, c_max, d: int):
    """The rounding margin of `nearest`'s proof, 4γ_{d+4}(‖x‖ + c_max)² +
    8(d + 1)·_TINY, for rows of norm x_norm scored against rows of norm at
    most c_max in d dimensions."""
    gamma = (d + 4) * _U / (1.0 - (d + 4) * _U)
    return 4.0 * gamma * (x_norm + c_max) ** 2 + 8.0 * (d + 1) * _TINY


def nearest(x: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of x, the index of its nearest row of c by squared L2
    (ties to the lowest index) and that squared distance (float64).

    Bitwise equal to an argmin over `pairwise_sq_dists(x, c)` and the gathered
    distance, for any BLAS summation order or thread count:

    - Score. Per block of rows, one matrix product gives the centre-major
      scores s_j = ‖c_j‖² - 2 x·c_j, shape (k, rows), which is D_j - ‖x‖²
      for the exact distance D_j = ‖x - c_j‖². Every per-row reduction then
      runs down axis 0, over contiguous rows.
    - Bound (Higham, Accuracy and Stability of Numerical Algorithms, §3.1;
      u = 2^-53, γ_m = m·u / (1 - m·u), Q = (‖x‖ + max_j ‖c_j‖)²). A dot
      product of length d in any order is off by at most γ_d Σ|x_i||c_ji|
      ≤ γ_d ‖x‖‖c_j‖, and ‖c_j‖² by γ_d ‖c_j‖²; the final subtraction adds
      one rounding, so |ŝ_j - s_j| ≤ γ_{d+1} Q. The exact arithmetic's value
      D̂_j (a difference, a square and d - 1 additions of non-negative terms)
      is within γ_{d+2} D_j of D_j, and D_j ≤ Q. So if D̂_j ≤ D̂_w for the
      score winner w, then D_j - D_w ≤ 2γ_{d+2} Q and
      ŝ_j ≤ ŝ_w + (2γ_{d+1} + 2γ_{d+2}) Q < ŝ_w + 4γ_{d+2} Q.
      The margin kept (`_margin`) is 4γ_{d+4} Q̂: the two extra units of γ
      exceed the roundings of Q̂, of the margin and of ŝ_w + margin
      (together below (1 + O(d²u)) u·Q). Products that underflow add at most
      _TINY / 2 each, 4d·_TINY over the four values compared, covered by
      8(d + 1)·_TINY.
      Every exact minimiser j therefore has ŝ_j ≤ min ŝ + margin, and is
      kept. NaN never compares greater, so a non-finite score or margin
      keeps the whole row.
    - Count and index. One product of the 0/1 matrix of dropped centres
      with the rows [1, ..., 1] and [0, 1, ..., k - 1] gives each row's
      dropped count and the sum of their indices; subtracted from k and
      k(k - 1)/2 they are the kept count and, when that is 1, the kept
      centre itself. The product is exact in any summation order: every
      term is 0 or an integer below k, so every partial sum is an integer
      of at most k(k - 1)/2, below 2^53 for any k under 2^26.
    - Rerank. Only rows that keep more than one centre (ties, duplicate
      centres, NaN) recompute their kept pairs (`_pair_sq`); the lowest
      index among the exact minima wins, as in argmin. Every row's distance
      is then `_sum_sq(x - c[best])`, the same per-pair arithmetic.

    A block holds _BLOCK_ELEMS // max(k, d) rows (at least one), so the
    score block and the final gather each hold at most max(_BLOCK_ELEMS, k,
    d) float64, and rows of x are promoted to float64 one block at a time:
    x is never copied whole.
    """
    c = c.astype(np.float64, copy=False)
    n, d = x.shape
    k = c.shape[0]
    c_sq = _sum_sq(c)[:, None]
    c_max = np.sqrt(c_sq.max())
    # Scaling by -2 is exact, so c2 @ x.T carries the error bound of x·c.
    c2 = -2.0 * c
    # Count and index sum of the dropped centres, and of all k centres.
    count_index = np.vstack((np.ones(k), np.arange(k)))
    total = np.array([[k], [k * (k - 1) // 2]])
    step = max(1, _BLOCK_ELEMS // max(1, k, d))
    idx = np.empty(n, dtype=np.intp)
    dist = np.empty(n)
    for start in range(0, n, step):
        xb = x[start:start + step].astype(np.float64, copy=False)
        s = c2 @ xb.T
        s += c_sq
        lim = s.min(axis=0) + _margin(np.sqrt(_sum_sq(xb)), c_max, d)
        # In place: 1.0 marks a dropped centre, 0.0 a kept one.
        np.greater(s, lim, out=s)
        count, best = total - count_index @ s
        best = best.astype(np.intp)
        ties = np.flatnonzero(count != 1)
        if ties.size:
            cols, rows = np.nonzero(s[:, ties] == 0.0)
            exact = np.full((ties.size, k), np.inf)
            exact[rows, cols] = _pair_sq(xb, ties[rows], c, cols)
            best[ties] = np.argmin(exact, axis=1)
        idx[start:start + step] = best
        _sum_sq(xb - c[best], out=dist[start:start + step])
    return idx, dist


def _pair_sq(a, ia, b, ib) -> np.ndarray:
    """`_sum_sq(a[ia] - b[ib])`, the rerank of `nearest` and `_nearest_k`.
    Every pair of a block can be kept (duplicate rows), so the gathers take
    _BLOCK_ELEMS // d pairs at a time."""
    out = np.empty(len(ia))
    step = max(1, _BLOCK_ELEMS // max(1, a.shape[1]))
    for i in range(0, len(ia), step):
        _sum_sq(a[ia[i:i + step]] - b[ib[i:i + step]], out=out[i:i + step])
    return out


def _nearest_k(q: np.ndarray, p: np.ndarray, p_sq: np.ndarray,
               keys: np.ndarray, k: int, cols: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every (row r of q, row j of p) pair that can be among row r's k
    nearest by (squared L2, key), as arrays (r, j, exact distance) sorted by
    row, then by distance, then by key: the first min(k, count) pairs of each
    row are `top_k` over the `_sum_sq(p_j - q_r)` of its columns, bitwise.

    q (m, d); p (n, d) float64 with p_sq = _sum_sq(p); keys (n,) holds the
    key of each row of p; cols (m, w) ints: the columns of p row r may take,
    padded with -1. This is `nearest`'s rule in k-select form:

    - Score. One product gives -2 q·p, shape (m, n); cut to each row's own
      columns (padding at +inf), it gains p_sq: s = p_sq - 2 q·p.
    - Select. t̂ is a row's k-th smallest score. If ŝ_j > t̂ + margin
      (`_margin`, with the largest ‖q‖ and ‖p‖), nearest's bound gives each
      of the k columns i with ŝ_i ≤ t̂ an exact D̂_i < D̂_j, strictly, so j
      ranks k + 1 or later whatever its key. Every other column is kept.
      NaN never compares greater, so a NaN score keeps its column, and a row
      whose t̂ is NaN or +inf (fewer than k columns) keeps all of them.
    - Rerank. Each kept pair's distance is `_pair_sq` of p_j and q_r, and
      one lexsort orders the pairs.

    Besides p, every temporary holds O(m·n) values.
    """
    q = q.astype(np.float64, copy=False)
    pad = cols < 0
    s = np.take_along_axis((-2.0 * q) @ p.T, cols, axis=1) + p_sq[cols]
    s[pad] = np.inf
    if s.shape[1] == 0:
        none = np.empty(0, dtype=np.intp)
        return none, none, np.empty(0)
    kth = min(k, s.shape[1]) - 1
    lim = np.partition(s, kth, axis=1)[:, kth:kth + 1]
    lim += _margin(np.sqrt(_sum_sq(q).max()), np.sqrt(p_sq.max()), q.shape[1])
    keep = ~(s > lim)
    keep[pad] = False
    rows, at = np.nonzero(keep)
    at = cols[rows, at]
    dist = _pair_sq(p, at, q, rows)
    order = np.lexsort((keys[at], dist, rows))
    return rows[order], at[order], dist[order]


def top_k(d: np.ndarray, keys: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k smallest entries of d along its last axis in
    ascending order, ties broken by ascending key (all positions when k >=
    d.shape[-1]); keys (n,) holds the key of each position of that axis. The
    result is that of a full `np.lexsort((keys, d))` cut to k, NaN last.

    On a 1-D d with k < n, one `np.partition` finds the k-th smallest value
    t, and only the positions with d <= t (every tie at the boundary kept)
    are sorted by (d, key): O(n) plus the sort of about k survivors. A NaN t
    falls back to the full sort. Rows of a matrix always take the full sort:
    they are the coarse probe, nlist long, where the threshold form measured
    slower than one sort of the whole matrix.
    """
    if d.ndim == 1 and 0 < k < d.shape[0]:
        t = np.partition(d, k - 1)[k - 1]
        if not np.isnan(t):
            kept = np.flatnonzero(d <= t)
            return kept[np.lexsort((keys[kept], d[kept]))[:k]]
    return np.lexsort((np.broadcast_to(keys, d.shape), d))[..., :k]
