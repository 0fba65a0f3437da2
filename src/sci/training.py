"""Symmetric alignment training.

Implements the triplet hinge objective in its direct form, the swapped form
(queries through the item tower, items through the query tower), their
weighted combination, exact analytic gradients via hand-rolled reverse-mode
differentiation, a finite-difference checker, the plain-SGD training loop,
and the linear-model closed forms with their collapse probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .core import as_f32, make_rng
from .errors import (DegenerateTriplet, DimensionMismatch, Diverged,
                     KinkTooClose, SciError)

CONVEX = "convex"      # (1 - lambda) * L_direct + lambda * L_swap
ADDITIVE = "additive"  # L_direct + lambda * L_swap


@dataclass
class TripletBatch:
    queries: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __post_init__(self):
        self.queries = np.asarray(self.queries, dtype=np.float32)
        self.pos_items = np.asarray(self.pos_items, dtype=np.float32)
        self.neg_items = np.asarray(self.neg_items, dtype=np.float32)
        n = self.queries.shape[0]
        if n < 1:
            raise ValueError("empty triplet batch")
        if self.pos_items.shape != self.queries.shape or \
                self.neg_items.shape != self.queries.shape:
            raise DimensionMismatch("triplet arrays must share one shape")

    def __len__(self):
        return self.queries.shape[0]


@dataclass
class LossConfig:
    margin_delta: float = 0.2
    lambda_weight: float = 0.3
    combine_mode: str = CONVEX

    def __post_init__(self):
        if not 0.0 <= self.lambda_weight <= 1.0:
            raise ValueError("lambda must lie in [0, 1]")
        if self.margin_delta <= 0.0:
            raise ValueError("margin must be positive")
        if self.combine_mode not in (CONVEX, ADDITIVE):
            raise ValueError(f"unknown combine_mode {self.combine_mode!r}")

    def weights(self):
        lam = self.lambda_weight
        if self.combine_mode == CONVEX:
            return 1.0 - lam, lam
        return 1.0, lam


@dataclass
class TrainConfig:
    epochs: int
    learning_rate: float
    seed: int
    loss: LossConfig = field(default_factory=LossConfig)


@dataclass
class GradReport:
    grad_q: dict
    grad_i: dict
    loss_value: float
    loss_original: float
    loss_swap: float


def _zeros_like_params(params):
    return {k: np.zeros(v.shape, dtype=np.float64) for k, v in params.items()}


def _accumulate(dst, src, scale=1.0):
    for k in dst:
        dst[k] += scale * src[k]


def _tower_backward(params, arch, normalize, cache, out, d_out):
    """Gradient of a scalar loss w.r.t. tower parameters, given d loss / d out."""
    if normalize:
        # out = z / ||z||; d z = (d_out - out * <out, d_out>) / ||z||
        norms = np.sqrt(np.einsum("ij,ij->i", cache["z"], cache["z"]))
        inner = np.einsum("ij,ij->i", out, d_out)
        d_z = (d_out - out * inner[:, None]) / norms[:, None]
    else:
        d_z = d_out
    x = cache["x"]
    if arch == encoder.LINEAR:
        return {"W": d_z.T @ x}
    h = cache["hidden"]
    g_w2 = d_z.T @ h
    g_b2 = d_z.sum(axis=0)
    d_h = d_z @ params["W2"].astype(np.float64)
    d_pre = d_h * (1.0 - h * h)
    return {"W1": d_pre.T @ x, "b1": d_pre.sum(axis=0),
            "W2": g_w2, "b2": g_b2}


def _path(params_a, params_b, arch, normalize, batch, delta, want_grads):
    """One hinge path: queries through tower a, items through tower b.

    Returns (loss, hinge_args, grads_a, grads_b). Gradients are of the
    batch-mean hinge w.r.t. the respective tower parameters.
    """
    a_out, a_cache = encoder.forward(params_a, arch, normalize,
                                     batch.queries, with_cache=True)
    p_out, p_cache = encoder.forward(params_b, arch, normalize,
                                     batch.pos_items, with_cache=True)
    n_out, n_cache = encoder.forward(params_b, arch, normalize,
                                     batch.neg_items, with_cache=True)
    s_pos = np.einsum("ij,ij->i", a_out, p_out)
    s_neg = np.einsum("ij,ij->i", a_out, n_out)
    args = delta - s_pos + s_neg
    loss = float(np.mean(np.maximum(args, 0.0)))
    if not want_grads:
        return loss, args, None, None
    n = len(batch)
    w = (args > 0).astype(np.float64) / n  # subgradient 0 at the kink
    d_a = w[:, None] * (n_out - p_out)
    d_p = -w[:, None] * a_out
    d_n = w[:, None] * a_out
    grads_a = _tower_backward(params_a, arch, normalize, a_cache, a_out, d_a)
    grads_b = _tower_backward(params_b, arch, normalize, p_cache, p_out, d_p)
    _accumulate(grads_b,
                _tower_backward(params_b, arch, normalize, n_cache, n_out, d_n))
    return loss, args, grads_a, grads_b


def _check_batch_dims(model, batch):
    if batch.queries.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"batch dim {batch.queries.shape[1]} != model input_dim {model.input_dim}")


def _combined(params_q, params_i, arch, normalize, batch, cfg, want_grads):
    """The direct path, then the swap path when lambda > 0 (no forward passes
    otherwise), weighted by `cfg.weights()`.

    Returns (report, hinge args per path run); the report's gradients are
    None unless want_grads.
    """
    w_o, w_s = cfg.weights()
    l_orig, args_o, g_q_o, g_i_o = _path(params_q, params_i, arch, normalize,
                                         batch, cfg.margin_delta, want_grads)
    args = [args_o]
    grad_q = grad_i = None
    if want_grads:
        grad_q = _zeros_like_params(params_q)
        grad_i = _zeros_like_params(params_i)
        _accumulate(grad_q, g_q_o, w_o)
        _accumulate(grad_i, g_i_o, w_o)

    l_swap = 0.0
    if cfg.lambda_weight > 0.0:
        l_swap, args_s, g_i_s, g_q_s = _path(params_i, params_q, arch,
                                             normalize, batch,
                                             cfg.margin_delta, want_grads)
        args.append(args_s)
        if want_grads:
            _accumulate(grad_i, g_i_s, w_s)
            _accumulate(grad_q, g_q_s, w_s)

    total = w_o * l_orig + w_s * l_swap
    return GradReport(grad_q, grad_i, total, l_orig, l_swap), args


def grad(model, batch: TripletBatch, cfg: LossConfig) -> GradReport:
    """Analytic gradient of the combined loss w.r.t. both towers, with the
    direct, swap and combined loss values."""
    _check_batch_dims(model, batch)
    report, args = _combined(model.params_q, model.params_i, model.arch,
                             model.normalize_output, batch, cfg, True)
    model.encode_calls += 3 * len(batch) * len(args)
    return report


def grad_check(model, batch: TripletBatch, cfg: LossConfig, h: float) -> float:
    """Max relative error between analytic gradients and central differences.

    Refuses batches where any contributing hinge argument is within 10h of
    the kink, where the subgradient convention would poison the comparison.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    _check_batch_dims(model, batch)
    arch, norm = model.arch, model.normalize_output

    def loss(params_q, params_i):
        return _combined(params_q, params_i, arch, norm, batch, cfg, False)

    _, args = loss(model.params_q, model.params_i)
    if min(float(np.min(np.abs(a))) for a in args) <= 10.0 * h:
        raise KinkTooClose("a hinge argument lies within 10h of 0")

    report = grad(model, batch, cfg)
    base_q = {k: v.astype(np.float64) for k, v in model.params_q.items()}
    base_i = {k: v.astype(np.float64) for k, v in model.params_i.items()}
    max_err = 0.0
    for params, analytic in ((base_q, report.grad_q), (base_i, report.grad_i)):
        for name, p in params.items():
            flat = p.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss(base_q, base_i)[0].loss_value
                flat[idx] = orig - h
                lm = loss(base_q, base_i)[0].loss_value
                flat[idx] = orig
                numeric = (lp - lm) / (2.0 * h)
                a = a_flat[idx]
                err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
                max_err = max(max_err, err)
    return max_err


def train(model, dataset, cfg: TrainConfig):
    """Plain SGD over shuffled batches; returns (model, per-epoch history).

    History rows are (epoch, loss_original, loss_swap, loss_total) means over
    the epoch's batches. Deterministic given the seed.
    """
    if not dataset:
        raise ValueError("empty dataset")
    rng = make_rng(cfg.seed)
    lr = cfg.learning_rate
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        sums = np.zeros(3)
        for b_idx in order:
            report = grad(model, dataset[b_idx], cfg.loss)
            if not np.isfinite(report.loss_value):
                raise Diverged(epoch)
            for params, grads in ((model.params_q, report.grad_q),
                                  (model.params_i, report.grad_i)):
                for name in params:
                    updated = params[name].astype(np.float64) - lr * grads[name]
                    params[name] = updated.astype(np.float32)
            sums += (report.loss_original, report.loss_swap, report.loss_value)
        means = sums / len(dataset)
        history.append((epoch, float(means[0]), float(means[1]), float(means[2])))
    return model, history


def symmetrization_operator(q, delta_i) -> np.ndarray:
    """0.5 * (q di^T + di q^T); always symmetric."""
    q = as_f32(q).astype(np.float64)
    di = as_f32(delta_i).astype(np.float64)
    if q.shape != di.shape:
        raise DimensionMismatch(f"{q.shape} vs {di.shape}")
    return (0.5 * (np.outer(q, di) + np.outer(di, q))).astype(np.float32)


def _closed_form_terms(w_i, q, delta_i):
    w_i = np.asarray(w_i, dtype=np.float64)
    direct = np.outer(w_i @ delta_i, q)
    swapped = np.outer(w_i @ q, delta_i)
    return direct, swapped


def linear_grad_closed_form(w_q, w_i, q, i_pos, i_neg, lam: float) -> np.ndarray:
    """Closed-form d loss / d W_q for the linear raw-dot additive regime with
    both hinges active: W_i [di q^T + lambda q di^T], di = i_neg - i_pos."""
    w_q = as_f32(w_q)
    w_i = as_f32(w_i)
    q = as_f32(q).astype(np.float64)
    i_pos = as_f32(i_pos).astype(np.float64)
    i_neg = as_f32(i_neg).astype(np.float64)
    if w_q.shape != w_i.shape or q.shape != i_pos.shape or q.shape != i_neg.shape:
        raise DimensionMismatch("inconsistent shapes")
    if w_q.shape[1] != q.shape[0]:
        raise DimensionMismatch("weight/input dim mismatch")
    delta_i = i_neg - i_pos
    direct, swapped = _closed_form_terms(w_i, q, delta_i)
    return (direct + lam * swapped).astype(np.float32)


@dataclass
class CollapseResult:
    kind: str  # "independent" | "lambda_zero" | "parallel" | "orthogonal"
    cosine: float | None = None


def _flat_cos(a, b):
    a = a.reshape(-1)
    b = b.reshape(-1)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def collapse_probe(w_q, w_i, q, i_pos, i_neg, lam: float) -> CollapseResult:
    """Classify the degenerate regimes in which the swap path adds no
    independent gradient signal."""
    w_i64 = as_f32(w_i).astype(np.float64)
    q = as_f32(q).astype(np.float64)
    delta_i = as_f32(i_neg).astype(np.float64) - as_f32(i_pos).astype(np.float64)
    if q.shape != delta_i.shape:
        raise DimensionMismatch(f"{q.shape} vs {delta_i.shape}")
    if np.linalg.norm(delta_i) == 0.0:
        raise DegenerateTriplet("i_neg equals i_pos")
    if lam == 0.0:
        return CollapseResult("lambda_zero")
    nq = np.linalg.norm(q)
    cos_q_di = float(np.dot(q, delta_i) / (nq * np.linalg.norm(delta_i))) \
        if nq > 0.0 else 0.0
    if abs(cos_q_di) > 1.0 - 1e-6:
        return CollapseResult("parallel", cos_q_di)
    tq = w_i64 @ q
    td = w_i64 @ delta_i
    denom = np.linalg.norm(tq) * np.linalg.norm(td)
    if abs(float(np.dot(tq, td))) < 1e-6 * max(denom, 1e-300):
        return CollapseResult("orthogonal")
    direct, swapped = _closed_form_terms(w_i64, q, delta_i)
    if abs(_flat_cos(direct, swapped)) > 1.0 - 1e-6:
        raise SciError("gradient terms unexpectedly linearly dependent")
    return CollapseResult("independent")
