"""Desk-scale dual-tower encoders.

Two independently parameterized maps over a shared input feature space:
a query tower and an item tower with identical shapes, so either tower can
encode either kind of input (the swap mechanism requires this).

Architectures: "linear" (a single weight matrix, no bias) and "mlp1"
(one tanh hidden layer). Outputs are optionally L2-normalized so that dot
products equal cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _check_int, _equal, _rows, as_f32, row_normalize

LINEAR = "linear"
MLP1 = "mlp1"

QUERY = "query"
ITEM = "item"


@dataclass
class DualTowerModel:
    arch: str
    input_dim: int
    output_dim: int
    hidden_dim: int  # 0 for linear
    normalize_output: bool
    params_q: dict
    params_i: dict
    # Forward-pass counter, one tick per vector encoded through either tower.
    encode_calls: int = field(default=0, compare=False)

    __eq__ = _equal

    @staticmethod
    def layout(arch: str, input_dim: int, output_dim: int,
               hidden_dim: int) -> dict:
        """Name -> shape of one tower's parameters, in file and draw order.
        Raises ValueError for a combination no model has: dims must be
        integers (`core._check_int`), >= 1, hidden_dim 0 for linear."""
        if arch not in (LINEAR, MLP1):
            raise ValueError(f"unknown arch {arch!r}")
        for name, dim in (("input_dim", input_dim), ("output_dim", output_dim),
                          ("hidden_dim", hidden_dim)):
            _check_int(name, dim)
        if min(input_dim, output_dim) < 1 or (
                hidden_dim != 0 if arch == LINEAR else hidden_dim < 1):
            raise ValueError(f"no {arch} model has input_dim {input_dim}, "
                             f"output_dim {output_dim}, "
                             f"hidden_dim {hidden_dim}")
        if arch == LINEAR:
            return {"W": (output_dim, input_dim)}
        return {"W1": (hidden_dim, input_dim), "b1": (hidden_dim,),
                "W2": (output_dim, hidden_dim), "b2": (output_dim,)}


def init(arch: str, input_dim: int, output_dim: int, rng,
         hidden_dim: int = 0, normalize_output: bool = True) -> DualTowerModel:
    """Random uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] weights, zero biases.

    The two towers are drawn independently, so they start deliberately
    misaligned. A linear model ignores hidden_dim.
    """
    hidden_dim = 0 if arch == LINEAR else hidden_dim
    shapes = DualTowerModel.layout(arch, input_dim, output_dim, hidden_dim)

    def draw(shape):  # a weight is (fan_out, fan_in); a bias is 1-D
        if len(shape) == 1:
            return np.zeros(shape, dtype=np.float32)
        bound = 1.0 / np.sqrt(shape[1])
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    towers = [{name: draw(shape) for name, shape in shapes.items()}
              for _ in (QUERY, ITEM)]
    return DualTowerModel(arch, input_dim, output_dim, hidden_dim,
                          normalize_output, *towers)


def forward(params: dict, arch: str, normalize: bool, x: np.ndarray):
    """Batched tower forward pass in float64. x is (n, input_dim).

    Returns (out, cache): the cache holds the intermediates the training
    module's backward pass needs.
    """
    x = x.astype(np.float64, copy=False)
    if arch == LINEAR:
        z = x @ params["W"].astype(np.float64).T
        hidden = None
    else:
        pre = x @ params["W1"].astype(np.float64).T + params["b1"].astype(np.float64)
        hidden = np.tanh(pre)
        z = hidden @ params["W2"].astype(np.float64).T + params["b2"].astype(np.float64)
    out = row_normalize(z) if normalize else z
    return out, {"x": x, "hidden": hidden, "z": z}


def encode_batch(model: DualTowerModel, tower: str, xs) -> np.ndarray:
    """Encode a batch of input vectors (n, input_dim); returns an
    (n, output_dim) float32 array. Rejects NaN/Inf inputs."""
    xs = _rows(as_f32(xs, "input"),
               f"inputs to a model of input_dim {model.input_dim}",
               model.input_dim)
    if tower not in (QUERY, ITEM):
        raise ValueError(f"unknown tower {tower!r}")
    params = model.params_q if tower == QUERY else model.params_i
    out, _ = forward(params, model.arch, model.normalize_output, xs)
    model.encode_calls += xs.shape[0]
    return out.astype(np.float32)

