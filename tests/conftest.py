import os
import re

import numpy as np
import pytest

import sci
from sci import encoder, training
from sci.core import make_rng


THREAD_VARS = ("SCI_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def child_env(preset):
    """This process's environment without its thread variables, plus preset,
    with this checkout's sci importable."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sci.__file__)))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def count_message(name, value):
    """The pattern of the error that refuses `value` as the count `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        return f"{name} must be an integer, got {re.escape(repr(value))}$"
    return f"{name} must be >= 1, got {value}$"


@pytest.fixture
def rng():
    return make_rng(0)


def random_batch(rng, n, dim, scale=1.0):
    return training.TripletBatch(
        scale * rng.normal(size=(n, dim)).astype(np.float32),
        scale * rng.normal(size=(n, dim)).astype(np.float32),
        scale * rng.normal(size=(n, dim)).astype(np.float32))


def linear_model(dim_in, dim_out, seed=0, normalize=True):
    return encoder.init(encoder.LINEAR, dim_in, dim_out, make_rng(seed),
                        normalize_output=normalize)


def mlp_model(dim_in, dim_out, hidden, seed=0, normalize=True):
    return encoder.init(encoder.MLP1, dim_in, dim_out, make_rng(seed),
                        hidden_dim=hidden, normalize_output=normalize)


def clone_model(model):
    return encoder.DualTowerModel(
        model.arch, model.input_dim, model.output_dim, model.hidden_dim,
        model.normalize_output,
        {k: v.copy() for k, v in model.params_q.items()},
        {k: v.copy() for k, v in model.params_i.items()})
