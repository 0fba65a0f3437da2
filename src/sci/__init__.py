"""Symmetric dual-tower alignment and consistency-oriented IVF indexing."""

import os

# SCI_THREADS caps numeric-library threads: a variable keeps its value only
# when that is a positive number below the cap. BLAS reads these variables
# when numpy is first imported, so this must run before any submodule
# imports it.
_cap = os.environ.get("SCI_THREADS", "")
if _cap.isdecimal() and int(_cap) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _val = os.environ.get(_var, "")
        if not (_val.isdecimal() and 0 < int(_val) < int(_cap)):
            os.environ[_var] = _cap

from . import (clustering, core, data_io, diagnostics, encoder, evaluation,
               ivf, quantization, training)
from .errors import SciError

__all__ = ["clustering", "core", "data_io", "diagnostics", "encoder",
           "evaluation", "ivf", "quantization", "training", "SciError"]

__version__ = "0.1.0"
