"""Symmetric dual-tower alignment and consistency-oriented IVF indexing."""

import os

# SCI_THREADS caps numeric-library threads. BLAS reads these variables when
# numpy is first imported, so this must run before any submodule imports it.
_cap = os.environ.get("SCI_THREADS", "")
if _cap.isdigit() and int(_cap) > 0:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _cap)

from . import (clustering, core, data_io, diagnostics, encoder, evaluation,
               ivf, quantization, training)
from .errors import SciError

__all__ = ["clustering", "core", "data_io", "diagnostics", "encoder",
           "evaluation", "ivf", "quantization", "training", "SciError"]

__version__ = "0.1.0"
