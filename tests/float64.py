"""Float64 modules for the gradient checks, property tests and oracles.

Parameters are float32 (``repro.nn.init``), and a central difference at
``eps=1e-6`` drowns in float32 rounding.  :func:`float64` casts a
module's parameters to float64 in place; every model casts its inputs to
its parameters' dtype, so the module then computes in float64 end to end.
"""

from __future__ import annotations

import numpy as np


def float64(module):
    """``module`` with every parameter cast to float64 (in place)."""
    for _, param in module.named_parameters():
        param.data = param.data.astype(np.float64)
    return module
