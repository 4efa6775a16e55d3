"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same op on the same input runs up to a fifth faster or
slower from one minute to the next, as other tenants come and go.  This
kernel does the same kinds of work as an op (small matrix products,
``logsumexp`` over rows, a Python loop over a dict), on fixed arrays, and
never calls rulemix; so its time follows the host's speed and no change to
rulemix can move it.  The runner times the kernel between ops and scales each
op's seconds by ``REFERENCE_S`` over the kernel's time around that op (see
NOTES.md for the measurements behind this).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import logsumexp

# The kernel's median time on the host the benchmark was defined on (2 vCPUs,
# Python 3.11, numpy 2.4, one BLAS thread).  Scaled timings read as seconds on
# a host of that speed.
REFERENCE_S = 0.070

_ROUNDS = 300
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((230, 42))
_W = _rng.standard_normal((42, 4))


def kernel_seconds() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        logsumexp(_X @ _W, axis=1)
        table = {i: 2 * i for i in range(200)}
        sum(table.values())
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference host speed, given the kernel's times
    just before and just after them."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
