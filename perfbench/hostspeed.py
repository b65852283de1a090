"""Host-speed calibration: a fixed piece of work timed around each repeat.

On a shared host the CPU runs up to ~1.6x slower for seconds to minutes at a
time, while the work of a repeat is fixed by the seed. The benchmark times
:func:`calibrate` just before and just after each repeat and scales that
repeat's timings by ``REFERENCE_S / calibration time``, so a slow stretch of
the host moves the calibration and the repeat together and cancels out.

The calibration is benchmark code, independent of ``fixbi``: a change to the
program moves the repeat's time and not the calibration's. It mixes the two
kinds of work fixbi does: Python-level graph bookkeeping around small numpy
ops (single-threaded), and matmuls large enough for the BLAS library to use
its inherited thread setting.
"""
from __future__ import annotations

import time

import numpy as np

# calibration time, in seconds, of an uncontended 2-vCPU Xeon at 2.1 GHz
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 with its default threads); on
# such a host a scaled timing reads as wall seconds
REFERENCE_S = 0.1
GRAPH_STEPS = 1200
BLAS_STEPS = 200


class _Node:
    __slots__ = ("value", "parents")

    def __init__(self, value, parents=()):
        self.value = value
        self.parents = parents


def _graph_work(steps: int) -> None:
    """A tiny MLP step with an autodiff-style node walk, ``steps`` times."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 16))
    w1 = rng.standard_normal((16, 48)) * 0.1
    w2 = rng.standard_normal((48, 3)) * 0.1
    for _ in range(steps):
        a = _Node(x)
        b = _Node(a.value @ w1, (a,))
        c = _Node(np.maximum(b.value, 0.0), (b,))
        d = _Node(c.value @ w2, (c,))
        e = np.exp(d.value - d.value.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        seen, stack = set(), [d]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node.parents)
        p[:, 0] -= 1.0
        grad_c = (p @ w2.T) * (b.value > 0)
        w2 = w2 - 0.01 * (c.value.T @ p)
        w1 = w1 - 0.01 * (x.T @ grad_c)


def _blas_work(steps: int) -> None:
    """64x256 by 256x256 matmuls, above OpenBLAS's threading threshold."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 256))
    w = rng.standard_normal((256, 256)) * 0.05
    for _ in range(steps):
        h = np.maximum(a @ w, 0.0)
        a = (a + 0.01 * (h @ w.T)) * 0.5


def calibrate() -> float:
    """Wall seconds of the fixed calibration work (~0.1 s uncontended)."""
    t0 = time.perf_counter()
    _graph_work(GRAPH_STEPS)
    _blas_work(BLAS_STEPS)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a repeat's timings into reference-speed seconds."""
    return REFERENCE_S / ((before + after) / 2)
