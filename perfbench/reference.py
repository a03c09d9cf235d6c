"""A fixed computation that times the machine rather than the package.

The benchmark's host changes speed by 10-30% for stretches longer than a
run, so a run's raw median flow time moves with the host's load.  The run
times this computation before every flow and after the last one, and right
after every set-up.  A time over ``NOMINAL_S`` is a slowdown; each flow is
divided by the mean slowdown just before and after it, each set-up by the
one right after it.  The computation mixes what the workloads
do: many small-array NumPy steps from a Python loop (the speed roots),
small dense products and exponentials (the heat-kernel quadrature), a long
random walk on a 20 000-element array (the Monte-Carlo loop) and
number-to-text formatting (the CSV writers).  It imports nothing from
``illiq``, so a change to the package cannot move it.
"""

from __future__ import annotations

import os
import time

import numpy as np

# one pass takes about 0.13 s; three average out the noise of a single pass
PASSES = 3
# seconds() on the 2-vCPU Xeon VM the benchmark was tuned on, when its host
# was lightly loaded (one pass 0.12-0.13 s, 0.15-0.20 s under load); it only
# sets the scale of the time metrics
NOMINAL_S = 0.39

_RNG = np.random.default_rng(12345)
_PRICES = _RNG.uniform(94.0, 106.0, 401)
_LEFT = _RNG.standard_normal((161, 96))
_RIGHT = _RNG.standard_normal((96, 161))


def _small_steps() -> float:
    x, total = _PRICES.copy(), 0.0
    for _ in range(3000):
        y = np.exp(-((x - 100.0) ** 2) / 8.0)
        x = np.where(y > 0.5, x + 1e-9, x - 1e-9)
        total += float(y.sum())
    return total


def _dense() -> float:
    a = _LEFT
    for _ in range(60):
        b = np.exp(-np.abs(a @ _RIGHT) * 1e-3)
        a = (b[:, :96] + _LEFT) * 0.5
    return float(a.sum())


def _random_walk() -> float:
    gen = np.random.Generator(np.random.Philox(7))
    x = np.zeros(20_000)
    for _ in range(150):
        x += 0.01 * gen.standard_normal(x.size)
        np.clip(x, -5.0, 5.0, out=x)
    return float(x.sum())


def _formatting() -> None:
    # to the null device, so the text does not add to the peak resident set
    with open(os.devnull, "w") as sink:
        for _ in range(6):
            np.savetxt(sink, _LEFT, fmt="%.10g", delimiter=",")


def _one_pass() -> None:
    _small_steps()
    _dense()
    _random_walk()
    _formatting()


_one_pass()  # a process's first pass runs cold; only warm passes are timed


def seconds() -> float:
    """Wall time of ``PASSES`` passes of the reference computation."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        _one_pass()
    return time.perf_counter() - t0
