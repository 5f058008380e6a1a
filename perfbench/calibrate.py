"""Calibration kernel: a fixed slice of Python and small-numpy work that does
not touch the package, timed beside every invocation.

On a shared 2-vCPU Intel Xeon virtual machine the speed of one process
drifts by up to 1.6x over tens of seconds and slows all code alike.  On one
minute of a fixed `check` invocation, medians over 12-second windows spread
41% (quartile distance over median) while their ratio to this kernel, timed
before and after each invocation, spread 1.5%.  So every time the benchmark
reports is rescaled to the speed at which this kernel takes REFERENCE_S:
seconds * REFERENCE_S / kernel seconds.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on that machine at its fastest, so that rescaled
# times read close to raw ones when nothing else competes for it.
REFERENCE_S = 0.001
# A timing of the kernel lasts this share of the invocation before it, and at
# least MIN_REPEATS runs: a noisy speed estimate would put its own noise,
# inverted, into the rescaled time.
SHARE = 0.05
MIN_REPEATS = 3


def _kernel() -> float:
    acc = 0.0
    g = np.ones(3)
    for i in range(200):
        outer = np.outer(g, g)
        outer = outer + outer.T
        acc += float(outer[0, 1])
        table = {(i, j): float(j) for j in range(6)}
        acc += sum(v * v for v in table.values())
    return acc


def kernel_seconds(beside: float = 0.0) -> float:
    """Mean of back-to-back runs, lasting about SHARE of `beside` seconds.

    A mean, not a minimum: the host switches between a fast and a slow state
    within seconds, and the invocation beside the kernel sees the mix.
    """
    repeats = max(MIN_REPEATS, round(SHARE * beside / REFERENCE_S))
    start = time.perf_counter()
    for _ in range(repeats):
        _kernel()
    return (time.perf_counter() - start) / repeats


def at_reference(seconds: float, kernel: float) -> float:
    """Rescale a time measured while the kernel took `kernel` seconds."""
    return seconds * REFERENCE_S / kernel
