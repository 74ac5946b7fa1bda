"""Machine-speed kernels that turn measured times into reference-speed times.

The two-core shared VM the bounds were set on runs in a fast and a slow
state. The slow state stretches a solve up to 2x and can last a whole
40-60 s run, so no estimator over the raw times of one run stays steady
from run to run. Each timed operation is therefore bracketed by a fixed
kernel of the benchmark's own (it calls nothing in the program), and its
time is rescaled by the kernel's reference time over the kernel's measured
time. The two kernels mimic the two kinds of code in the program:

- `scalar`: pure-Python float math, small-object attribute access, calls
  and raised exceptions, like `solvers` and `optimizer`. In both machine
  states a random-fc solve takes 3.0-3.2 times this kernel, while a plain
  integer loop tracks the solve to only 1.6-2.1 times.
- `array`: numpy SVD, FFT and normal draws, like `sensing` and `oracles`.
  A stock echo chain takes 1.96-2.10 times this kernel in both states.

A program change that swaps one kind of code for the other (for example
scalar Python for numpy) is rescaled by a kernel whose slowdown differs
from its own, so in the slow state it reads up to about 1.4x off in either
direction; raw times are written beside the scaled ones for that case.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel times (seconds) at the fast state of the reference machine (Intel
# Xeon Sapphire Rapids, KVM, 2 vCPUs): the scaled time of an operation is
# its wall time there when the machine is not slowed down
REFERENCE_S = {"scalar": 1.60e-3, "array": 0.90e-3}


class _Point:
    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c


def _objective(x, p):
    if x <= 0.0:
        raise ValueError("x must be positive")
    return p.a * x * x - p.b * math.log(x) + p.c * math.exp(-x)


def _golden(fn, lo, hi, p, iters):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = fn(c, p), fn(d, p)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = fn(c, p)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = fn(d, p)
    return 0.5 * (a + b)


def scalar() -> float:
    total = 0.0
    for k in range(190):
        p = _Point(1.0 + k % 7, 2.0 + k % 5, 0.5)
        try:
            _objective(-1.0, p)
        except ValueError:
            total += 1.0
        total += _golden(_objective, 1e-3, 10.0, p, 20)
        slot = {"x": total, "k": k}
        total += slot["x"] * 1e-9
    return total


_MATRIX = np.random.default_rng(12345).standard_normal((64, 128))


def array() -> float:
    s = np.linalg.svd(_MATRIX, compute_uv=False)
    f = np.fft.fft(_MATRIX, axis=1)
    x = np.random.default_rng(1).standard_normal(8000)
    return float(s[0] + np.abs(f).sum() + x.sum())


KERNELS = {"scalar": scalar, "array": array}


def kernel_time(kind: str) -> float:
    """Wall time (seconds) of one run of the `kind` kernel."""
    fn = KERNELS[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
