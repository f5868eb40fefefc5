"""Machine-speed reference, so that timings on a shared host compare.

On a shared virtual machine the same code can run up to twice as slow for
seconds to minutes at a time, when other tenants load the host.  Such a
spell slows any code on the core, not only ndigvol's.  ``reference`` is a
fixed piece of work that does not touch ndigvol: equal parts interpreted
float math, small complex numpy arrays (the size of the fit's quadrature
grid), 4096-point FFTs and float formatting, the kinds of work the
workloads do.  The benchmark runs it after every call and scales each call
time by ``NOMINAL_S`` over the mean time of the reference samples taken
around that call; the result reads as the time the call takes when the
reference runs at its usual speed.

On the reference box (2-vCPU Xeon VM), 30-second means of a workload's call
time varied by 5-7% (coefficient of variation) over five minutes; their
ratio to the interleaved reference varied by 2-3%.
"""

from __future__ import annotations

import math
import time

import numpy as np

# median time of one ``reference()`` call on the reference box
NOMINAL_S = 0.0100

_rng = np.random.default_rng(20211004)
_SCALARS = [float(v) for v in _rng.standard_normal(1000)]
_NODES = _rng.standard_normal(101) + 1j * _rng.standard_normal(101)
_SIGNAL = _rng.standard_normal(4096) + 0j


def reference() -> None:
    """One unit of reference work, about ``NOMINAL_S`` long."""
    s = 0.0
    for _ in range(20):
        for x in _SCALARS:
            s += math.exp(-x * x) + math.log1p(abs(x))
    for _ in range(420):
        w = np.exp(1j * _NODES) * np.sqrt(_NODES + 2.0)
        s += float(w.real.sum())
    for _ in range(45):
        np.fft.fft(_SIGNAL)
    for _ in range(4):
        ",".join(repr(x) for x in _SCALARS)


def sample(reps: int) -> list[float]:
    """Times of ``reps`` back-to-back reference units, in seconds."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference()
        out.append(time.perf_counter() - t0)
    return out
