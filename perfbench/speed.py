"""Machine-speed normalisation of measured times.

The benchmark's host is shared: for seconds to minutes at a time, the
same pure-Python code can run up to 1.8x slower.  The process's CPU time
slows down just as its wall time does, so CPU time cannot filter it out.
Every timed operation is therefore bracketed by a short reference kernel:
fixed Fraction and float loops that do not touch the package, run with
the garbage collector off.  An operation's time is scaled by
``REFERENCE_S / reference time around it``, which gives the time it would
have taken at the speed the host has when it is quiet.  The raw times are
kept in the run record.  (Sampling the kernel during the operation too,
from a timer signal, did not make the results steadier.)
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: The reference kernel's time on a quiet 2-core Intel Xeon (Python 3.11).
REFERENCE_S = 0.0015


def _kernel():
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(i, i + 7) * Fraction(3, i)
    x = 0.0
    for i in range(1, 6000):
        x = x * 0.5 + 1.0 / i
    return acc, x


def reference_s(repeats: int = 5) -> float:
    """Median time of the reference kernel over ``repeats`` runs."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


class Clock:
    """Times operations, each between two reference measurements."""

    def __init__(self):
        self._ref = reference_s()

    def time(self, fn):
        """Run ``fn()``; return (raw seconds, normalised seconds, its result).

        An exception ``fn`` raises is returned as its result, so that one
        failed operation is counted rather than ending the run.
        """
        before = self._ref
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as e:  # noqa: BLE001  (reported as a failed operation)
            out = e
        raw = time.perf_counter() - t0
        self._ref = reference_s()
        return raw, raw * REFERENCE_S / ((before + self._ref) / 2), out
