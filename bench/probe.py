"""The speed probe: one fixed computation that uses the standard library only.

The shared hosts this benchmark runs on change speed by up to 2x over
minutes, longer than one run, so every timed step is taken next to probes and
reported at the reference speed: its time times ``REFERENCE_S`` over the
median probe time.  The probe does not touch ``lmcdist``, so a change to the
library cannot move it, and the collector is off while it runs, so the
library's heap cannot either.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

#: Seconds one probe takes at the reference speed, about its median on a
#: 2.0 GHz Xeon vCPU under Python 3.11.
REFERENCE_S = 0.002


def probe() -> float:
    """Seconds one run of the fixed computation takes now."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i * i + 3)
            seen[i % 61] = acc.numerator % 1000003
        return time.perf_counter() - start
    finally:
        gc.enable()
