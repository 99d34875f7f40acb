"""Times scaled to a reference machine speed.

The CPU speed of a shared sandbox can swing by 2x within a minute, and CPU
time tracks wall time, so neither clock isolates the program.  A fixed
kernel that uses only the standard library runs before and after every timed
region, in the process doing the work; a region that took t seconds is
reported as t * REF_S / (mean kernel time around it), the time it would take
where the kernel takes REF_S.  No change to the program moves the kernel.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Duration of reference_s() at the reference machine speed.
REF_S = 1.0e-3


def reference_s() -> float:
    """Run the fixed kernel; return its duration."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i + 1, i + 2)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor for a region bracketed by kernel runs of these durations."""
    return 2 * REF_S / (before + after)


class Gauge:
    """Scale factors for back-to-back regions; each kernel run closes one
    region and opens the next."""

    def __init__(self):
        self._before = reference_s()

    def factor(self) -> float:
        """Call right after a timed region: the scale for that region."""
        after = reference_s()
        result = scale(self._before, after)
        self._before = after
        return result
