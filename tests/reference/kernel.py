"""Kernel twin: macro-window boundaries by an explicit loop.

``loop_boundaries`` is the loop the kernel used to build a window's
boundary times, one addition and one append per iteration.
"""

from __future__ import annotations

from typing import List


def loop_boundaries(t0: float, step: float, count: int) -> List[float]:
    t = t0
    boundaries = []
    for _ in range(count):
        t = t + step
        boundaries.append(t)
    return boundaries
