"""Timings corrected for the machine's current speed.

On a shared machine the same code runs up to 1.7 times slower for periods of
seconds to minutes, and other tenants' load changes the speed of every
process alike, CPU time included.  A fixed stdlib computation, the
*reference*, is timed (three runs, about 3 ms) right before and right after
each measured call.  The call's time divided by the mean of those reference
times is the call's cost in references, which the machine's speed changes
far less than its wall time.  Multiplied by ``REFERENCE_S``, the reference's
time on this kind of machine when it is not slowed down, a cost reads as
seconds.

The reference does what pairform spends most of its time on: exact
``Fraction`` products and sums merged into a dict keyed by exponent tuples.
It never calls pairform, so a change to the library does not change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the reference's time on a 2-vCPU x86-64 machine, Python 3.11, when unloaded
REFERENCE_S = 1.0e-3

_TERMS = [(tuple((i * j) % 5 for j in range(3)), Fraction(i + 1, 7)) for i in range(16)]

clock = time.perf_counter


def _reference() -> int:
    merged = {}
    for key, c in _TERMS:
        for key2, c2 in _TERMS:
            k = tuple(a + b for a, b in zip(key, key2))
            cur = merged.get(k, 0) + c * c2
            if cur:
                merged[k] = cur
            else:
                merged.pop(k, None)
    return len(merged)


def reference_s(runs: int = 3) -> float:
    """Mean wall seconds of one run of the reference, over `runs` runs."""
    began = clock()
    for _ in range(runs):
        _reference()
    return (clock() - began) / runs


def normalised(seconds: float, reference: float) -> float:
    """`seconds`, measured while one reference run took `reference` seconds,
    as seconds at the reference speed."""
    return seconds / reference * REFERENCE_S
