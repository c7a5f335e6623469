"""A fixed reference loop that measures how fast the machine runs right now.

The host's speed drifts by up to 2x over seconds and minutes, as other
tenants come and go, and a whole run can fall in a slow stretch.  The
benchmark therefore times this loop between the workload's iterations and
reports each iteration's wall time as a multiple of the loop's wall time
around it.  Both slow down together, so the ratio keeps still while the
seconds do not.

The loop uses only the standard library and the same kinds of work as the
engine: ``Fraction`` dot products grouped in a dict (the all-pairs index),
nested loops filling a set of small tuples (the enumerators) and
``Fraction`` orientation tests (the crossing sweep).  Nothing in it depends
on dottrees, the seed or the workload, so a change to the package moves the
ratio only through the workload's own time.  The garbage collector is off
while it runs, so the heap a workload leaves behind does not change its
time.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

POINTS = 80
TUPLE_RANGE = 56
RESULT = 2553  # what reference() returns; any other value is a broken loop


def reference() -> int:
    rng = random.Random(12345)
    pts = [(Fraction(rng.randint(-20, 20), rng.randint(1, 4)),
            Fraction(rng.randint(-20, 20), rng.randint(1, 3))) for _ in range(POINTS)]
    by_value: dict[Fraction, list] = {}
    for p in pts:
        for q in pts:
            by_value.setdefault(p[0] * q[0] + p[1] * q[1], []).append((p, q))
    seen = set()
    for a in range(TUPLE_RANGE):
        for b in range(TUPLE_RANGE):
            if b == a:
                continue
            for c in range(0, TUPLE_RANGE, 3):
                if c != a and c != b:
                    seen.add((a * 7 % 13, b * 5 % 11, c % 9))
    turns = 0
    for i in range(0, 40, 2):
        o, a, b = pts[i], pts[i + 1], pts[i + 2]
        for q in pts[:40]:
            turns += (a[0] - o[0]) * (q[1] - o[1]) - (a[1] - o[1]) * (q[0] - o[0]) > 0
    return len(by_value) + len(seen) + turns


def timed() -> float:
    """Wall seconds of one reference loop, the garbage collector off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = reference()
        wall = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != RESULT:
        raise RuntimeError(f"the reference loop returned {result}, not {RESULT}")
    return wall
