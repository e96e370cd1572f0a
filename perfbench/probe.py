"""The reference probe: stdlib work that shares no code with dedsums.

It measures the machine's speed at one moment.  A timed segment is scaled
by ``NOMINAL_S / probe time``, so a scaled figure reads as what the same
work would take on a machine where the probe takes ``NOMINAL_S``.
"""

import statistics
import time
from fractions import Fraction

# A fixed scale, not a measurement: a round figure of the order of the probe's
# time on the reference machine, where its run medians ranged from 0.013 to
# 0.031 s.
NOMINAL_S = 0.020
REPS = 2


def probe_work() -> int:
    """Fraction arithmetic, integer mod and dict updates."""
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 6000):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0) + (i * i) % 97
    return acc.denominator + len(table)


def probe() -> float:
    """Median seconds of ``REPS`` runs of ``probe_work``."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
