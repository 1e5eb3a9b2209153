"""A fixed piece of pure-Python work that measures how fast the machine is
running right now.

On a virtual machine shared with other tenants the speed of a vCPU changes
from one second to the next (a fixed loop here took from 1.0 to 1.9 ms), and
by a third between runs minutes apart.  Every job in this benchmark is
pure-Python exact arithmetic, so its time scales with the same factor.  The
benchmark times this probe before and after every job and every set-up
spawn, and reports times at the reference speed: measured time *
REFERENCE_S / probe time.  The probe does not touch curvesgp.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the probe's time at the reference speed; only sets the unit
REFERENCE_S = 0.0004
REPEATS = 3


def _work() -> Fraction:
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 150):
        acc += Fraction(i, i + 7)
        table[i % 13] = table.get(i % 13, 0) + i * i
    return acc


def probe() -> float:
    """Fastest of a few timings of the fixed work, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
