"""Host-speed calibration for the time metrics.

The shared host this benchmark was built on changes speed by up to 40 %
over minutes, for every process at once, so two runs of the same code a
few minutes apart differ by more than any bound worth having.  Each
repetition therefore times a fixed kernel just before and just after its
timed phase, and run.py reports every time in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

On a host where the kernel takes REFERENCE_S the two are equal.  The kernel
is the arithmetic hcchar spends its time in: dense polynomial products over
Fractions and over ints.  It imports nothing from hcchar, so no change to
the program can speed it up.  Changing the kernel, ROUNDS or REFERENCE_S
rescales every time metric; do not change them between two measurements
that are compared.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 12
REFERENCE_S = 0.05

_FA = [Fraction(i, 7) for i in range(1, 25)]
_FB = [Fraction(3, i) for i in range(1, 25)]
_IA = list(range(1, 60))
_IB = list(range(7, 66))


def _kernel() -> None:
    out = [Fraction(0)] * (len(_FA) + len(_FB) - 1)
    for i, x in enumerate(_FA):
        for j, y in enumerate(_FB):
            out[i + j] += x * y
    iout = [0] * (len(_IA) + len(_IB) - 1)
    for i, x in enumerate(_IA):
        for j, y in enumerate(_IB):
            iout[i + j] += x * y


def sample() -> float:
    """Seconds for ROUNDS runs of the kernel."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _kernel()
    return time.perf_counter() - start
