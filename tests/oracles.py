"""Test-only oracles: slow, definition-level computations that the library
is checked against."""

from functools import cache

from hcchar.partitions import Parts
from hcchar.qpoly import ONE, QPoly, ZERO


def determinant(rows: list[list[QPoly]]) -> QPoly:
    """Cofactor-expansion determinant; the independent check for Pf^2 = det."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        top = rows[0][j]
        if top.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = top * determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@cache
def shifted_syt_count_enumerated(lam: Parts) -> int:
    """Independent oracle: count standard fillings by peeling corner cells."""
    if not lam:
        return 1
    total = 0
    for i, p in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if p - 1 > below:
            total += shifted_syt_count_enumerated(lam[:i] + (p - 1,) + lam[i + 1:])
        elif p == 1 and i == len(lam) - 1:
            total += shifted_syt_count_enumerated(lam[:i])
    return total
