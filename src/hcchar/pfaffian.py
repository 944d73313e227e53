"""Pfaffians of antisymmetric matrices over exact polynomials, and the skew
matrices whose Pfaffians give two-variable specializations of skew
Q-functions."""

from __future__ import annotations

from .partitions import Parts, contains, ensure_strict_partition, weight
from .qpoly import ONE, QPoly, ZERO
from .vertex import f_pair, f_single


class OddSizeError(ValueError):
    """Pfaffians are defined only for even sizes."""


class NotContainedError(ValueError):
    """The inner partition is not contained in the outer one."""


class AntisymMatrix:
    """Antisymmetric matrix stored by its strictly upper triangle."""

    __slots__ = ("size", "upper")

    def __init__(self, size: int, upper: dict[tuple[int, int], QPoly] | None = None):
        self.size = size
        self.upper: dict[tuple[int, int], QPoly] = {}
        for (i, j), v in (upper or {}).items():
            if not 0 <= i < j < size:
                raise ValueError(f"entry ({i},{j}) outside upper triangle")
            if not v.is_zero():
                self.upper[(i, j)] = v


def pfaffian(a: AntisymMatrix) -> QPoly:
    """Recursive first-row expansion with memoization on index subsets."""
    if a.size % 2:
        raise OddSizeError(f"size {a.size} is odd")
    memo: dict[tuple[int, ...], QPoly] = {}

    def pf(indices: tuple[int, ...]) -> QPoly:
        if not indices:
            return ONE
        cached = memo.get(indices)
        if cached is not None:
            return cached
        first, rest = indices[0], indices[1:]
        total = ZERO
        for pos, j in enumerate(rest):
            top = a.upper.get((first, j), ZERO)
            if top.is_zero():
                continue
            sub = pf(rest[:pos] + rest[pos + 1:])
            term = top * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[indices] = total
        return total

    return pf(tuple(range(a.size)))


def build_skew_matrix(lam: Parts, mu: Parts) -> AntisymMatrix:
    """The antisymmetric matrix whose Pfaffian is the (t,-1) specialization of
    the skew Q-function for mu inside lam.

    Layout: indices 0..s-1 are the rows of lam, s..s+r-1 correspond to the
    parts of mu in reverse order; mu gets one trailing zero part when
    l(lam)+l(mu) is odd, and that column pairs row i with f_{lam_i}.
    """
    if lam:
        ensure_strict_partition(lam, "lam")
    if mu:
        ensure_strict_partition(mu, "mu")
    if not contains(lam, mu):
        raise NotContainedError(f"{mu} is not contained in {lam}")
    padded = tuple(mu)
    if (len(lam) + len(padded)) % 2:
        padded = padded + (0,)
    s, r = len(lam), len(padded)
    upper: dict[tuple[int, int], QPoly] = {}
    for i in range(s):
        for j in range(i + 1, s):
            upper[(i, j)] = f_pair(lam[i], lam[j])
        for j in range(r):
            upper[(i, s + j)] = f_single(lam[i] - padded[r - 1 - j])
    return AntisymMatrix(s + r, upper)


def skew_Q_principal(lam: Parts, mu: Parts) -> QPoly:
    """Two-variable (t,-1) value of the skew Q-function, via the Pfaffian."""
    if lam == mu:
        return ONE
    if weight(mu) > weight(lam):
        return ZERO
    return pfaffian(build_skew_matrix(lam, mu))
