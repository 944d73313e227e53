"""Two-variable (t,-1) values of skew Q-functions, as Pfaffians.

The value for mu inside lam is the Pfaffian of an antisymmetric matrix
whose rows are the parts of lam and whose columns are the parts of mu in
reverse order, mu padded with one zero part when l(lam) + l(mu) is odd.
Its entries are f_pair(lam_i, lam_j) between two rows, f_single(lam_i - c)
between a row and a column c, and 0 between two columns.  Each entry is
fixed by the parts it pairs, so the Pfaffian of a principal submatrix
depends only on its rows' parts and its columns' parts, and one memo keyed
by those two tuples serves every (lam, mu).

_sub_pfaffian_ring expands along the first row; with no rows left, the
value is 1 if no columns are left and 0 otherwise.  It runs on the packed
evaluator (packed.py): a Pfaffian is a sum of signed products of its
entries, so the same expansion on their L1 norms, with the signs dropped,
bounds it.  The only QPolys it builds are its entries, each f_t and f_pair
once, packed once per width.  tests/oracles.py keeps the index-set
Pfaffian of the whole matrix as the unpacked reference.
"""

from __future__ import annotations

from functools import cache, partial

from .packed import f_ring, in_ring, unpacked
from .partitions import Parts, contains, ensure_strict_int_parts
from .qpoly import QPoly
from .vertex import f_pair


class NotContainedError(ValueError):
    """The inner partition is not contained in the outer one."""


def skew_Q_principal(lam: Parts, mu: Parts) -> QPoly:
    """Two-variable (t,-1) value of the skew Q-function for a strict mu
    inside a strict lam, via the Pfaffian.  Both are checked first: int
    parts, strictly decreasing, and mu inside lam."""
    lam = ensure_strict_int_parts(lam, "lam")
    mu = ensure_strict_int_parts(mu, "mu")
    if not contains(lam, mu):
        raise NotContainedError(f"mu = {mu} is not contained in lam = {lam}")
    return _skew_Q_core(lam, mu)


def _skew_Q_core(lam: Parts, mu: Parts) -> QPoly:
    # skew_Q_principal for a strict mu inside a strict lam, unchecked
    cols = mu[::-1]
    if (len(lam) + len(mu)) % 2:
        cols = (0,) + cols
    return QPoly._from_ints(unpacked(partial(_sub_pfaffian_ring, lam, cols)))


@cache
def _pair_ring(m: int, n: int, bits: int | None) -> int:
    # the row-row entry f_pair(m, n), mapped by in_ring
    return in_ring(f_pair(m, n).coeffs, bits)


@cache
def _sub_pfaffian_ring(rows: Parts, cols: Parts, bits: int | None) -> int:
    # the Pfaffian on the given rows and columns at q = 2^bits, expanded
    # along the first row, whose partner at position pos of the rest signs
    # its term by (-1)^pos; for bits None, the same expansion on L1 norms
    # with the signs dropped
    if not rows:
        return 0 if cols else 1
    first, rest = rows[0], rows[1:]
    out = 0
    for pos, part in enumerate(rest):
        sign = 1 if bits is None else (-1) ** pos
        minor = _sub_pfaffian_ring(rest[:pos] + rest[pos + 1:], cols, bits)
        out += sign * _pair_ring(first, part, bits) * minor
    f = f_ring(bits)
    for pos, part in enumerate(cols):
        if part > first:
            break  # the columns ascend, and f_single is 0 below 0
        sign = 1 if bits is None else (-1) ** (len(rest) + pos)
        minor = _sub_pfaffian_ring(rest, cols[:pos] + cols[pos + 1:], bits)
        out += sign * f(first - part) * minor
    return out
