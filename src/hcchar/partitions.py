"""Partition and composition combinatorics for the shifted-diagram calculus.

Partitions and compositions are plain tuples of ints.  A partition has
weakly decreasing positive parts; a strict partition strictly decreasing
parts; compositions carry explicit zeros and a fixed length.  The length
statistic l(.) always counts nonzero parts.
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from itertools import repeat
from math import factorial
from operator import ge, gt, le, mod
from typing import NamedTuple

from .qpoly import NonDivisibleError

Parts = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic statistics and validation

def weight(parts: Parts) -> int:
    return sum(parts)


def nonzero_length(parts: Parts) -> int:
    return sum(map(bool, parts))


def delta(parts: Parts) -> int:
    """1 if the number of parts is odd, else 0."""
    return nonzero_length(parts) % 2


def epsilon(parts: Parts) -> int:
    """Integer part of half the number of parts."""
    return nonzero_length(parts) // 2


# The predicates below iterate in C (map over operator functions) rather
# than in generator expressions: shape enumeration calls them on every
# candidate, and tests/oracles.py keeps the generator forms they are checked
# against.  Decreasing parts are all positive when the last one is.

def is_partition(parts: Parts) -> bool:
    return all(map(ge, parts, parts[1:])) and (not parts or parts[-1] > 0)


def is_strict_partition(parts: Parts) -> bool:
    return all(map(gt, parts, parts[1:])) and (not parts or parts[-1] > 0)


def is_odd_partition(parts: Parts) -> bool:
    return is_partition(parts) and _all_odd(parts)


def _all_odd(parts: Parts) -> bool:
    # the parity half of is_odd_partition, for parts already known to be a
    # partition
    return set(map(mod, parts, repeat(2))) <= {1}


def ensure_int_parts(parts, name: str = "partition") -> Parts:
    """parts as a tuple, each an int (bools included, as ints); a float,
    Fraction, str or None part raises ValueError naming the argument."""
    parts = tuple(parts)
    if not all(map(isinstance, parts, repeat(int))):
        raise ValueError(f"{name} must have integer parts: {parts}")
    return parts


def ensure_partition(parts: Parts, name: str = "partition") -> Parts:
    if not is_partition(parts):
        raise ValueError(f"{name} must have weakly decreasing positive parts: {parts}")
    return parts


def ensure_strict_partition(parts: Parts, name: str = "partition", error=ValueError) -> Parts:
    if not is_strict_partition(parts):
        raise error(f"{name} must have strictly decreasing positive parts: {parts}")
    return parts


def ensure_strict_int_parts(parts, name: str = "partition") -> Parts:
    """parts as a tuple of int parts forming a strict partition, the empty
    one included; anything else raises ValueError naming the argument."""
    return ensure_strict_partition(ensure_int_parts(parts, name), name)


def sort_desc(parts) -> Parts:
    """Canonical partition form: nonzero parts sorted descending."""
    return tuple(sorted(filter(None, parts), reverse=True))


def multiplicities(parts: Parts) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in parts:
        out[p] = out.get(p, 0) + 1
    return out


def z_lambda(parts: Parts) -> int:
    """z = prod_i i^{m_i} m_i! over part multiplicities."""
    z = 1
    for value, m in multiplicities(parts).items():
        z *= value**m * factorial(m)
    return z


# ---------------------------------------------------------------------------
# enumeration (reverse-lexicographic order throughout); sub-shapes are
# filtered from the memoized lists of strict partitions

def _descending_parts(n: int, maxpart: int, strict: bool, odd: bool):
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        if odd and first % 2 == 0:
            continue
        bound = first - 1 if strict else first
        for rest in _descending_parts(n - first, bound, strict, odd):
            yield (first,) + rest


@cache
def strict_partitions_of(n: int) -> tuple[Parts, ...]:
    return tuple(_descending_parts(n, n, strict=True, odd=False))


@cache
def odd_partitions_of(n: int) -> tuple[Parts, ...]:
    return tuple(_descending_parts(n, n, strict=False, odd=True))


def strict_subpartitions(lam: Parts, target_weight: int):
    """Strict nu contained entrywise in lam with the given weight, in the
    reverse-lexicographic order of strict_partitions_of."""
    if 0 <= target_weight <= weight(lam):
        yield from (nu for nu in strict_partitions_of(target_weight) if contains(lam, nu))


def bounded_compositions(total: int, bounds: Parts) -> list[Parts]:
    """Compositions of `total` with 0 <= part_i <= bounds_i, same length."""
    if not bounds:
        return [()] if total == 0 else []
    out = []
    first_max = min(total, bounds[0])
    for first in range(first_max, -1, -1):
        for rest in bounded_compositions(total - first, bounds[1:]):
            out.append((first,) + rest)
    return out


# ---------------------------------------------------------------------------
# shifted diagrams and skew classification

def contains(lam: Parts, mu: Parts) -> bool:
    """Entrywise containment mu_i <= lam_i, the shorter of the two padded
    with zeros."""
    tail_mu, tail_lam = mu[len(lam):], lam[len(mu):]
    return all(map(le, mu, lam)) and max(tail_mu, default=0) <= 0 <= min(tail_lam, default=0)


class SkewKind(Enum):
    NOT_GDS = "not-gds"
    GENERALIZED_STRIP = "generalized-strip"
    SHIFTED_BORDER_STRIP = "shifted-border-strip"
    DOUBLE_STRIP = "double-strip"
    GENERALIZED_DOUBLE_STRIP = "generalized-double-strip"


class SkewClassification(NamedTuple):
    """Analysis of a shifted skew diagram lam*/mu*.

    c counts the diagonals (constant col-row) holding exactly two cells;
    beta_components lists, top component first, the per-row cell counts of
    each connected component made of one-cell diagonals; l_jump is
    l(lam) - l(mu).  A named tuple, so it also compares equal to the plain
    tuple of its fields.
    """

    kind: SkewKind
    c: int
    beta_components: tuple[Parts, ...]
    l_jump: int


def classify_skew(lam: Parts, mu: Parts) -> SkewClassification:
    """Classify the shifted skew lam*/mu* into strip types by row arithmetic.

    Both shapes must be strict partitions with mu inside lam; anything else
    is NOT_GDS.  The row arithmetic is _strip_rows, the one core that shape
    enumeration (characters._gds_shapes) also calls, on the candidates it
    has already found strict and inside lam; the kind follows from c and the
    number of components.
    """
    strip = None
    if is_strict_partition(lam) and is_strict_partition(mu) and contains(lam, mu):
        strip = _strip_rows(lam, mu)
    if strip is None:
        return SkewClassification(SkewKind.NOT_GDS, 0, (), len(lam) - len(mu))
    c, components, l_jump = strip
    if c == 0 and len(components) == 1:
        kind = SkewKind.SHIFTED_BORDER_STRIP
    elif c == 0:
        kind = SkewKind.GENERALIZED_STRIP
    elif len(components) == 1:
        kind = SkewKind.DOUBLE_STRIP
    else:
        kind = SkewKind.GENERALIZED_DOUBLE_STRIP
    return SkewClassification(kind, c, components, l_jump)


def _strip_rows(lam: Parts, mu: Parts) -> tuple[int, tuple[Parts, ...], int] | None:
    """c, the one-cell components (top component first) and l_jump of the
    shifted skew lam*/mu*, for strict mu inside strict lam, neither of which
    it checks; None when some diagonal holds three cells.

    Pad nu = mu with zeros to length l(lam).  Row i of lam*/nu* covers the
    diagonals nu_i .. lam_i - 1, and the rows covering one diagonal are
    consecutive, so no diagonal holds three cells exactly when
    nu_i >= lam_{i+2} for every i: when l(lam) - l(mu) <= 2 and
    mu_i >= lam_{i+2} on the parts of mu.

    That diagonal test implies the definition's split into two pieces free
    of 2x2 blocks, at every weight.  For strict beta inside alpha,
    alpha*/beta* has a 2x2 block exactly when some i has
    max(beta_i, beta_{i+1} + 1) <= alpha_{i+1} - 1.  Given the diagonal test,
    set kappa_i = max(nu_i, lam_{i+1}): kappa is strict, nu <= kappa <= lam,
    lam*/kappa* has no block because kappa_i >= lam_{i+1}, and kappa*/nu*
    has none because a block would need nu_i < kappa_{i+1} = lam_{i+2}.  (The
    proof needs a strict mu: (4,3,2,1)/(2,1,1,1) passes the diagonal test but
    has no split.)  The converse fails: the full diagram of (3,2,1) splits
    but has a three-cell diagonal, and such shapes carry zero weight.

    Rows i and i+1 share the diagonals nu_i .. lam_{i+1} - 1, which gives c.
    The one-cell diagonals of row i run from max(nu_i, lam_{i+1}) to
    min(lam_i, nu_{i-1}) - 1, with nu_0 infinite.  The cell of row i on
    diagonal d sits above the cell of row i+1 on diagonal d - 1.  Row i+1's
    segment stops before min(lam_{i+1}, nu_i) <= max(nu_i, lam_{i+1}), where
    row i's starts, so the two join exactly when nu_i = lam_{i+1}, which
    also makes both nonempty: so on row 0, where nothing is above, no
    component has begun yet.
    """
    l_jump = len(lam) - len(mu)
    if l_jump > 2 or not all(map(ge, mu, lam[2:])):
        return None
    nu = mu + (0,) * l_jump
    c = 0
    components: list[Parts] = []
    # row i: lam_i, lam_{i+1}, nu_i and nu_{i-1}, which on row 0 is lam_0
    for part, below, here, above in zip(lam, lam[1:] + (0,), nu, lam[:1] + nu):
        if below > here:
            c += below - here
            size = min(part, above) - below
        else:
            size = min(part, above) - here
        if above == part and components:
            components[-1] += (size,)
        elif size > 0:
            components.append((size,))
    return c, tuple(components), l_jump


# ---------------------------------------------------------------------------
# horizontal strips (Pieri rule data, on unshifted diagrams)

def a_statistic(lam: Parts, mu: Parts) -> int:
    """Number of columns occupied by lam/mu whose right neighbour is empty."""
    mu_padded = tuple(mu) + (0,) * (len(lam) - len(mu))
    occupied = set()
    for l, m in zip(lam, mu_padded):
        occupied.update(range(m + 1, l + 1))
    return sum(1 for col in occupied if col + 1 not in occupied)


@cache
def pieri_strips(kappa: Parts, r: int) -> tuple[tuple[Parts, int], ...]:
    """Strict xi inside the strict partition kappa with kappa/xi a horizontal
    r-strip, each paired with a(kappa/xi).  Inside kappa, the strip is
    horizontal exactly when xi interlaces: xi_i >= kappa_{i+1}, xi padded
    with zeros."""
    return tuple(
        (xi, a_statistic(kappa, xi))
        for xi in strict_subpartitions(kappa, weight(kappa) - r)
        if all(x >= k for x, k in zip(xi + (0,) * len(kappa), kappa[1:]))
    )


# ---------------------------------------------------------------------------
# shifted standard tableaux

def shifted_syt_count(lam: Parts) -> int:
    """Number of standard fillings of the shifted diagram, by the product
    formula n!/(prod lam_i!) * prod_{i<j} (lam_i-lam_j)/(lam_i+lam_j)."""
    if lam:
        ensure_strict_partition(lam)
    num, den = factorial(weight(lam)), 1
    for i, p in enumerate(lam):
        den *= factorial(p)
        for r in lam[i + 1:]:
            num *= p - r
            den *= p + r
    count, rest = divmod(num, den)
    if rest:
        raise NonDivisibleError(f"non-integer tableau count for {lam}")
    return count


# ---------------------------------------------------------------------------
# text round-trip

def parse_parts(text: str) -> Parts:
    """Parse '4,2,1' into (4, 2, 1); '-' denotes the empty partition."""
    text = text.strip()
    if text in ("-", ""):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {text!r}")
    return parts


def format_parts(parts: Parts) -> str:
    return ",".join(str(p) for p in parts) if parts else "-"
