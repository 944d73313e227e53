"""The packed evaluator: exact integer-polynomial recursions run on ints.

A recursion of sums and products of integer polynomials runs twice, as
run(bits).  First run(None) computes the same recursion on the L1 norms of
its terms, with the signs dropped, for a bound on every coefficient of its
value.  Then run(bits) computes it on its terms packed at q = 2^B
(Kronecker substitution), with B at least two bits above that bound and
chosen per value.  The value is unpacked from its balanced base-2^B digits,
and a width or digit beyond the bound raises instead of returning a value.

The L1 run bounds the packed one because the L1 norm is subadditive and
submultiplicative, |f + g| <= |f| + |g| and |f g| <= |f| |g|, so a
recursion of sums and products, with each integer scalar replaced by its
absolute value, bounds the L1 norm, and so every coefficient, of what it
computes.  A term left out of the L1 run must have norm 1: a factor q^c,
whose packed form is a shift by c B bits, leaves |q^c f| = |f|.

Polynomials cross into and out of the evaluator as int coefficient
tuples, ascending with no trailing zero, and nowhere else; a caller that
returns a QPoly wraps the tuple once.  in_ring maps a term into either run,
refusing a non-integral coefficient, and f_ring gives each f_t once per
width.  unpacked unpacks one value, and unpacked_table a keyed table of
values at one width, the widest its entries need, each entry under its own
bound.  Both take their width from pack_width and check it, and every
digit, in qpoly.unpack_ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .qpoly import NonDivisibleError, l1_norm_ints, pack_ints, pack_width, unpack_ints
from .vertex import f_single


def in_ring(coeffs: tuple[int, ...], bits: int | None) -> int:
    """The integer polynomial with coefficients coeffs, ascending, packed at
    q = 2^bits, or its L1 norm for bits None."""
    if Fraction in map(type, coeffs):
        raise NonDivisibleError(f"{coeffs} has a non-integral coefficient")
    return l1_norm_ints(coeffs) if bits is None else pack_ints(coeffs, bits)


def unpacked(run) -> tuple[int, ...]:
    """The coefficients, ascending and with no trailing zero, of the
    polynomial that run(bits) packs at q = 2^bits, for a recursion whose
    run(None), on L1 norms with the signs dropped, bounds its coefficients."""
    bound = run(None)
    bits = pack_width(bound)
    return unpack_ints(run(bits), bits, bound)


def unpacked_table(run) -> tuple[tuple[object, tuple[int, ...]], ...]:
    """The keyed polynomials that run(bits) packs at q = 2^bits, as (key,
    coefficients) pairs in run's order.  run(None) bounds each key's
    coefficients, on L1 norms with the signs dropped, and holds every key of
    run(bits): a key whose terms cancel is dropped by run(bits) only.  One
    width serves the whole table, each entry unpacked under its own bound."""
    bounds = dict(run(None))
    bits = pack_width(max(bounds.values(), default=0))
    return tuple((key, unpack_ints(value, bits, bounds[key])) for key, value in run(bits))


@cache
def f_ring(bits: int | None):
    """f_t packed at q = 2^bits, or its L1 norm for bits None, as a function
    of t.  One function per width, so that composition_sums memoizes its
    f-sums once per width."""

    @cache
    def factor(t: int) -> int:
        return in_ring(f_single(t).coeffs, bits)

    return factor
