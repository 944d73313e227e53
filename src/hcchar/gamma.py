"""The ring generated by odd power sums, in the power-sum basis.

Elements are finite combinations of p_rho over odd partitions rho with
polynomial coefficients.  Everything here is brute force by design: this
layer is the independent oracle against which the faster algorithms are
checked.  The inner product is the plain sum over rho as well, run on ints
over one common denominator per element.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, lcm

from .partitions import (
    Parts,
    odd_partitions_of,
    sort_desc,
    z_lambda,
    zt_denominator,
)
from .qpoly import ONE, QPoly, ZERO


class GammaElement:
    """Finite map from odd partitions to polynomial coefficients.

    Treated as immutable: operations return fresh elements and never touch
    an existing terms dict, so the integer view is derived once and kept.
    """

    __slots__ = ("terms", "_ints")

    def __init__(self, terms: dict[Parts, QPoly] | None = None) -> None:
        self.terms: dict[Parts, QPoly] = {
            k: v for k, v in (terms or {}).items() if not v.is_zero()
        }
        self._ints: tuple[int, dict[Parts, tuple[int, ...]]] | None = None

    def _over_common_den(self) -> tuple[int, dict[Parts, tuple[int, ...]]]:
        """(den, ints): the least positive den that clears every coefficient,
        and each key's coefficients times den, as an int tuple."""
        if self._ints is None:
            den = lcm(*(c.denominator for v in self.terms.values() for c in v.coeffs))
            ints = {
                k: tuple(c.numerator * (den // c.denominator) for c in v.coeffs)
                for k, v in self.terms.items()
            }
            self._ints = den, ints
        return self._ints

    @staticmethod
    def one() -> "GammaElement":
        return GammaElement({(): ONE})

    @staticmethod
    def zero() -> "GammaElement":
        return GammaElement()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest weight among the keys; -1 for the zero element."""
        return max((sum(k) for k in self.terms), default=-1)

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GammaElement) and self.terms == other.terms

    def __add__(self, other: "GammaElement") -> "GammaElement":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, ZERO) + v
        return GammaElement(out)

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        out: dict[Parts, QPoly] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = sort_desc(ka + kb)
                prod = va * vb
                out[key] = out.get(key, ZERO) + prod
        return GammaElement(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "GammaElement(0)"
        bits = [f"({v.to_text('t')})*p{list(k)}" for k, v in self.items()]
        return "GammaElement(" + " + ".join(bits) + ")"


def inner_product(a: GammaElement, b: GammaElement) -> QPoly:
    """<p_rho, p_sigma> = 2^{-l(rho)} z_rho delta_{rho,sigma}, extended bilinearly.

    The sum over the shared keys rho runs on ints: with a = A/den_a and
    b = B/den_b, it adds up A_rho B_rho z_rho 2^{L - l(rho)}, for L the
    largest l(rho), and divides once by den_a den_b 2^L at the end."""
    den_a, ints_a = a._over_common_den()
    den_b, ints_b = b._over_common_den()
    if len(ints_a) > len(ints_b):
        ints_a, ints_b = ints_b, ints_a
    shared = [key for key in ints_a if key in ints_b]
    if not shared:
        return ZERO
    top = max(map(len, shared))
    acc = [0] * (
        max(len(ints_a[key]) for key in shared) + max(len(ints_b[key]) for key in shared) - 1
    )
    for key in shared:
        weight = z_lambda(key) << (top - len(key))
        ys = ints_b[key]
        for i, x in enumerate(ints_a[key]):
            if x:
                x *= weight
                for j, y in enumerate(ys, i):
                    acc[j] += x * y
    den = den_a * den_b << top
    return QPoly(c // den if c % den == 0 else Fraction(c, den) for c in acc)


@cache
def expand_q_n(n: int) -> GammaElement:
    """One-row Q-function: sum over odd rho of n of 2^{l(rho)}/z_rho p_rho."""
    if n < 0:
        return GammaElement.zero()
    if n == 0:
        return GammaElement.one()
    return GammaElement(
        {
            rho: QPoly((Fraction(2 ** len(rho), z_lambda(rho)),))
            for rho in odd_partitions_of(n)
        }
    )


@cache
def expand_g_n(n: int) -> GammaElement:
    """Deformed one-row generator: sum over odd rho of n of
    (-2)^{l(rho)}/z_rho(t) p_rho, with 1/z(t) kept polynomial-over-integer."""
    if n < 0:
        return GammaElement.zero()
    if n == 0:
        return GammaElement.one()
    terms = {}
    for rho in odd_partitions_of(n):
        coeff = zt_denominator(rho).scale(Fraction((-2) ** len(rho), z_lambda(rho)))
        terms[rho] = coeff
    return GammaElement(terms)


@cache
def g_product(mu: Parts) -> GammaElement:
    """Product of the deformed generators over the parts of mu."""
    out = GammaElement.one()
    for part in mu:
        out = out * expand_g_n(part)
    return out


def _sub_multisets(rho: Parts, k: int):
    # (sigma, rho - sigma, prod_j C(m_j(rho), m_j(sigma))) over the
    # sub-multisets sigma of rho with |sigma| = k
    if not rho:
        if k == 0:
            yield (), (), 1
        return
    part, m = rho[0], rho.count(rho[0])
    for j in range(min(m, k // part) + 1):
        for sigma, rest, count in _sub_multisets(rho[m:], k - j * part):
            yield (part,) * j + sigma, (part,) * (m - j) + rest, comb(m, j) * count


def apply_exp_partials(k: int, a: GammaElement) -> GammaElement:
    """Degree-k component of exp(-sum over odd n of d/dp_n z^{-n}) applied
    to a.  Commuting derivations exponentiate to the translation
    p_n -> p_n - z^{-n}, as exp(c d/dx) f(x) = f(x + c), so p_rho goes to
    the sum over the sub-multisets sigma of rho with |sigma| = k of
    (-1)^{l(sigma)} prod_j C(m_j(rho), m_j(sigma)) p_{rho - sigma}."""
    if k == 0:
        return a
    if k < 0:
        raise ValueError("negative degree")
    out: dict[Parts, QPoly] = {}
    for rho, coeff in a.terms.items():
        for sigma, rest, count in _sub_multisets(rho, k):
            value = coeff.scale(-count if len(sigma) % 2 else count)
            out[rest] = out.get(rest, ZERO) + value
    return GammaElement(out)
