"""The ring generated by odd power sums, in the power-sum basis.

Elements are finite combinations of p_rho over odd partitions rho with
polynomial coefficients.  Everything here is brute force by design: this
layer is the independent oracle against which the faster algorithms are
checked.  Each element holds its coefficients as int polynomials over one
common denominator, and every operation, the inner product included, runs
on those ints; no Kronecker packing, so the oracle shares nothing with the
packed evaluator it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, gcd, lcm

from .partitions import Parts, odd_partitions_of, sort_desc, z_lambda
from .qpoly import ONE, QPoly, ZERO


class GammaElement:
    """Finite map from odd partitions to polynomial coefficients.

    den is the least positive integer that clears every coefficient, and
    ints maps each key with a nonzero coefficient to that coefficient times
    den, an int tuple indexed by the power of q with no trailing zeros.
    Treated as immutable: operations return fresh elements."""

    __slots__ = ("den", "ints")

    def __init__(self, terms: dict[Parts, QPoly] | None = None) -> None:
        terms = {k: v.coeffs for k, v in (terms or {}).items() if v.coeffs}
        den = lcm(*(c.denominator for cs in terms.values() for c in cs))
        self.den = den
        self.ints = {
            k: tuple(c.numerator * (den // c.denominator) for c in cs) for k, cs in terms.items()
        }

    @property
    def terms(self) -> dict[Parts, QPoly]:
        """The coefficients as QPolys, in a fresh dict."""
        den = self.den
        if den == 1:
            return {k: QPoly(v) for k, v in self.ints.items()}
        return {k: QPoly(Fraction(c, den) for c in v) for k, v in self.ints.items()}

    @staticmethod
    def one() -> "GammaElement":
        return GammaElement({(): ONE})

    @staticmethod
    def zero() -> "GammaElement":
        return GammaElement()

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Largest weight among the keys; -1 for the zero element."""
        return max((sum(k) for k in self.ints), default=-1)

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GammaElement)
            and self.den == other.den
            and self.ints == other.ints
        )

    def __add__(self, other: "GammaElement") -> "GammaElement":
        if not other.ints:
            return self
        if not self.ints:
            return other
        den = lcm(self.den, other.den)
        acc: dict[Parts, list[int]] = {}
        for element in (self, other):
            scale = den // element.den
            for k, v in element.ints.items():
                _add_into(acc, k, v, scale)
        return _canonical(den, acc)

    def __mul__(self, other: "GammaElement") -> "GammaElement":
        acc: dict[Parts, list[int]] = {}
        for ka, va in self.ints.items():
            for kb, vb in other.ints.items():
                key = sort_desc(ka + kb)
                size = len(va) + len(vb) - 1
                out = acc.get(key)
                if out is None:
                    out = acc[key] = [0] * size
                elif len(out) < size:
                    out.extend([0] * (size - len(out)))
                for i, a in enumerate(va):
                    if a:
                        for j, b in enumerate(vb, i):
                            out[j] += a * b
        return _canonical(self.den * other.den, acc)

    def __repr__(self) -> str:
        if not self.ints:
            return "GammaElement(0)"
        bits = [f"({v.to_text('t')})*p{list(k)}" for k, v in self.items()]
        return "GammaElement(" + " + ".join(bits) + ")"


def _add_into(acc: dict[Parts, list[int]], key: Parts, values, scale: int) -> None:
    # acc[key] += scale * values, coefficient by coefficient
    out = acc.get(key)
    if out is None:
        acc[key] = [scale * c for c in values]
        return
    if len(out) < len(values):
        out.extend([0] * (len(values) - len(out)))
    for i, c in enumerate(values):
        out[i] += scale * c


def _canonical(den: int, acc: dict[Parts, list[int]]) -> GammaElement:
    # the element with coefficients acc / den: trailing zeros and zero keys
    # dropped, and den and every coefficient divided by their gcd
    ints = {}
    for k, cs in acc.items():
        while cs and not cs[-1]:
            cs.pop()
        if cs:
            ints[k] = cs
    g = gcd(den, *(c for cs in ints.values() for c in cs))
    out = GammaElement.__new__(GammaElement)
    out.den = den // g
    out.ints = {k: tuple(c // g for c in cs) for k, cs in ints.items()}
    return out


def inner_product(a: GammaElement, b: GammaElement) -> QPoly:
    """<p_rho, p_sigma> = 2^{-l(rho)} z_rho delta_{rho,sigma}, extended bilinearly.

    The sum over the shared keys rho runs on ints: with a = A/den_a and
    b = B/den_b, it adds up A_rho B_rho z_rho 2^{L - l(rho)}, for L the
    largest l(rho), and divides once by den_a den_b 2^L at the end."""
    ints_a, ints_b = a.ints, b.ints
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
    den = a.den * b.den << top
    return QPoly(c // den if c % den == 0 else Fraction(c, den) for c in acc)


@cache
def expand_q_n(n: int) -> GammaElement:
    """One-row Q-function: sum over odd rho of n of 2^{l(rho)}/z_rho p_rho."""
    if n < 0:
        return GammaElement.zero()
    rhos = odd_partitions_of(n)
    den = lcm(*map(z_lambda, rhos))
    return _canonical(den, {rho: [2 ** len(rho) * (den // z_lambda(rho))] for rho in rhos})


def _zt_ints(rho: Parts) -> list[int]:
    # prod_i (1 - t^{rho_i}), the polynomial part of 1/z_rho(t), by the power of t
    out = [1]
    for part in rho:
        nxt = out + [0] * part
        for i, c in enumerate(out, part):
            nxt[i] -= c
        out = nxt
    return out


@cache
def expand_g_n(n: int) -> GammaElement:
    """Deformed one-row generator: sum over odd rho of n of
    (-2)^{l(rho)}/z_rho(t) p_rho, with 1/z(t) kept polynomial-over-integer."""
    if n < 0:
        return GammaElement.zero()
    rhos = odd_partitions_of(n)
    den = lcm(*map(z_lambda, rhos))
    return _canonical(
        den,
        {
            rho: [c * (-2) ** len(rho) * (den // z_lambda(rho)) for c in _zt_ints(rho)]
            for rho in rhos
        },
    )


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
    acc: dict[Parts, list[int]] = {}
    for rho, values in a.ints.items():
        for sigma, rest, count in _sub_multisets(rho, k):
            _add_into(acc, rest, values, -count if len(sigma) % 2 else count)
    return _canonical(a.den, acc)
