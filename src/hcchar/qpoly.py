"""Exact univariate polynomials over the rationals.

One dense representation, with ints for integral coefficients, serves every
polynomial in the character calculus.  The indeterminate is rendered as ``q``;
internal formulas often call it ``t``, but both name the same variable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class NonDivisibleError(ArithmeticError):
    """An exact division left a nonzero remainder; signals an upstream bug."""


def _int_or_fraction(c: object) -> Scalar:
    c = c if type(c) is Fraction else Fraction(c)  # bools and floats too
    return c.numerator if c.denominator == 1 else c


class QPoly:
    """Dense polynomial with rational coefficients and no trailing zeros.

    ``coeffs[i]`` is the coefficient of q^i, an int if integral, else a
    Fraction; zero is the empty tuple.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if type(c) is int else _int_or_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _from_ints(cls, coeffs: tuple[int, ...]) -> "QPoly":
        # trusted: coeffs is a tuple of ints with no trailing zero, taken as is
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def valuation(self) -> int:
        """Exponent of the lowest nonzero term; -1 for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: Union["QPoly", Scalar]) -> "QPoly":
        if isinstance(other, QPoly):
            if not self.coeffs or not other.coeffs:
                return ZERO
            # an int 0 here is deferred: CHANGES.md, "Integer coefficients in QPoly"
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return QPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "QPoly":
        if not c:
            return ZERO
        return QPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_at(self, x: Scalar) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def is_palindromic(self) -> bool:
        """True iff the coefficients from valuation to degree read the same
        both ways; the zero polynomial counts as palindromic."""
        window = self.coeffs[self.valuation:] if self.coeffs else ()
        return window == window[::-1]

    def has_integer_coeffs(self) -> bool:
        return Fraction not in map(type, self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({self.to_text()!r})"

    def to_text(self, var: str = "q") -> str:
        """Canonical rendering: descending exponents, explicit '*' and '^'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[exp]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                head = var if exp == 1 else f"{var}^{exp}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def to_json(self) -> dict:
        """JSON form: coefficients as [num, den] pairs ascending by exponent."""
        return {
            "var": "q",
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @staticmethod
    def from_json(data: dict) -> "QPoly":
        return QPoly(Fraction(num, den) for num, den in data["coeffs"])


ZERO = QPoly()
ONE = QPoly((1,))


def exact_div_qminus1_pow(f: QPoly, m: int) -> QPoly:
    """Divide f by (q-1)^m, requiring the division to be exact."""
    return QPoly(exact_div_qminus1_coeffs(f.coeffs, m))


def exact_div_qminus1_coeffs(coeffs: tuple[Scalar, ...], m: int) -> tuple[Scalar, ...]:
    """The coefficients of the quotient by (q-1)^m, for m >= 0, of the
    polynomial with coefficients coeffs, ascending with no trailing zero,
    requiring the division to be exact; int coefficients give ints, with no
    trailing zero.

    The m passes of synthetic division run in place over one list."""
    if m < 0:
        raise ValueError("negative power")
    if not m or not coeffs:
        return coeffs
    cs = list(coeffs)
    top = len(cs) - 1
    # the dividend is cs[lo:]; a pass leaves the quotient's coefficient of
    # q^j, the sum of the dividend's coefficients from q^{j+1} up, at cs[lo+1+j]
    for lo in range(m):
        carry = 0
        for i in range(top, lo, -1):
            carry += cs[i]
            cs[i] = carry
        if carry + cs[lo]:
            raise NonDivisibleError(f"remainder {carry + cs[lo]} dividing by (q-1)")
    return tuple(cs[m:])


def exact_div_int(f: QPoly, d: int) -> QPoly:
    """Divide every coefficient of f by the nonzero integer d, requiring
    integer quotients."""
    if not f.has_integer_coeffs() or any(c % d for c in f.coeffs):
        raise NonDivisibleError(f"{f.to_text()} is not divisible by {d} over the integers")
    return QPoly([c // d for c in f.coeffs])


# ---------------------------------------------------------------------------
# Kronecker packing: an integer polynomial as its value at q = 2^bits
# (von zur Gathen and Gerhard, Modern Computer Algebra, section 8.4)

def _int_coeffs(f: QPoly) -> tuple[int, ...]:
    if not f.has_integer_coeffs():
        raise NonDivisibleError(f"{f.to_text()} has a non-integral coefficient")
    return f.coeffs


def l1_norm(f: QPoly) -> int:
    """The sum of the absolute values of the coefficients of the integer
    polynomial f."""
    return l1_norm_ints(_int_coeffs(f))


def l1_norm_ints(coeffs: tuple[int, ...]) -> int:
    """l1_norm of the integer polynomial with coefficients coeffs."""
    return sum(map(abs, coeffs))


def pack(f: QPoly, bits: int) -> int:
    """The integer polynomial f evaluated at q = 2^bits."""
    return pack_ints(_int_coeffs(f), bits)


def pack_ints(coeffs: tuple[int, ...], bits: int) -> int:
    """pack of the integer polynomial with coefficients coeffs, ascending."""
    value = 0
    for c in reversed(coeffs):
        value = (value << bits) + c
    return value


def pack_width(bound: int) -> int:
    """Bits per packed coefficient for coefficients of magnitude at most
    bound: two spare bits, rounded up to a multiple of 16 so that values
    with nearby bounds share one width."""
    return (bound.bit_length() + 2 + 15) // 16 * 16


def unpack_ints(value: int, bits: int, bound: int) -> tuple[int, ...]:
    """The coefficients, ascending, of the integer polynomial that pack
    gave as value, for coefficients of magnitude at most bound: the
    balanced base-2^bits digits of value, each in [-2^(bits-1), 2^(bits-1)),
    with no trailing zero.  Raises OverflowError, returning nothing, when
    bits leaves fewer than two spare bits above bound or a digit exceeds
    bound."""
    if bits < bound.bit_length() + 2:
        raise OverflowError(f"{bits} bits cannot hold coefficients up to {bound}")
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    digits = []
    while value:
        digit = value & mask
        if digit >= half:
            digit -= mask + 1
        if abs(digit) > bound:
            raise OverflowError(f"packed coefficient {digit} exceeds its bound {bound}")
        digits.append(digit)
        value = (value - digit) >> bits
    return tuple(digits)


def unpack(value: int, bits: int, bound: int) -> QPoly:
    """The inverse of pack: unpack_ints as a QPoly."""
    return QPoly._from_ints(unpack_ints(value, bits, bound))


@cache
def round_bracket(k: int) -> QPoly:
    """(k)_t = t^{k-1} - t^{k-2} + ... + (-1)^{k-1}; (0)_t = 1, 0 for k < 0."""
    if k < 0:
        return ZERO
    if k == 0:
        return ONE
    return QPoly(tuple((-1) ** (k - 1 - i) for i in range(k)))
