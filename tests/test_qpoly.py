import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from hcchar.qpoly import (
    NonDivisibleError,
    ONE,
    QPoly,
    ZERO,
    exact_div_int,
    exact_div_qminus1_coeffs,
    exact_div_qminus1_pow,
    l1_norm,
    l1_norm_ints,
    pack,
    pack_ints,
    pack_width,
    round_bracket,
    unpack,
    unpack_ints,
)
from oracles import has_integer_coeffs_by_scan, square_bracket

coeff = st.integers(-9, 9) | st.fractions(max_denominator=6)
polys = st.lists(coeff, max_size=6).map(QPoly)


def subs_neg(f: QPoly) -> QPoly:
    """Substitute t -> -t."""
    return QPoly([c * (-1) ** i for i, c in enumerate(f.coeffs)])


def test_arith_examples():
    qm1 = QPoly((-1, 1))
    assert (qm1 * qm1).coeffs == (1, -2, 1)
    f = QPoly((3, 0, -2))
    assert f + ZERO == f
    prod = qm1.scale(2) * QPoly((1, -1, 1))
    assert prod == QPoly((-2, 4, -4, 2))


def test_canonical_form():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).is_zero()
    assert QPoly(()).degree == -1
    assert QPoly((0, 0, 5)).valuation == 2


def test_integral_coefficients_are_ints_whatever_their_input_type():
    # ints, bools, integral Fractions and integral floats of one value give
    # one polynomial, stored with int coefficients and rendered as before
    forms = [
        QPoly((3, -2, 0, 1, 0)),
        QPoly((Fraction(3), Fraction(-2), Fraction(0), True, False)),
        QPoly((Fraction(6, 2), -2, False, Fraction(1), 0)),
        QPoly((3.0, -2.0, 0.0, 1.0, -0.0)),
        QPoly((-3, 2, 0, -1)).scale((-1) ** -1),
    ]
    for f in forms:
        assert f == forms[0] and hash(f) == hash(forms[0])
        assert f.coeffs == (3, -2, 0, 1)
        assert all(type(c) is int for c in f.coeffs)
        assert json.dumps(f.to_json()) == (
            '{"var": "q", "coeffs": [[3, 1], [-2, 1], [0, 1], [1, 1]]}'
        )
        assert f.to_text() == "q^3 - 2*q + 3"
    # a non-integral coefficient stays a Fraction, whatever its input type
    halves = [QPoly((Fraction(1, 2), 1)), QPoly((0.5, True)), QPoly((Fraction(2, 4), 1.0))]
    for f in halves:
        assert f == halves[0] and hash(f) == hash(halves[0])
        assert [type(c) for c in f.coeffs] == [Fraction, int]
        assert json.dumps(f.to_json()) == '{"var": "q", "coeffs": [[1, 2], [1, 1]]}'
        assert f.to_text() == "q + 1/2"


def test_has_integer_coeffs_matches_its_generator_scan():
    # every coefficient tuple of length <= 4 mixing ints and Fractions, the
    # integral Fraction 4/2 stored as an int
    entries = (0, 1, -2, Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2))
    for length in range(5):
        for coeffs in product(entries, repeat=length):
            f = QPoly(coeffs)
            assert f.has_integer_coeffs() == has_integer_coeffs_by_scan(f), coeffs
    assert QPoly((1, Fraction(4, 2))).has_integer_coeffs()
    assert not QPoly((1, Fraction(1, 2), 3)).has_integer_coeffs()


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(polys, st.integers(0, 5))
def test_exact_div_roundtrip(f, m):
    product = f * QPoly((-1, 1)) ** m
    assert exact_div_qminus1_pow(product, m) == f
    assert exact_div_qminus1_coeffs(product.coeffs, m) == f.coeffs


def test_exact_div_examples():
    assert exact_div_qminus1_pow(QPoly((1, -2, 1)).scale(2), 1) == QPoly((-2, 2))
    assert exact_div_qminus1_pow(QPoly((1, -2, 1)), 2) == ONE
    with pytest.raises(NonDivisibleError) as exc:
        exact_div_qminus1_pow(QPoly((-1, 0, 1)), 2)
    assert str(exc.value) == "remainder 2 dividing by (q-1)"
    # rational coefficients divide too
    quotient = QPoly((Fraction(1, 3), Fraction(1, 2)))
    assert exact_div_qminus1_pow(QPoly((-1, 1)) * quotient, 1) == quotient
    f = QPoly((3, 0, -2))
    assert exact_div_qminus1_pow(f, 0) == f
    for m in range(4):
        assert exact_div_qminus1_pow(ZERO, m) == ZERO
    # on int coefficients: ints out, no trailing zero, the same remainder
    quotient = exact_div_qminus1_coeffs((2, -4, 2), 1)
    assert quotient == (-2, 2) and all(type(c) is int for c in quotient)
    assert exact_div_qminus1_coeffs((1, -2, 1), 2) == (1,)
    with pytest.raises(NonDivisibleError, match="^remainder 2 dividing by \\(q-1\\)$"):
        exact_div_qminus1_coeffs((-1, 0, 1), 2)
    with pytest.raises(ValueError, match="^negative power$"):
        exact_div_qminus1_pow(f, -1)
    with pytest.raises(ValueError, match="^negative power$"):
        exact_div_qminus1_coeffs(f.coeffs, -1)


@given(st.lists(st.integers(-9, 9), max_size=6).map(QPoly), st.integers(-9, 9).filter(bool))
def test_exact_div_int_roundtrip(f, d):
    assert exact_div_int(f.scale(d), d) == f
    if d not in (1, -1):
        with pytest.raises(NonDivisibleError):
            exact_div_int(f.scale(d) + ONE, d)
    with pytest.raises(NonDivisibleError):
        exact_div_int(f + QPoly((Fraction(1, 2),)), 1)


int_coeff = st.integers(-(2**70), 2**70) | st.sampled_from([0, 1, -1])
int_polys = st.lists(int_coeff, max_size=8).map(QPoly)


@given(int_polys, st.integers(0, 40))
def test_pack_unpack_roundtrip(f, spare):
    bound = max((abs(c.numerator) for c in f.coeffs), default=0)
    assert l1_norm(f) == l1_norm_ints(f.coeffs) == sum(abs(c) for c in f.coeffs)
    # exactly two bits above the bound, and wider
    for bits in (bound.bit_length() + 2, bound.bit_length() + 2 + spare, pack_width(bound)):
        value = pack(f, bits)
        assert value == pack_ints(f.coeffs, bits) == f.eval_at(2**bits)
        assert unpack(value, bits, bound) == f
        # the int digits are f's coefficients as they are, no trailing zero
        digits = unpack_ints(value, bits, bound)
        assert digits == f.coeffs and all(type(c) is int for c in digits)


def test_packing_refuses_what_it_cannot_hold():
    half = QPoly((1, Fraction(1, 2)))
    for helper in (l1_norm, lambda f: pack(f, 8)):
        with pytest.raises(NonDivisibleError, match="non-integral"):
            helper(half)
    f = QPoly((3, -200, 7))
    assert pack_width(200) == 16 and pack_width(2**14) == 32
    for helper in (unpack, unpack_ints):
        # one bit short of two spare bits above the bound
        with pytest.raises(OverflowError, match="^9 bits cannot hold coefficients up to 200$"):
            helper(pack(f, 9), 9, 200)
        # wide enough, but a digit beyond the bound it was promised
        with pytest.raises(OverflowError, match="-200 exceeds its bound 199"):
            helper(pack(f, 16), 16, 199)


def test_eval_examples():
    assert QPoly((1, -1, 1)).eval_at(1) == 1
    assert (QPoly((-1, 1)) ** 2).scale(2).eval_at(1) == 0
    assert QPoly((4, -16, 28, -16, 4)).eval_at(1) == 4
    assert QPoly((1, 2)).eval_at(Fraction(1, 2)) == 2


def test_palindromic():
    assert QPoly((1, -3, 1)).is_palindromic()
    assert QPoly((0, -2)).is_palindromic()
    assert not QPoly((0, -3, 1)).is_palindromic()
    assert ZERO.is_palindromic()


def test_round_bracket():
    assert round_bracket(3) == QPoly((1, -1, 1))
    assert round_bracket(0) == ONE
    assert round_bracket(-2) == ZERO


def test_square_bracket():
    assert square_bracket(1) == ONE
    assert square_bracket(3) == QPoly((1, 1, 1))
    with pytest.raises(ValueError):
        square_bracket(0)


def test_bracket_identities():
    # (k) + 2 sum_{i<k} (i) = [k], and (k) relates to [k] at -t, for k <= 50
    for k in range(1, 51):
        total = round_bracket(k)
        for i in range(1, k):
            total = total + round_bracket(i).scale(2)
        assert total == square_bracket(k)
        assert round_bracket(k) == subs_neg(square_bracket(k)).scale((-1) ** (k - 1))


def test_text_rendering():
    assert QPoly((4, -16, 28, -16, 4)).to_text() == "4*q^4 - 16*q^3 + 28*q^2 - 16*q + 4"
    assert QPoly((0, -2)).to_text() == "-2*q"
    assert QPoly((8,)).to_text() == "8"
    assert ZERO.to_text() == "0"
    assert QPoly((1, -1, 1)).to_text() == "q^2 - q + 1"
    assert QPoly((Fraction(3, 2),)).to_text() == "3/2"


@given(polys)
def test_json_roundtrip(f):
    assert QPoly.from_json(f.to_json()) == f
