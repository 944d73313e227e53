import inspect
import sys
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from hcchar.bitrace import (
    T_mu_nu,
    WeightMismatchError,
    alpha,
    alpha_product,
    regular_char,
    sbtr,
    sbtr_powersum,
)
from hcchar.characters import orthogonality_sum
from hcchar.partitions import bounded_compositions, nonzero_length, odd_partitions_of, z_lambda
from hcchar.qpoly import NonDivisibleError, ONE, QPoly, ZERO
import oracles
from oracles import alpha_direct_sum, partitions_of


def test_alpha_examples():
    assert alpha(0) == ONE
    assert alpha(-3) == ZERO
    assert alpha(1) == (QPoly((-1, 1)) ** 2).scale(2)
    assert alpha(2) == (QPoly((-1, 1)) ** 4).scale(2)
    assert alpha(3) == (QPoly((-1, 1)) ** 2).scale(2) * QPoly((1, -2, 5, -2, 1))


def test_alpha_recursion_matches_direct_sum():
    for n in range(17):
        value = alpha(n)
        assert value == alpha_direct_sum(n), n
        assert value.has_integer_coeffs()


def test_alpha_depth_is_bounded_whatever_n_is():
    # a stack 50 frames above this one would overflow in a recursion one
    # level per unit of n; alpha fills its lower indices first instead
    n = 101
    depth = len(inspect.stack(0))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        value = sbtr((n,), (n,))
    finally:
        sys.setrecursionlimit(limit)
    assert value.eval_at(1) == 2 * n


def test_alpha_direct_sum_rejects_a_non_integral_sum(monkeypatch):
    # the check must raise, not assert, so that it also holds under python -O
    monkeypatch.setattr(oracles, "z_lambda", lambda rho: 7 * z_lambda(rho))
    with pytest.raises(NonDivisibleError, match="alpha_3"):
        alpha_direct_sum(3)


def test_alpha_product_is_the_ordered_product_of_alphas():
    # the product is kept once per multiset; it must equal the product of
    # alpha(t) taken in tau's own order, zero parts included
    for n in range(10):
        for nu in odd_partitions_of(n):
            for k in range(n + 1):
                for tau in bounded_compositions(k, nu):
                    expected = ONE
                    for t in tau:
                        expected = expected * alpha(t)
                    assert alpha_product(tau) == expected, (k, nu, tau)


def test_T_examples():
    assert T_mu_nu((1,), (1,)) == alpha(1)
    for n in range(1, 7):
        assert T_mu_nu((n,), (n,)) == alpha(n)
    assert T_mu_nu((3, 1), (1, 3)) == T_mu_nu((1, 3), (3, 1))
    assert T_mu_nu((1, 3), (1, 1, 1, 1)) == T_mu_nu((3, 1), (1, 1, 1, 1))
    with pytest.raises(WeightMismatchError):
        T_mu_nu((3,), (1, 1))


def test_bitraces_reject_a_class_that_is_not_a_partition():
    # (4, -1) has the weight of (3,), so only the partition check can refuse it
    for route in (sbtr, sbtr_powersum, T_mu_nu):
        with pytest.raises(ValueError, match=r"mu must have .* positive parts: \(4, -1\)"):
            route((4, -1), (3,))
        with pytest.raises(ValueError, match=r"nu must have .* positive parts: \(4, -1\)"):
            route((3,), (4, -1))
        with pytest.raises(WeightMismatchError):
            route((3,), (1, 1))


def test_sbtr_examples():
    s33 = sbtr((3,), (3,))
    assert s33 == QPoly((2, -4, 10, -4, 2))
    assert s33.eval_at(1) == 6
    assert sbtr((1, 1), (2,)) == QPoly((-4, 4))
    assert sbtr((3,), (1, 1, 1)).eval_at(1) == 0
    assert sbtr((5, 1), (3, 3)) == sbtr((3, 3), (5, 1))


def test_sbtr_powersum_examples():
    for n in range(1, 6):
        assert sbtr_powersum((n,), (n,)) == sbtr((n,), (n,))
    assert sbtr_powersum((1, 1), (2,)) == QPoly((-4, 4))
    for n in range(1, 6):
        ones = (1,) * n
        assert sbtr_powersum(ones, ones) == QPoly((factorial(n) * 2**n,))


def test_three_way_equality_small():
    for n in range(1, 6):
        ops = odd_partitions_of(n)
        for mu in ops:
            for nu in ops:
                a = sbtr(mu, nu)
                assert a == sbtr_powersum(mu, nu), (mu, nu)
                assert a == orthogonality_sum(mu, nu), (mu, nu)


def test_sbtr_powersum_matches_peeling_on_all_partitions():
    # every pair to weight 6, and every ordered odd pair of weights 7-9,
    # the benchmark's weight included
    pairs = [(mu, nu) for n in range(7) for mu in partitions_of(n) for nu in partitions_of(n)]
    for n in range(7, 10):
        ops = odd_partitions_of(n)
        pairs += [(mu, nu) for mu in ops for nu in ops]
    for mu, nu in pairs:
        assert sbtr_powersum(mu, nu) == sbtr(mu, nu), (mu, nu)


@st.composite
def _odd_pairs(draw):
    ops = odd_partitions_of(draw(st.integers(10, 12)))
    return draw(st.sampled_from(ops)), draw(st.sampled_from(ops))


@settings(max_examples=15, deadline=None)
@given(_odd_pairs())
def test_sbtr_powersum_matches_peeling_on_random_odd_pairs(pair):
    # the alpha peel against the power-sum route above the exhaustive range
    assert sbtr(*pair) == sbtr_powersum(*pair), pair


def test_q_equals_one_orthogonality():
    for n in range(1, 9):
        ops = odd_partitions_of(n)
        for mu in ops:
            for nu in ops:
                expected = 2 ** nonzero_length(mu) * z_lambda(mu) if mu == nu else 0
                assert sbtr(mu, nu).eval_at(1) == expected, (mu, nu)


def test_regular_char():
    assert regular_char((1, 1, 1)) == QPoly((48,))
    assert regular_char((3,)) == (QPoly((-1, 1)) ** 2).scale(8)
    assert regular_char((3, 1)) == (QPoly((-1, 1)) ** 2).scale(64)
    for n in range(1, 7):
        for mu in odd_partitions_of(n):
            assert regular_char(mu) == sbtr(mu, (1,) * n), mu
