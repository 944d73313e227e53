"""The spin bitrace: a q-deformed second orthogonality relation.

The central quantity is the pairing T(mu, nu) of products of deformed
one-row generators; the bitrace divides it by (q-1)^{l(mu)+l(nu)}.  It is
computed three ways: a peeling recursion driven by the alpha polynomials,
the inner product of the two generator products in the power-sum ring, and
(in the characters module) the sum of products of character values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .gamma import g_product, inner_product
from .partitions import (
    Parts,
    bounded_compositions,
    is_odd_partition,
    nonzero_length,
    odd_partitions_of,
    sort_desc,
    weight,
    z_lambda,
)
from .qpoly import NonDivisibleError, ONE, QPoly, ZERO, exact_div_qminus1_pow, q_pow_minus_one


class WeightMismatchError(ValueError):
    """The two arguments have different weights."""


@cache
def alpha(n: int) -> QPoly:
    """The alpha polynomials by their four-term recursion.

    Seeds: a_0 = 1, a_1 = 2(t-1)^2, a_2 = (t-1)^2 a_1,
    a_3 = (t-1)^2 a_2 + 2t(t^2-t+1) a_1 + 2 t^2 (t-1)^2 a_0,
    a_4 = (t-1)^2 a_3 + 2t(t^2-t+1) a_2 + t^2 (t-1)^2 a_1; from n >= 5 the
    recursion gains the trailing term -t^4 a_{n-4}.
    """
    if n < 0:
        return ZERO
    if n == 0:
        return ONE
    sq = QPoly((1, -2, 1))  # (t-1)^2
    if n == 1:
        return sq.scale(2)
    if n == 2:
        return sq * alpha(1)
    mid = QPoly((0, 2, -2, 2))  # 2t(t^2-t+1)
    tsq = QPoly((0, 0, 1))
    if n == 3:
        return sq * alpha(2) + mid * alpha(1) + (tsq * sq).scale(2)
    if n == 4:
        return sq * alpha(3) + mid * alpha(2) + tsq * sq * alpha(1)
    return (
        sq * alpha(n - 1)
        + mid * alpha(n - 2)
        + tsq * sq * alpha(n - 3)
        - QPoly((0, 0, 0, 0, 1)) * alpha(n - 4)
    )


def alpha_direct_sum(n: int) -> QPoly:
    """Independent route: sum over odd partitions rho of n of
    2^{l(rho)} prod_i (t^{rho_i} - 1)^2 / z_rho."""
    if n < 0:
        return ZERO
    if n == 0:
        return ONE
    out = ZERO
    for rho in odd_partitions_of(n):
        term = ONE
        for part in rho:
            term = term * q_pow_minus_one(part) ** 2
        out = out + term.scale(Fraction(2 ** len(rho), z_lambda(rho)))
    if not out.has_integer_coeffs():
        raise NonDivisibleError(f"alpha_{n} direct sum not integral: {out.to_text()}")
    return out


def alpha_product(tau: Parts) -> QPoly:
    out = ONE
    for part in tau:
        if part:
            out = out * alpha(part)
    return out


@cache
def _T(mu: Parts, nu: Parts) -> QPoly:
    if not mu:
        return ONE if not nu else ZERO
    out = ZERO
    for tau in bounded_compositions(mu[0], nu):
        rest = sort_desc(n - t for n, t in zip(nu, tau))
        out = out + alpha_product(tau) * _T(mu[1:], rest)
    return out


def T_mu_nu(mu: Parts, nu: Parts) -> QPoly:
    """The unnormalized pairing; symmetric in its arguments."""
    mu, nu = sort_desc(mu), sort_desc(nu)
    if weight(mu) != weight(nu):
        raise WeightMismatchError(f"|{mu}| != |{nu}|")
    return _T(mu, nu)


def sbtr(mu: Parts, nu: Parts) -> QPoly:
    """Spin bitrace: T(mu, nu) divided exactly by (q-1)^{l(mu)+l(nu)}."""
    mu, nu = sort_desc(mu), sort_desc(nu)
    value = T_mu_nu(mu, nu)
    return exact_div_qminus1_pow(value, nonzero_length(mu) + nonzero_length(nu))


def sbtr_powersum(mu: Parts, nu: Parts) -> QPoly:
    """Spin bitrace through the power-sum ring: the inner product of the two
    products of deformed generators, divided by (q-1)^{l(mu)+l(nu)}."""
    mu, nu = sort_desc(mu), sort_desc(nu)
    if weight(mu) != weight(nu):
        raise WeightMismatchError(f"|{mu}| != |{nu}|")
    value = inner_product(g_product(mu), g_product(nu))
    return exact_div_qminus1_pow(value, nonzero_length(mu) + nonzero_length(nu))


def regular_char(mu: Parts) -> QPoly:
    """Trace of the regular representation on the class of mu:
    2^n (q-1)^{n-l(mu)} n! / prod_i mu_i!."""
    mu = sort_desc(mu)
    if not is_odd_partition(mu):
        raise ValueError(f"regular character needs odd mu, got {mu}")
    n = weight(mu)
    count = factorial(n)
    for part in mu:
        count //= factorial(part)
    return (QPoly((-1, 1)) ** (n - nonzero_length(mu))).scale(2**n * count)
