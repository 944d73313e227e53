"""The spin bitrace: a q-deformed second orthogonality relation.

The central quantity is the pairing T(mu, nu) of products of deformed
one-row generators; the bitrace divides it by (q-1)^{l(mu)+l(nu)}.  It is
computed three ways: a peeling recursion driven by the alpha polynomials,
which come from their generating function D(-z)/D(z), the inner product of
the two generator products in the power-sum ring, and (in the characters
module) the sum of products of character values.

The peel sums alpha_product(tau) times a smaller pairing over every
composition tau of mu_1 bounded by nu.  The product depends only on the
multiset of tau's parts, so it is kept once per multiset; ROADMAP item 5
replaces the composition sum with per-remainder sums through the shared
peel of the characters module, and removes those products along with _T.
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .gamma import g_product, inner_product
from .partitions import (
    Parts,
    bounded_compositions,
    ensure_int_parts,
    ensure_partition,
    is_odd_partition,
    nonzero_length,
    sort_desc,
    weight,
)
from .qpoly import ONE, QPoly, ZERO, exact_div_qminus1_pow


class WeightMismatchError(ValueError):
    """The two arguments have different weights."""


# D(z) = (1 - t^2 z)(1 + t z)^2 (1 - z), one coefficient per power of z
_D = (
    ONE,
    QPoly((-1, 2, -1)),
    QPoly((0, -2, 2, -2)),
    QPoly((0, 0, -1, 2, -1)),
    QPoly((0, 0, 0, 0, 1)),
)


@cache
def alpha(n: int) -> QPoly:
    """The alpha polynomials, from their generating function
    sum_n alpha_n z^n = D(-z)/D(z): alpha_n = (-1)^n D_n minus the sum over
    j = 1..4 of D_j alpha_{n-j}, with D_n = 0 for n > 4.  The lower indices
    are filled first, so the recursion stays two calls deep whatever n is."""
    if n < 0:
        return ZERO
    for m in range(n):
        alpha(m)
    out = _D[n].scale((-1) ** n) if n < len(_D) else ZERO
    for j in range(1, len(_D)):
        out = out - _D[j] * alpha(n - j)
    return out


def alpha_product(tau: Parts) -> QPoly:
    """The product of alpha(part) over the parts of tau; it depends only on
    their multiset, so it is read from one product per sorted multiset."""
    return _alpha_multiset_product(sort_desc(tau))


@cache
def _alpha_multiset_product(parts: Parts) -> QPoly:
    # a loop, not a recursion on parts[1:], so the peel's depth stays one
    # frame per part of mu
    out = ONE
    for part in parts:
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


def _classes(mu: Parts, nu: Parts) -> tuple[Parts, Parts]:
    # both classes sorted, each a partition of int parts, and the two of one
    # weight
    mu = ensure_partition(sort_desc(ensure_int_parts(mu, "mu")), "mu")
    nu = ensure_partition(sort_desc(ensure_int_parts(nu, "nu")), "nu")
    if weight(mu) != weight(nu):
        raise WeightMismatchError(f"|{mu}| != |{nu}|")
    return mu, nu


def T_mu_nu(mu: Parts, nu: Parts) -> QPoly:
    """The unnormalized pairing; symmetric in its arguments."""
    return _T(*_classes(mu, nu))


def sbtr(mu: Parts, nu: Parts) -> QPoly:
    """Spin bitrace: T(mu, nu) divided exactly by (q-1)^{l(mu)+l(nu)}."""
    mu, nu = _classes(mu, nu)
    value = T_mu_nu(mu, nu)
    return exact_div_qminus1_pow(value, nonzero_length(mu) + nonzero_length(nu))


def sbtr_powersum(mu: Parts, nu: Parts) -> QPoly:
    """Spin bitrace through the power-sum ring: the inner product of the two
    products of deformed generators, divided by (q-1)^{l(mu)+l(nu)}."""
    mu, nu = _classes(mu, nu)
    value = inner_product(g_product(mu), g_product(nu))
    return exact_div_qminus1_pow(value, nonzero_length(mu) + nonzero_length(nu))


def regular_char(mu: Parts) -> QPoly:
    """Trace of the regular representation on the class of mu:
    2^n (q-1)^{n-l(mu)} n! / prod_i mu_i!."""
    mu = sort_desc(ensure_int_parts(mu, "mu"))
    if not is_odd_partition(mu):
        raise ValueError(f"regular character needs odd mu, got {mu}")
    n = weight(mu)
    count = factorial(n)
    for part in mu:
        count //= factorial(part)
    return (QPoly((-1, 1)) ** (n - nonzero_length(mu))).scale(2**n * count)
