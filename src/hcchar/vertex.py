"""Vertex-operator actions: the creation operators on the power-sum ring,
Clifford straightening of operator words and the f-coefficients.
composition_sums is the one sum of f-products over compositions: the
Q-basis lowering step and the Pieri recursion both read it, the latter with
_merge_part as its merge."""

from __future__ import annotations

from functools import cache

from .gamma import GammaElement, apply_exp_partials, expand_q_n
from .partitions import Parts, sort_desc
from .qpoly import ONE, QPoly, ZERO, round_bracket


# ---------------------------------------------------------------------------
# creation-operator action in the power-sum basis

def apply_Q_m(m: int, a: GammaElement) -> GammaElement:
    """The z^m component of the vertex operator applied to a.

    Finite sum: the creation series contributes q_{m+j} while the
    annihilation series lowers the degree by j, so j runs up to deg(a).
    """
    out = GammaElement.zero()
    for j in range(max(0, -m), a.degree() + 1):
        lowered = apply_exp_partials(j, a)
        if lowered.is_zero():
            continue
        out = out + expand_q_n(m + j) * lowered
    return out


@cache
def Q_lambda_vacuum(lam: Parts) -> GammaElement:
    """Q_{lam_1} ... Q_{lam_l} . 1 computed in the power-sum basis."""
    if not lam:
        return GammaElement.one()
    return apply_Q_m(lam[0], Q_lambda_vacuum(lam[1:]))


# ---------------------------------------------------------------------------
# Clifford straightening

def _prepend(m: int, nu: Parts) -> list[tuple[int, Parts]]:
    # Q_m acting on Q_nu.1 for strict nu, written in strict terms again.
    # Relations used: Q_a Q_b = -Q_b Q_a + (-1)^b 2 delta_{a,-b},
    # Q_0 . 1 = 1, Q_{-n} . 1 = 0 for n > 0, Q_a^2 = 0 for a != 0.
    if m == 0:
        return [((-1) ** len(nu), nu)]
    if not nu:
        return [(1, (m,))] if m > 0 else []
    head, rest = nu[0], nu[1:]
    if m > head:
        return [(1, (m,) + nu)]
    if m == head:
        return []
    out: list[tuple[int, Parts]] = []
    if m == -head:
        out.append(((-1) ** head * 2, rest))
    for c, tau in _prepend(m, rest):
        for c2, sig in _prepend(head, tau):
            out.append((-c * c2, sig))
    return out


def straighten(seq: tuple[int, ...]) -> dict[Parts, int]:
    """Rewrite the operator word Q_{a_1}...Q_{a_s}.1 as an integer combination
    of Q_nu.1 with nu strict.  Zero results are dropped."""
    acc: dict[Parts, int] = {(): 1}
    for m in reversed(seq):
        nxt: dict[Parts, int] = {}
        for nu, c in acc.items():
            for c2, sig in _prepend(m, nu):
                nxt[sig] = nxt.get(sig, 0) + c * c2
        acc = {k: v for k, v in nxt.items() if v}
        if not acc:
            return {}
    return acc


# ---------------------------------------------------------------------------
# f-coefficients

@cache
def f_single(i: int) -> QPoly:
    """f_i = 2(t-1)(i)_t for i > 0; f_0 = 1; zero for negative i."""
    if i < 0:
        return ZERO
    if i == 0:
        return ONE
    return round_bracket(i) * QPoly((-2, 2))


@cache
def composition_sums(
    merge, parts: Parts, k: int, factor, *, negative_parts: bool
) -> tuple[tuple[Parts, QPoly | int], ...]:
    """The sum of f_tau over the compositions tau of k with one entry per
    part, grouped by key.  Built from the last part forward: tau_1 = t gives
    f_t times each sum of (parts[1:], k - t), and merge(parts[0] - t, rest)
    turns that sum's key into [(coefficient, key), ...].  Zero sums are
    dropped.  merge and factor must be fixed functions: the sums are
    memoized per (merge, parts, k, factor, negative_parts), so equal
    suffixes of parts share them.

    With negative_parts False each slot is bounded by its part, t <= parts[0]
    and k - t <= sum(parts[1:]): the sum runs over the compositions tau of k
    with tau_i <= parts[i], and merge never sees a negative remainder
    parts[0] - t.  negative_parts=True lets every t from 0 to k through, for
    a merge that straightens a negative remainder into nonzero terms.

    factor(t) gives f_t in some commutative ring: as a QPoly (f_single), or
    for example packed into an int at q = 2^B.  factor(0) is that ring's
    one, and merge coefficients multiply into it as ints."""
    if not parts:
        return (((), factor(0)),) if k == 0 else ()
    low, high = 0, k
    if not negative_parts:
        low, high = max(0, k - sum(parts[1:])), min(k, parts[0])
    sums = {}
    for t in range(low, high + 1):
        f_t = factor(t)
        for rest, value in composition_sums(
            merge, parts[1:], k - t, factor, negative_parts=negative_parts
        ):
            for c, key in merge(parts[0] - t, rest):
                term = f_t * value * c
                sums[key] = sums[key] + term if key in sums else term
    return tuple((key, value) for key, value in sums.items() if value)


@cache
def _merge_part(m: int, rest: Parts) -> tuple[tuple[int, Parts], ...]:
    # the merge of the Pieri recursion's f-sums: mu_1 - tau_1 joins the
    # partition the later parts leave; composition_sums bounds tau_1 by mu_1,
    # so the difference is never negative.  The merge coefficient is 1, so
    # the f-sums of L1 norms bound the L1 norms of the f-sums.  Memoized,
    # since the L1 run and every packed width repeat the same merges
    return ((1, sort_desc((m,) + rest)),)


@cache
def f_pair(m: int, n: int) -> QPoly:
    """Two-row value f_{(m,n)} = f_m f_n + 2 sum_{a=1}^{n} (-1)^a f_{m+a} f_{n-a}."""
    if m < 0 or n < 0:
        raise ValueError("f_pair needs nonnegative arguments")
    if n == 0:
        return f_single(m)
    out = f_single(m) * f_single(n)
    for a in range(1, n + 1):
        term = f_single(m + a) * f_single(n - a)
        out = out + term.scale(2 * (-1) ** a)
    return out
