import functools
import itertools
import random
from fractions import Fraction

from hcchar.characters import _g_peel, _qbasis_steps, qbasis_expansion
from hcchar.gamma import (
    GammaElement,
    expand_q_n,
    inner_product,
)
from hcchar.partitions import odd_partitions_of, strict_partitions_of, z_lambda
from hcchar.qpoly import ONE, QPoly, ZERO, round_bracket
from hcchar.vertex import (
    Q_lambda_vacuum,
    apply_Q_m,
    f_pair,
    f_single,
    straighten,
)
from oracles import apply_g_star_pbasis, f_coeff, qbasis_expansion_by_composition, scaled


def test_apply_Q_m_examples():
    one = GammaElement.one()
    assert apply_Q_m(1, one) == expand_q_n(1)
    assert apply_Q_m(-3, one).is_zero()
    assert apply_Q_m(0, one) == one


def test_Q_lambda_vacuum_examples():
    assert Q_lambda_vacuum((1,)) == expand_q_n(1)
    assert Q_lambda_vacuum(()) == GammaElement.one()
    q21 = Q_lambda_vacuum((2, 1))
    assert inner_product(q21, q21) == QPoly((4,))


def test_straighten_examples():
    assert straighten((2, 3)) == {(3, 2): -1}
    assert straighten((3, 3)) == {}
    assert straighten((3, -1, 1)) == {(3,): -2}
    assert straighten(()) == {(): 1}
    assert straighten((0, 0)) == {(): 1}
    assert straighten((4, 0, 1)) == {(4, 1): -1}


@functools.cache
def _oracle_word(seq):
    # Q_{seq[0]} ... Q_{seq[-1]} . 1, sharing every suffix between words
    if not seq:
        return GammaElement.one()
    return apply_Q_m(seq[0], _oracle_word(seq[1:]))


def test_straighten_matches_oracle_exhaustively():
    # every operator word with entries in [-3, 6] and length up to 4
    for length in (1, 2, 3, 4):
        for seq in itertools.product(range(-3, 7), repeat=length):
            combo = GammaElement.zero()
            for nu, c in straighten(seq).items():
                combo = combo + scaled(Q_lambda_vacuum(nu), c)
            assert combo == _oracle_word(seq), seq


def test_f_coefficients():
    assert f_coeff((3,)) == QPoly((-2, 2)) * round_bracket(3)
    assert f_coeff((0,)) == ONE
    assert f_coeff((1, 1)) == QPoly((-2, 2)) ** 2
    assert f_single(0) == ONE and f_single(-2) == ZERO
    for tau in ((3, 0, 1, 1), (2, 2, 1, 0, 5), (4, -1, 2), (0, 0, 0)):
        value = f_coeff(tau)
        assert all(f_coeff(p) == value for p in itertools.permutations(tau)), tau
    assert f_coeff((3, 0, 1, 1)) == f_single(3) * f_single(1) ** 2
    assert f_coeff((4, -1, 2)) == ZERO


def test_f_pair():
    assert f_pair(3, 1) == QPoly((0, -4, 8, -4))  # -4t(t-1)^2
    assert f_pair(2, 2) == ZERO
    assert f_pair(5, 0) == f_single(5)
    for m in range(8):
        for n in range(8):
            if (m, n) != (0, 0):
                assert f_pair(m, n) == -f_pair(n, m), (m, n)
            if m > n > 0:
                closed = (QPoly((0, -1)) ** n).scale(2) * f_single(m - n)
                assert f_pair(m, n) == closed, (m, n)
            if m == n > 0:
                assert f_pair(m, n) == ZERO


def test_qbasis_expansion_examples():
    assert qbasis_expansion((1,), 1) == (((), QPoly((-2, 2))),)
    assert qbasis_expansion((5,), 5) == (((), QPoly((-2, 2)) * round_bracket(5)),)
    assert qbasis_expansion((), 3) == ()


def test_qbasis_expansion_matches_composition_by_composition():
    # the part-by-part sums give every coefficient of the sum over single
    # compositions
    steps = 0
    for n in range(13):
        for lam in strict_partitions_of(n):
            for k in range(n + 1):
                grouped = dict(qbasis_expansion(lam, k))
                assert grouped == qbasis_expansion_by_composition(lam, k), (lam, k)
                steps += 1
    assert steps == 693


def test_qbasis_peel_small():
    # lowering (2,1) by 1 then 1 then 1 leaves f_1^3 = (2(q-1))^3 on the
    # vacuum, which the peel keeps over (q-1)^3
    assert _g_peel(_qbasis_steps, (2, 1), (1, 1, 1)) == (8,)


def _lower(element, k):
    # one lowering step on a Q-basis combination {nu: coefficient}
    out = {}
    for lam, coeff in element.items():
        for nu, value in qbasis_expansion(lam, k):
            out[nu] = out.get(nu, ZERO) + coeff * value
    return {nu: value for nu, value in out.items() if not value.is_zero()}


def test_qbasis_lowering_steps_commute():
    # lowering by a then b equals lowering by b then a on every Q_lam.1
    cases = 0
    for n in range(2, 9):
        for lam in strict_partitions_of(n):
            for a in range(1, n):
                for b in range(a + 1, n - a + 1):
                    start = {lam: ONE}
                    a_then_b = _lower(_lower(start, a), b)
                    assert a_then_b == _lower(_lower(start, b), a), (lam, a, b)
                    cases += 1
    assert cases == 159


def _random_gamma_elements(rng, max_degree):
    out = []
    for degree in range(max_degree + 1):
        terms = {}
        for rho in odd_partitions_of(degree):
            terms[rho] = QPoly([rng.randint(-2, 2) for _ in range(2)])
        if terms:
            out.append(GammaElement(terms))
    return out


def test_clifford_anticommutation():
    rng = random.Random(99)
    elements = _random_gamma_elements(rng, 4)
    for m in range(-5, 6):
        for n in range(-5, 6):
            for a in elements:
                lhs = apply_Q_m(m, apply_Q_m(n, a)) + apply_Q_m(n, apply_Q_m(m, a))
                if m == -n:
                    expect = scaled(a, 2 * (-1) ** n)
                else:
                    expect = GammaElement.zero()
                assert lhs == expect, (m, n)


def test_g_star_pbasis_matches_Qbasis():
    # the lowering step computed in the power-sum basis agrees with the
    # straightened Q-basis expansion, for all strict shapes of weight <= 7
    for n in range(8):
        for lam in strict_partitions_of(n):
            for k in range(1, n + 1):
                lhs = apply_g_star_pbasis(k, Q_lambda_vacuum(lam))
                rhs = GammaElement.zero()
                for nu, coeff in qbasis_expansion(lam, k):
                    rhs = rhs + scaled(Q_lambda_vacuum(nu), coeff)
                assert lhs == rhs, (lam, k)


def test_one_row_pairing_with_power_sums():
    # <p_mu, Q_n.1> = 1 for every odd mu of weight n
    for n in range(1, 9):
        qn = Q_lambda_vacuum((n,))
        for mu in odd_partitions_of(n):
            pairing = inner_product(GammaElement({mu: ONE}), qn)
            assert pairing == ONE, (n, mu)


def test_one_row_reflection_expansion():
    # (-1)^n Q_n.1 expands with coefficients (-2)^{l(rho)} / z_rho
    for n in range(1, 9):
        qn = Q_lambda_vacuum((n,))
        for rho in odd_partitions_of(n):
            expect = QPoly((Fraction((-2) ** len(rho), z_lambda(rho)),))
            assert qn.terms[rho].scale((-1) ** n) == expect, (n, rho)


def test_apply_Q_m_operator_adjoint():
    # <Q_m a, b> = (-1)^m <a, Q_{-m} b> on random homogeneous pairs
    rng = random.Random(5)
    for degree in range(5):
        for m in range(-4, 5):
            other = degree + m
            if other < 0:
                continue
            terms_a = {rho: QPoly([rng.randint(-2, 2)]) for rho in odd_partitions_of(degree)}
            terms_b = {rho: QPoly([rng.randint(-2, 2)]) for rho in odd_partitions_of(other)}
            a, b = GammaElement(terms_a), GammaElement(terms_b)
            lhs = inner_product(apply_Q_m(m, a), b)
            rhs = inner_product(a, apply_Q_m(-m, b)).scale((-1) ** m)
            assert lhs == rhs, (degree, m)
