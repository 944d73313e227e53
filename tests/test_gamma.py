import random
from fractions import Fraction
from math import gcd, lcm

from hcchar.gamma import (
    GammaElement,
    apply_exp_partials,
    expand_g_n,
    expand_q_n,
    g_product,
    inner_product,
)
from hcchar.partitions import odd_partitions_of, strict_partitions_of
from hcchar.qpoly import ONE, QPoly, ZERO, round_bracket
from hcchar.vertex import Q_lambda_vacuum
from oracles import (
    Q_lambda_vacuum_terms,
    add_terms,
    apply_exp_partials_by_derivatives,
    apply_exp_partials_terms,
    apply_g_star_pbasis,
    expand_g_n_terms,
    expand_q_n_terms,
    g_product_terms,
    inner_product_by_fractions,
    mul_terms,
    partitions_of,
    principal_specialize,
    scaled,
)


def p_elem(*rho):
    return GammaElement({tuple(rho): ONE})


def test_product_is_partition_union():
    assert (p_elem(3) * p_elem(1)).terms == {(3, 1): ONE}
    one = GammaElement.one()
    a = GammaElement({(5, 1): QPoly((1, 2))})
    assert a * one == a
    doubled = GammaElement({(1,): QPoly((2,))})
    assert (doubled * doubled).terms == {(1, 1): QPoly((4,))}


def test_inner_product_values():
    assert inner_product(p_elem(1), p_elem(1)) == QPoly((Fraction(1, 2),))
    assert inner_product(p_elem(3), p_elem(1, 1, 1)) == ZERO
    assert inner_product(p_elem(3, 3, 1), p_elem(3, 3, 1)) == QPoly((Fraction(9, 4),))


def _rational_element(rng, rhos):
    terms = {}
    for rho in rhos:
        coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(4)]
        terms[rho] = QPoly(coeffs)
    return GammaElement(terms)


def test_inner_product_matches_fraction_reference_on_random_elements():
    rng = random.Random(27)
    odd = [rho for n in range(8) for rho in odd_partitions_of(n)]
    nonintegral = 0
    for _ in range(300):
        a = _rational_element(rng, rng.sample(odd, rng.randint(0, 8)))
        b = _rational_element(rng, rng.sample(odd, rng.randint(0, 8)))
        value = inner_product(a, b)
        assert value == inner_product_by_fractions(a, b) == inner_product(b, a)
        nonintegral += not value.has_integer_coeffs()
    assert nonintegral > 100
    # disjoint supports and the empty element pair to ZERO
    a = _rational_element(rng, [(3,), (1, 1, 1)])
    b = _rational_element(rng, [(5,), (3, 1, 1)])
    for x, y in ((a, b), (a, GammaElement.zero()), (GammaElement.zero(), GammaElement.zero())):
        assert inner_product(x, y) == inner_product_by_fractions(x, y) == ZERO
    assert inner_product(p_elem(1), p_elem(1)).coeffs == (Fraction(1, 2),)
    assert inner_product(GammaElement.one(), GammaElement.one()).coeffs == (1,)


def test_inner_product_matches_fraction_reference_on_every_pairing_to_weight_9():
    # the oracle's pairings on every cell, and sbtr_powersum's on every odd pair
    cells = pairs = 0
    for n in range(10):
        for mu in partitions_of(n):
            for lam in strict_partitions_of(n):
                a, b = g_product(mu), Q_lambda_vacuum(lam)
                assert inner_product(a, b) == inner_product_by_fractions(a, b), (lam, mu)
                cells += 1
        for mu in odd_partitions_of(n):
            for nu in odd_partitions_of(n):
                a, b = g_product(mu), g_product(nu)
                assert inner_product(a, b) == inner_product_by_fractions(a, b), (mu, nu)
                pairs += 1
    assert (cells, pairs) == (532, 161)


def test_warm_inner_product_multiplies_no_qpoly_and_adds_no_fraction(monkeypatch):
    # once both elements hold their integer view, the pairing runs on ints
    pairs = [
        (g_product((5, 3, 1)), Q_lambda_vacuum((6, 2, 1))),
        (g_product((3, 3, 1, 1, 1)), Q_lambda_vacuum((5, 4))),
        (g_product((7, 1, 1)), g_product((3, 3, 3))),
    ]
    expected = [inner_product(a, b) for a, b in pairs]
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for cls, name in ((QPoly, "__mul__"), (Fraction, "__add__"), (Fraction, "__radd__")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    values = [inner_product(a, b) for a, b in pairs]
    monkeypatch.undo()
    assert calls == []
    assert values == expected


def assert_canonical(a: GammaElement) -> None:
    # den is the least positive common denominator of the coefficients, and
    # every kept key has a nonzero int tuple with no trailing zero
    assert type(a.den) is int and a.den > 0
    for values in a.ints.values():
        assert type(values) is tuple and values and values[-1]
        assert all(type(c) is int for c in values)
    assert gcd(a.den, *(c for values in a.ints.values() for c in values)) == 1
    assert a.den == lcm(*(c.denominator for v in a.terms.values() for c in v.coeffs))
    assert GammaElement(a.terms) == a


def test_int_algebra_matches_qpoly_reference_on_random_elements():
    # rational coefficients of both signs, supports that overlap, miss each
    # other or are empty, sums that cancel to zero and non-integral results
    rng = random.Random(28)
    odd = [rho for n in range(7) for rho in odd_partitions_of(n)]
    nonintegral = cancelled = 0
    for _ in range(200):
        a = _rational_element(rng, rng.sample(odd, rng.randint(0, 6)))
        b = _rational_element(rng, rng.sample(odd, rng.randint(0, 6)))
        negated = GammaElement({k: -v for k, v in a.terms.items()})
        cases = [
            (a + b, add_terms(a.terms, b.terms)),
            (a + negated, {}),
            (negated + a + b, b.terms),
            (a * b, mul_terms(a.terms, b.terms)),
            (a * GammaElement.zero(), {}),
            (a * GammaElement.one(), a.terms),
        ]
        cases += [
            (apply_exp_partials(k, a), apply_exp_partials_terms(k, a.terms)) for k in range(7)
        ]
        for value, expected in cases:
            assert value.terms == expected
            assert_canonical(value)
            nonintegral += value.den > 1
        cancelled += (a + negated).is_zero() and not a.is_zero()
    assert nonintegral > 500 and cancelled > 100
    disjoint = _rational_element(rng, [(3,), (1, 1, 1)]) + _rational_element(rng, [(5,)])
    assert sorted(disjoint.terms) == [(1, 1, 1), (3,), (5,)]
    assert GammaElement.zero().den == 1 and GammaElement.zero().ints == {}


def test_expansions_match_qpoly_reference():
    for n in range(-1, 14):
        for element, expected in ((expand_q_n(n), expand_q_n_terms(n)),
                                  (expand_g_n(n), expand_g_n_terms(n))):
            assert element.terms == expected, n
            assert_canonical(element)


def test_oracle_elements_match_qpoly_reference_to_weight_9():
    # every element the oracle pairs on a cell with n <= 9, built in ints,
    # against the same products and translations in QPoly arithmetic
    keys = 0
    for n in range(10):
        for mu in partitions_of(n):
            assert g_product(mu).terms == g_product_terms(mu), mu
            assert_canonical(g_product(mu))
            keys += 1
        for lam in strict_partitions_of(n):
            assert Q_lambda_vacuum(lam).terms == Q_lambda_vacuum_terms(lam), lam
            assert_canonical(Q_lambda_vacuum(lam))
            keys += 1
    assert keys == 97 + 33


def test_cold_oracle_elements_multiply_no_qpoly_and_add_no_fraction(monkeypatch):
    # the deformed generator products and Q_lam.1 are built in ints from the
    # start: cold at weight 10, neither multiplies a QPoly or adds a Fraction
    mu, lam = (3, 3, 1, 1, 1, 1), (5, 4, 1)
    for memo in (g_product, expand_g_n, expand_q_n, Q_lambda_vacuum):
        memo.cache_clear()
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for cls, name in ((QPoly, "__mul__"), (Fraction, "__add__"), (Fraction, "__radd__")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    elements = g_product(mu), Q_lambda_vacuum(lam)
    monkeypatch.undo()
    assert calls == []
    assert [e.terms for e in elements] == [g_product_terms(mu), Q_lambda_vacuum_terms(lam)]


def test_inner_product_symmetric_and_degree_split():
    a = GammaElement({(3,): QPoly((0, 1)), (1,): ONE})
    b = GammaElement({(3,): QPoly((3,)), (1, 1, 1): ONE})
    assert inner_product(a, b) == inner_product(b, a)
    # different homogeneous degrees never pair
    assert inner_product(p_elem(3), p_elem(3, 1, 1)) == ZERO


def test_expand_q_n():
    assert expand_q_n(1).terms == {(1,): QPoly((2,))}
    assert expand_q_n(0) == GammaElement.one()
    q3 = expand_q_n(3)
    assert q3.terms == {
        (3,): QPoly((Fraction(2, 3),)),
        (1, 1, 1): QPoly((Fraction(4, 3),)),
    }


def test_expand_g_n():
    assert expand_g_n(1).terms == {(1,): QPoly((-2, 2))}
    assert expand_g_n(0) == GammaElement.one()


def test_one_variable_values():
    # the one-variable evaluation of the deformed generator (all p_r -> 1)
    # equals 2(t-1)(n)_t, matching the two-variable value of q_n
    for n in range(1, 11):
        total = ZERO
        for _, c in expand_g_n(n).terms.items():
            total = total + c
        assert total == QPoly((-2, 2)) * round_bracket(n), n
        assert principal_specialize(expand_q_n(n)) == QPoly((-2, 2)) * round_bracket(n)


def test_principal_specialize_examples():
    assert principal_specialize(p_elem(1)) == QPoly((-1, 1))
    assert principal_specialize(p_elem(3, 1)) == QPoly((-1, 0, 0, 1)) * QPoly((-1, 1))


def _series_exponential_degree(n: int) -> GammaElement:
    # degree-n coefficient of exp(sum over odd r of 2(t^r - 1)/r p_r z^r),
    # built by multiplying out the truncated exponential series
    grades: list[GammaElement] = [GammaElement.one()] + [
        GammaElement.zero() for _ in range(n)
    ]
    x: list[GammaElement] = [GammaElement.zero() for _ in range(n + 1)]
    for r in range(1, n + 1, 2):
        coeff = QPoly((-1,) + (0,) * (r - 1) + (1,)).scale(Fraction(2, r))
        x[r] = GammaElement({(r,): coeff})
    term = grades[:]
    for j in range(1, n + 1):
        nxt = [GammaElement.zero() for _ in range(n + 1)]
        for d1 in range(n + 1):
            if term[d1].is_zero():
                continue
            for d2 in range(1, n + 1 - d1, 2):
                if not x[d2].is_zero():
                    nxt[d1 + d2] = nxt[d1 + d2] + term[d1] * x[d2]
        term = [scaled(e, Fraction(1, j)) for e in nxt]
        for d in range(n + 1):
            grades[d] = grades[d] + term[d]
        if all(e.is_zero() for e in term):
            break
    return grades[n]


def test_expand_g_n_matches_series():
    for n in range(9):
        assert expand_g_n(n) == _series_exponential_degree(n), n


def test_g_star_basics():
    one = GammaElement.one()
    assert apply_g_star_pbasis(1, one).is_zero()
    assert apply_g_star_pbasis(3, one).is_zero()
    r = apply_g_star_pbasis(1, p_elem(1))
    assert inner_product(r, one) == QPoly((-1, 1))
    assert inner_product(p_elem(1), expand_g_n(1)) == QPoly((-1, 1))


def _minus_one(n: int) -> QPoly:
    return -ONE


def test_exp_partials_match_iterated_derivatives():
    # the translation p_n -> p_n - z^{-n} equals the exponential series of
    # iterated derivatives of weight -1, degree by degree
    checked = 0
    for n in range(12):
        for lam in strict_partitions_of(n):
            a = Q_lambda_vacuum(lam)
            for k in range(n + 2):
                expect = apply_exp_partials_by_derivatives(k, a, _minus_one)
                assert apply_exp_partials(k, a) == expect, (lam, k)
                checked += 1
    assert checked == 553


def _random_element(rng, degree):
    terms = {}
    for rho in odd_partitions_of(degree):
        if rng.random() < 0.7:
            terms[rho] = QPoly([rng.randint(-3, 3) for _ in range(3)])
    return GammaElement(terms)


def test_g_star_adjoint_random():
    rng = random.Random(2024)
    for degree in range(1, 7):
        for k in range(1, degree + 1):
            a = _random_element(rng, degree)
            b = _random_element(rng, degree - k)
            lhs = inner_product(apply_g_star_pbasis(k, a), b)
            rhs = inner_product(a, expand_g_n(k) * b)
            assert lhs == rhs, (degree, k)


def test_q_basis_orthogonality():
    for n in range(9):
        sps = strict_partitions_of(n)
        for a in sps:
            for b in sps:
                expect = QPoly((2 ** len(a),)) if a == b else ZERO
                assert inner_product(Q_lambda_vacuum(a), Q_lambda_vacuum(b)) == expect


def test_g_product_commutes():
    assert g_product((5, 3, 1)) == g_product((1, 3, 5))
