"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured scope.  All comparisons are exact polynomial equalities."""

import random
import time

from hcchar.bitrace import alpha, regular_char, sbtr, sbtr_powersum
from hcchar.characters import (
    METHODS,
    _g_peel_ring,
    _gds_steps,
    char_column,
    char_combinatorial,
    char_hook_mu,
    char_one_row,
    char_oracle,
    char_pfaffian,
    char_pieri,
    char_recursive,
    char_table,
    char_two_row,
    gds_expansion,
    orthogonality_sum,
)
from hcchar.gamma import GammaElement
from hcchar.golden import golden_table
from hcchar.partitions import (
    SkewKind,
    classify_skew,
    epsilon,
    nonzero_length,
    odd_partitions_of,
    strict_partitions_of,
    strict_subpartitions,
    z_lambda,
)
from hcchar.pfaffian import skew_Q_principal
from hcchar.qpoly import QPoly, ZERO, pack_width
from hcchar.vertex import Q_lambda_vacuum, apply_Q_m
from oracles import (
    AntisymMatrix,
    alpha_direct_sum,
    antisym_rows,
    determinant,
    partitions_of,
    pfaffian,
    principal_specialize,
    scaled,
    shifted_syt_count_enumerated,
)


def test_criterion_1_golden_tables():
    start = time.perf_counter()
    for n in range(3, 8):
        assert char_table(n, method="oracle") == golden_table(n), n
    oracle_elapsed = time.perf_counter() - start
    assert oracle_elapsed < 60.0

    start = time.perf_counter()
    for method in ("recursive", "combinatorial"):
        for n in range(3, 8):
            assert char_table(n, method=method) == golden_table(n), (method, n)
    fast_elapsed = time.perf_counter() - start
    assert fast_elapsed < 5.0
    print(
        f"criterion 1 PASS: tables n=3..7 exact "
        f"(oracle {oracle_elapsed:.2f}s, recursive+combinatorial {fast_elapsed:.2f}s)"
    )


def test_criterion_2_worked_examples():
    """Known red: the pin for (6,2,1)/(5,3,1) is kept as written.

    The pinned polynomial is not the misplaced value of another cell:
    neither it nor its negative appears in any odd-mu cell of weight at most
    11, or in any cell (any mu) of weight 9.
    """
    assert char_combinatorial((4, 2), (3, 3)) == QPoly((4, -16, 28, -16, 4))
    assert char_combinatorial((4, 2, 1), (3, 3, 1)) == QPoly((8, -48, 72, -48, 8))
    # pinned benchmark: -8(q-1)(4q^4 - 10q^3 + 10q^2 - 4q - 1)
    pinned = QPoly((-1, -4, 10, -10, 4)).scale(-8) * QPoly((-1, 1))
    value = char_combinatorial((6, 2, 1), (5, 3, 1))
    assert value == pinned, (
        f"pinned {pinned.to_text()} but every method computes {value.to_text()}"
    )
    print("criterion 2 PASS: worked examples exact")


def test_criterion_2_supplement_six_two_one_cross_checked():
    # the value all five independent routes agree on, palindromic and of
    # degree n - l(mu) as the symmetry criterion requires
    expected = QPoly((1, -8, 20, -26, 20, -8, 1)).scale(8)
    values = {name: fn((6, 2, 1), (5, 3, 1)) for name, fn in METHODS.items()}
    assert all(v == expected for v in values.values()), values
    assert expected.is_palindromic() and expected.degree == 6
    print("criterion 2 supplement PASS: (6,2,1)/(5,3,1) five-way value confirmed")


def test_criterion_3_five_way_agreement():
    start = time.perf_counter()
    n_max = 12
    comparisons = 0
    for n in range(0, n_max + 1):
        for mu in odd_partitions_of(n):
            for lam in strict_partitions_of(n):
                values = {name: fn(lam, mu) for name, fn in METHODS.items()}
                assert len(set(values.values())) == 1, (lam, mu, values)
                comparisons += 1
        for mu in partitions_of(n):
            if all(p % 2 for p in mu):
                continue  # odd classes already covered five ways
            for lam in strict_partitions_of(n):
                a = char_oracle(lam, mu)
                assert a == char_recursive(lam, mu) == char_pfaffian(lam, mu), (lam, mu)
                comparisons += 1
    # closed forms on their domains
    for n in range(1, n_max + 1):
        for mu in odd_partitions_of(n):
            assert char_one_row(mu) == char_combinatorial((n,), mu)
            for k in range(n // 2 + 1, n):
                assert char_two_row(k, mu) == char_combinatorial((k, n - k), mu)
            comparisons += 1
        for lam in strict_partitions_of(n):
            assert char_column(lam) == char_combinatorial(lam, (1,) * n)
            for k in range(1, n + 1, 2):
                hook = (k,) + (1,) * (n - k)
                # pieri reads none of the strip weights the hook form shares
                # with the combinatorial route
                value = char_hook_mu(lam, k)
                assert value == char_combinatorial(lam, hook) == char_pieri(lam, hook), (lam, k)
            comparisons += 1
    elapsed = time.perf_counter() - start
    assert comparisons >= 300
    assert elapsed < 600.0
    print(f"criterion 3 PASS: {comparisons} cross-checked cells, n<={n_max}, {elapsed:.1f}s")


def test_criterion_3_five_way_agreement_at_weights_13_and_14():
    # the five routes on every odd cell one and two weights past criterion 3
    start = time.perf_counter()
    cells = 0
    for n in (13, 14):
        for mu in odd_partitions_of(n):
            for lam in strict_partitions_of(n):
                values = {name: fn(lam, mu) for name, fn in METHODS.items()}
                assert len(set(values.values())) == 1, (lam, mu, values)
                cells += 1
    elapsed = time.perf_counter() - start
    assert cells == 808
    print(f"criterion 3 wider PASS: {cells} five-way cells at n = 13, 14, {elapsed:.1f}s")


def test_criterion_3_five_way_agreement_on_samples_at_weights_15_to_18():
    # seeded samples of odd cells past the exhaustive weights: 12 cells at
    # n = 15 and 16 and 8 at n = 17 and 18, each sample holding the cell whose
    # packed value needs the widest width, the one with the largest L1 bound
    # on the combinatorial route (the first in table order on a tie)
    start = time.perf_counter()
    rng = random.Random(2815)
    cells = 0
    for n, size in ((15, 12), (16, 12), (17, 8), (18, 8)):
        odd_cells = [(lam, mu) for mu in odd_partitions_of(n) for lam in strict_partitions_of(n)]
        bounds = [_g_peel_ring(_gds_steps, lam, mu, None) for lam, mu in odd_cells]
        widest = odd_cells[bounds.index(max(bounds))]
        sample = [widest] + rng.sample([c for c in odd_cells if c != widest], size - 1)
        for lam, mu in sample:
            values = {name: fn(lam, mu) for name, fn in METHODS.items()}
            assert len(set(values.values())) == 1, (lam, mu, values)
            cells += 1
        assert pack_width(max(bounds)) == (32 if n == 15 else 48), n
    elapsed = time.perf_counter() - start
    assert cells == 40
    print(f"criterion 3 sampled PASS: {cells} five-way cells at n = 15..18, {elapsed:.1f}s")


def test_criterion_4_orthogonality():
    for n in range(1, 9):
        ops = odd_partitions_of(n)
        for mu in ops:
            for nu in ops:
                lhs = orthogonality_sum(mu, nu)
                mid = sbtr(mu, nu)
                rhs = sbtr_powersum(mu, nu)
                assert lhs == mid == rhs, (mu, nu)
                expected = 2 ** nonzero_length(mu) * z_lambda(mu) if mu == nu else 0
                assert lhs.eval_at(1) == expected, (mu, nu)
    print("criterion 4 PASS: bitrace three ways + q=1 orthogonality, n<=8")


def test_criterion_5_symmetry_and_degree():
    cells = 0
    for n in range(1, 9):
        for mu in odd_partitions_of(n):
            bound = n - nonzero_length(mu)
            for lam in strict_partitions_of(n):
                value = char_combinatorial(lam, mu)
                assert value.is_palindromic(), (lam, mu)
                assert value.degree <= bound, (lam, mu)
                cells += 1
    print(f"criterion 5 PASS: palindromic + degree bound on {cells} cells, n<=8")


def test_criterion_6_column_class():
    for n in range(1, 9):
        for lam in strict_partitions_of(n):
            count = shifted_syt_count_enumerated(lam)
            expected = QPoly((2 ** (n - epsilon(lam)) * count,))
            assert char_oracle(lam, (1,) * n) == expected, lam
            assert char_column(lam) == expected, lam
    print("criterion 6 PASS: column class equals 2^(n-eps) * tableau count, n<=8")


def test_criterion_7_regular_character():
    for n in range(1, 8):
        for mu in odd_partitions_of(n):
            assert regular_char(mu) == sbtr(mu, (1,) * n), mu
    print("criterion 7 PASS: regular character closed form, n<=7")


def test_criterion_8_alpha():
    for n in range(13):
        value = alpha(n)
        assert value == alpha_direct_sum(n), n
        assert value.has_integer_coeffs(), n
    print("criterion 8 PASS: alpha recursion equals direct sum, n<=12")


def test_criterion_9_pfaffian_soundness():
    rng = random.Random(20240811)
    checked = 0
    while checked < 100:
        size = rng.choice((2, 4, 6))
        upper = {}
        for i in range(size):
            for j in range(i + 1, size):
                upper[(i, j)] = QPoly([rng.randint(-3, 3) for _ in range(3)])
        matrix = AntisymMatrix(size, upper)
        assert pfaffian(matrix) ** 2 == determinant(antisym_rows(matrix))
        checked += 1

    for n in range(9):
        for lam in strict_partitions_of(n):
            assert skew_Q_principal(lam, ()) == principal_specialize(
                Q_lambda_vacuum(lam)
            ), lam

    gds_cells = 0
    for n in range(13):
        for lam in strict_partitions_of(n):
            for m in range(n + 1):
                for mu in strict_subpartitions(lam, m):
                    value = skew_Q_principal(lam, mu)
                    if classify_skew(lam, mu).kind is SkewKind.NOT_GDS:
                        assert value == ZERO, (lam, mu)
                    else:
                        gds_cells += 1
        for k in range(n + 1):
            for lam in strict_partitions_of(n):
                for nu, wt_value in gds_expansion(lam, k):
                    assert wt_value == skew_Q_principal(lam, nu), (lam, nu)
    print(
        f"criterion 9 PASS: 100 Pf^2=det checks, oracle triangle to n<=8, "
        f"{gds_cells} strip weights to n<=12"
    )


def test_criterion_10_clifford_relations():
    rng = random.Random(77)
    elements = []
    for degree in range(5):
        terms = {
            rho: QPoly([rng.randint(-2, 2) for _ in range(2)])
            for rho in odd_partitions_of(degree)
        }
        elements.append(GammaElement(terms))
    pairs = 0
    for m in range(-5, 6):
        for n in range(-5, 6):
            for a in elements:
                anti = apply_Q_m(m, apply_Q_m(n, a)) + apply_Q_m(n, apply_Q_m(m, a))
                expected = scaled(a, 2 * (-1) ** n) if m == -n else GammaElement.zero()
                assert anti == expected, (m, n)
            pairs += 1
    print(f"criterion 10 PASS: Clifford anticommutators exact on {pairs} index pairs")
