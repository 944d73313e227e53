import random

import pytest

from hcchar.partitions import (
    SkewKind,
    classify_skew,
    strict_partitions_of,
    strict_subpartitions,
)
from hcchar.pfaffian import NotContainedError, skew_Q_principal
from hcchar.qpoly import ONE, QPoly, ZERO
from hcchar.vertex import Q_lambda_vacuum, f_pair, f_single
from oracles import (
    AntisymMatrix,
    OddSizeError,
    antisym_entry,
    antisym_rows,
    build_skew_matrix,
    determinant,
    pfaffian,
    principal_specialize,
)


def random_antisym(rng, size, deg=2, span=3):
    upper = {}
    for i in range(size):
        for j in range(i + 1, size):
            upper[(i, j)] = QPoly([rng.randint(-span, span) for _ in range(deg + 1)])
    return AntisymMatrix(size, upper)


def test_pfaffian_base_cases():
    a = QPoly((1, 2))
    assert pfaffian(AntisymMatrix(2, {(0, 1): a})) == a
    assert pfaffian(AntisymMatrix(0)) == ONE
    with pytest.raises(OddSizeError):
        pfaffian(AntisymMatrix(3))


def test_pfaffian_squares_to_determinant():
    rng = random.Random(11)
    for size in (2, 4, 6):
        for _ in range(8):
            matrix = random_antisym(rng, size)
            assert pfaffian(matrix) ** 2 == determinant(antisym_rows(matrix))


def _rotate(matrix: AntisymMatrix, p: int, q: int) -> AntisymMatrix:
    # rows and columns p..q cycled so the former row/column p lands at q
    order = list(range(matrix.size))
    order[p:q + 1] = order[p + 1:q + 1] + [order[p]]
    upper = {}
    for i in range(matrix.size):
        for j in range(i + 1, matrix.size):
            value = antisym_entry(matrix, order[i], order[j])
            if not value.is_zero():
                upper[(i, j)] = value
    return AntisymMatrix(matrix.size, upper)


def test_pfaffian_rotation_identity():
    rng = random.Random(13)
    for _ in range(6):
        matrix = random_antisym(rng, 6, deg=1)
        for p in range(5):
            for q in range(p + 1, 6):
                rotated = _rotate(matrix, p, q)
                expect = pfaffian(matrix).scale((-1) ** (q - p))
                assert pfaffian(rotated) == expect, (p, q)


def test_build_skew_matrix_examples():
    one_row = build_skew_matrix((5,), ())
    assert one_row.size == 2
    assert antisym_entry(one_row, 0, 1) == f_single(5)
    assert pfaffian(one_row) == f_single(5)

    two_row = build_skew_matrix((4, 2), ())
    assert two_row.size == 2
    assert pfaffian(two_row) == f_pair(4, 2)

    padded = build_skew_matrix((2, 1), (1,))
    assert padded.size == 4
    assert pfaffian(padded) == QPoly((2, -4, 2))

    with pytest.raises(NotContainedError):
        build_skew_matrix((3, 1), (3, 2))
    with pytest.raises(ValueError):
        build_skew_matrix((3, 1), (2, 2))  # inner shape must be strict


def test_skew_principal_examples():
    assert skew_Q_principal((2, 1), (2, 1)) == ONE
    assert skew_Q_principal((), ()) == ONE
    assert skew_Q_principal((3, 1), (3,)) == f_single(1)
    assert skew_Q_principal((4, 2), ()) == f_pair(4, 2)
    assert skew_Q_principal((2, 1), (1,)) == QPoly((2, -4, 2))
    with pytest.raises(NotContainedError, match=r"^mu = \(3, 2\) is not contained in lam = \(3, 1\)$"):
        skew_Q_principal((3, 1), (3, 2))


def test_skew_principal_matches_the_index_set_pfaffian():
    # the sub-Pfaffian recursion, memoized by parts and run on packed ints,
    # against the QPoly Pfaffian of the whole matrix, on every strict pair
    # nu inside lam with |lam| <= 13
    pairs = 0
    for n in range(14):
        for lam in strict_partitions_of(n):
            for m in range(n + 1):
                for nu in strict_subpartitions(lam, m):
                    expected = pfaffian(build_skew_matrix(lam, nu))
                    assert skew_Q_principal(lam, nu) == expected, (lam, nu)
                    pairs += 1
    assert pairs == 1955


def test_skew_principal_matches_power_sum_oracle():
    for n in range(9):
        for lam in strict_partitions_of(n):
            assert skew_Q_principal(lam, ()) == principal_specialize(
                Q_lambda_vacuum(lam)
            ), lam


def test_skew_principal_vanishes_off_gds():
    for n in range(8):
        for lam in strict_partitions_of(n):
            for m in range(n + 1):
                for mu in strict_subpartitions(lam, m):
                    if classify_skew(lam, mu).kind is SkewKind.NOT_GDS:
                        assert skew_Q_principal(lam, mu) == ZERO, (lam, mu)
