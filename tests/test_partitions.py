from itertools import product

import pytest
from hypothesis import given, strategies as st

from hcchar.characters import NotGdsError, wt_gds
from hcchar.partitions import (
    SkewKind,
    SkewClassification,
    _strip_rows,
    a_statistic,
    bounded_compositions,
    classify_skew,
    contains,
    delta,
    epsilon,
    is_odd_partition,
    is_partition,
    is_strict_partition,
    nonzero_length,
    odd_partitions_of,
    parse_parts,
    format_parts,
    pieri_strips,
    shifted_syt_count,
    sort_desc,
    strict_partitions_of,
    strict_subpartitions,
    weight,
    z_lambda,
)
from hcchar.qpoly import ONE, QPoly
from oracles import (
    classify_skew_by_cells,
    coarsenings,
    contains_by_scan,
    gds_split_exists,
    is_odd_partition_by_scan,
    is_partition_by_scan,
    is_strict_partition_by_scan,
    nonzero_length_by_scan,
    partitions_of,
    shifted_cells,
    shifted_syt_count_enumerated,
    sort_desc_by_scan,
    strict_partitions_between,
    zt_denominator,
)


def test_enumeration_examples():
    assert strict_partitions_of(3) == ((3,), (2, 1))
    assert partitions_of(0) == ((),)
    assert odd_partitions_of(6) == ((5, 1), (3, 3), (3, 1, 1, 1), (1,) * 6)


def test_enumeration_reverse_lex_and_euler():
    for n in range(21):
        for enum in (partitions_of, strict_partitions_of, odd_partitions_of):
            ps = enum(n)
            assert len(set(ps)) == len(ps)
            assert list(ps) == sorted(ps, reverse=True)
            assert all(weight(p) == n for p in ps)
        assert len(odd_partitions_of(n)) == len(strict_partitions_of(n))


def test_statistics():
    assert z_lambda((3,)) == 3
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((3, 3, 1)) == 18
    assert delta((3, 1)) == 0 and delta((3, 1, 1)) == 1
    assert epsilon((6, 2, 1)) == 1 and epsilon(()) == 0


def _tuples(entries, max_length):
    return [t for length in range(max_length + 1) for t in product(entries, repeat=length)]


def test_predicates_match_their_generator_scans():
    # every tuple of length <= 5 over -1..5, so zeros, negatives, repeats and
    # every order; sort_desc and nonzero_length also take lists and iterators
    for t in _tuples(range(-1, 6), 5):
        assert is_partition(t) == is_partition_by_scan(t), t
        assert is_strict_partition(t) == is_strict_partition_by_scan(t), t
        assert is_odd_partition(t) == is_odd_partition_by_scan(t), t
        expected = sort_desc_by_scan(t)
        assert sort_desc(t) == sort_desc(list(t)) == sort_desc(iter(t)) == expected, t
        assert sort_desc(p for p in t) == expected, t
        assert nonzero_length(t) == nonzero_length(list(t)) == nonzero_length_by_scan(t), t
    # contains on every pair of tuples of length <= 3 over -1..5, and of
    # length <= 5 over -1..1, which reaches the longer-mu branch with zeros
    for entries, max_length in ((range(-1, 6), 3), (range(-1, 2), 5)):
        tuples = _tuples(entries, max_length)
        for lam, mu in product(tuples, repeat=2):
            assert contains(lam, mu) == contains_by_scan(lam, mu), (lam, mu)
    # a longer mu is checked on its first l(lam) parts too, not only on its
    # zero tail
    assert not contains((1,), (5, 0))
    assert not contains((1,), (5,))
    assert contains((5,), (1, 0))


def test_zt_denominator():
    assert zt_denominator((1,)) == QPoly((1, -1))
    assert zt_denominator(()) == ONE
    assert zt_denominator((3, 1)) == QPoly((1, 0, 0, -1)) * QPoly((1, -1))


def test_compositions():
    assert bounded_compositions(2, (2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert bounded_compositions(0, (0, 0, 0)) == [(0, 0, 0)]
    assert len(bounded_compositions(3, (3, 3))) == 4
    assert bounded_compositions(1, (3, 1)) == [(1, 0), (0, 1)]
    assert bounded_compositions(4, (3, 1)) == [(3, 1)]
    assert set(bounded_compositions(2, (3, 3, 1))) == {
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1)
    }


def test_coarsenings():
    assert set(coarsenings((1, 1))) == {(1, 1), (2,)}
    assert set(coarsenings((1, 2, 1))) == {(1, 2, 1), (3, 1), (1, 3), (4,)}
    assert len(coarsenings((1,) * 5)) == 16


@given(st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple))
def test_coarsenings_count(rho):
    out = coarsenings(rho)
    assert len(out) == 2 ** (len(rho) - 1)
    assert len(set(out)) == len(out)
    assert all(sum(tau) == sum(rho) for tau in out)


def test_shifted_cells():
    assert shifted_cells((2, 1)) == frozenset({(1, 1), (1, 2), (2, 2)})
    assert shifted_cells((3,)) == frozenset({(1, 1), (1, 2), (1, 3)})
    assert len(shifted_cells((6, 5, 4, 3, 2))) == 20


def test_classify_double_strip_example():
    cls = classify_skew((6, 5, 4, 3, 2), (5, 4, 2))
    assert cls.kind is SkewKind.DOUBLE_STRIP
    assert cls.c == 3
    assert cls.beta_components == ((1, 1, 1),)
    assert cls.l_jump == 2


def test_classify_large_gds_example():
    cls = classify_skew((15, 14, 10, 8, 7, 6, 5, 3, 1), (13, 11, 8, 6, 5, 4, 2, 1))
    assert cls.kind is SkewKind.GENERALIZED_DOUBLE_STRIP
    assert cls.c == 5
    assert len(cls.beta_components) == 5


def test_classify_edges():
    cls = classify_skew((3, 1), (3, 1))
    assert cls.kind is SkewKind.GENERALIZED_STRIP
    assert cls.c == 0 and cls.beta_components == ()
    assert classify_skew((3, 1), (2, 2)).kind is SkewKind.NOT_GDS
    assert classify_skew((2, 1), ()).kind is SkewKind.DOUBLE_STRIP


def _all_skew_pairs(max_weight):
    for n in range(max_weight + 1):
        for lam in strict_partitions_of(n):
            for m in range(n + 1):
                for mu in strict_subpartitions(lam, m):
                    yield lam, mu


def test_classification_invariants_up_to_8():
    for lam, mu in _all_skew_pairs(8):
        cls = classify_skew(lam, mu)
        skew = shifted_cells(lam) - shifted_cells(mu)
        diag = {}
        for i, j in skew:
            diag[j - i] = diag.get(j - i, 0) + 1
        if cls.kind is SkewKind.NOT_GDS:
            continue
        assert 0 <= cls.l_jump <= 2
        assert all(v <= 2 for v in diag.values())
        if cls.kind is SkewKind.SHIFTED_BORDER_STRIP:
            assert cls.c == 0 and len(cls.beta_components) == 1
            # edge-connected and no 2x2 block
            assert gds_split_exists(lam, mu)
            comp = {min(skew)}
            frontier = [min(skew)]
            while frontier:
                i, j = frontier.pop()
                for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                    if nb in skew and nb not in comp:
                        comp.add(nb)
                        frontier.append(nb)
            assert comp == skew
        if cls.l_jump == 2:
            # both new main-diagonal cells sit on two-cell diagonals
            for row in (len(mu) + 1, len(mu) + 2):
                assert (row, row) in skew
                assert diag[0] == 2


def test_classify_skew_matches_cell_reference_up_to_18():
    # the row arithmetic against the cell sets, flood fill and split search
    pairs = 0
    for lam, mu in _all_skew_pairs(18):
        assert classify_skew(lam, mu) == classify_skew_by_cells(lam, mu), (lam, mu)
        pairs += 1
    assert pairs == 12442


def test_classify_skew_rejects_non_strict_shapes():
    # a shifted diagram needs strict parts, so these shapes lie outside the
    # classification and carry no strip weight
    for lam, mu in [((3, 1), (1, 1)), ((2, 2), ()), ((4, 3, 2, 1), (2, 1, 1, 1))]:
        assert classify_skew(lam, mu).kind is SkewKind.NOT_GDS, (lam, mu)
        with pytest.raises(NotGdsError):
            wt_gds(lam, mu)


def test_strict_skew_core_is_classify_skew_on_strict_contained_pairs():
    # shape enumeration hands the row-arithmetic core candidates that are
    # strict and inside lam by construction; there it must answer as the
    # cell-set reference: None for no strip, else (c, components, l_jump)
    pairs = 0
    for lam, mu in _all_skew_pairs(12):
        cls = classify_skew_by_cells(lam, mu)
        expected = None
        if cls.kind is not SkewKind.NOT_GDS:
            expected = (cls.c, cls.beta_components, cls.l_jump)
        assert _strip_rows(lam, mu) == expected, (lam, mu)
        pairs += 1
    assert pairs == 1311


def test_classify_skew_still_checks_what_its_core_assumes():
    # every pair of partitions of weight at most 7 that is not strict mu
    # inside strict lam, including mu longer than lam or heavier, is NOT_GDS
    checked = 0
    for n in range(8):
        for m in range(n + 2):
            for lam, mu in product(partitions_of(n), partitions_of(m)):
                strict = is_strict_partition(lam) and is_strict_partition(mu)
                if strict and contains(lam, mu):
                    continue
                expected = SkewClassification(SkewKind.NOT_GDS, 0, (), len(lam) - len(mu))
                assert classify_skew(lam, mu) == expected, (lam, mu)
                checked += 1
    assert checked == 1724


def test_diagonal_filter_soundness():
    # shapes with an overfull diagonal are classified out, and they never
    # carry weight: their two-variable skew value vanishes identically
    from hcchar.pfaffian import skew_Q_principal
    from hcchar.qpoly import ZERO

    for lam, mu in _all_skew_pairs(8):
        skew = shifted_cells(lam) - shifted_cells(mu)
        diag = {}
        for i, j in skew:
            diag[j - i] = diag.get(j - i, 0) + 1
        if any(v > 2 for v in diag.values()):
            assert classify_skew(lam, mu).kind is SkewKind.NOT_GDS, (lam, mu)
            assert skew_Q_principal(lam, mu) == ZERO, (lam, mu)


def test_raw_split_alone_does_not_classify():
    # the smallest shape where a raw intermediate split exists even though
    # the main diagonal holds three cells; it carries no weight
    from hcchar.pfaffian import skew_Q_principal
    from hcchar.qpoly import ZERO

    assert gds_split_exists((3, 2, 1), ())
    assert classify_skew((3, 2, 1), ()).kind is SkewKind.NOT_GDS
    assert skew_Q_principal((3, 2, 1), ()) == ZERO


def _is_horizontal_strip(outer, inner):
    if not contains(outer, inner):
        return False
    padded = tuple(inner) + (0,) * (len(outer) - len(inner))
    cols = {}
    for row, (o, i) in enumerate(zip(outer, padded)):
        for col in range(i + 1, o + 1):
            cols[col] = cols.get(col, 0) + 1
    return all(v <= 1 for v in cols.values())


def test_strict_subpartitions_match_the_oracle_in_order():
    for n in range(13):
        for lam in strict_partitions_of(n):
            between = list(strict_partitions_between((), lam))
            for w in range(-1, n + 2):
                expect = [nu for nu in between if weight(nu) == w]
                assert list(strict_subpartitions(lam, w)) == expect, (lam, w)
    # the benchmark tracer steps the result with next()
    assert next(strict_subpartitions((3, 1), 2)) == (2,)
    assert next(strict_subpartitions((3, 1), 5), None) is None


def test_pieri_examples():
    assert pieri_strips((2,), 1) == (((1,), 1),)
    assert pieri_strips((), 0) == (((), 0),)
    assert pieri_strips((3, 1), -1) == ()
    assert pieri_strips((3, 1), 5) == ()
    assert a_statistic((2,), (1,)) == 1


def test_pieri_against_brute_force():
    for n in range(11):
        for kappa in strict_partitions_of(n):
            for r in range(n + 1):
                got = dict(pieri_strips(kappa, r))
                expect = {
                    xi: a_statistic(kappa, xi)
                    for xi in strict_subpartitions(kappa, n - r)
                    if _is_horizontal_strip(kappa, xi)
                }
                assert got == expect, (kappa, r)


def test_shifted_syt_count():
    assert shifted_syt_count((7,)) == 1
    assert shifted_syt_count((2, 1)) == 1
    assert shifted_syt_count((3, 2, 1)) == 2
    for n in range(13):
        for lam in strict_partitions_of(n):
            assert shifted_syt_count(lam) == shifted_syt_count_enumerated(lam), lam


def test_parse_format():
    assert parse_parts("4,2,1") == (4, 2, 1)
    assert parse_parts("-") == ()
    assert format_parts(()) == "-"
    assert format_parts((3, 1)) == "3,1"
    with pytest.raises(ValueError):
        parse_parts("3,x")
    with pytest.raises(ValueError):
        parse_parts("3,0")
