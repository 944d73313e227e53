import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from importlib import import_module
from inspect import signature
from pkgutil import iter_modules

import pytest
from hypothesis import given, settings, strategies as st

import hcchar
from hcchar import characters, cli
from hcchar.bitrace import sbtr, sbtr_powersum
from hcchar.characters import (
    METHODS,
    BadShapeError,
    NotGdsError,
    _finalize,
    _g_peel,
    _g_peel_ring,
    _g_pieri,
    _gds_shapes,
    _gds_steps,
    _hook_ring,
    _pfaffian_steps,
    _qbasis_ring,
    _qbasis_steps,
    _reduced_expansion,
    _reduced_shape_ring,
    _reduced_shape_weight,
    _ring_expansion,
    _sbs_ring,
    _shape,
    _shape_weight,
    _two_row_factor,
    _two_row_tails,
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
    char_value,
    gds_expansion,
    orthogonality_sum,
    pfaffian_expansion,
    qbasis_expansion,
    sbs_principal,
    table_cells,
    wt_gds,
)
from hcchar.gamma import g_product, inner_product
from hcchar.golden import golden_table
from hcchar.partitions import (
    SkewKind,
    _strip_rows,
    classify_skew,
    epsilon,
    is_odd_partition,
    nonzero_length,
    odd_partitions_of,
    strict_partitions_of,
    weight,
)
from hcchar.packed import f_ring, in_ring, unpacked
from hcchar.pfaffian import _pair_ring, _sub_pfaffian_ring, skew_Q_principal
from hcchar.qpoly import (
    NonDivisibleError,
    ONE,
    QPoly,
    ZERO,
    exact_div_qminus1_pow,
    l1_norm_ints,
    pack_ints,
    round_bracket,
)
from hcchar.vertex import Q_lambda_vacuum, _merge_part, composition_sums, f_pair, f_single
from oracles import (
    char_two_row_by_qpoly,
    coarsenings,
    determinant,
    f_coeff,
    g_peel_unreduced,
    g_pieri_qpoly,
    gds_shapes_by_classification,
    orthogonality_sum_by_qpoly,
    partitions_of,
    pieri_f_sums_by_composition,
    qbasis_expansion_by_qpoly,
    sbs_principal_by_coarsenings,
    strict_partitions_between,
    strip_weight_by_classification,
)


def test_wt_gds_examples():
    big = wt_gds((15, 14, 10, 8, 7, 6, 5, 3, 1), (13, 11, 8, 6, 5, 4, 2, 1))
    expected = (QPoly((0, -1)) ** 5).scale(32) * (QPoly((-1, 1)) ** 7) * QPoly((1, -3, 1))
    assert big == expected

    assert wt_gds((4, 2), (4, 1)) == f_single(1)  # one-box skew
    assert wt_gds((6,), ()) == f_single(6)
    assert wt_gds((4, 2), ()) == (QPoly((0, -1)) ** 2).scale(2) * f_single(2)
    assert wt_gds((3, 1), (3, 1)) == ONE
    # shapes are checked before they are classified; a strict pair that is
    # no strip, or nu outside lam, carries no weight
    with pytest.raises(NotGdsError, match=r"^nu must have strictly decreasing positive parts: \(2, 2\)$"):
        wt_gds((3, 1), (2, 2))
    with pytest.raises(NotGdsError, match=r"^\(3, 2, 1\)/\(\) is not a generalized double strip$"):
        wt_gds((3, 2, 1), ())
    with pytest.raises(NotGdsError, match=r"^\(3, 1\)/\(4,\) is not a generalized double strip$"):
        wt_gds((3, 1), (4,))


def test_gds_expansion_classifies_each_candidate_once(monkeypatch):
    # the weight of a kept nu is read from the shape of its strip, memoized
    # per (lam, k): every strict nu of the right weight inside lam goes to
    # the row-arithmetic core once, which checks neither strictness nor
    # containment, and shapes exactly those that pass the diagonal bound
    # nu_i >= lam_{i+2}; a second read, or the peel's read of the same
    # step, calls the core no more
    calls = []

    def counting(lam, nu):
        strip = _strip_rows(lam, nu)
        calls.append((lam, nu, strip is not None))
        return strip

    monkeypatch.setattr("hcchar.characters._strip_rows", counting)
    _gds_shapes.cache_clear()
    _gds_steps.cache_clear()
    for n in range(1, 10):
        for lam in strict_partitions_of(n):
            floor = lam[2:] + (0,) * (len(lam) + 2)
            for k in range(1, n + 1):
                calls.clear()
                expansion = gds_expansion(lam, k)
                candidates = [
                    (lam, nu, all(p >= f for p, f in zip(nu + (0,) * len(lam), floor)))
                    for nu in strict_partitions_between((), lam)
                    if weight(nu) == n - k
                ]
                assert calls == candidates, (lam, k)
                kept = [nu for _, nu, shaped in candidates if shaped]
                assert [nu for nu, _ in expansion] == kept, (lam, k)
                assert gds_expansion(lam, k) == expansion
                assert [nu for nu, _ in _gds_steps(lam, k, None)] == kept
                assert calls == candidates, (lam, k)
    _gds_shapes.cache_clear()
    _gds_steps.cache_clear()


def test_strip_pass_matches_the_filter_and_classify_reference():
    # the one pass over the strict partitions of |lam| - k gives the nu, in
    # order, and the shape keys of the cell-set classification, for every
    # strict lam with |lam| <= 16 and every k; equal shapes share one tuple
    _gds_shapes.cache_clear()
    keys = {}
    entries = 0
    for n in range(17):
        for lam in strict_partitions_of(n):
            for k in range(n + 1):
                shapes = _gds_shapes(lam, k)
                assert shapes == gds_shapes_by_classification(lam, k), (lam, k)
                for _, shape in shapes:
                    assert keys.setdefault(shape, shape) is shape, (lam, k, shape)
                entries += 1
            # a k outside 0 .. |lam| has no strip
            assert _gds_shapes(lam, -1) == _gds_shapes(lam, n + 1) == (), lam
    assert (entries, len(keys)) == (2251, 824)
    _gds_shapes.cache_clear()


def test_strip_weights_match_their_classification():
    # the weights are memoized by shape (c, doubled, sorted components); every
    # skew pair up to weight 12 must still get the weight of its own
    # classification, so a key missing a field of the shape fails here
    for n in range(13):
        for lam in strict_partitions_of(n):
            for nu in strict_partitions_between((), lam):
                cls = classify_skew(lam, nu)
                if cls.kind is SkewKind.NOT_GDS:
                    with pytest.raises(NotGdsError):
                        wt_gds(lam, nu)
                else:
                    assert wt_gds(lam, nu) == strip_weight_by_classification(cls), (lam, nu)
            for k in range(n + 1):
                for nu, value in gds_expansion(lam, k):
                    expected = strip_weight_by_classification(classify_skew(lam, nu))
                    assert value == expected, (lam, nu)


def _sbs_determinant_form(rows):
    # near-triangular determinant with f of consecutive row sums above the
    # diagonal and ones on the subdiagonal
    s = len(rows)
    suffix = [sum(rows[i:]) for i in range(s)] + [0]
    mat = [[f_single(suffix[i] - suffix[j + 1]) for j in range(s)] for i in range(s)]
    return determinant(mat)


def test_sbs_principal():
    assert sbs_principal((4,)) == f_single(4)
    assert sbs_principal((1, 1)) == f_single(1) ** 2 - f_single(2)
    for rows in [(2,), (1, 1), (2, 1), (1, 2), (1, 1, 1), (3, 2, 1), (1, 2, 1)]:
        assert sbs_principal(rows) == _sbs_determinant_form(rows), rows


def test_sbs_principal_matches_coarsening_sum():
    # the recursion on the top block gives the signed coarsening sum for
    # every composition of weight at most 9 (the coarsenings of 1^n)
    checked = 0
    for n in range(10):
        for rows in coarsenings((1,) * n):
            assert sbs_principal(rows) == sbs_principal_by_coarsenings(rows), rows
            checked += 1
    assert checked == 512
    for rows in ((0,), (2, 0, 1), (3, -1)):
        with pytest.raises(ValueError, match="row counts must be positive"):
            sbs_principal(rows)


def test_sbs_divisibility_up_to_8():
    from itertools import product

    for length in range(1, 5):
        for rows in product(range(1, 9), repeat=length):
            if sum(rows) <= 8:
                exact_div_qminus1_pow(sbs_principal(rows), 1)


def test_oracle_examples():
    assert char_oracle((3,), (3,)) == QPoly((2, -2, 2))
    assert char_oracle((2, 1), (3,)) == QPoly((0, -2))
    assert char_oracle((1,), (1,)) == QPoly((2,))


def test_recursive_examples():
    assert char_recursive((2, 1), (1, 1, 1)) == QPoly((4,))
    for n in range(1, 8):
        for mu in odd_partitions_of(n):
            expect = char_one_row(mu)
            assert char_recursive((n,), mu) == expect


def test_pfaffian_examples():
    assert char_pfaffian((4, 2), (3, 3)) == QPoly((4, -16, 28, -16, 4))
    assert char_pfaffian((4, 3), (7,)) == QPoly((0, 0, 0, -2))


def test_combinatorial_examples():
    assert char_combinatorial((4, 2, 1), (3, 3, 1)) == QPoly((8, -48, 72, -48, 8))
    assert char_combinatorial((4, 2, 1), (7,)) == ZERO
    assert char_combinatorial((4, 2), (3, 3)) == QPoly((4, -16, 28, -16, 4))


def test_pieri_full_table_n5():
    table = char_table(5, method="pieri")
    assert table == golden_table(5)
    assert char_pieri((5, 1), (5, 1)) == QPoly((2, -6, 6, -6, 2))
    assert char_pieri((7,), (1,) * 7) == QPoly((128,))


def test_pieri_f_sums_match_composition_by_composition():
    # the part-by-part recursion gives every f-sum of the sum over single
    # compositions, for every class of weight up to 12
    checked = 0
    for n in range(13):
        for mu in partitions_of(n):
            for i in range(n + 1):
                grouped = dict(composition_sums(_merge_part, mu, i, f_single, negative_parts=False))
                assert grouped == pieri_f_sums_by_composition(mu, i), (mu, i)
                checked += 1
    assert checked == 2918


def test_pieri_matches_the_unpacked_reference():
    # the packed recursion against the same recursion in QPoly arithmetic,
    # whose every coefficient stays within the L1 bound, for every class
    for n in range(12):
        for mu in partitions_of(n):
            for lam in strict_partitions_of(n):
                reference = g_pieri_qpoly(lam, mu)
                reduced = exact_div_qminus1_pow(reference, nonzero_length(mu))
                assert char_pieri(lam, mu) == _finalize(reduced.coeffs, lam, mu), (lam, mu)
                bound = _g_pieri(lam, mu, None)
                assert all(abs(c) <= bound for c in reference.coeffs), (lam, mu)


def test_pieri_f_sums_pack_the_f_sums():
    # composition_sums over packed f_t is the packing of the QPoly f-sums, and
    # over L1 norms it bounds their L1 norms
    for n in range(9):
        for mu in odd_partitions_of(n):
            for i in range(n + 1):
                sums = composition_sums(_merge_part, mu, i, f_single, negative_parts=False)
                for bits in (16, 48):
                    packed = {rest: pack_ints(f.coeffs, bits) for rest, f in sums}
                    over = composition_sums(_merge_part, mu, i, f_ring(bits), negative_parts=False)
                    assert dict(over) == packed
                l1 = dict(composition_sums(_merge_part, mu, i, f_ring(None), negative_parts=False))
                assert all(l1_norm_ints(f.coeffs) <= l1[rest] for rest, f in sums), (mu, i)


# (5, 3, 1) at (1^9): Pieri's G has the coefficient 2709504 = 0x295800, 23
# bits; the peel's G / (q-1)^9 is the constant 21504, 15 bits, and so is its
# L1 bound
WIDE_CELL = ((5, 3, 1), (1,) * 9)
PACKED_ROUTES = (("pieri", char_pieri), ("combinatorial", char_combinatorial))


# every memo of a value built on the packed evaluator: the L1 runs memoize
# their bounds, and the packed runs their values; the strip weights, the
# Pfaffians and the Q-basis and Pfaffian tables beneath the peel run on the
# same evaluator as the peel and Pieri
PACKED_MEMOS = (
    _g_pieri,
    f_ring,
    _g_peel_ring,
    _ring_expansion,
    _reduced_expansion,
    _gds_steps,
    _reduced_shape_ring,
    _reduced_shape_weight,
    _sbs_ring,
    _sub_pfaffian_ring,
    _pair_ring,
    _two_row_tails,
)


@pytest.fixture
def fresh_packed_memos():
    # a memo hit would skip a patched width or norm, and a patched one must
    # not leak out
    for memo in PACKED_MEMOS:
        memo.cache_clear()
    yield
    for memo in PACKED_MEMOS:
        memo.cache_clear()


def test_packed_memos_hold_every_memo_with_a_width():
    # every memoized function of the library that takes a width bits holds
    # packed values or L1 bounds, so fresh_packed_memos must clear it
    names = [info.name for info in iter_modules(hcchar.__path__) if info.name != "__main__"]
    memos = {
        value
        for name in names
        for value in vars(import_module(f"hcchar.{name}")).values()
        if hasattr(value, "cache_clear") and "bits" in signature(value.__wrapped__).parameters
    }
    missing = sorted(memo.__wrapped__.__name__ for memo in memos - set(PACKED_MEMOS))
    assert memos and not missing, missing


def _warm_strip_weights(lam, mu):
    # build every reduced strip weight the combinatorial peel of (lam, mu)
    # reads, so that a patched width or norm fails in the peel, not in a
    # strip weight, then drop the f_t and border-strip values that building
    # them left in the ring memos; returns the reduced strip-weight memo's
    # miss count, which must not move
    for nu in strict_partitions_between((), lam):
        for k in set(mu):
            if k <= weight(nu):
                for _, shape in _gds_shapes(nu, k):
                    _reduced_shape_weight(shape)
    f_ring.cache_clear()
    _sbs_ring.cache_clear()
    return _reduced_shape_weight.cache_info().misses


def test_pieri_refuses_a_width_below_its_bound(monkeypatch, capsys, fresh_packed_memos):
    assert max(g_pieri_qpoly(*WIDE_CELL).coeffs) == 2709504
    assert _g_peel_ring(_gds_steps, *WIDE_CELL, None) == 21504
    misses = _warm_strip_weights(*WIDE_CELL)
    monkeypatch.setattr("hcchar.packed.pack_width", lambda bound: 16)
    for method, route in PACKED_ROUTES:
        with pytest.raises(OverflowError, match="16 bits cannot hold"):
            route(*WIDE_CELL)
        # the command line reports it as an internal error, with no value
        argv = ["char", "--lambda", "5,3,1", "--mu", "1,1,1,1,1,1,1,1,1", "--method", method]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (cli.EXIT_INTERNAL, ""), method
        assert err.startswith("internal error: 16 bits cannot hold coefficients up to "), method
    assert _reduced_shape_weight.cache_info().misses == misses


def test_pieri_refuses_a_coefficient_above_its_bound(monkeypatch, fresh_packed_memos):
    # an L1 run that under-counts: every f_t, and every reduced strip weight,
    # counted as norm 1, since both enter the run through l1_norm_ints
    misses = _warm_strip_weights(*WIDE_CELL)
    monkeypatch.setattr("hcchar.packed.l1_norm_ints", lambda coeffs: 1)
    for method, route in PACKED_ROUTES:
        with pytest.raises(OverflowError, match="exceeds its bound"):
            route(*WIDE_CELL)
    assert _reduced_shape_weight.cache_info().misses == misses


# (1, 3, 2, 2) has border-strip coefficients up to 356 under an L1 bound of
# 6096; the shape multiplies in (2, 1), 2 and (-q)^3.  The Pfaffian of
# (7, 4, 2, 1)/(3, 1) has coefficients up to 32 under an L1 bound of 5024,
# and the Q-basis step from (6, 4, 2, 1) by 5 up to 52 under 1056; the
# tables are read, as the peel reads them, through _reduced_expansion
STRIP_ROWS = (1, 3, 2, 2)
PFAFFIAN_STEP = (pfaffian_expansion, (7, 4, 2, 1), 10)
QBASIS_STEP = (qbasis_expansion, (6, 4, 2, 1), 5)
STRIP_SHAPE = (3, True, ((2, 1), STRIP_ROWS))
STRIP_CALLS = (
    ("sbs_principal", sbs_principal, (STRIP_ROWS,)),
    ("_shape_weight", _shape_weight, STRIP_SHAPE),
    ("_reduced_shape_weight", _reduced_shape_weight, (_shape(3, STRIP_SHAPE[2], 2),)),
    ("pfaffian_expansion", _reduced_expansion, PFAFFIAN_STEP),
    ("qbasis_expansion", _reduced_expansion, QBASIS_STEP),
)


@pytest.mark.parametrize(
    "patch, match",
    [
        (("pack_width", lambda bound: bound.bit_length() + 1), "bits cannot hold"),
        (("l1_norm_ints", lambda coeffs: 1), "exceeds its bound"),
    ],
    ids=["width-one-bit-short", "l1-under-counts"],
)
def test_strip_weights_refuse_a_width_or_bound_too_small(
    monkeypatch, fresh_packed_memos, patch, match
):
    expected = {name: call(*args) for name, call, args in STRIP_CALLS}
    assert max(map(abs, expected["sbs_principal"].coeffs)) == 356
    assert _sbs_ring(STRIP_ROWS, None) == 6096
    pfaffian = skew_Q_principal((7, 4, 2, 1), (3, 1))
    assert (max(map(abs, pfaffian.coeffs)), _sub_pfaffian_ring((7, 4, 2, 1), (1, 3), None)) == (
        32,
        5024,
    )
    qbasis = qbasis_expansion(*QBASIS_STEP[1:])
    assert max(max(map(abs, value.coeffs)) for _, value in qbasis) == 52
    assert max(value for _, value in _qbasis_ring(*QBASIS_STEP[1:], None)) == 1056
    for memo in PACKED_MEMOS:
        memo.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(f"hcchar.packed.{patch[0]}", patch[1])
        with pytest.raises(OverflowError, match=match):
            skew_Q_principal((7, 4, 2, 1), (3, 1))
        for name, call, args in STRIP_CALLS:
            with pytest.raises(OverflowError, match=match):
                call(*args)
        # nothing is returned, so nothing is memoized
        for memo in (_reduced_shape_weight, _reduced_expansion):
            assert memo.cache_info().currsize == 0, memo
    # drop what the patched runs memoized beneath the values that raised
    for memo in PACKED_MEMOS:
        memo.cache_clear()
    assert {name: call(*args) for name, call, args in STRIP_CALLS} == expected


def test_qbasis_table_matches_the_qpoly_sums():
    # the packed Q-basis step, unpacked entry by entry, against the same
    # part-by-part sums in QPoly arithmetic, as tuples, so in the same order,
    # for every strict lam with |lam| <= 12 and every k
    steps = 0
    for n in range(13):
        for lam in strict_partitions_of(n):
            for k in range(n + 1):
                assert qbasis_expansion(lam, k) == qbasis_expansion_by_qpoly(lam, k), (lam, k)
                steps += 1
    assert steps == 693


def test_sbs_l1_run_bounds_the_coarsening_sum():
    # the L1 run of the top-block recursion bounds the L1 norm, and so every
    # coefficient, of the border-strip value, for every composition of weight
    # at most 10
    checked = 0
    for n in range(11):
        for rows in coarsenings((1,) * n):
            bound = _sbs_ring(rows, None)
            reference = sbs_principal_by_coarsenings(rows)
            assert all(abs(c) <= bound for c in reference.coeffs), rows
            assert l1_norm_ints(reference.coeffs) <= bound, rows
            checked += 1
    assert checked == 1024


def test_strip_weights_multiply_no_qpoly(monkeypatch):
    # the combinatorial route runs its strip weights and its peel on packed
    # ints: from cold memos, a weight-12 table multiplies QPolys only where
    # f_single builds an f_t
    memos = (
        f_single,
        f_ring,
        _sbs_ring,
        _gds_shapes,
        _reduced_shape_weight,
        _reduced_shape_ring,
        _gds_steps,
        _g_peel_ring,
    )
    for memo in memos:
        memo.cache_clear()
    callers = []
    original = QPoly.__mul__

    def counting(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counting)
    table = char_table(12)
    monkeypatch.undo()
    assert len(table) == 15 * 15
    assert callers and set(callers) == {"f_single"}
    assert len(callers) <= f_single.cache_info().currsize


def test_pfaffian_and_qbasis_tables_multiply_no_qpoly(monkeypatch, fresh_packed_memos):
    # the Pfaffian and Q-basis tables run on packed ints: from cold memos, a
    # weight-12 table of each route multiplies QPolys only where f_single
    # builds an f_t and f_pair a row-row entry
    for memo in (f_single, f_pair, composition_sums):
        memo.cache_clear()
    callers = []
    original = QPoly.__mul__

    def counting(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(self, other)

    monkeypatch.setattr(QPoly, "__mul__", counting)
    tables = [char_table(12, method) for method in ("pfaffian", "recursive")]
    monkeypatch.undo()
    assert tables == [char_table(12)] * 2
    assert callers and set(callers) == {"f_single", "f_pair"}


def test_peel_and_pieri_tables_build_no_qpoly_in_the_division(monkeypatch, fresh_packed_memos):
    # the peel's tables and Pieri take out their factors q - 1 on int
    # coefficients: from cold memos, a weight-12 table of each route builds
    # no QPoly where a QPoly is divided by a power of q - 1
    for memo in (f_single, f_pair, composition_sums):
        memo.cache_clear()
    callers = Counter()
    original = QPoly.__init__

    def counting(self, coeffs=()):
        callers[sys._getframe(1).f_code.co_name] += 1
        original(self, coeffs)

    monkeypatch.setattr(QPoly, "__init__", counting)
    tables = [char_table(12, method) for method in ("pfaffian", "recursive", "pieri")]
    monkeypatch.undo()
    assert tables == [char_table(12)] * 3
    assert callers and "exact_div_qminus1_pow" not in callers, callers


def test_pieri_slots_are_bounded_by_their_parts(fresh_packed_memos):
    # every slot of an f-sum at most its part of mu: (45) at (3^15) needs
    # one sum per suffix of mu and width, 2 l(mu) + 2 in all, where slots
    # running up to k memoize 1382
    composition_sums.cache_clear()
    mu = (3,) * 15
    assert char_pieri((45,), mu) == char_one_row(mu)
    assert composition_sums.cache_info().currsize <= 2 * len(mu) + 2


def test_pieri_takes_every_class():
    # every (strict lam, mu) cell whose mu has an even part, up to weight 10;
    # the oracle up to weight 8
    checked = 0
    for n in range(11):
        for mu in partitions_of(n):
            if is_odd_partition(mu):
                continue
            for lam in strict_partitions_of(n):
                value = char_pieri(lam, mu)
                assert value == char_recursive(lam, mu) == char_pfaffian(lam, mu), (lam, mu)
                if n <= 8:
                    assert value == char_oracle(lam, mu), (lam, mu)
                checked += 1
    assert checked == 691


@st.composite
def _large_cells(draw):
    n = draw(st.integers(13, 18))
    lam = draw(st.sampled_from(strict_partitions_of(n)))
    mu = draw(st.sampled_from(partitions_of(n)))
    return lam, mu


@settings(max_examples=12, deadline=None)
@given(_large_cells())
def test_pieri_agrees_on_random_large_cells(cell):
    lam, mu = cell
    value = char_pieri(lam, mu)
    assert value == char_recursive(lam, mu), cell
    if is_odd_partition(mu):
        assert value == char_combinatorial(lam, mu), cell


def test_two_row_series_matches_definitional_sums():
    # coefficients of the two-row generating function equal the direct sums
    # of split f-products over bounded compositions
    from hcchar.partitions import bounded_compositions

    for n in range(1, 8):
        for mu in odd_partitions_of(n):
            direct = [ZERO] * (n + 1)
            for i in range(n + 1):
                for tau in bounded_compositions(i, mu):
                    rest = tuple(m - t for m, t in zip(mu, tau))
                    direct[i] = direct[i] + f_coeff(tau) * f_coeff(rest)
            for k in range(n // 2 + 1, n):
                lhs = ZERO
                for i in range(k, n + 1):
                    lhs = lhs + direct[i].scale((-1) ** (i - k))
                for i in range(k + 1, n + 1):
                    lhs = lhs + direct[i].scale((-1) ** (i - k))
                expect = exact_div_qminus1_pow(lhs, nonzero_length(mu)).scale(Fraction(1, 2))
                assert char_two_row(k, mu) == expect, (k, mu)


def test_two_row_form_matches_qpoly_reference_to_weight_16():
    # the tails built in ints, once per width, against the same tails in
    # QPoly arithmetic, on every two-row cell with n <= 16
    cells = 0
    for n in range(17):
        for mu in odd_partitions_of(n):
            for k in range(n // 2 + 1, n):
                assert char_two_row(k, mu) == char_two_row_by_qpoly(k, mu), (k, mu)
                cells += 1
    assert cells == 911


def test_orthogonality_sum_matches_qpoly_reference():
    # every ordered odd pair with n <= 10, and every pair with a non-odd
    # class with n <= 7, against the sum of QPoly products
    pairs = 0
    for n in range(11):
        classes = partitions_of(n) if n <= 7 else odd_partitions_of(n)
        for mu in classes:
            for nu in classes:
                assert orthogonality_sum(mu, nu) == orthogonality_sum_by_qpoly(mu, nu), (mu, nu)
                pairs += 1
    assert pairs == sum(len(partitions_of(n)) ** 2 for n in range(8)) + 6**2 + 8**2 + 10**2


def test_character_pairing_and_two_row_form_multiply_no_qpoly(monkeypatch):
    # both run on ints through _unpacked: with the f_t and the two-row
    # factors built, a cold pairing and a cold two-row value neither multiply
    # a QPoly nor add a Fraction
    mu, nu = (3, 3, 1, 1, 1, 1), (5, 3, 1, 1)
    for n in range(11):
        f_single(n)
        _two_row_factor(n)
    memos = (
        f_ring,
        _sbs_ring,
        _gds_shapes,
        _reduced_shape_weight,
        _reduced_shape_ring,
        _gds_steps,
        _g_peel_ring,
        _two_row_tails,
    )
    for memo in memos:
        memo.cache_clear()
    calls = []

    def counting(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for cls, name in ((QPoly, "__mul__"), (Fraction, "__add__"), (Fraction, "__radd__")):
        monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    values = orthogonality_sum(mu, nu), char_two_row(7, mu)
    monkeypatch.undo()
    assert calls == []
    assert values == (orthogonality_sum_by_qpoly(mu, nu), char_two_row_by_qpoly(7, mu))


def _int_horner(f: QPoly, x: int) -> int:
    # evaluation in plain ints, apart from QPoly arithmetic
    acc = 0
    for c in reversed(f.coeffs):
        assert c.denominator == 1, f
        acc = acc * x + c.numerator
    return acc


def test_normalization_at_integer_points():
    # the peel's G / (q-1)^l(mu) = 2^eps(lam) chi for all three tables, and
    # the oracle's and Pieri's full G = 2^eps(lam) (q-1)^l(mu) chi, checked at
    # integer points q0 where q0 - 1 is not a unit; five-way agreement sees
    # the peel's per-step division by q - 1 only against the one division of
    # the oracle and Pieri, and cannot see the 2^eps(lam) division they share
    steps = (_qbasis_steps, _pfaffian_steps, _gds_steps)
    for n in range(1, 13):
        for mu in odd_partitions_of(n):
            for lam in strict_partitions_of(n):
                chi = char_combinatorial(lam, mu)
                peeled = [QPoly(_g_peel(route_steps, lam, mu)) for route_steps in steps]
                full = [
                    inner_product(g_product(mu), Q_lambda_vacuum(lam)),
                    QPoly(unpacked(partial(_g_pieri, lam, mu))),
                ]
                for q0 in (3, -2, 2**61 - 1):
                    expect = 2 ** epsilon(lam) * _int_horner(chi, q0)
                    for g_value in peeled:
                        assert _int_horner(g_value, q0) == expect, (lam, mu, q0)
                    expect *= (q0 - 1) ** len(mu)
                    for g_value in full:
                        assert _int_horner(g_value, q0) == expect, (lam, mu, q0)


def test_peel_is_the_unreduced_peel_over_its_power_of_q_minus_1():
    # (q-1)^l(mu) times the reduced peel is the peel over the full weights,
    # on every class each table takes
    for n in range(11):
        for mu in partitions_of(n):
            tables = ((qbasis_expansion, _qbasis_steps), (pfaffian_expansion, _pfaffian_steps))
            if is_odd_partition(mu):
                tables += ((gds_expansion, _gds_steps),)
            for lam in strict_partitions_of(n):
                for expansion, steps in tables:
                    reduced = QPoly(_g_peel(steps, lam, mu))
                    reference = g_peel_unreduced(expansion, lam, mu)
                    assert reduced * QPoly((-1, 1)) ** len(mu) == reference, (expansion, lam, mu)


def test_a_step_not_divisible_by_q_minus_1_names_its_cell():
    def fake(lam, k):
        return ((lam[1:], ONE),)

    with pytest.raises(NonDivisibleError) as exc:
        _g_peel(partial(_ring_expansion, fake), (2, 1), (2, 1))
    assert str(exc.value) == (
        "lowering step lam = (2, 1), k = 2, nu = (1,): weight 1 is not divisible by q - 1"
    )


def test_normalization_errors_name_the_value(monkeypatch):
    with pytest.raises(NonDivisibleError) as exc:
        _finalize(ONE.coeffs, (2, 1), (1, 1, 1))
    assert str(exc.value) == "character for (2, 1), (1, 1, 1) is not integral: 1/2"

    # 1/2 + 1 over the strict partitions (3) and (2, 1)
    monkeypatch.setattr("hcchar.characters.char_value", lambda lam, mu: ONE)
    with pytest.raises(NonDivisibleError, match="^orthogonality sum not integral$"):
        orthogonality_sum((3,), (1, 1, 1))


def test_closed_forms():
    assert char_one_row((3, 1)) == round_bracket(3).scale(4)
    assert char_one_row((1,) * 4) == QPoly((16,))
    assert char_one_row((5, 1, 1)) == round_bracket(5).scale(8)

    assert char_two_row(4, (3, 3)) == QPoly((4, -16, 28, -16, 4))
    assert char_two_row(5, (7,)) == QPoly((0, 0, 2, -2, 2))
    assert char_two_row(3, (1,) * 5) == QPoly((32,))
    with pytest.raises(BadShapeError):
        char_two_row(2, (3, 1))  # equal rows are not a strict shape
    with pytest.raises(BadShapeError):
        char_two_row(4, (3, 1))  # single row

    assert char_column((3, 2, 1)) == QPoly((64,))
    assert char_column((5,)) == QPoly((32,))
    assert char_column((5, 2)) == QPoly((576,))

    assert char_hook_mu((5, 1), 3) == QPoly((24, -40, 24))
    assert char_hook_mu((6, 1), 3) == QPoly((64, -96, 64))
    for n in range(1, 8):
        for lam in strict_partitions_of(n):
            assert char_hook_mu(lam, 1) == char_column(lam), lam


def test_domain_errors():
    with pytest.raises(ValueError):
        char_oracle((3, 1), (3,))  # weights differ
    with pytest.raises(ValueError):
        char_oracle((2, 2), (3, 1))  # not strict
    with pytest.raises(ValueError):
        char_combinatorial((3, 1), (2, 2))  # even parts
    # the Pieri recursion takes every class, even parts included
    assert char_pieri((3, 1), (2, 2)) == char_recursive((3, 1), (2, 2)) == QPoly((4, -8, 4))
    with pytest.raises(ValueError):
        char_value((3,), (3,), method="nonsense")


def test_char_value_auto():
    assert char_value((4, 2), (3, 3)) == QPoly((4, -16, 28, -16, 4))
    assert char_value((2,), (2,)) == QPoly((-2, 2))  # non-odd classes still work


def test_table_matches_golden():
    assert char_table(3) == golden_table(3)
    table = char_table(6)
    for value in table.values():
        assert value.is_palindromic()


def test_stored_values_have_int_coefficients():
    # every value is in Z[q], and QPoly keeps an integral coefficient as an
    # int; a Fraction here means some path stores a rational form again
    def assert_ints(value, what):
        kinds = {type(c).__name__ for c in value.coeffs}
        assert kinds <= {"int"}, f"{what} = {value.to_text()} holds {sorted(kinds)}"

    for method in ["auto", *METHODS]:
        for cell, value in char_table(9, method=method).items():
            assert_ints(value, f"char_table(9, {method!r})[{cell}]")
    for n in range(7):
        for lam in strict_partitions_of(n):
            for mu in partitions_of(n):
                assert_ints(char_oracle(lam, mu), f"char_oracle{lam, mu}")
    for n in range(8):
        for mu in odd_partitions_of(n):
            for nu in odd_partitions_of(n):
                assert_ints(sbtr(mu, nu), f"sbtr{mu, nu}")
                assert_ints(sbtr_powersum(mu, nu), f"sbtr_powersum{mu, nu}")


def test_table_cells_run_rows_outside_columns_inside():
    assert list(table_cells(4)) == [
        ((4,), (3, 1)),
        ((3, 1), (3, 1)),
        ((4,), (1, 1, 1, 1)),
        ((3, 1), (1, 1, 1, 1)),
    ]
    assert list(table_cells(0)) == [((), ())]
    assert list(char_table(6)) == list(table_cells(6))
    with pytest.raises(ValueError, match="nonnegative"):
        char_table(-1)
    # the weight is checked before the method, the method before any cell
    with pytest.raises(ValueError, match="nonnegative"):
        char_table(-1, "bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        char_table(0, "bogus")


def test_char_table_is_char_value_cell_by_cell():
    # char_table hands its own cells to the route cores unvalidated;
    # char_value validates each one and must give the same values, in order
    for method in ["auto", *METHODS]:
        for n in range(11):
            expected = [(cell, char_value(*cell, method=method)) for cell in table_cells(n)]
            assert list(char_table(n, method).items()) == expected, (method, n)


def test_inputs_are_validated_once(monkeypatch, fresh_packed_memos):
    # a table validates none of its cells, and one auto value validates its
    # input once and tests the parity of mu's parts once, not whether mu is a
    # partition again
    calls = Counter()

    def counting(name):
        original = getattr(characters, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(characters, name, wrapper)

    counting("_validate")
    counting("is_odd_partition")
    counting("_all_odd")
    for method in ["auto", *METHODS]:
        char_table(12, method)
        assert calls["_validate"] == 0, method
    calls.clear()
    char_value((5, 4, 2, 1), (1, 3, 3, 5))
    assert calls == {"_validate": 1, "_all_odd": 1}


def test_wt_gds_matches_pfaffian_small():
    for n in range(7):
        for lam in strict_partitions_of(n):
            for k in range(n + 1):
                from hcchar.characters import gds_expansion

                for nu, value in gds_expansion(lam, k):
                    assert value == skew_Q_principal(lam, nu), (lam, nu)


def test_degree_bound():
    for n in range(1, 8):
        for mu in odd_partitions_of(n):
            for lam in strict_partitions_of(n):
                value = char_value(lam, mu)
                assert value.degree <= n - nonzero_length(mu), (lam, mu)


def test_peel_memo_is_keyed_by_its_expansion():
    # the three peel routes share the _g_peel_ring memo, and the Pfaffian and
    # Q-basis routes the _reduced_expansion and _ring_expansion memos beneath
    # it; were a route's lowering steps, or its table, missing from their
    # keys, each route would be handed another's cached values and five-way
    # agreement could not notice
    lam, mu = (4, 2, 1), (3, 3, 1)
    value = _g_peel(_gds_steps, lam, mu)
    assert value

    def doubled_steps(lam, k, bits):
        return tuple((nu, 2 * w) for nu, w in _gds_steps(lam, k, bits))

    assert _g_peel(doubled_steps, lam, mu) == tuple(c * 2 ** len(mu) for c in value)
    assert _g_peel(_pfaffian_steps, lam, mu) == _g_peel(_qbasis_steps, lam, mu) == value
    # the same for the memo of reduced lowering steps beneath the peel
    reduced = _reduced_expansion(pfaffian_expansion, lam, mu[0])
    assert reduced

    def doubled(lam, k):
        return tuple((nu, w.scale(2)) for nu, w in pfaffian_expansion(lam, k))

    assert _reduced_expansion(doubled, lam, mu[0]) == tuple(
        (nu, tuple(2 * c for c in w)) for nu, w in reduced
    )
    # and for the packed layer, both its L1 bound and its packed value
    for bits in (None, 32):
        packed = _g_peel_ring(_gds_steps, lam, mu, bits)
        if bits is None:
            assert packed >= l1_norm_ints(value)
        else:
            assert packed == pack_ints(value, bits)
        assert _g_peel_ring(doubled_steps, lam, mu, bits) == packed * 2 ** len(mu), bits
        ring = _ring_expansion(pfaffian_expansion, lam, mu[0], bits)
        assert _ring_expansion(doubled, lam, mu[0], bits) == tuple((nu, 2 * w) for nu, w in ring)


def test_strip_steps_read_the_reduced_weight_of_each_shape():
    # the combinatorial route's lowering steps, read per shape, are the
    # entries of gds_expansion with one factor q - 1 divided out and mapped
    # into each run, for every strict lam with |lam| <= 14, every odd k and
    # the L1 run and three widths
    checked = 0
    for n in range(15):
        for lam in strict_partitions_of(n):
            for k in range(1, n + 1, 2):
                expansion = gds_expansion(lam, k)
                for bits in (None, 16, 32, 48):
                    expected = tuple(
                        (nu, in_ring(exact_div_qminus1_pow(w, 1).coeffs, bits))
                        for nu, w in expansion
                    )
                    assert _gds_steps(lam, k, bits) == expected, (lam, k, bits)
                checked += 1
    assert checked == 607


def test_a_strip_weight_not_divisible_by_q_minus_1_names_its_first_reader(
    monkeypatch, fresh_packed_memos
):
    # a shape weight that does not divide raises, naming the first (lam, k,
    # nu) whose step reads it, on the peel and on the hook form, and leaves
    # no reduced weight, step or peel value memoized
    lam, mu = (4, 2, 1), (3, 3, 1)
    nu = gds_expansion(lam, 3)[0][0]
    message = f"lowering step lam = {lam}, k = 3, nu = {nu}: weight 1 is not divisible by q - 1"
    monkeypatch.setattr("hcchar.characters._shape_weight", lambda c, doubled, components: ONE)
    for route in (partial(char_combinatorial, lam, mu), partial(char_hook_mu, lam, 3)):
        with pytest.raises(NonDivisibleError) as exc:
            route()
        assert str(exc.value) == message
        for memo in (_reduced_shape_weight, _reduced_shape_ring, _gds_steps, _g_peel_ring):
            assert memo.cache_info().currsize == 0, memo
    # a weight that divides into a non-integral quotient is refused by
    # in_ring under its own text, not named a step that does not divide
    half = QPoly((Fraction(-1, 2), Fraction(1, 2)))
    monkeypatch.setattr("hcchar.characters._shape_weight", lambda c, doubled, components: half)
    with pytest.raises(NonDivisibleError) as exc:
        char_combinatorial((2, 1), (1, 1, 1))
    assert str(exc.value) == "(Fraction(1, 2),) has a non-integral coefficient"


def test_every_route_returns_int_coefficients_with_no_trailing_zero():
    # _finalize builds each value through the trusted int constructor, which
    # neither converts nor trims; every route's values up to weight 10, and
    # the hook form's, must hold plain ints with a nonzero leading one
    def canonical(value):
        return all(type(c) is int for c in value.coeffs) and (
            not value.coeffs or value.coeffs[-1] != 0
        )

    for n in range(11):
        for method in ["auto", *METHODS]:
            for cell, value in char_table(n, method).items():
                assert canonical(value), (method, cell)
        for lam in strict_partitions_of(n):
            for k in range(1, n + 1, 2):
                assert canonical(char_hook_mu(lam, k)), (lam, k)
