"""Every public entry that takes a partition checks it where it enters the
library: the character routes, char_value under every method, the closed
forms, the skew values, orthogonality_sum and the bitrace functions.  Each bad input raises
its own error type and message, the same at every entry that reads it; a
class may come unsorted, with zero parts, as a list, or with bool parts, and
gives the value of its canonical form.  The scalar arguments, a table's
weight n and the k of the two-row and hook forms, are checked the same way."""

from fractions import Fraction
from functools import partial

import pytest

from hcchar.bitrace import T_mu_nu, WeightMismatchError, regular_char, sbtr, sbtr_powersum
from hcchar.characters import (
    METHODS,
    BadShapeError,
    NotGdsError,
    char_column,
    char_hook_mu,
    char_one_row,
    char_two_row,
    char_table,
    char_value,
    orthogonality_sum,
    table_cells,
    table_values,
    wt_gds,
)
from hcchar.pfaffian import NotContainedError, skew_Q_principal


class Canonical(tuple):
    """An accepted input: the entry gives the value of these arguments."""


def _outcome(call, args):
    try:
        return call(*args)
    except Exception as exc:  # the error is the outcome under test
        return type(exc), str(exc)


def _check(call, cases):
    for args, expected in cases:
        if isinstance(expected, Canonical):
            expected = call(*expected)
        assert _outcome(call, args) == expected, args


def _not_ints(name, good, args):
    # args(parts) with one float, Fraction, str or None part in place of the
    # first part of good
    out = []
    for part in (float(good[0]), Fraction(good[0]), str(good[0]), None):
        parts = (part, *good[1:])
        out.append((args(parts), (ValueError, f"{name} must have integer parts: {parts}")))
    return out


def _not_int(name, good, args):
    # args(value) with a float, Fraction, str or None in place of the int good
    return [
        (args(value), (ValueError, f"{name} must be an integer: {value!r}"))
        for value in (float(good), Fraction(good), str(good), None)
    ]


def _strict(parts, error=ValueError):
    return error, f"lam must have strictly decreasing positive parts: {parts}"


def _weakly(name, parts):
    return ValueError, f"{name} must have weakly decreasing positive parts: {parts}"


LAM, MU = (3, 1), (3, 1)


def _lam_cases(args, strict_error=ValueError):
    # args(lam) is the entry's argument tuple for a shape lam of weight 4;
    # a shape that is not strict raises strict_error
    return [
        (args((1, 3)), _strict((1, 3), strict_error)),
        (args((3, 0, 1)), _strict((3, 0, 1), strict_error)),
        (args((2, 2)), _strict((2, 2), strict_error)),
        *_not_ints("lam", LAM, args),
        (args([3, 1]), Canonical(args(LAM))),
        (args((3, True)), Canonical(args(LAM))),
    ]


LAM_MU_CASES = [
    *_lam_cases(lambda lam: (lam, MU)),
    ((LAM, (5, -1)), _weakly("mu", (5, -1))),
    ((LAM, (3,)), (ValueError, "weights differ: |(3, 1)| != |(3,)|")),
    *_not_ints("mu", MU, lambda mu: (LAM, mu)),
    ((LAM, [1, 3]), Canonical((LAM, MU))),
    ((LAM, (1, 0, 3)), Canonical((LAM, MU))),
    (((3, True), (True, 3)), Canonical((LAM, MU))),
]
NON_ODD = ((LAM, (2, 2)), Canonical((LAM, (2, 2))))
NON_ODD_REFUSED = ((LAM, (2, 2)), (ValueError, "combinatorial rule needs odd mu, got (2, 2)"))

LAM_MU_ENTRIES = {
    "char_value": char_value,
    **{f"char_value[{name}]": partial(char_value, method=name) for name in METHODS},
    **{route.__name__: route for route in METHODS.values()},
}


@pytest.mark.parametrize("entry", LAM_MU_ENTRIES)
def test_character_routes_check_their_input(entry):
    refused = entry in ("char_value[combinatorial]", "char_combinatorial")
    _check(LAM_MU_ENTRIES[entry], [*LAM_MU_CASES, NON_ODD_REFUSED if refused else NON_ODD])


def _odd_mu_cases(form, args):
    # args(mu) is the entry's argument tuple for a class mu of weight 4
    return [
        (args((5, -1)), (ValueError, f"{form} needs odd mu, got (5, -1)")),
        (args((2, 2)), (ValueError, f"{form} needs odd mu, got (2, 2)")),
        *_not_ints("mu", MU, args),
        (args((1, 3)), Canonical(args(MU))),
        (args([True, 0, 3]), Canonical(args(MU))),
    ]


def test_odd_class_closed_forms_check_their_input():
    _check(char_one_row, _odd_mu_cases("one-row closed form", lambda mu: (mu,)))
    _check(regular_char, _odd_mu_cases("regular character", lambda mu: (mu,)))
    shape = (BadShapeError, "(k, n-k) = (5,-1) is not a two-row strict shape")
    two_row = _odd_mu_cases("two-row closed form", lambda mu: (3, mu))
    _check(char_two_row, [*two_row, ((5, MU), shape), *_not_int("k", 3, lambda k: (k, MU))])


def test_strict_shape_closed_forms_check_their_input():
    _check(char_column, _lam_cases(lambda lam: (lam,)))
    hook = [
        ((LAM, 2), (BadShapeError, "hook class needs odd k <= 4, got 2")),
        ((LAM, 5), (BadShapeError, "hook class needs odd k <= 4, got 5")),
    ]
    k_cases = [*_not_int("k", 3, lambda k: (LAM, k)), ((LAM, True), Canonical((LAM, 1)))]
    _check(char_hook_mu, [*_lam_cases(lambda lam: (lam, 3)), *hook, *k_cases])


TABLE_ENTRIES = {"table_cells": table_cells, "table_values": table_values, "char_table": char_table}


@pytest.mark.parametrize("entry", TABLE_ENTRIES)
def test_table_entries_check_their_weight_at_the_call(entry):
    # a lazy entry refuses its weight before a cell is asked for; a bool
    # weight gives the cells, or values, of its int
    call = TABLE_ENTRIES[entry]
    negative = ((-1,), (ValueError, "n must be nonnegative"))
    _check(call, [*_not_int("n", 3, lambda n: (n,)), negative])

    def cells(n):
        result = call(n)
        return list(result.items() if isinstance(result, dict) else result)

    assert cells(True) == cells(1) != []


PAIR_ENTRIES = {
    "sbtr": sbtr,
    "sbtr_powersum": sbtr_powersum,
    "T_mu_nu": T_mu_nu,
    "orthogonality_sum": orthogonality_sum,
}


@pytest.mark.parametrize("entry", PAIR_ENTRIES)
def test_class_pairs_check_their_input(entry):
    ortho = entry == "orthogonality_sum"
    mismatch = (WeightMismatchError, "|(3, 1)| != |(3,)|")
    if ortho:
        mismatch = (ValueError, "weights differ")
    cases = [
        (((5, -1), MU), _weakly("mu", (5, -1))),
        # orthogonality_sum meets a bad nu in char_value, which calls it mu
        ((MU, (5, -1)), _weakly("mu" if ortho else "nu", (5, -1))),
        ((MU, (3,)), mismatch),
        *_not_ints("mu", MU, lambda mu: (mu, MU)),
        *_not_ints("nu", MU, lambda nu: (MU, nu)),
        (((1, 3), [3, 0, 1]), Canonical((MU, MU))),
        (((2, 2), (True, True, 2)), Canonical(((2, 2), (2, 1, 1)))),
    ]
    _check(PAIR_ENTRIES[entry], cases)


# the skew entries, each with the name of its inner shape, its error for a
# shape that is not strict (wt_gds: such a skew carries no strip weight) and
# its outcome for an inner shape outside lam
SKEW_ENTRIES = {
    "skew_Q_principal": (
        skew_Q_principal,
        "mu",
        ValueError,
        (NotContainedError, "mu = (5,) is not contained in lam = (3, 1)"),
    ),
    "wt_gds": (
        wt_gds,
        "nu",
        NotGdsError,
        (NotGdsError, "(3, 1)/(5,) is not a generalized double strip"),
    ),
}


@pytest.mark.parametrize("entry", SKEW_ENTRIES)
def test_skew_entries_check_their_input(entry):
    # both shapes are checked before any shortcut: lam == mu, or an inner
    # shape heavier than lam, answers only for shapes that pass
    call, name, strict_error, outside = SKEW_ENTRIES[entry]
    inner = (1,)
    cases = [
        *_lam_cases(lambda lam: (lam, inner), strict_error),
        (((1, 3), (1, 3)), _strict((1, 3), strict_error)),
        (((2, 2), (2, 2)), _strict((2, 2), strict_error)),
        (((1, 3), (5,)), _strict((1, 3), strict_error)),
        ((LAM, (2, 2)), (strict_error, f"{name} must have strictly decreasing positive parts: (2, 2)")),
        *_not_ints(name, inner, lambda nu: (LAM, nu)),
        ((LAM, (5,)), outside),
        ((LAM, [True]), Canonical((LAM, inner))),
    ]
    _check(call, cases)
