"""Irreducible character values of the Hecke-Clifford algebra.

Five independent routes compute the same exact polynomial for a pair
(lam, mu): a brute-force inner product in the power-sum ring, a lowering
recursion on the Q-basis, a Pfaffian expansion, a strip-weight recursion,
and a Pieri-rule recursion on the indexing partition.  Closed forms cover
one-row, two-row, one-column and hook class types.

Every route but the strip-weight recursion takes every class mu; that one
needs odd mu.  char_value's auto method picks the strip-weight recursion
for odd mu and the Pieri recursion otherwise.

Input is checked once, where it enters.  Each public route validates
(lam, mu) in _validate: int parts, lam a strict partition, mu sorted into
a partition of the same weight, and for the strip-weight route odd mu.  It
then hands the canonical pair to its private core (_CORES), which checks
nothing.  char_value under auto validates once, tests the parity of mu's
parts once (_all_odd: _validate has made mu a partition already) and runs a
core; under a named method it runs that method's public route.
table_values, and char_table through it, check only the weight and method:
the cells of table_cells are canonical by construction, with odd mu, so
each goes to the method's core directly.  The closed forms and
orthogonality_sum check their own arguments, and bitrace checks its
classes in _classes.

What the routes share: the recursive, pfaffian and combinatorial routes
run one peel, _g_peel, over three lowering-step tables, so only the oracle
and Pieri check the peel itself; the table cache checks its tables against
Pieri for the same reason.  The Q-basis lowering step and the Pieri
recursion take their sums of f-products over compositions from
vertex.composition_sums: Pieri with each slot bounded by its part of mu,
the lowering step with every slot free, since its negative parts
straighten.  The value of a shifted border strip is a recursion on the top
block of its coarsenings.

The character is G(lam, mu) / (2^{eps(lam)} (q-1)^{l(mu)}), for the
unnormalized pairing G.  Every lowering step by k >= 1 is a sum of
f-products, and each one-part factor f_t = 2(q-1)(t)_q, so the peel takes
one factor q - 1 out of every weight it reads, once per weight and
memoized: per shape for the strip weights (_reduced_shape_weight), per
(table, lam, k) for the Pfaffian and Q-basis tables (_reduced_expansion).
It returns the int coefficients of G / (q-1)^{l(mu)}; a weight that does not
divide raises NonDivisibleError naming the first lam, k and nu that read it.
The oracle and Pieri build the full G and divide it by (q-1)^{l(mu)} in one
step, so five-way agreement compares the two ways of taking out
(q-1)^{l(mu)}.  Every route divides coefficient tuples, by synthetic
division (qpoly.exact_div_qminus1_coeffs), with no QPoly built.  All five
routes then share one normalization, _finalize: it takes the coefficients
of G / (q-1)^{l(mu)} (the peel's unpacked ints, the divided coefficients of
the oracle and Pieri), asserts that they are ints divisible by
2^{eps(lam)}, divides in ints and builds the returned QPoly once, through
the trusted int constructor QPoly._from_ints; orthogonality_sum takes its
2^{delta_max} out the same way.  Agreement of the routes cannot see a fault
there; test_normalization_at_integer_points checks it in plain ints.  The
two-row closed form folds the normalization into its own generating
function instead.

Every route but the oracle runs through the packed evaluator of packed.py,
which holds the proof that its L1 run bounds its packed run: Pieri, the
peel, the strip weights, and the Pfaffian and Q-basis tables.
Polynomials cross into it only as int coefficient tuples, through its one
map in_ring: each f_t once per width (f_ring), which Pieri's f-sums, the
border strips, the Pfaffians and the Q-basis sums read, the reduced
Pfaffian and Q-basis tables once per (table, lam, k, width), and the
reduced strip weights once per (shape, width).  Values leave it as int
coefficient tuples too (packed.unpacked), and a function that returns a
QPoly wraps the tuple once, through QPoly._from_ints.
A border strip's value is its top-block recursion on those f_t (_sbs_ring);
a strip weight multiplies 2 when the length drops by two and its
components' values, and in the packed run the sign (-1)^c and the shift by
c B bits that place q^c; the L1 run leaves q^c out, since |q^c f| = |f|.
A Pfaffian is the sub-Pfaffian recursion of pfaffian.py, memoized by parts.
The Q-basis step is vertex.composition_sums with the Clifford merge, its
L1 run on each merge coefficient's absolute value (_abs_prepend), unpacked
at one width per (lam, k), each entry under its own bound.  Of all that,
only the f_t and the Pfaffians' row-row entries f_pair are built by
multiplying QPolys.  The character-side orthogonality sum and the two-row
closed form run on the same evaluator.  The oracle pairs elements of the
power-sum ring, int polynomials over one denominator with no packing, and
is the unpacked reference the packing is checked against; tests/oracles.py
keeps the index-set Pfaffian and the Q-basis sums in QPoly arithmetic as
the references of the two tables.

Each peel route hands the peel its own lowering steps, steps(lam, k, bits)
-> (nu, reduced weight in the run of width bits): _gds_steps, _pfaffian_steps
or _qbasis_steps.  The peel in each run (_g_peel_ring) is memoized by steps,
so that the routes never share a value.  Beneath it, the Pfaffian and
Q-basis steps, _ring_expansion bound to their table, memoize two levels,
each keyed by the table: the reduced tables (_reduced_expansion) and their
images in each run (_ring_expansion).
The strip-weight steps memoize by shape instead: each (lam, k) as (nu,
shape) pairs (_gds_shapes), the int coefficients of each shape's weight
over q - 1 (_reduced_shape_weight, which unpacks the weight and divides it
by synthetic division on ints), their image in each run, read straight off
those ints (_reduced_shape_ring), and the steps of each (lam, k, width)
(_gds_steps), built from those lookups, so a weight is divided once per
shape and mapped once per (shape, width), however many (lam, k, nu) read
it.  _gds_shapes makes one pass over the strict partitions of |lam| - k: a
candidate inside lam, found by C-level comparisons, goes once to
partitions._strip_rows, the row arithmetic that classify_skew also runs,
which drops a candidate with a three-cell diagonal and otherwise gives c,
the components and the drop in length, with no SkewClassification built.
Each shape key is interned (_shape), so equal shapes share one tuple across
the (lam, k) entries.  The full-weight tables, the shape weights, the
border-strip values and the unpacked peel values are not memoized: the peel
reads each Pfaffian and Q-basis table once, through _reduced_expansion,
each shape weight once, through _reduced_shape_weight, and no strip-weight
table at all; an unpacked value is rebuilt from two hits of its ring memo
and one unpack.

The strip weight of lam*/nu* depends only on the shape of the strip: its
count c of two-cell diagonals, whether the length drops by two, and its
one-cell components, not on where the strip sits.  _reduced_shape_weight
memoizes it, over q - 1, by (c, doubled, sorted components), the key that
_shape builds and interns; sorting is sound because the weight multiplies
the components' values and the product commutes, while the rows within a
component keep their order, since the border-strip value depends on it.  The
key is classification data, never a QPoly value: the Pfaffian and Q-basis
tables hold equal entries for odd k, and a value-keyed memo would let those
routes share answers with this one.  gds_expansion and wt_gds compute the
full weight unmemoized (_shape_weight), from the memoized border-strip runs
beneath it, and the peel and char_hook_mu read the reduced weights through
_gds_steps.

The order of the weight-n table's cells is defined once, by table_cells.
table_values computes the values in that order, one at a time, and
char_table keys them by cell; the table renderings, the cache's cell-set
check and the cell loops of the cross and symmetry suites read the same
order.  The CSV and LaTeX renderings lay it out row by row from the two
partition lists.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import repeat
from operator import and_, le, rshift

from .gamma import g_product, inner_product
from .partitions import (
    Parts,
    SkewKind,
    _all_odd,
    _strip_rows,
    classify_skew,
    delta,
    ensure_int,
    ensure_int_parts,
    ensure_partition,
    ensure_strict_int_parts,
    ensure_strict_partition,
    epsilon,
    is_odd_partition,
    nonzero_length,
    odd_partitions_of,
    pieri_strips,
    shifted_syt_count,
    sort_desc,
    strict_partitions_of,
    strict_subpartitions,
    weight,
)
from .packed import f_ring, in_ring, unpacked, unpacked_table
from .pfaffian import _skew_Q_core
from .qpoly import (
    NonDivisibleError,
    QPoly,
    Scalar,
    exact_div_qminus1_coeffs,
    round_bracket,
)
from .vertex import Q_lambda_vacuum, _merge_part, _prepend, composition_sums

# what a strip weight depends on: (c, doubled, sorted components)
ShapeKey = tuple[int, bool, tuple[Parts, ...]]


class NotGdsError(ValueError):
    """The skew shape carries no strip weight."""


class BadShapeError(ValueError):
    """The shape is outside the domain of a closed form."""


# ---------------------------------------------------------------------------
# strip weights

def sbs_principal(rows: Parts) -> QPoly:
    """Two-variable value of a shifted border strip with the given per-row
    cell counts (top row first): the sum over coarsenings tau of rows of
    (-1)^{l(rows) - l(tau)} f_tau, by recursion on the top block of tau,
    which merges the first j + 1 rows."""
    if any(r < 1 for r in rows):
        raise ValueError("row counts must be positive")
    return QPoly._from_ints(unpacked(partial(_sbs_ring, rows)))


def wt_gds(lam: Parts, nu: Parts) -> QPoly:
    """Strip weight of the skew lam*/nu*: (-t)^c times 2 when the length
    drops by exactly two, times the border-strip value of every component of
    the one-cell-diagonal part.  Both shapes are checked first, each named
    in the error: a part that is no int raises ValueError, and a shape that
    is not strict NotGdsError, since only a strict shape has a shifted
    diagram; a nu outside lam is no strip either."""
    lam = ensure_strict_partition(ensure_int_parts(lam, "lam"), "lam", NotGdsError)
    nu = ensure_strict_partition(ensure_int_parts(nu, "nu"), "nu", NotGdsError)
    cls = classify_skew(lam, nu)
    if cls.kind is SkewKind.NOT_GDS:
        raise NotGdsError(f"{lam}/{nu} is not a generalized double strip")
    return _shape_weight(*_shape(cls.c, cls.beta_components, cls.l_jump))


# every shape key met so far, each mapped to itself, so that equal shapes
# share one tuple across the entries of _gds_shapes
_SHAPES: dict[ShapeKey, ShapeKey] = {}


def _shape(c: int, components: tuple[Parts, ...], l_jump: int) -> ShapeKey:
    # the interned shape key of a strip with c two-cell diagonals, these
    # one-cell components and a length drop of l_jump
    key = (c, l_jump == 2, tuple(sorted(components)))
    return _SHAPES.setdefault(key, key)


def _shape_weight(c: int, doubled: bool, components: tuple[Parts, ...]) -> QPoly:
    # (-t)^c, times 2 if doubled, times sbs_principal of each component
    return QPoly._from_ints(unpacked(partial(_shape_ring, c, doubled, components)))


def gds_expansion(lam: Parts, k: int) -> tuple[tuple[Parts, QPoly], ...]:
    """All strict nu below lam whose skew is a k-cell generalized double
    strip, with their weights, each read by the shape of its strip."""
    return tuple((nu, _shape_weight(*shape)) for nu, shape in _gds_shapes(lam, k))


@cache
def _gds_shapes(lam: Parts, k: int) -> tuple[tuple[Parts, ShapeKey], ...]:
    # the nu of gds_expansion(lam, k), each with the shape of its strip, in
    # one pass over the strict partitions of |lam| - k: each candidate inside
    # lam (its parts positive, so no longer than lam and no part above lam's)
    # goes to the row arithmetic once, unchecked, and once per (lam, k)
    out = []
    if 0 <= k <= weight(lam):
        length = len(lam)
        for nu in strict_partitions_of(weight(lam) - k):
            if len(nu) <= length and all(map(le, nu, lam)):
                strip = _strip_rows(lam, nu)
                if strip is not None:
                    out.append((nu, _shape(*strip)))
    return tuple(out)


def pfaffian_expansion(lam: Parts, k: int) -> tuple[tuple[Parts, QPoly], ...]:
    """Lowering step resolved through skew Pfaffians: nonzero coefficients of
    Q_nu.1 in the image of Q_lam.1.  Each candidate is strict and inside
    lam by construction, so its Pfaffian is taken unchecked."""
    out = []
    for nu in strict_subpartitions(lam, weight(lam) - k):
        value = _skew_Q_core(lam, nu)
        if not value.is_zero():
            out.append((nu, value))
    return tuple(out)


def qbasis_expansion(lam: Parts, k: int) -> tuple[tuple[Parts, QPoly], ...]:
    """One lowering step on Q_lam.1: the nonzero coefficients of Q_nu.1 in
    the sum of f_tau Q_{lam - tau}.1 over all compositions tau of k with
    l(lam) slots.  Parts of lam - tau may be negative; straightening turns
    Q_m Q_{-m} into a vacuum term.  Straightening is linear, so each part of
    lam is prepended to the straightened sums of the parts after it
    (vertex.composition_sums with every slot free), on the packed evaluator
    at one width for the whole step."""
    table = unpacked_table(partial(_qbasis_ring, lam, k))
    return tuple((nu, QPoly._from_ints(coeffs)) for nu, coeffs in table)


def _qbasis_ring(lam: Parts, k: int, bits: int | None) -> tuple[tuple[Parts, int], ...]:
    # the sums of qbasis_expansion(lam, k) at q = 2^bits; for bits None, the
    # same sums on L1 norms, each merge coefficient by its absolute value, so
    # that nothing cancels and every key of the packed sums is present
    merge = _abs_prepend if bits is None else _prepend
    return composition_sums(merge, lam, k, f_ring(bits), negative_parts=True)


@cache
def _abs_prepend(m: int, nu: Parts) -> tuple[tuple[int, Parts], ...]:
    # vertex._prepend with each coefficient by its absolute value; memoized,
    # since the steps from shapes that share their later parts repeat merges
    return tuple((abs(c), sigma) for c, sigma in _prepend(m, nu))


# ---------------------------------------------------------------------------
# strip weights on the packed evaluator

@cache
def _sbs_ring(rows: Parts, bits: int | None) -> int:
    # sbs_principal(rows) at q = 2^bits; for bits None, the same recursion on
    # L1 norms with the signs dropped
    if not rows:
        return 1
    f = f_ring(bits)
    out = 0
    for j in range(len(rows)):
        sign = 1 if bits is None else (-1) ** j
        out += sign * f(sum(rows[: j + 1])) * _sbs_ring(rows[j + 1:], bits)
    return out


def _shape_ring(c: int, doubled: bool, components: tuple[Parts, ...], bits: int | None) -> int:
    # _shape_weight(c, doubled, components) at q = 2^bits; for bits None, the
    # L1 norm of the product, which the factor (-q)^c does not change
    out = 2 if doubled else 1
    for rows in components:
        out *= _sbs_ring(rows, bits)
    if bits is None:
        return out
    return ((-1) ** c * out) << (c * bits)


# ---------------------------------------------------------------------------
# normalization boundary

def _finalize(reduced: tuple[Scalar, ...], lam: Parts, mu: Parts) -> QPoly:
    # reduced holds the coefficients of G(lam, mu) / (q-1)^{l(mu)}, ascending
    # with no trailing zero; what is left is 2^{eps(lam)}, taken out of each
    # coefficient in ints before the value is built, once
    shift = epsilon(lam)
    low = (1 << shift) - 1
    if Fraction not in map(type, reduced) and not any(map(and_, reduced, repeat(low))):
        return QPoly._from_ints(tuple(map(rshift, reduced, repeat(shift))))
    rational = QPoly(reduced).scale(Fraction(1, 1 << shift)).to_text()
    raise NonDivisibleError(f"character for {lam}, {mu} is not integral: {rational}")


def _validate(lam: Parts, mu: Parts) -> tuple[Parts, Parts]:
    # the canonical (lam, mu) that every route core assumes: lam a strict
    # partition, mu sorted into a partition of the same weight, all parts ints
    lam = ensure_strict_int_parts(lam, "lam")
    mu = sort_desc(ensure_int_parts(mu, "mu"))
    if mu:
        ensure_partition(mu, "mu")
    if weight(lam) != weight(mu):
        raise ValueError(f"weights differ: |{lam}| != |{mu}|")
    return lam, mu


# ---------------------------------------------------------------------------
# the five routes: each public function validates its input and hands the
# canonical (lam, mu) to its core, which checks nothing

def char_oracle(lam: Parts, mu: Parts) -> QPoly:
    """Brute force: pair the product of deformed generators with Q_lam.1 in
    the power-sum basis."""
    return _oracle_core(*_validate(lam, mu))


def _oracle_core(lam: Parts, mu: Parts) -> QPoly:
    g_value = inner_product(g_product(mu), Q_lambda_vacuum(lam))
    return _finalize(exact_div_qminus1_coeffs(g_value.coeffs, nonzero_length(mu)), lam, mu)


# the lowering steps of the peel: for k >= 1 each weight is a sum of
# f-products, and f_t = 2(q-1)(t)_q, so one factor q - 1 is taken out of
# every weight before the peel reads it

def _step_error(lam: Parts, k: int, nu: Parts, value: QPoly) -> NonDivisibleError:
    return NonDivisibleError(
        f"lowering step lam = {lam}, k = {k}, nu = {nu}: "
        f"weight {value.to_text()} is not divisible by q - 1"
    )


@cache
def _reduced_expansion(expansion, lam: Parts, k: int) -> tuple[tuple[Parts, tuple[int, ...]], ...]:
    # expansion(lam, k) with one factor of q - 1 taken out of every weight,
    # each held as its int coefficients
    out = []
    for nu, value in expansion(lam, k):
        try:
            out.append((nu, exact_div_qminus1_coeffs(value.coeffs, 1)))
        except NonDivisibleError as exc:
            raise _step_error(lam, k, nu, value) from exc
    return tuple(out)


@cache
def _ring_expansion(
    expansion, lam: Parts, k: int, bits: int | None
) -> tuple[tuple[Parts, int], ...]:
    # _reduced_expansion(expansion, lam, k) with each weight mapped by in_ring
    return tuple((nu, in_ring(value, bits)) for nu, value in _reduced_expansion(expansion, lam, k))


# the Pfaffian and Q-basis routes' lowering steps; partials, so that the peel
# calls the memo directly
_pfaffian_steps = partial(_ring_expansion, pfaffian_expansion)
_qbasis_steps = partial(_ring_expansion, qbasis_expansion)


@cache
def _reduced_shape_weight(shape: ShapeKey) -> tuple[int, ...]:
    # the int coefficients of the strip weight of shape with one factor of
    # q - 1 taken out, once per shape
    return exact_div_qminus1_coeffs(_shape_weight(*shape).coeffs, 1)


@cache
def _reduced_shape_ring(shape: ShapeKey, bits: int | None) -> int:
    # _reduced_shape_weight(shape) mapped into the run of width bits, once
    # per (shape, width)
    return in_ring(_reduced_shape_weight(shape), bits)


@cache
def _gds_steps(lam: Parts, k: int, bits: int | None) -> tuple[tuple[Parts, int], ...]:
    # gds_expansion(lam, k) with one factor of q - 1 out of every weight,
    # mapped by in_ring: lookups by shape, the first nu to read a weight that
    # does not divide named in the error; only the division is tried there,
    # so that in_ring's own refusal of a non-integral coefficient keeps its text
    out = []
    for nu, shape in _gds_shapes(lam, k):
        try:
            _reduced_shape_weight(shape)
        except NonDivisibleError as exc:
            raise _step_error(lam, k, nu, _shape_weight(*shape)) from exc
        out.append((nu, _reduced_shape_ring(shape, bits)))
    return tuple(out)


@cache
def _g_peel_ring(steps, lam: Parts, mu: Parts, bits: int | None) -> int:
    # G(lam, mu) / (q-1)^{l(mu)} at q = 2^bits: peel mu[0] through one route's
    # lowering steps, steps(lam, k, bits) -> (nu, weight over q - 1 at
    # q = 2^bits); for bits None, the same peel on L1 norms
    if not lam:
        return 1
    out = 0
    for nu, value in steps(lam, mu[0], bits):
        out += value * _g_peel_ring(steps, nu, mu[1:], bits)
    return out


def _g_peel(steps, lam: Parts, mu: Parts) -> tuple[int, ...]:
    # the coefficients of G(lam, mu) / (q-1)^{l(mu)}, peeled through one
    # route's lowering steps
    return unpacked(partial(_g_peel_ring, steps, lam, mu))


def char_recursive(lam: Parts, mu: Parts) -> QPoly:
    """Lowering recursion on the Q-basis, one part of mu at a time."""
    return _recursive_core(*_validate(lam, mu))


def _recursive_core(lam: Parts, mu: Parts) -> QPoly:
    return _finalize(_g_peel(_qbasis_steps, lam, mu), lam, mu)


def char_pfaffian(lam: Parts, mu: Parts) -> QPoly:
    """Peel parts of mu through the Pfaffian form of the lowering step."""
    return _pfaffian_core(*_validate(lam, mu))


def _pfaffian_core(lam: Parts, mu: Parts) -> QPoly:
    return _finalize(_g_peel(_pfaffian_steps, lam, mu), lam, mu)


def char_combinatorial(lam: Parts, mu: Parts) -> QPoly:
    """Murnaghan-Nakayama-style recursion over generalized double strips."""
    lam, mu = _validate(lam, mu)
    if not _all_odd(mu):
        raise ValueError(f"combinatorial rule needs odd mu, got {mu}")
    return _combinatorial_core(lam, mu)


def _combinatorial_core(lam: Parts, mu: Parts) -> QPoly:
    # mu odd as well as canonical
    return _finalize(_g_peel(_gds_steps, lam, mu), lam, mu)


@cache
def _g_pieri(lam: Parts, mu: Parts, bits: int | None) -> int:
    # G(lam, mu) at q = 2^bits; for bits None, the same recursion on L1 norms
    # with the signs dropped, which bounds every coefficient of G(lam, mu)
    if not lam:
        return 1
    n = weight(lam)
    body = lam[1:]
    out = 0
    for i in range(lam[0], n + 1):
        strips = pieri_strips(body, i - lam[0])
        if not strips:
            continue
        sign = 1 if bits is None else (-1) ** (i - lam[0])
        sums = composition_sums(_merge_part, mu, i, f_ring(bits), negative_parts=False)
        for rest, f_sum in sums:
            inner = sum(_g_pieri(xi, rest, bits) << a for xi, a in strips)
            out += sign * f_sum * inner
    return out


def char_pieri(lam: Parts, mu: Parts) -> QPoly:
    """Recursion on the indexing partition through the Pieri rule, run on
    L1 norms for a coefficient bound, then on values packed at q = 2^bits
    with bits wide enough for that bound."""
    return _pieri_core(*_validate(lam, mu))


def _pieri_core(lam: Parts, mu: Parts) -> QPoly:
    g_value = unpacked(partial(_g_pieri, lam, mu))
    return _finalize(exact_div_qminus1_coeffs(g_value, nonzero_length(mu)), lam, mu)


# ---------------------------------------------------------------------------
# closed forms

def char_one_row(mu: Parts) -> QPoly:
    """lam = (n): 2^{l(mu)} (mu)_q."""
    mu = sort_desc(ensure_int_parts(mu, "mu"))
    if not is_odd_partition(mu):
        raise ValueError(f"one-row closed form needs odd mu, got {mu}")
    out = QPoly((2 ** nonzero_length(mu),))
    for part in mu:
        out = out * round_bracket(part)
    return out


@cache
def _two_row_factor(m: int) -> tuple[QPoly, ...]:
    # (m)_q (1 + v^m) + 2(q-1) sum_{0<j<m} (j)_q (m-j)_q v^j for m >= 1, by
    # the power of v
    middle = (
        (round_bracket(j) * round_bracket(m - j)).scale(2) * QPoly((-1, 1)) for j in range(1, m)
    )
    return (round_bracket(m), *middle, round_bracket(m))


@cache
def _two_row_tails(mu: Parts, bits: int | None) -> tuple[int, ...]:
    # entry k is the signed tail sum from v^k up of C(v), the product over the
    # parts m of mu of _two_row_factor(m), for k = 0 .. n + 1, with each
    # q-polynomial packed at q = 2^bits; for bits None, the same sums of L1
    # norms with the signs dropped.  The pairing G((k, n-k), mu) is
    # (2q-2)^{l(mu)} times such sums, so the character, G / (2 (q-1)^{l(mu)}),
    # is 2^{l(mu)-1} times them
    series = [1]
    for m in mu:
        factor = [in_ring(c.coeffs, bits) for c in _two_row_factor(m)]
        product = [0] * (len(series) + len(factor) - 1)
        for i, a in enumerate(series):
            for j, b in enumerate(factor, i):
                product[j] += a * b
        series = product
    tails = [0]
    for i, c in reversed(list(enumerate(series))):
        tails.append(tails[-1] + (c if bits is None else (-1) ** i * c))
    return tuple(reversed(tails))


def _two_row_ring(k: int, mu: Parts, bits: int | None) -> int:
    # the sum of the signed tails from v^k and from v^(k+1); for bits None, a
    # bound on its L1 norm
    tails = _two_row_tails(mu, bits)
    return tails[k] + tails[k + 1]


def char_two_row(k: int, mu: Parts) -> QPoly:
    """lam = (k, n-k) with n-k < k < n, via the generating function whose
    v-coefficients collect the split products of f over both arguments."""
    ensure_int(k, "k")
    mu = sort_desc(ensure_int_parts(mu, "mu"))
    if not is_odd_partition(mu):
        raise ValueError(f"two-row closed form needs odd mu, got {mu}")
    n = weight(mu)
    if not (0 < n - k < k):
        raise BadShapeError(f"(k, n-k) = ({k},{n - k}) is not a two-row strict shape")
    scale = (-1) ** k * 2 ** (nonzero_length(mu) - 1)
    return QPoly._from_ints(tuple(scale * c for c in unpacked(partial(_two_row_ring, k, mu))))


def char_column(lam: Parts) -> QPoly:
    """mu = (1^n): 2^{n - eps(lam)} times the shifted tableau count."""
    lam = ensure_strict_int_parts(lam, "lam")
    n = weight(lam)
    return QPoly((2 ** (n - epsilon(lam)) * shifted_syt_count(lam),))


def char_hook_mu(lam: Parts, k: int) -> QPoly:
    """mu = (k, 1^{n-k}) with k odd: strip weights against tableau counts."""
    lam = ensure_strict_int_parts(lam, "lam")
    ensure_int(k, "k")
    n = weight(lam)
    if k % 2 == 0 or k < 1 or k > n:
        raise BadShapeError(f"hook class needs odd k <= {n}, got {k}")
    return _finalize(unpacked(partial(_hook_ring, lam, k)), lam, (k,))


def _hook_ring(lam: Parts, k: int, bits: int | None) -> int:
    # G(lam, mu) / (q-1)^{l(mu)} at q = 2^bits for mu = (k, 1^{n-k}): each f_1
    # of the tail is 2(q-1), and the first step gives up its q - 1 in the
    # combinatorial route's own lowering steps; for bits None, a bound on its
    # L1 norm
    steps = _gds_steps(lam, k, bits)
    return sum(shifted_syt_count(nu) * value for nu, value in steps) << (weight(lam) - k)


# ---------------------------------------------------------------------------
# tables

METHODS = {
    "oracle": char_oracle,
    "recursive": char_recursive,
    "pfaffian": char_pfaffian,
    "combinatorial": char_combinatorial,
    "pieri": char_pieri,
}


def _auto_core(lam: Parts, mu: Parts) -> QPoly:
    # the strip-weight recursion for odd mu, Pieri for every other class; mu
    # is a partition already, so only its parity is tested
    if _all_odd(mu):
        return _combinatorial_core(lam, mu)
    return _pieri_core(lam, mu)


# the route cores by method name, for input already canonical
_CORES = {
    "auto": _auto_core,
    "oracle": _oracle_core,
    "recursive": _recursive_core,
    "pfaffian": _pfaffian_core,
    "combinatorial": _combinatorial_core,
    "pieri": _pieri_core,
}


def _core(method: str):
    if method not in _CORES:
        raise ValueError(f"unknown method {method!r}")
    return _CORES[method]


def char_value(lam: Parts, mu: Parts, method: str = "auto") -> QPoly:
    """Compute one character value with the chosen method.  auto picks the
    strip-weight recursion for odd mu and the Pieri recursion, which takes
    every class, otherwise; every method but combinatorial takes every
    class.  The input is checked once: auto validates it and runs a core,
    a named method runs its public route."""
    core = _core(method)
    if method == "auto":
        return core(*_validate(lam, mu))
    return METHODS[method](lam, mu)


def table_cells(n: int):
    """The (lam, mu) cells of the weight-n table in table order, one at a
    time: rows mu over odd partitions outside, columns lam over strict
    partitions inside, both in reverse-lexicographic order.  An n that is
    not a nonnegative int raises at the call."""
    if ensure_int(n, "n") < 0:
        raise ValueError("n must be nonnegative")
    return ((lam, mu) for mu in odd_partitions_of(n) for lam in strict_partitions_of(n))


def table_values(n: int, method: str = "auto"):
    """The method's value at every cell of the weight-n table, in
    table_cells order, one at a time, so that a caller need not hold the
    table.  The cells are canonical by construction, with odd mu, so each
    goes to the method's core unvalidated.  The weight, then the method,
    are checked at the call."""
    cells = table_cells(n)
    core = _core(method)
    return (core(lam, mu) for lam, mu in cells)


def char_table(n: int, method: str = "auto") -> dict[tuple[Parts, Parts], QPoly]:
    """All character values for weight n, keyed in table_cells order."""
    return dict(zip(table_cells(n), table_values(n, method)))


def orthogonality_sum(mu: Parts, nu: Parts) -> QPoly:
    """Sum over strict lam of 2^{-delta(lam)} times the product of character
    values at mu and nu; the character-side form of the spin bitrace."""
    mu, nu = sort_desc(ensure_int_parts(mu, "mu")), sort_desc(ensure_int_parts(nu, "nu"))
    if weight(mu) != weight(nu):
        raise ValueError("weights differ")
    lams = strict_partitions_of(weight(mu))
    # 2^{delta_max} times the sum, in integer scales; one division at the end
    delta_max = max(delta(lam) for lam in lams)
    terms = tuple(
        (char_value(lam, mu), char_value(lam, nu), delta_max - delta(lam)) for lam in lams
    )
    total = unpacked(partial(_pairing_ring, terms))
    if any(c & ((1 << delta_max) - 1) for c in total):
        raise NonDivisibleError("orthogonality sum not integral")
    return QPoly._from_ints(tuple(c >> delta_max for c in total))


def _pairing_ring(terms, bits: int | None) -> int:
    # the sum of a b 2^shift over terms (a, b, shift) at q = 2^bits; for bits
    # None, the same sum of L1 norms
    return sum(in_ring(a.coeffs, bits) * in_ring(b.coeffs, bits) << shift for a, b, shift in terms)
