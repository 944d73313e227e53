"""Test-only oracles: slow, definition-level computations that the library
is checked against, and the helpers that only tests use."""

import json
from fractions import Fraction
from functools import cache
from math import factorial

from hcchar.characters import _two_row_factor, char_value, table_cells
from hcchar.gamma import GammaElement, _sub_multisets
from hcchar.partitions import (
    Parts,
    SkewClassification,
    SkewKind,
    _descending_parts,
    bounded_compositions,
    contains,
    delta,
    ensure_strict_partition,
    format_parts,
    multiplicities,
    nonzero_length,
    odd_partitions_of,
    pieri_strips,
    sort_desc,
    strict_partitions_of,
    z_lambda,
)
from hcchar.pfaffian import NotContainedError
from hcchar.qpoly import NonDivisibleError, ONE, QPoly, ZERO, exact_div_int
from hcchar.vertex import _merge_part, _prepend, composition_sums, f_pair, f_single, straighten


# ---------------------------------------------------------------------------
# the partition predicates and QPoly.has_integer_coeffs as generator scans,
# the forms the library's C-level iteration is checked against

def nonzero_length_by_scan(parts) -> int:
    return sum(1 for p in parts if p)


def is_partition_by_scan(parts) -> bool:
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def is_strict_partition_by_scan(parts) -> bool:
    return all(p > 0 for p in parts) and all(
        parts[i] > parts[i + 1] for i in range(len(parts) - 1)
    )


def is_odd_partition_by_scan(parts) -> bool:
    return is_partition_by_scan(parts) and all(p % 2 == 1 for p in parts)


def sort_desc_by_scan(parts) -> Parts:
    return tuple(sorted((p for p in parts if p), reverse=True))


def contains_by_scan(lam, mu) -> bool:
    # both padded with zeros to one length, then compared entry by entry
    size = max(len(lam), len(mu))
    lam = tuple(lam) + (0,) * (size - len(lam))
    mu = tuple(mu) + (0,) * (size - len(mu))
    return all(mu[i] <= lam[i] for i in range(size))


def has_integer_coeffs_by_scan(f: QPoly) -> bool:
    return all(type(c) is int for c in f.coeffs)


def monomial(c, exp: int) -> QPoly:
    """c q^exp."""
    if exp < 0:
        raise ValueError("negative exponent")
    return QPoly((0,) * exp + (c,))


@cache
def q_pow_minus_one(r: int) -> QPoly:
    """q^r - 1 for r >= 0."""
    return monomial(1, r) - ONE


def zt_denominator(parts: Parts) -> QPoly:
    """prod_i (1 - t^{part_i}); the polynomial part of 1/z(t)."""
    out = ONE
    for p in parts:
        out = out * -q_pow_minus_one(p)
    return out


@cache
def partitions_of(n: int) -> tuple[Parts, ...]:
    return tuple(_descending_parts(n, n, strict=False, odd=False))


def coarsenings(rho: Parts) -> tuple[Parts, ...]:
    """All compositions obtained by merging adjacent parts of rho."""
    if any(p < 1 for p in rho):
        raise ValueError("coarsenings need positive parts")
    if not rho:
        return ((),)
    out = []
    gaps = len(rho) - 1
    for mask in range(1 << gaps):
        merged = [rho[0]]
        for i in range(gaps):
            if mask >> i & 1:
                merged[-1] += rho[i + 1]
            else:
                merged.append(rho[i + 1])
        out.append(tuple(merged))
    return tuple(out)


def shifted_cells(lam: Parts) -> frozenset[tuple[int, int]]:
    """Cells of the shifted diagram: row i covers columns i .. i+lam_i-1."""
    return frozenset(
        (i, j) for i, p in enumerate(lam, start=1) for j in range(i, i + p)
    )


@cache
def square_bracket(k: int) -> QPoly:
    """[k]_t = t^{k-1} + ... + t + 1 for k >= 1."""
    if k < 1:
        raise ValueError("square bracket needs k >= 1")
    return QPoly((1,) * k)


@cache
def _f_product(parts: Parts) -> QPoly:
    # parts: positive and sorted, so each multiset costs one multiply
    if not parts:
        return ONE
    return f_single(parts[0]) * _f_product(parts[1:])


@cache
def f_coeff(tau: Parts) -> QPoly:
    """Product of f over the parts of a composition; zeros contribute 1 and a
    negative part makes it zero.  The product depends only on the multiset of
    nonzero parts, so every reordering of tau shares one computed product."""
    if any(part < 0 for part in tau):
        return ZERO
    return _f_product(sort_desc(tau))


def sbs_principal_by_coarsenings(rows: Parts) -> QPoly:
    """Reference for characters.sbs_principal: the signed sum of f over the
    coarsenings of rows, one f-product per coarsening."""
    if any(r < 1 for r in rows):
        raise ValueError("row counts must be positive")
    out = ZERO
    for tau in coarsenings(rows):
        term = f_coeff(tau)
        if (len(rows) - len(tau)) % 2:
            term = -term
        out = out + term
    return out


def strip_weight_by_classification(cls: SkewClassification) -> QPoly:
    """Reference for the strip weight of a classification, which
    characters.wt_gds reads by its shape: (-q)^c, times 2 when the length
    drops by two, times the coarsening sum of every component, taken in the
    classification's own order."""
    out = monomial((-1) ** cls.c, cls.c)
    if cls.l_jump == 2:
        out = out.scale(2)
    for rows in cls.beta_components:
        out = out * sbs_principal_by_coarsenings(rows)
    return out


def alpha_direct_sum(n: int) -> QPoly:
    """Independent route: sum over odd partitions rho of n of
    2^{l(rho)} prod_i (t^{rho_i} - 1)^2 / z_rho."""
    if n < 0:
        return ZERO
    if n == 0:
        return ONE
    out = ZERO
    for rho in odd_partitions_of(n):
        term = ONE
        for part in rho:
            term = term * q_pow_minus_one(part) ** 2
        out = out + term.scale(Fraction(2 ** len(rho), z_lambda(rho)))
    if not out.has_integer_coeffs():
        raise NonDivisibleError(f"alpha_{n} direct sum not integral: {out.to_text()}")
    return out


def scaled(a: GammaElement, c) -> GammaElement:
    """a with every coefficient multiplied by the scalar or polynomial c."""
    return GammaElement({rho: v * c for rho, v in a.terms.items()})


def inner_product_by_fractions(a: GammaElement, b: GammaElement) -> QPoly:
    """<p_rho, p_sigma> = 2^{-l(rho)} z_rho delta_{rho,sigma}, extended
    bilinearly, term by term on the QPoly coefficients."""
    out = ZERO
    for key, va in a.terms.items():
        vb = b.terms.get(key)
        if vb is not None:
            out = out + (va * vb).scale(Fraction(z_lambda(key), 2 ** len(key)))
    return out


def apply_g_star_pbasis(k: int, a: GammaElement) -> GammaElement:
    """Degree-k component of exp(sum over odd n of (t^n - 1) d/dp_n z^{-n})."""
    return apply_exp_partials_by_derivatives(k, a, q_pow_minus_one)


def principal_specialize(a: GammaElement) -> QPoly:
    """Substitute p_r -> t^r - 1 for every odd r."""
    out = ZERO
    for rho, coeff in a.terms.items():
        factor = ONE
        for part in rho:
            factor = factor * q_pow_minus_one(part)
        out = out + coeff * factor
    return out


# ---------------------------------------------------------------------------
# the index-set Pfaffian of a whole matrix: the unpacked reference for
# pfaffian.skew_Q_principal's sub-Pfaffian recursion

class OddSizeError(ValueError):
    """Pfaffians are defined only for even sizes."""


class AntisymMatrix:
    """Antisymmetric matrix stored by its strictly upper triangle."""

    __slots__ = ("size", "upper")

    def __init__(self, size: int, upper: dict[tuple[int, int], QPoly] | None = None):
        self.size = size
        self.upper: dict[tuple[int, int], QPoly] = {}
        for (i, j), v in (upper or {}).items():
            if not 0 <= i < j < size:
                raise ValueError(f"entry ({i},{j}) outside upper triangle")
            if not v.is_zero():
                self.upper[(i, j)] = v


def pfaffian(a: AntisymMatrix) -> QPoly:
    """Recursive first-row expansion in QPoly arithmetic, with memoization on
    index subsets of the one matrix."""
    if a.size % 2:
        raise OddSizeError(f"size {a.size} is odd")
    memo: dict[tuple[int, ...], QPoly] = {}

    def pf(indices: tuple[int, ...]) -> QPoly:
        if not indices:
            return ONE
        cached = memo.get(indices)
        if cached is not None:
            return cached
        first, rest = indices[0], indices[1:]
        total = ZERO
        for pos, j in enumerate(rest):
            top = a.upper.get((first, j), ZERO)
            if top.is_zero():
                continue
            sub = pf(rest[:pos] + rest[pos + 1:])
            term = top * sub
            total = total + term if pos % 2 == 0 else total - term
        memo[indices] = total
        return total

    return pf(tuple(range(a.size)))


def build_skew_matrix(lam: Parts, mu: Parts) -> AntisymMatrix:
    """The antisymmetric matrix whose Pfaffian is the (t,-1) specialization of
    the skew Q-function for mu inside lam.

    Layout: indices 0..s-1 are the rows of lam, s..s+r-1 correspond to the
    parts of mu in reverse order; mu gets one trailing zero part when
    l(lam)+l(mu) is odd, and that column pairs row i with f_{lam_i}.
    """
    if lam:
        ensure_strict_partition(lam, "lam")
    if mu:
        ensure_strict_partition(mu, "mu")
    if not contains(lam, mu):
        raise NotContainedError(f"{mu} is not contained in {lam}")
    padded = tuple(mu)
    if (len(lam) + len(padded)) % 2:
        padded = padded + (0,)
    s, r = len(lam), len(padded)
    upper: dict[tuple[int, int], QPoly] = {}
    for i in range(s):
        for j in range(i + 1, s):
            upper[(i, j)] = f_pair(lam[i], lam[j])
        for j in range(r):
            upper[(i, s + j)] = f_single(lam[i] - padded[r - 1 - j])
    return AntisymMatrix(s + r, upper)


def antisym_entry(matrix: AntisymMatrix, i: int, j: int) -> QPoly:
    """Entry (i, j) of an antisymmetric matrix, read from its upper triangle."""
    if i == j:
        return ZERO
    if i < j:
        return matrix.upper.get((i, j), ZERO)
    return -matrix.upper.get((j, i), ZERO)


def antisym_rows(matrix: AntisymMatrix) -> list[list[QPoly]]:
    """Every row of an antisymmetric matrix, for the determinant."""
    return [[antisym_entry(matrix, i, j) for j in range(matrix.size)] for i in range(matrix.size)]


def determinant(rows: list[list[QPoly]]) -> QPoly:
    """Cofactor-expansion determinant; the independent check for Pf^2 = det."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        top = rows[0][j]
        if top.is_zero():
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = top * determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@cache
def shifted_syt_count_enumerated(lam: Parts) -> int:
    """Independent oracle: count standard fillings by peeling corner cells."""
    if not lam:
        return 1
    total = 0
    for i, p in enumerate(lam):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if p - 1 > below:
            total += shifted_syt_count_enumerated(lam[:i] + (p - 1,) + lam[i + 1:])
        elif p == 1 and i == len(lam) - 1:
            total += shifted_syt_count_enumerated(lam[:i])
    return total


def _has_2x2_block(cells: frozenset[tuple[int, int]]) -> bool:
    return any(
        (i, j + 1) in cells and (i + 1, j) in cells and (i + 1, j + 1) in cells
        for (i, j) in cells
    )


def strict_partitions_between(mu: Parts, lam: Parts):
    """All strict nu with mu subseteq nu subseteq lam entrywise."""
    bounds_lo = tuple(mu) + (0,) * (len(lam) - len(mu))

    def rec(i: int, prev: int):
        if i == len(lam):
            yield ()
            return
        hi = min(lam[i], prev - 1)
        for v in range(hi, bounds_lo[i] - 1, -1):
            if v == 0:
                yield ()
            else:
                for rest in rec(i + 1, v):
                    yield (v,) + rest

    yield from rec(0, lam[0] + 1 if lam else 1)


def gds_split_exists(lam: Parts, mu: Parts) -> bool:
    """Definition-faithful test: some strict nu between mu and lam splits the
    skew into two parts, each free of a 2x2 block."""
    lam_cells = shifted_cells(lam)
    mu_cells = shifted_cells(mu)
    for nu in strict_partitions_between(mu, lam):
        nu_cells = shifted_cells(nu)
        if not _has_2x2_block(lam_cells - nu_cells) and not _has_2x2_block(
            nu_cells - mu_cells
        ):
            return True
    return False


def _connected_components(cells: set[tuple[int, int]]) -> list[set[tuple[int, int]]]:
    remaining = set(cells)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            i, j = frontier.pop()
            for nb in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        comps.append(comp)
    return comps


def classify_skew_by_cells(lam: Parts, mu: Parts) -> SkewClassification:
    """Cell-set reference for partitions.classify_skew.

    Membership requires both the intermediate-partition split of
    gds_split_exists and that no diagonal hold more than two cells; the
    second condition is what makes the two-cell/one-cell decomposition
    behind the weight formula well defined.  A raw split can exist without
    it (the full diagram of (3,2,1) is the smallest case), but every such
    shape has zero weight, which the test suite checks against the Pfaffian
    values for all shapes of weight up to eight.
    """
    l_jump = len(lam) - len(mu)
    if not contains(lam, mu):
        return SkewClassification(SkewKind.NOT_GDS, 0, (), l_jump)
    skew = shifted_cells(lam) - shifted_cells(mu)

    diag_counts: dict[int, int] = {}
    for i, j in skew:
        diag_counts[j - i] = diag_counts.get(j - i, 0) + 1
    if any(v > 2 for v in diag_counts.values()):
        return SkewClassification(SkewKind.NOT_GDS, 0, (), l_jump)
    if skew and not gds_split_exists(lam, mu):
        return SkewClassification(SkewKind.NOT_GDS, 0, (), l_jump)

    c = sum(1 for v in diag_counts.values() if v == 2)
    beta_cells = {cell for cell in skew if diag_counts[cell[1] - cell[0]] == 1}
    comps = sorted(_connected_components(beta_cells), key=min)
    rows: list[Parts] = []
    for comp in comps:
        row_ids = sorted({i for i, _ in comp})
        rows.append(tuple(sum(1 for i, _ in comp if i == r) for r in row_ids))
    beta_components = tuple(rows)

    m = len(beta_components)
    if c == 0 and m == 1:
        kind = SkewKind.SHIFTED_BORDER_STRIP
    elif c == 0:
        kind = SkewKind.GENERALIZED_STRIP
    elif m == 1:
        kind = SkewKind.DOUBLE_STRIP
    else:
        kind = SkewKind.GENERALIZED_DOUBLE_STRIP
    return SkewClassification(kind, c, beta_components, l_jump)


def gds_shapes_by_classification(lam: Parts, k: int) -> tuple:
    """Reference for characters._gds_shapes, in its filter-and-classify
    form: every strict nu of weight |lam| - k inside lam, in
    reverse-lexicographic order, classified by its cell set, each kept nu
    with the shape (c, doubled, sorted components) of its strip."""
    out = []
    for nu in strict_partitions_between((), lam):
        if sum(nu) == sum(lam) - k:
            cls = classify_skew_by_cells(lam, nu)
            if cls.kind is not SkewKind.NOT_GDS:
                out.append((nu, (cls.c, cls.l_jump == 2, tuple(sorted(cls.beta_components)))))
    return tuple(out)


def qbasis_expansion_by_qpoly(lam: Parts, k: int) -> tuple[tuple[Parts, QPoly], ...]:
    """Reference for characters.qbasis_expansion: the same part-by-part sums
    in QPoly arithmetic, unpacked, in the same order."""
    return composition_sums(_prepend, lam, k, f_single, negative_parts=True)


def qbasis_expansion_by_composition(lam: Parts, k: int) -> dict[Parts, QPoly]:
    """Reference for characters.qbasis_expansion: one scaled f_tau per composition
    tau and per term of straightening the whole word lam - tau."""
    out: dict[Parts, QPoly] = {}
    for tau in bounded_compositions(k, (k,) * len(lam)):
        ftau = f_coeff(tau)
        diff = tuple(l - t for l, t in zip(lam, tau))
        for nu, c in straighten(diff).items():
            out[nu] = out.get(nu, ZERO) + ftau.scale(c)
    return {nu: value for nu, value in out.items() if not value.is_zero()}


def pieri_f_sums_by_composition(mu: Parts, i: int) -> dict[Parts, QPoly]:
    """Reference for vertex.composition_sums(vertex._merge_part, mu, i):
    f_tau added once per composition tau of i bounded by mu, keyed by the
    partition mu - tau."""
    f_by_rest: dict[Parts, QPoly] = {}
    for tau in bounded_compositions(i, mu):
        rest = sort_desc(m - t for m, t in zip(mu, tau))
        f_by_rest[rest] = f_by_rest.get(rest, ZERO) + f_coeff(tau)
    return f_by_rest


@cache
def g_peel_unreduced(expansion, lam: Parts, mu: Parts) -> QPoly:
    """Reference for characters._g_peel: the same peel over the full
    lowering-step weights, expansion(lam, k) -> (nu, value), for the
    unnormalized pairing G(lam, mu), which is (q-1)^{l(mu)} times what the
    library peels."""
    if not lam:
        return ONE
    out = ZERO
    for nu, value in expansion(lam, mu[0]):
        out = out + value * g_peel_unreduced(expansion, nu, mu[1:])
    return out


@cache
def g_pieri_qpoly(lam: Parts, mu: Parts) -> QPoly:
    """Reference for characters._g_pieri: the Pieri recursion for the
    unnormalized pairing G(lam, mu), unpacked, in QPoly arithmetic."""
    if not lam:
        return ONE
    n = sum(lam)
    body = lam[1:]
    out = ZERO
    for i in range(lam[0], n + 1):
        strips = pieri_strips(body, i - lam[0])
        if not strips:
            continue
        sign = (-1) ** (i - lam[0])
        for rest, f_sum in composition_sums(_merge_part, mu, i):
            inner = ZERO
            for xi, a in strips:
                inner = inner + g_pieri_qpoly(xi, rest).scale(2**a)
            out = out + (f_sum * inner).scale(sign)
    return out


def apply_partial(n: int, a: GammaElement) -> GammaElement:
    """The derivation d/dp_n: multiplies by the multiplicity of n and removes
    one part n from the key."""
    out: dict[Parts, QPoly] = {}
    for rho, coeff in a.terms.items():
        m = rho.count(n)
        if not m:
            continue
        idx = rho.index(n)
        key = rho[:idx] + rho[idx + 1:]
        value = coeff.scale(m)
        out[key] = out.get(key, ZERO) + value
    return GammaElement(out)


@cache
def _exp_coefficient(weight, sigma: Parts) -> QPoly:
    # prod_i weight(sigma_i) / prod_j m_j!, the coefficient of the iterated
    # derivative along sigma in the exponential series
    denom = 1
    for m in multiplicities(sigma).values():
        denom *= factorial(m)
    coeff = ONE
    for part in sigma:
        coeff = coeff * weight(part)
    return coeff.scale(Fraction(1, denom))


def apply_exp_partials_by_derivatives(k: int, a: GammaElement, weight) -> GammaElement:
    """The degree-k term of exp(sum over odd n of weight(n) d/dp_n z^{-n})
    applied to a: the reference for gamma.apply_exp_partials at weight -1,
    and the g* operator at weight t^n - 1.  The exponential series is taken
    term by term, one chain of derivatives d/dp_sigma per odd
    partition sigma of k, divided by prod_j m_j(sigma)!."""
    if k == 0:
        return a
    if k < 0:
        raise ValueError("negative degree")
    out = GammaElement.zero()
    for sigma in odd_partitions_of(k):
        partial = a
        for part in sigma:
            partial = apply_partial(part, partial)
            if partial.is_zero():
                break
        out = out + scaled(partial, _exp_coefficient(weight, sigma))
    return out


# ---------------------------------------------------------------------------
# the power-sum ring and the character-side closed forms in QPoly arithmetic:
# references for the int forms in gamma.py and characters.py.  An element is
# a dict from odd partitions to nonzero QPoly coefficients, as
# GammaElement.terms gives it.

Terms = dict[Parts, QPoly]


def _nonzero(terms: Terms) -> Terms:
    return {k: v for k, v in terms.items() if not v.is_zero()}


def add_terms(a: Terms, b: Terms) -> Terms:
    """Reference for GammaElement.__add__."""
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, ZERO) + v
    return _nonzero(out)


def mul_terms(a: Terms, b: Terms) -> Terms:
    """Reference for GammaElement.__mul__: p_rho p_sigma = p_{rho + sigma}."""
    out: Terms = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = sort_desc(ka + kb)
            out[key] = out.get(key, ZERO) + va * vb
    return _nonzero(out)


def apply_exp_partials_terms(k: int, a: Terms) -> Terms:
    """Reference for gamma.apply_exp_partials."""
    if k == 0:
        return dict(a)
    out: Terms = {}
    for rho, coeff in a.items():
        for sigma, rest, count in _sub_multisets(rho, k):
            value = coeff.scale(-count if len(sigma) % 2 else count)
            out[rest] = out.get(rest, ZERO) + value
    return _nonzero(out)


def expand_q_n_terms(n: int) -> Terms:
    """Reference for gamma.expand_q_n."""
    if n < 0:
        return {}
    if n == 0:
        return {(): ONE}
    return {rho: QPoly((Fraction(2 ** len(rho), z_lambda(rho)),)) for rho in odd_partitions_of(n)}


def expand_g_n_terms(n: int) -> Terms:
    """Reference for gamma.expand_g_n."""
    if n < 0:
        return {}
    if n == 0:
        return {(): ONE}
    return {
        rho: zt_denominator(rho).scale(Fraction((-2) ** len(rho), z_lambda(rho)))
        for rho in odd_partitions_of(n)
    }


@cache
def g_product_terms(mu: Parts) -> Terms:
    """Reference for gamma.g_product."""
    out = {(): ONE}
    for part in mu:
        out = mul_terms(out, expand_g_n_terms(part))
    return out


@cache
def Q_lambda_vacuum_terms(lam: Parts) -> Terms:
    """Reference for vertex.Q_lambda_vacuum, through vertex.apply_Q_m's sum."""
    if not lam:
        return {(): ONE}
    a, m = Q_lambda_vacuum_terms(lam[1:]), lam[0]
    out: Terms = {}
    for j in range(max(0, -m), max((sum(k) for k in a), default=-1) + 1):
        lowered = apply_exp_partials_terms(j, a)
        if lowered:
            out = add_terms(out, mul_terms(expand_q_n_terms(m + j), lowered))
    return out


def orthogonality_sum_by_qpoly(mu: Parts, nu: Parts) -> QPoly:
    """Reference for characters.orthogonality_sum: the sum over strict lam of
    2^{delta_max - delta(lam)} times the product of the two character
    values, in QPoly arithmetic, divided by 2^{delta_max}."""
    mu, nu = sort_desc(mu), sort_desc(nu)
    lams = strict_partitions_of(sum(mu))
    delta_max = max(delta(lam) for lam in lams)
    out = ZERO
    for lam in lams:
        term = char_value(lam, mu) * char_value(lam, nu)
        out = out + term.scale(2 ** (delta_max - delta(lam)))
    return exact_div_int(out, 2**delta_max)


@cache
def two_row_series_by_qpoly(mu: Parts) -> tuple[QPoly, ...]:
    """C(v), the product over the parts m of mu of _two_row_factor(m), as
    q-polynomials indexed by the power of v."""
    if not mu:
        return (ONE,)
    head, factor = two_row_series_by_qpoly(mu[:-1]), _two_row_factor(mu[-1])
    series = [ZERO] * (len(head) + len(factor) - 1)
    for i, a in enumerate(head):
        if a:
            for j, b in enumerate(factor):
                if b:
                    series[i + j] = series[i + j] + a * b
    return tuple(series)


def two_row_tails_by_qpoly(mu: Parts) -> tuple[QPoly, ...]:
    """Entry k is the signed tail sum of C(v) from v^k up, for k = 0 .. n + 1."""
    tails = [ZERO]
    for i, c in reversed(list(enumerate(two_row_series_by_qpoly(mu)))):
        tails.append(tails[-1] + c.scale((-1) ** i))
    return tuple(reversed(tails))


def char_two_row_by_qpoly(k: int, mu: Parts) -> QPoly:
    """Reference for characters.char_two_row, on the QPoly tails."""
    mu = sort_desc(mu)
    tails = two_row_tails_by_qpoly(mu)
    return (tails[k] + tails[k + 1]).scale((-1) ** k * 2 ** (nonzero_length(mu) - 1))


# ---------------------------------------------------------------------------
# the table renderings as whole structures: a list of cell dicts through
# json.dumps, and lists of fields joined, the forms the streamed chunk
# renderers of hcchar.cli are checked against byte for byte

def render_table_json_by_dumps(n: int, table) -> str:
    cells = [
        {"lambda": list(lam), "mu": list(mu), "poly": table[(lam, mu)].to_json()}
        for lam, mu in table_cells(n)
    ]
    return json.dumps({"n": n, "cells": cells, "version": 1})


def render_table_csv_by_lines(n: int, table) -> str:
    lams = strict_partitions_of(n)
    lines = ["mu\\lambda," + ",".join(f'"{format_parts(lam)}"' for lam in lams)]
    for mu in odd_partitions_of(n):
        cells = ['"' + format_parts(mu) + '"']
        cells.extend('"' + table[(lam, mu)].to_text() + '"' for lam in lams)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_table_latex_by_lines(n: int, table) -> str:
    lams = strict_partitions_of(n)
    cols = "|" + "c|" * (len(lams) + 1)
    out = ["\\begin{tabular}{" + cols + "}", "\\hline"]
    header = ["$\\mu\\backslash\\lambda$"] + [
        "$(" + ",".join(map(str, lam)) + ")$" for lam in lams
    ]
    out.append(" & ".join(header) + " \\\\")
    out.append("\\hline")
    for mu in odd_partitions_of(n):
        row = ["$(" + ",".join(map(str, mu)) + ")$"]
        row.extend("$" + table[(lam, mu)].to_text() + "$" for lam in lams)
        out.append(" & ".join(row) + " \\\\")
        out.append("\\hline")
    out.append("\\end{tabular}")
    return "\n".join(out) + "\n"
