"""Test-only oracles: slow, definition-level computations that the library
is checked against."""

from fractions import Fraction
from functools import cache
from math import factorial

from hcchar.gamma import GammaElement
from hcchar.partitions import (
    Parts,
    SkewClassification,
    SkewKind,
    bounded_compositions,
    contains,
    multiplicities,
    odd_partitions_of,
    shifted_cells,
    sort_desc,
)
from hcchar.qpoly import ONE, QPoly, ZERO
from hcchar.vertex import f_coeff, straighten


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


def qbasis_expansion_by_composition(lam: Parts, k: int) -> dict[Parts, QPoly]:
    """Reference for vertex.qbasis_expansion: one scaled f_tau per composition
    tau and straightening term, with no grouping by multiset."""
    out: dict[Parts, QPoly] = {}
    for tau in bounded_compositions(k, (k,) * len(lam)):
        ftau = f_coeff(tau)
        diff = tuple(l - t for l, t in zip(lam, tau))
        for nu, c in straighten(diff).items():
            out[nu] = out.get(nu, ZERO) + ftau.scale(c)
    return {nu: value for nu, value in out.items() if not value.is_zero()}


def pieri_f_sums_by_composition(mu: Parts, i: int) -> dict[Parts, QPoly]:
    """Reference for characters._pieri_f_sums: f_tau added once per composition
    tau of i bounded by mu, keyed by the partition mu - tau."""
    f_by_rest: dict[Parts, QPoly] = {}
    for tau in bounded_compositions(i, mu):
        rest = sort_desc(m - t for m, t in zip(mu, tau))
        f_by_rest[rest] = f_by_rest.get(rest, ZERO) + f_coeff(tau)
    return f_by_rest


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
    """Reference for gamma.apply_exp_partials: the degree-k term of the
    exponential series, one chain of derivatives d/dp_sigma per odd
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
        if not partial.is_zero():
            out = out + partial.scale(_exp_coefficient(weight, sigma))
    return out
