"""Exact irreducible characters of the Hecke-Clifford algebra, the strip
weights behind the Murnaghan-Nakayama-style rules, and the spin bitrace.

Everything is computed in exact arithmetic: polynomials over arbitrary-
precision rationals, with integer character values asserted at the boundary.
"""

from .bitrace import (
    T_mu_nu,
    WeightMismatchError,
    alpha,
    regular_char,
    sbtr,
    sbtr_powersum,
)
from .characters import (
    BadShapeError,
    METHODS,
    NotGdsError,
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
    orthogonality_sum,
    sbs_principal,
    wt_gds,
)
from .gamma import (
    GammaElement,
    expand_g_n,
    expand_q_n,
    inner_product,
)
from .partitions import (
    SkewClassification,
    SkewKind,
    classify_skew,
    odd_partitions_of,
    pieri_strips,
    shifted_syt_count,
    strict_partitions_of,
)
from .pfaffian import skew_Q_principal
from .qpoly import NonDivisibleError, QPoly, round_bracket
from .vertex import Q_lambda_vacuum, apply_Q_m, f_pair, straighten

__version__ = "0.1.0"
