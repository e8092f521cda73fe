"""Exact symbolic calculator for deformed q-differentials at roots of unity.

Computes the expansion of powers of the deformed differential d + a in the
free graded setting.  The production route is the q-binomial power formula
D^N = sum_k [N choose k]_q M(k) d^(N-k), with M(k) from its closed product
formula; the weighted-path model, direct noncommutative normal ordering and
the recursion defining M(k) are oracles.  Every route is cross-validated
exactly over Z[q] and modulo cyclotomic polynomials.  Each word
e_{s_1} * ... * e_{s_m} is a :class:`Comp`, also a vertex of the path model.
"""

from .cyclo import (
    ONE,
    Q,
    ZERO,
    CycloModulus,
    QPoly,
    coeffs_list,
    cyclotomic,
    divisors,
    poly_from_coeffs,
    q_binomial,
    q_factorial,
    q_number,
    reduce,
)
from .paths import (
    Comp,
    Edge,
    WeightRule,
    enumerate_vertices,
    forward_tables,
    path_sum_dp,
    path_sum_enum,
    stay_count,
    successors,
)
from .freealg import (
    ElementPoly,
    OperatorPoly,
    Term,
    deformed_power,
    deformed_power_first_order,
    maurer_cartan_element,
    multiply_by_a,
    normal_order,
    q_derivative,
)
from .curvature import (
    COMPOSITION_SUM_READINGS,
    CompositionSumComparison,
    CurvatureExpansion,
    InfinitesimalCoefficients,
    VerifyReport,
    binomial_expansion,
    four_step_listing_mismatches,
    generic_expansion,
    infinitesimal_coefficients,
    infinitesimal_composition_sum,
    infinitesimal_from_operator,
    path_expansion,
    path_root_expansion,
    resolve_default_rule,
    root_of_unity_expansion,
    verify_suite,
)

__version__ = "0.1.0"

__all__ = [
    "CycloModulus",
    "QPoly",
    "ZERO",
    "ONE",
    "Q",
    "q_number",
    "q_factorial",
    "q_binomial",
    "cyclotomic",
    "divisors",
    "reduce",
    "coeffs_list",
    "poly_from_coeffs",
    "Comp",
    "Edge",
    "WeightRule",
    "successors",
    "enumerate_vertices",
    "stay_count",
    "path_sum_enum",
    "path_sum_dp",
    "forward_tables",
    "Term",
    "OperatorPoly",
    "ElementPoly",
    "normal_order",
    "q_derivative",
    "multiply_by_a",
    "deformed_power",
    "deformed_power_first_order",
    "maurer_cartan_element",
    "CurvatureExpansion",
    "InfinitesimalCoefficients",
    "CompositionSumComparison",
    "COMPOSITION_SUM_READINGS",
    "VerifyReport",
    "path_expansion",
    "path_root_expansion",
    "generic_expansion",
    "root_of_unity_expansion",
    "binomial_expansion",
    "infinitesimal_coefficients",
    "infinitesimal_from_operator",
    "infinitesimal_composition_sum",
    "four_step_listing_mismatches",
    "resolve_default_rule",
    "verify_suite",
]
