"""divdiff: divided-difference tables, split-form interpolation,
arbitrary-order finite differences, and quadrature-weight generation.

Numbers follow their inputs: pass floats for the fast path or
``fractions.Fraction`` throughout for exact arithmetic.
"""

from .counting import OpCounts, OpTally
from .derivatives import (RhoSet, StencilWeights, TwoSidedCoeffs,
                          alternating_zeta, central_derivative,
                          derivative_lincomb, derivative_uneven,
                          diff_op_counts, forward_derivative,
                          grid_lincomb_weight_sum, harmonic_number,
                          lincomb_weight_sum, rho_coeffs, series_derivative,
                          stencil_weights, twosided_coeffs,
                          twosided_derivative)
from .interpolate import (CENTRAL_VARIANTS, TailModel, count_ops, fit_tail,
                          interpolate_backward_even, interpolate_barycentric,
                          interpolate_central, interpolate_forward_even,
                          interpolate_general, interpolate_with_tail,
                          lagrange_op_counts, newton_op_counts,
                          tail_model_from_json)
from .oracle import (GoldenStencil, RationalPoly, known_stencils,
                     oracle_interpolate, table5_function)
from .quadrature import (CentralQuadPlan, EvenQuadPlan, UnevenQuadPlan,
                         central_quad_weights, even_quad_weights, quad_central,
                         quad_composite, quad_even, quad_uneven,
                         uneven_quad_plan)
from .samples import GridSpec, SampleSet, uniform_step
from .tables import (DDTable, SplitPlan, barycentric_suffix_weights,
                     build_combined_table, build_integer_table,
                     build_new_table, build_newton_table, divided_difference,
                     extended_dd_eval, split_plan, table_from_json,
                     zigzag_positions)

__version__ = "0.1.0"

__all__ = [
    "CENTRAL_VARIANTS", "CentralQuadPlan", "DDTable", "EvenQuadPlan",
    "GoldenStencil", "GridSpec", "OpCounts", "OpTally", "RationalPoly",
    "RhoSet", "SampleSet", "SplitPlan", "StencilWeights", "TailModel",
    "TwoSidedCoeffs",
    "UnevenQuadPlan", "alternating_zeta", "barycentric_suffix_weights",
    "build_combined_table", "build_integer_table", "build_new_table",
    "build_newton_table", "central_derivative", "central_quad_weights",
    "count_ops", "derivative_lincomb", "derivative_uneven", "diff_op_counts",
    "divided_difference", "even_quad_weights", "extended_dd_eval", "fit_tail",
    "forward_derivative", "grid_lincomb_weight_sum", "harmonic_number",
    "interpolate_backward_even", "interpolate_barycentric",
    "interpolate_central", "interpolate_forward_even", "interpolate_general",
    "interpolate_with_tail", "known_stencils", "lagrange_op_counts",
    "lincomb_weight_sum", "newton_op_counts", "oracle_interpolate",
    "quad_central", "quad_composite", "quad_even", "quad_uneven", "rho_coeffs",
    "series_derivative", "split_plan", "stencil_weights", "table5_function",
    "table_from_json", "tail_model_from_json", "twosided_coeffs",
    "twosided_derivative", "uneven_quad_plan", "uniform_step",
    "zigzag_positions",
]
