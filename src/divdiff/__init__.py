"""divdiff: divided-difference tables, split-form interpolation,
arbitrary-order finite differences, and quadrature-weight generation.

Numbers follow their inputs: pass floats for the fast path or
``fractions.Fraction`` throughout for exact arithmetic.

The public names load lazily (PEP 562): ``import divdiff`` runs no
submodule.  The first access to a public name imports the modules below
and binds every public name here.  A module is an attribute once it is
imported (``import divdiff.tables``), as in any package.
"""

from importlib import import_module as _import_module

# defining module -> the public names it exports
_EXPORTS = {
    "counting": ("OpCounts", "OpTally"),
    "derivatives": (
        "RhoSet", "StencilWeights", "central_derivative", "derivative_lincomb",
        "derivative_uneven", "diff_op_counts", "forward_derivative",
        "rho_coeffs", "series_derivative", "stencil_weights",
        "twosided_derivative"),
    "interpolate": (
        "CENTRAL_VARIANTS", "TailModel", "count_ops", "fit_tail",
        "interpolate_backward_even", "interpolate_barycentric",
        "interpolate_central", "interpolate_forward_even",
        "interpolate_general", "interpolate_with_tail", "lagrange_op_counts",
        "newton_op_counts", "tail_model_from_json"),
    "oracle": ("GoldenStencil", "RationalPoly", "TwoSidedCoeffs",
               "known_stencils", "oracle_interpolate", "table5_function",
               "twosided_coeffs"),
    "quadrature": ("CentralQuadPlan", "EvenQuadPlan", "UnevenQuadPlan",
                   "central_quad_weights", "even_quad_weights",
                   "quad_composite", "quad_uneven", "uneven_quad_plan"),
    "samples": ("GridSpec", "SampleSet", "uniform_step"),
    "tables": ("DDTable", "SplitPlan", "build_combined_table",
               "build_integer_table", "build_new_table", "build_newton_table",
               "divided_difference", "extended_dd_eval", "split_plan",
               "table_from_json", "zigzag_positions"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, imported on first use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _EXPORTS.items():
        mod = _import_module(f"{__name__}.{module}")
        namespace.update((n, getattr(mod, n)) for n in names)
    # every public name is bound now; while a module defines __getattr__,
    # CPython does not specialise attribute reads on it, and each
    # ``divdiff.name`` read costs about three times as much
    namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
