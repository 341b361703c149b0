"""The package surface: public names resolve lazily from their modules."""

import importlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import divdiff

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"

# names that left __all__: deleted wrappers, a now-private helper, and the
# paper identities that live unexported in divdiff.oracle
REMOVED = ("alternating_zeta", "barycentric_suffix_weights",
           "grid_lincomb_weight_sum", "harmonic_number", "lincomb_weight_sum",
           "quad_central", "quad_even")


def _run(code):
    return subprocess.run([sys.executable, "-c", code], cwd=SRC, check=True,
                          capture_output=True, text=True).stdout


def test_every_public_name_is_its_defining_module_attribute():
    for module, names in divdiff._EXPORTS.items():
        mod = importlib.import_module(f"divdiff.{module}")
        for name in names:
            value = getattr(divdiff, name)
            assert value is getattr(mod, name), name
            home = getattr(value, "__module__", mod.__name__)
            assert home == mod.__name__, name


def test_all_is_the_sorted_export_map():
    names = [n for names in divdiff._EXPORTS.values() for n in names]
    assert len(names) == len(set(names))
    assert divdiff.__all__ == sorted(names)


def test_readme_documents_the_public_surface():
    text = README.read_text()
    assert "\n## Public API\n" in text
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert [n for n in divdiff.__all__ if f"`{n}`" not in section] == []
    assert [n for n in REMOVED if re.search(rf"\b{n}\b", text)] == []
    assert not set(REMOVED) & set(divdiff.__all__)


def test_dir_covers_all():
    assert set(divdiff.__all__) <= set(dir(divdiff))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from divdiff import *", namespace)
    for name in divdiff.__all__:
        assert namespace[name] is getattr(divdiff, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        divdiff.no_such_name
    assert not hasattr(divdiff, "cli_main")


def test_bare_import_loads_no_submodule():
    out = _run("import json, sys, divdiff\n"
               "unknown = hasattr(divdiff, 'no_such_name')\n"
               "loaded = [m for m in sys.modules if m.startswith('divdiff.')]\n"
               "print(json.dumps([divdiff.__version__, unknown, loaded]))\n")
    assert json.loads(out) == ["0.1.0", False, []]


def test_modules_are_unbound_until_imported():
    out = _run("import divdiff\n"
               "try:\n"
               "    divdiff.tables\n"
               "except AttributeError:\n"
               "    print('unbound')\n")
    assert out == "unbound\n"


def test_route_imports_are_listed_by_importtime():
    # no hook imports a module on attribute access, so a route's
    # ``from . import derivatives`` is a plain import that -X importtime lists
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "divdiff.cli", "diff",
         "--grid", "0,0.1,2,2", "--func", "exp", "-t", "2"],
        cwd=SRC, check=True, capture_output=True, text=True)
    listed = {line.rsplit("|", 1)[-1].strip()
              for line in run.stderr.splitlines()}
    assert "divdiff.derivatives" in listed


def test_first_public_name_binds_every_name_and_drops_the_hook():
    out = _run("import json, divdiff\n"
               "divdiff.uniform_step\n"
               "unbound = set(divdiff.__all__) - set(vars(divdiff))\n"
               "print(json.dumps([sorted(unbound), "
               "'__getattr__' in vars(divdiff)]))\n")
    assert json.loads(out) == [[], False]


SAMPLED = []  # the points the sampler routes below were asked for


def _sampler(x):
    SAMPLED.append(x)
    return math.sin(x)


def _sample_set():
    return divdiff.SampleSet([0.0, 0.5, 1.5, 2.0], [1.0, 2.0, 0.5, 3.0])


_S, _VALS = _sample_set(), [math.exp(0.1 * k) for k in range(9)]

# every public order, count, split index and rule size: the argument's
# name and a call that takes it as v
ORDER_ROUTES = {
    "forward_derivative": ("t", lambda v: divdiff.forward_derivative(
        _VALS, 0.1, v)),
    "twosided_derivative t": ("t", lambda v: divdiff.twosided_derivative(
        _VALS, 0.1, v, 2)),
    "twosided_derivative m": ("m", lambda v: divdiff.twosided_derivative(
        _VALS, 0.1, 2, v)),
    "central_derivative": ("t", lambda v: divdiff.central_derivative(
        _VALS, 0.1, v)),
    "stencil_weights t": ("t", lambda v: divdiff.stencil_weights(3, 3, v)),
    "stencil_weights m": ("m", lambda v: divdiff.stencil_weights(v, 3, 2)),
    "stencil_weights n": ("n", lambda v: divdiff.stencil_weights(3, v, 2)),
    "derivative_uneven": ("t", lambda v: divdiff.derivative_uneven(
        _S, 0.25, v)),
    "rho_coeffs": ("kmax", lambda v: divdiff.rho_coeffs(_S, 0.25, v)),
    "derivative_lincomb": ("k", lambda v: divdiff.derivative_lincomb(
        _S, 0.25, v)),
    "series_derivative k": ("k", lambda v: divdiff.series_derivative(
        _sampler, 0.3, 0.3, v, 50)),
    "series_derivative terms": ("terms", lambda v: divdiff.series_derivative(
        _sampler, 0.3, 0.3, 2, 25 * v)),
    "diff_op_counts n": ("n", lambda v: divdiff.diff_op_counts(2 * v, 2)),
    "diff_op_counts k": ("k", lambda v: divdiff.diff_op_counts(4, v)),
    "interpolate_general": ("r", lambda v: divdiff.interpolate_general(
        _S, v, 0.3)),
    "interpolate_barycentric": ("r", lambda v: divdiff.interpolate_barycentric(
        _S, v, 0.3)),
    "extended_dd_eval": ("r", lambda v: divdiff.extended_dd_eval(_S, v, 0.3)),
    "split_plan": ("r", lambda v: divdiff.split_plan(_S, v)),
    "build_new_table": ("r", lambda v: divdiff.build_new_table(_S, v)),
    "build_combined_table": ("r", lambda v: divdiff.build_combined_table(
        _S, v)),
    "build_integer_table": ("r", lambda v: divdiff.build_integer_table(
        _VALS, v)),
    "zigzag_positions m": ("m", lambda v: divdiff.zigzag_positions(v, 2)),
    "zigzag_positions n": ("n", lambda v: divdiff.zigzag_positions(2, v)),
    "interpolate_forward_even": ("r", lambda v:
                                 divdiff.interpolate_forward_even(
                                     _VALS, v, 0.5)),
    "interpolate_backward_even": ("r", lambda v:
                                  divdiff.interpolate_backward_even(
                                      _VALS, v, 0.5)),
    "interpolate_central m": ("m", lambda v: divdiff.interpolate_central(
        _VALS, v, 1, 0.5)),
    "interpolate_central r": ("r", lambda v: divdiff.interpolate_central(
        _VALS, 2, v, 0.5)),
    "fit_tail r": ("r", lambda v: divdiff.fit_tail(_S, v, 1)),
    "fit_tail model_degree": ("model_degree", lambda v: divdiff.fit_tail(
        _S, 1, v)),
    "interpolate_with_tail": ("r", lambda v: divdiff.interpolate_with_tail(
        _S, v, divdiff.fit_tail(_S, 2, 1), 0.3)),
    "count_ops n": ("n", lambda v: divdiff.count_ops(2 * v, 2)),
    "count_ops r": ("r", lambda v: divdiff.count_ops(4, v)),
    "newton_op_counts": ("n", lambda v: divdiff.newton_op_counts(v)),
    "lagrange_op_counts": ("n", lambda v: divdiff.lagrange_op_counts(v)),
    "even_quad_weights": ("n", lambda v: divdiff.even_quad_weights(v)),
    "central_quad_weights": ("n", lambda v: divdiff.central_quad_weights(v)),
    "quad_composite panels": ("panels", lambda v: divdiff.quad_composite(
        _sampler, 0, 1, v)),
    "quad_composite rule": ("rule", lambda v: divdiff.quad_composite(
        _sampler, 0, 1, 4, v)),
    "GridSpec forward_count": ("forward_count", lambda v: divdiff.GridSpec(
        0.0, 0.1, v)),
    "GridSpec backward_count": ("backward_count", lambda v: divdiff.GridSpec(
        0.0, 0.1, 2, v)),
}


@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_a_float_order_is_a_type_error_naming_it(route):
    name, call = ORDER_ROUTES[route]
    # the int runs first, so a cache keyed by its value cannot answer 2.0
    want = call(2)
    assert call(True) == call(1)  # True stays 1
    SAMPLED.clear()
    # 0.5 too, below every range: the type is checked before the range
    for value in (2.0, 0.5):
        with pytest.raises(TypeError,
                           match=f"^{name} must be an integer, "):
            call(value)
    assert SAMPLED == []  # raised before any work
    assert call(2) == want


_STENCIL = "need m, n >= 0 and 1 <= t <= m + n"
_CENTRAL = "insufficient two-sided range for requested r"

# each route of ORDER_ROUTES called with a value below its range and, where
# it has one, a value above, with the message that each raises
RANGE_ERRORS = {
    "forward_derivative": {0: "t=0 out of range 1..8",
                           9: "t=9 out of range 1..8"},
    "twosided_derivative t": {0: "t=0 out of range 1..8",
                              9: "t=9 out of range 1..8"},
    "twosided_derivative m": {-1: "m=-1 out of range 0..8",
                              9: "m=9 out of range 0..8"},
    "central_derivative": {0: "t=0 out of range 1..8",
                           9: "t=9 out of range 1..8"},
    "stencil_weights t": {0: _STENCIL, 7: _STENCIL},
    "stencil_weights m": {-1: _STENCIL},
    "stencil_weights n": {-1: _STENCIL},
    "derivative_uneven": {0: "t=0 out of range 1..3",
                          4: "t=4 out of range 1..3"},
    "rho_coeffs": {0: "kmax must be >= 1"},
    "derivative_lincomb": {0: "k=0 out of range 1..3",
                           4: "k=4 out of range 1..3"},
    "series_derivative k": {0: "k must be >= 1"},
    "series_derivative terms": {0: "terms must be >= 1"},
    "diff_op_counts n": {0: "n must be >= 1"},
    "diff_op_counts k": {0: "k must be >= 1"},
    **{route: {-1: "r=-1 out of range 0..3", 4: "r=4 out of range 0..3"}
       for route in ("interpolate_general", "interpolate_barycentric",
                     "extended_dd_eval", "split_plan", "build_new_table",
                     "build_combined_table")},
    **{route: {-1: "r=-1 out of range 0..8", 9: "r=9 out of range 0..8"}
       for route in ("build_integer_table", "interpolate_forward_even",
                     "interpolate_backward_even")},
    "zigzag_positions m": {-1: "m must be >= 0"},
    "zigzag_positions n": {-1: "n must be >= 0"},
    "interpolate_central m": {-1: "m must be >= 0",
                              9: "m exceeds the sample count"},
    "interpolate_central r": {-1: "r must be >= 0", 3: _CENTRAL},
    "fit_tail r": {0: "r=0 out of range 1..3", 4: "r=4 out of range 1..3"},
    "fit_tail model_degree": {
        -1: "model degree must be >= 0, got -1",
        3: "not enough divided differences for the requested degree"},
    "interpolate_with_tail": {0: "r=0 out of range 1..3",
                              4: "r=4 out of range 1..3"},
    "count_ops n": {0: "n must be >= 1"},
    "count_ops r": {-1: "r=-1 out of range 0..4", 5: "r=5 out of range 0..4"},
    "newton_op_counts": {0: "n must be >= 1"},
    "lagrange_op_counts": {0: "n must be >= 1"},
    "even_quad_weights": {0: "n must be >= 1"},
    "central_quad_weights": {0: "n must be >= 1"},
    "quad_composite panels": {0: "panels must be >= 1"},
    "quad_composite rule": {0: "rule must be >= 1"},
    "GridSpec forward_count": {-1: "forward_count must be >= 0"},
    "GridSpec backward_count": {-1: "backward_count must be >= 0"},
}


@pytest.mark.parametrize("route", ORDER_ROUTES)
def test_an_order_out_of_range_is_a_value_error_naming_it(route):
    assert RANGE_ERRORS.keys() == ORDER_ROUTES.keys()
    call = ORDER_ROUTES[route][1]
    for value, message in RANGE_ERRORS[route].items():
        SAMPLED.clear()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)
        assert SAMPLED == []  # raised before any work
