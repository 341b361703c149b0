"""The value classes: ``repr``, ``==``, ``hash`` and immutability.

Each class is a plain class on one small base, not a dataclass; these
pins hold the behaviour the dataclass versions had.  The repr strings
were captured from the dataclass versions.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from divdiff.counting import OpCounts
from divdiff.dataio import parse_data
from divdiff.derivatives import RhoSet, stencil_weights
from divdiff.interpolate import TailModel
from divdiff.oracle import GoldenStencil, RationalPoly, twosided_coeffs
from divdiff.quadrature import (CentralQuadPlan, central_quad_weights,
                                even_quad_weights, uneven_quad_plan)
from divdiff.repro import ReproCase, ReproReport
from divdiff.samples import GridSpec, SampleSet
from divdiff.tables import build_newton_table, split_plan


def _set3():
    return SampleSet([0, 1, 2], [0, 1, 4])


# class name -> (builder of a fresh instance, its repr, field names)
CASES = {
    "SampleSet": (
        lambda: SampleSet([0, 1], [2, 3]),
        "SampleSet(nodes=(0, 1), values=(2, 3))", ("nodes", "values")),
    "GridSpec": (
        lambda: GridSpec(0.0, 0.5, forward_count=2),
        "GridSpec(origin=0.0, step=0.5, forward_count=2, backward_count=0)",
        ("origin", "step", "forward_count", "backward_count")),
    "OpCounts": (
        lambda: OpCounts(1, 2, multiplications=3),
        "OpCounts(additions=1, subtractions=2, multiplications=3, "
        "divisions=0)",
        ("additions", "subtractions", "multiplications", "divisions")),
    "DDTable": (
        lambda: build_newton_table(_set3()),
        "DDTable(scheme='newton', nodes=(0, 1, 2), r=2, "
        "columns=((0, 1, 4), (1.0, 3.0), (1.0,)))",
        ("scheme", "nodes", "r", "columns")),
    "SplitPlan": (
        lambda: split_plan(_set3(), 1),
        "SplitPlan(nodes=(0, 1, 2), r=1, heads=(0,), column=(1.0, 2.0))",
        ("nodes", "r", "heads", "column")),
    "RhoSet": (
        lambda: RhoSet((1.5, -2.0)), "RhoSet(values=(1.5, -2.0))",
        ("values",)),
    "TwoSidedCoeffs": (
        lambda: twosided_coeffs(1, 1, 2),
        "TwoSidedCoeffs(m=1, n=1, A_neg=(None, Fraction(1, 2)), "
        "A_pos=(None, Fraction(1, 2)), W=(Fraction(0, 1), Fraction(1, 1)), "
        "a_hat=(Fraction(1, 1), Fraction(0, 1), Fraction(-1, 1)))",
        ("m", "n", "A_neg", "A_pos", "W", "a_hat")),
    "StencilWeights": (
        lambda: stencil_weights(1, 1, 2),
        "StencilWeights(offsets=(-1, 0, 1), weights=(Fraction(1, 1), "
        "Fraction(-2, 1), Fraction(1, 1)), order=2, accuracy_order=2)",
        ("offsets", "weights", "order", "accuracy_order")),
    "TailModel": (
        lambda: TailModel((1, F(1, 2)), 1),
        "TailModel(coefficients=(1, Fraction(1, 2)), fit_order=1, "
        "basis='x', residual=0.0)",
        ("coefficients", "fit_order", "basis", "residual")),
    "UnevenQuadPlan": (
        lambda: uneven_quad_plan(SampleSet([0, 1], [1, 3]), F(1, 2),
                                 F(1, 4)),
        "UnevenQuadPlan(x=Fraction(1, 2), h=Fraction(1, 4), "
        "rho=(Fraction(0, 1),), a_coeffs=(1, Fraction(0, 1)), "
        "gamma=(Fraction(1, 4), Fraction(1, 32)), "
        "node_weights=(Fraction(3, 32), Fraction(5, 32)))",
        ("x", "h", "rho", "a_coeffs", "gamma", "node_weights")),
    "EvenQuadPlan": (
        lambda: even_quad_weights(2),
        "EvenQuadPlan(n=2, node_weights=(Fraction(1, 3), Fraction(4, 3), "
        "Fraction(1, 3)))", ("n", "node_weights")),
    "CentralQuadPlan": (
        lambda: central_quad_weights(1),
        "CentralQuadPlan(n=1, node_weights=(Fraction(1, 3), "
        "Fraction(4, 3), Fraction(1, 3)))", ("n", "node_weights")),
    "DataFile": (
        lambda: parse_data("x,y\n1,2\n0,5\n"),
        "DataFile(xs=(0.0, 1.0), ys=(5.0, 2.0))", ("xs", "ys")),
    "RationalPoly": (
        lambda: RationalPoly([1, F(2, 3), 0]),
        "RationalPoly(coefficients=(Fraction(1, 1), Fraction(2, 3)))",
        ("coefficients",)),
    "GoldenStencil": (
        lambda: GoldenStencil("d1", "derivative", (-1, 1),
                              (F(-1, 2), F(1, 2)), 1),
        "GoldenStencil(name='d1', kind='derivative', offsets=(-1, 1), "
        "weights=(Fraction(-1, 2), Fraction(1, 2)), order=1)",
        ("name", "kind", "offsets", "weights", "order")),
    "ReproCase": (
        lambda: ReproCase("c", [1, 2], [1, 2], 0.0, 0.0, True),
        "ReproCase(case_id='c', expected=[1, 2], computed=[1, 2], "
        "tolerance=0.0, deviation=0.0, passed=True, note='')",
        ("case_id", "expected", "computed", "tolerance", "deviation",
         "passed", "note")),
    "ReproReport": (
        lambda: ReproReport([ReproCase("c", 1, 1.0, 0.5, 0.0, True,
                                       note="n")]),
        "ReproReport(cases=[ReproCase(case_id='c', expected=1, computed=1.0, "
        "tolerance=0.5, deviation=0.0, passed=True, note='n')])",
        ("cases",)),
}
# the classes whose instances cannot be hashed, with the TypeError message
UNHASHABLE = {"ReproCase": "unhashable type: 'list'",
              "ReproReport": "unhashable type: 'ReproReport'"}
MUTABLE = {"ReproReport"}


@pytest.mark.parametrize("name", CASES)
def test_value_class_behaves_as_its_dataclass_did(name):
    build, text, fields = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert repr(a) == text
    # == compares the fields, only within one class
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented
    other = next(c for n, c in CASES.items() if n != name)[0]()
    assert a != other
    values = tuple(getattr(a, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match=UNHASHABLE[name]):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
    if name in MUTABLE:
        a.cases = []
        assert a.cases == [] and a != b
    else:
        for field in fields:
            with pytest.raises(AttributeError, match=f"'{field}'"):
                setattr(a, field, getattr(a, field))
            with pytest.raises(AttributeError):
                delattr(a, field)
        assert tuple(getattr(a, f) for f in fields) == values


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_give_an_equal_instance(name):
    a = CASES[name][0]()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and repr(b) == repr(a)


def test_a_central_plan_never_equals_the_even_plan_of_its_weights():
    even = even_quad_weights(2)
    central = CentralQuadPlan(2, even.node_weights)
    assert even != central and central != even
    assert even.__eq__(central) is NotImplemented


def test_defaults_and_keywords():
    assert OpCounts() == OpCounts(0, 0, 0, 0)
    assert OpCounts(divisions=2).as_tuple() == (0, 0, 0, 2)
    assert GridSpec(origin=1, step=2) == GridSpec(1, 2, 0, 0)
    assert TailModel((1,), 0) == TailModel((1,), 0, basis="x", residual=0.0)
    assert ReproCase("c", 1, 1, 0.0, 0.0, True).note == ""
    assert ReproReport().cases == [] and ReproReport().cases is not \
        ReproReport().cases
