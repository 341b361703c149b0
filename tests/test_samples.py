import math
import re
from fractions import Fraction

import pytest

from divdiff import (CENTRAL_VARIANTS, GridSpec, OpTally, SampleSet, TailModel,
                     derivative_lincomb, derivative_uneven, extended_dd_eval,
                     interpolate_backward_even, interpolate_barycentric,
                     interpolate_central, interpolate_forward_even,
                     interpolate_general, interpolate_with_tail, uniform_step)
from divdiff.oracle import twosided_coeffs
from divdiff.tables import split_plan


class TestSampleSet:
    def test_basic_properties(self):
        s = SampleSet([0.5, 1.5], [2.0, 3.0])
        assert s.n == 1
        assert s.nodes == (0.5, 1.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            SampleSet([1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one"):
            SampleSet([], [])
        with pytest.raises(ValueError, match="coincident"):
            SampleSet([1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            SampleSet([0.0, float("nan")], [0.0, 1.0])

    def test_validation_order_and_float_subclasses(self):
        class Real(float):
            pass

        with pytest.raises(ValueError, match="equal length"):
            SampleSet([math.inf], [])
        with pytest.raises(ValueError, match="finite"):
            SampleSet([0.0, 1.0], [0.0, Real("-inf")])
        # the non-finite scan comes before the coincidence check
        with pytest.raises(ValueError, match="finite"):
            SampleSet([math.inf, math.inf], [0.0, 1.0])
        with pytest.raises(ValueError, match="coincident"):
            SampleSet([1, Fraction(1), 2.0], [0.0, 1.0, 2.0])

    def test_finite_check_of_large_and_mixed_entries(self):
        # one fsum vouches for float data; an entry too large for a float,
        # a sum that overflows or a first entry that is not a float takes
        # the per-entry loop, which accepts ints and Fractions of any size
        big = 10 ** 400
        for entry in (big, -big, Fraction(big), Fraction(1, 3)):
            SampleSet([0.5, 1.5, entry], [1.0, 2.0, 3.0])
            SampleSet([0.5, 1.5], [1.0, entry])
        SampleSet([1e308, 1.7e308], [1.0, 2.0])
        SampleSet([0.5, 1.5], [-1.7e308, -1e308])
        for bad in (math.inf, -math.inf, math.nan):
            for nodes, values in (([0.5, 1.5], [1.0, bad]),
                                  ([0.5, bad], [big, 2.0]),
                                  ([1e308, 1.7e308, bad], [1.0] * 3),
                                  ([1, 0.5], [bad, 2.0]),
                                  ([Fraction(1, 3), bad], [1.0, 2.0])):
                with pytest.raises(ValueError,
                                   match="^non-finite entry in sample set$"):
                    SampleSet(nodes, values)
        with pytest.raises(ValueError, match="^non-finite entry"):
            SampleSet([0.5, math.inf], [-math.inf, 1.0])

    @pytest.mark.parametrize("bad", ["a", None, 1 + 0j],
                             ids=["str", "none", "complex"])
    def test_an_entry_that_is_not_a_number_is_named(self, bad):
        # the per-entry loop names the first entry that is not an int, a
        # float or a Fraction, nodes before values
        for nodes, values, name in (([0.0, 0.1], [0.5, bad], "values[1]"),
                                    ([0.5], [bad], "values[0]"),
                                    ([bad, 1.0], [1.0, 2.0], "nodes[0]"),
                                    ([1, 2, bad], [bad, 1, 2], "nodes[2]"),
                                    ([Fraction(1, 3), 1], [2, bad],
                                     "values[1]")):
            with pytest.raises(TypeError, match=(
                    rf"^{re.escape(name)} is not a number: ")):
                SampleSet(nodes, values)

    def test_a_node_that_is_not_a_number_never_reaches_a_route(self):
        # interpolate_general once returned the value 'a' here
        with pytest.raises(TypeError, match=r"^nodes\[0\] is not a number"):
            interpolate_general(SampleSet(["a"], [1.0]), 0, 0.3)
        with pytest.raises(TypeError, match=r"^values\[0\] is not a number"):
            interpolate_general(SampleSet([0.5], ["a"]), 0, 0.3)

    def test_number_subclasses_pass(self):
        class Real(float):
            pass

        s = SampleSet([False, True, Real(2.0)], [1, Fraction(1, 2), 0.25])
        assert s.nodes == (0, 1, 2.0)

    def test_subset_and_sorted(self):
        s = SampleSet([2.0, 0.0, 1.0], [20.0, 0.0, 10.0])
        assert s.subset([2, 0]).nodes == (1.0, 2.0)
        assert s.sorted().values == (0.0, 10.0, 20.0)

    def test_mixed_rational_nodes_stay_exact(self):
        s = SampleSet([Fraction(1, 3), Fraction(2, 3)], [Fraction(1), Fraction(2)])
        assert s.nodes[1] - s.nodes[0] == Fraction(1, 3)


_S = SampleSet([0.0, 0.4, 1.1, 1.5], [1.0, -2.0, 0.5, 3.0])
_EVEN = [1.0, -2.0, 0.5, 3.0, 2.0]
_ROUTES = {
    "general": ("x", lambda v: interpolate_general(_S, 2, v)),
    "general-tally": ("x", lambda v: interpolate_general(_S, 2, v,
                                                         tally=OpTally())),
    "barycentric": ("x", lambda v: interpolate_barycentric(_S, 2, v)),
    "extended_dd": ("x", lambda v: extended_dd_eval(_S, 2, v)),
    "extended_dd-bary": ("x", lambda v: extended_dd_eval(_S, 2, v, True)),
    "with_tail": ("x", lambda v: interpolate_with_tail(
        _S, 2, TailModel((1.0,), 2), v)),
    "lincomb": ("x", lambda v: derivative_lincomb(_S, v, 1)),
    "lincomb-fx": ("x", lambda v: derivative_lincomb(_S, v, 1, fx=0.5)),
    "lincomb-fx-value": ("fx", lambda v: derivative_lincomb(_S, 0.7, 1,
                                                            fx=v)),
    "uneven-fx-value": ("fx", lambda v: derivative_uneven(_S, 0.7, 1, fx=v)),
    "uneven-fx-value-tally": ("fx", lambda v: derivative_uneven(
        _S, 0.7, 1, fx=v, tally=OpTally())),
    "forward_even": ("s", lambda v: interpolate_forward_even(_EVEN, 2, v)),
    "backward_even": ("s", lambda v: interpolate_backward_even(_EVEN, 2, v)),
    **{f"central-{variant}": (
        "s", lambda v, variant=variant: interpolate_central(_EVEN, 2, 1, v,
                                                            variant))
       for variant in CENTRAL_VARIANTS},
    "grid-origin": ("origin", lambda v: GridSpec(v, 0.1, 1)),
}


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("route", _ROUTES)
def test_non_finite_point_or_value_raises(route, v):
    name, call = _ROUTES[route]
    with pytest.raises(ValueError, match=f"^{name}={v} is not finite$"):
        call(v)


class TestGridSpec:
    def test_node_mapping(self):
        g = GridSpec(origin=1.0, step=0.5, forward_count=2, backward_count=1)
        assert g.offsets() == [-1, 0, 1, 2]
        assert g.nodes() == [0.5, 1.0, 1.5, 2.0]

    def test_sampling(self):
        g = GridSpec(0.0, 0.25, forward_count=3)
        s = g.sample(lambda x: x * x)
        assert s.values[2] == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            GridSpec(0.0, 0.0, 2, 0)
        with pytest.raises(ValueError, match="^forward_count must be >= 0$"):
            GridSpec(0.0, 0.1, -1, 0)

    def test_exact_origins_keep_their_type(self):
        assert GridSpec(1, 2, 2).nodes() == [1, 3, 5]
        half = Fraction(1, 2)
        nodes = GridSpec(half, Fraction(1, 3), 1, 1).nodes()
        assert nodes == [Fraction(1, 6), half, Fraction(5, 6)]
        assert all(type(x) is Fraction for x in nodes)


class TestUniformStep:
    def test_detects_grid(self):
        assert uniform_step([1.0, 1.25, 1.5, 1.75]) == pytest.approx(0.25)
        assert uniform_step([0.0, 0.1, 0.25]) is None
        assert uniform_step([3.0]) is None

    def test_tolerance_is_strict(self):
        nodes = [0.0, 0.1, 0.2 + 5e-12]
        assert uniform_step(nodes) is None


class TestCoefficientParity:
    def test_odd_central_coefficients_vanish(self):
        co = twosided_coeffs(3, 3, 5)
        assert co.a_hat[1] == 0
        assert co.a_hat[3] == 0
        assert co.a_hat[5] == 0

    def test_suffix_weights_finite_and_nonzero(self):
        s = SampleSet([0.0, 0.4, 1.0, 1.7, 2.1], [0.0] * 5)
        for r in (0, 2, 4):
            ws = split_plan(s, r).weights
            assert len(ws) == 5 - r
            for w in ws:
                assert math.isfinite(w) and w != 0
