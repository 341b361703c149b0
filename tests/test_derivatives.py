import itertools
import math
import re
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdiff import (SampleSet, central_derivative, derivative_lincomb,
                     derivative_uneven, diff_op_counts, forward_derivative,
                     known_stencils, quad_uneven, rho_coeffs,
                     series_derivative, stencil_weights, twosided_coeffs,
                     twosided_derivative, uneven_quad_plan)
from divdiff.counting import OpTally
from divdiff.derivatives import _alternating_zeta, _weighted_sum
from divdiff.oracle import grid_lincomb_weight_sum, harmonic_number

from conftest import (exact_values, float_values, mixed_values,
                      random_float_samples, random_rational_nodes,
                      random_rational_poly, subset_weight_sum)


class TestRho:
    def test_even_grid_left_endpoint(self):
        h = 0.2
        s = SampleSet([1.0, 1.0 + h, 1.0 + 2 * h], [0.0, 0.0, 0.0])
        rho = rho_coeffs(s.subset((1, 2)), 1.0, 1)
        # two right neighbours: 2 - 1/2 over h
        assert rho[1] == pytest.approx(1.5 / h, rel=1e-12)

    def test_symmetric_grid_odd_orders_vanish(self):
        s = SampleSet([-0.3, 0.3], [0.0, 0.0])
        rho = rho_coeffs(s, 0.0, 3)
        assert rho[1] == pytest.approx(0.0, abs=1e-14)
        assert rho[3] == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_grid_exact_zero_in_rational_mode(self):
        nodes = [Fraction(k) for k in (-2, -1, 1, 2)]
        s = SampleSet(nodes, [Fraction(0)] * 4)
        rho = rho_coeffs(s, Fraction(0), 3)
        assert rho[1] == 0
        assert rho[3] == 0

    def test_single_node(self):
        s = SampleSet([2.0], [5.0])
        rho = rho_coeffs(s, 1.5, 3)
        for m in (1, 2, 3):
            assert rho[m] == pytest.approx((2.0 - 1.5) ** -m, rel=1e-14)

    def test_rejects_node_point(self):
        s = SampleSet([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="node"):
            rho_coeffs(s, 1.0, 2)

    def test_index_runs_from_zero_to_kmax(self):
        s = SampleSet([0.0, 0.4, 1.1, 1.5], [1.0, -2.0, 0.5, 3.0])
        rho = rho_coeffs(s, 1.7, 3)
        assert rho[0] == 1
        assert [rho[m] for m in (1, 2, 3)] == list(rho.values)
        # no wrap-around: rho[-1] is not rho_kmax
        for m in (-1, -3, 4):
            with pytest.raises(IndexError):
                rho[m]


class TestDerivativeUneven:
    def test_cubic_second_derivative(self):
        xs = [0.1, 0.9, 1.7, 2.3]
        s = SampleSet(xs, [x ** 3 for x in xs])
        assert derivative_uneven(s, 1.0, 2) == pytest.approx(6.0, rel=1e-10)

    def test_square_first_derivative_everywhere(self):
        xs = [0.2, 1.1, 2.5]
        s = SampleSet(xs, [x * x for x in xs])
        for x in (0.5, 1.9, 3.4):
            assert derivative_uneven(s, x, 1) == pytest.approx(2 * x, rel=1e-11)

    def test_exact_against_symbolic_derivative(self, rng):
        poly = random_rational_poly(rng, 4)
        s = poly.sample(random_rational_nodes(rng, 5))
        x = Fraction(4, 17)
        d3 = poly.derivative(3)
        assert derivative_uneven(s, x, 3) == d3(x)
        assert derivative_uneven(s, x, 3, fx=poly(x)) == d3(x)

    def test_node_point_rejected_with_routing_hint(self):
        s = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        with pytest.raises(ValueError, match="grid formula or derivative_lincomb"):
            derivative_uneven(s, 1.0, 1)

    def test_order_out_of_range(self):
        s = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        with pytest.raises(ValueError, match="out of range"):
            derivative_uneven(s, 0.5, 3)

    @pytest.mark.parametrize("known", [False, True], ids=["fx-none", "fx"])
    @pytest.mark.parametrize("t", [32, 33, 40])
    def test_brackets_past_32_orders_fold_into_a_list(self, rng, t, known):
        # every 32 orders the untallied bracket folds its map chain into a
        # list; the result still equals the tallied reference route
        nodes = [0.25 * i + 0.01 * rng.random() for i in range(41)]
        s = SampleSet(nodes, [rng.uniform(-1, 1) for _ in nodes])
        x = 5.13
        kw = {"fx": 0.375} if known else {}
        assert repr(derivative_uneven(s, x, t, **kw)) == \
            repr(derivative_uneven(s, x, t, tally=OpTally(), **kw))
        poly = random_rational_poly(rng, 40)
        exact = poly.sample([Fraction(i, 4) for i in range(41)])
        x = Fraction(41, 8)
        kw = {"fx": poly(x)} if known else {}
        assert derivative_uneven(exact, x, t, **kw) == poly.derivative(t)(x)

    def test_rho_needs_one_power(self):
        s = SampleSet([0.0, 0.4, 1.1, 1.5], [1.0, -2.0, 0.5, 3.0])
        with pytest.raises(ValueError, match="^kmax must be >= 1$"):
            rho_coeffs(s, 0.3, 0)


def _outcome(fn, *args, **kwargs):
    """``repr`` of the result, or the type of the exception raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ArithmeticError as exc:
        return type(exc).__name__


def _fresh(s):
    return SampleSet(s.nodes, s.values)


@st.composite
def _point_case(draw, kind=None, max_n=12):
    """A sample set of n <= max_n floats or Fractions and an off-node x of
    the same kind."""
    n = draw(st.integers(1, max_n))
    kind = kind or draw(st.sampled_from(["float", "fraction"]))
    number = (st.floats(-4, 4) if kind == "float"
              else st.fractions(-4, 4, max_denominator=12))
    nodes = draw(st.lists(number, min_size=n + 1, max_size=n + 1,
                          unique=True))
    values = draw(st.lists(number, min_size=n + 1, max_size=n + 1))
    x = draw(number.filter(lambda v: v not in nodes))
    return SampleSet(nodes, values), x, number


class TestPointState:
    """The off-node routes keep the basis and rho of the most recent point
    on the sample set; every result equals a call on a fresh set."""

    @given(_point_case(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_derivatives_in_any_order_equal_fresh_sets(self, case, data):
        s, x, number = case
        calls = data.draw(st.lists(
            st.tuples(st.integers(1, s.n), st.booleans()),
            min_size=1, max_size=2 * s.n))
        fx = data.draw(number)
        for t, known in calls:
            kw = {"fx": fx} if known else {}
            assert _outcome(derivative_uneven, s, x, t, **kw) == \
                _outcome(derivative_uneven, _fresh(s), x, t, **kw)

    @given(_point_case(), st.integers(1, 4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_longer_rho_then_step_plan_equal_fresh_sets(self, case, extra,
                                                         data):
        s, x, number = case
        h = data.draw(number.filter(lambda v: v != 0))
        kmax = s.n + extra
        got = _outcome(rho_coeffs, s, x, kmax)
        assert got == _outcome(rho_coeffs, _fresh(s), x, kmax)
        if "RhoSet" in got:
            assert len(rho_coeffs(s, x, kmax).values) == kmax
        plan = _outcome(uneven_quad_plan, s, x, h)
        assert plan == _outcome(uneven_quad_plan, _fresh(s), x, h)
        if "UnevenQuadPlan" in plan:
            assert len(uneven_quad_plan(s, x, h).rho) == s.n
        assert _outcome(rho_coeffs, s, x, 1) == \
            _outcome(rho_coeffs, _fresh(s), x, 1)

    @given(_point_case(max_n=16), st.data())
    @settings(max_examples=30, deadline=None)
    def test_mixed_calls_at_two_points_equal_the_reference(self, case, data):
        # derivatives against the tallied reference route, which rebuilds
        # every power; rho and the step integral against a fresh set
        s, x, number = case
        fx = data.draw(number)
        h = data.draw(number.filter(lambda v: v != 0))
        x2 = data.draw(number.filter(lambda v: v not in s.nodes and v != x))
        for x in (x, x2):
            orders = data.draw(st.lists(st.integers(1, s.n), min_size=3,
                                        max_size=5))
            for t in orders:
                kw = {"fx": fx} if data.draw(st.booleans()) else {}
                assert _outcome(derivative_uneven, s, x, t, **kw) == \
                    _outcome(derivative_uneven, _fresh(s), x, t,
                             tally=OpTally(), **kw)
            kmax = data.draw(st.integers(1, s.n + 4))
            assert _outcome(rho_coeffs, s, x, kmax) == \
                _outcome(rho_coeffs, _fresh(s), x, kmax)
            assert _outcome(quad_uneven, s, x, h) == \
                _outcome(quad_uneven, _fresh(s), x, h)

    @given(_point_case("fraction"),
           st.integers(-64, 64).map(lambda k: k / 16))
    @settings(max_examples=40, deadline=None)
    def test_equal_fraction_and_float_points_keep_their_types(self, case,
                                                               xf):
        s, _, _ = case
        if xf in s.nodes:
            return
        xq = Fraction(xf)
        for x, kind in ((xf, float), (xq, Fraction), (xf, float)):
            got = derivative_uneven(s, x, 1)
            assert type(got) is kind
            assert repr(got) == repr(derivative_uneven(_fresh(s), x, 1))
            assert type(rho_coeffs(s, x, 2)[2]) is kind

    @given(_point_case("float"), st.data())
    @settings(max_examples=40, deadline=None)
    def test_tallied_call_after_untallied_counts_in_full(self, case, data):
        s, x, _ = case
        t = data.draw(st.integers(1, min(s.n, 4)))
        try:
            plain = derivative_uneven(s, x, s.n)
        except ArithmeticError:
            return
        state = s._point
        tally = OpTally()
        got = derivative_uneven(s, x, t, tally=tally)
        assert tally.snapshot() == diff_op_counts(s.n, t)
        assert s._point is state  # the tallied path never touches the slot
        assert repr(got) == repr(derivative_uneven(_fresh(s), x, t))
        assert repr(plain) == repr(derivative_uneven(_fresh(s), x, s.n))

    def test_slot_is_not_part_of_the_value(self):
        a = SampleSet([0.0, 0.5, 1.5], [1.0, 2.0, 0.5])
        b = _fresh(a)
        before = repr(a)
        derivative_uneven(a, 0.25, 2)
        assert a._point is not None and b._point is None
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == before
        assert a.sorted()._point is None
        assert a.subset([2, 0])._point is None

    def test_a_new_point_replaces_the_slot(self):
        s = SampleSet([0.0, 0.5, 1.5], [1.0, 2.0, 0.5])
        rho_coeffs(s, 0.25, 1)
        first = s._point
        rho_coeffs(s, 0.25, 3)
        assert s._point is not first and first[2] == s._point[2][:2]
        assert s._point[1] is first[1]  # a higher order keeps the basis
        powers = s._point[3]
        assert len(first[3]) == 2 and len(powers) == 4
        # a higher order extends the power table and keeps its tuples
        assert all(p is q for p, q in zip(first[3], powers))
        assert powers[3] == tuple((xi - 0.25) * (xi - 0.25) * (xi - 0.25)
                                  for xi in s.nodes)
        longest = s._point
        derivative_uneven(s, 0.25, 2)
        assert s._point is longest  # a repeat reads the slot, no rebuild
        rho_coeffs(s, 0.75, 1)
        assert s._point[0] == (float, 0.75)

    @pytest.mark.parametrize("nodes,x", [
        ([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)], 1.5),
        ([0, 1, 2], 1.0),
        ([-1.0, 0.0, 1.0], -0.0),
    ], ids=["float-at-fraction", "float-at-int", "minus-zero"])
    def test_every_equal_node_is_rejected(self, nodes, x):
        s = SampleSet(nodes, [1, 2, 4])
        calls = [
            lambda: derivative_uneven(s, x, 1),
            lambda: derivative_uneven(s, x, 2, fx=3),
            lambda: derivative_uneven(s, x, 1, tally=OpTally()),
            lambda: rho_coeffs(s, x, 2),
            lambda: quad_uneven(s, x, 0.25),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="node"):
                call()
        assert s._point is None

    def test_threads_sharing_a_set_get_fresh_set_values(self):
        # the threads make each call together, so they often extend the
        # state of one point at the same time
        s = SampleSet([0.0, 0.4, 1.1, 1.5, 2.3, 2.8, 3.2, 4.0, 4.6],
                      [1.0, -2.0, 0.5, 3.0, 1.5, 0.0, -1.0, 2.0, 0.5])
        cases = [(x, t) for x in (0.2, 0.7, 1.9) for t in range(1, 9)]
        want = {c: derivative_uneven(_fresh(s), *c) for c in cases}
        wrong = []
        together = threading.Barrier(6, timeout=30)

        def work():
            for _ in range(40):
                for c in cases:
                    together.wait()
                    if derivative_uneven(s, *c) != want[c]:
                        wrong.append(c)

        threads = [threading.Thread(target=work) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    @pytest.mark.parametrize("call, name", [
        (lambda s: derivative_uneven(s, math.inf, 1), "x"),
        (lambda s: derivative_uneven(s, math.nan, 1), "x"),
        (lambda s: derivative_uneven(s, math.nan, 1, tally=OpTally()), "x"),
        (lambda s: rho_coeffs(s, -math.inf, 2), "x"),
        (lambda s: quad_uneven(s, math.nan, 0.1), "x"),
        (lambda s: quad_uneven(s, 0.5, math.inf), "h"),
    ])
    def test_non_finite_point_or_step_raises(self, call, name):
        s = SampleSet([0.0, 0.3, 1.0], [1.0, 2.0, 0.5])
        with pytest.raises(ValueError, match=f"^{name}=.* is not finite"):
            call(s)
        assert s._point is None  # nan never becomes a key


class TestForwardDerivative:
    def test_three_point_forward_stencil(self):
        # n=2, t=1 collapses to (-3, 4, -1) / 2h
        h = 0.1
        vals = [2.0, -1.0, 0.5]
        want = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
        assert forward_derivative(vals, h, 1) == pytest.approx(want, rel=1e-13)

    def test_constant_data(self):
        for t in (1, 2, 3):
            assert forward_derivative([3.0] * 5, 0.2, t) == pytest.approx(0.0, abs=1e-10)

    def test_exp_first_derivative_order(self):
        h = 0.1
        vals = [math.exp(i * h) for i in range(5)]
        err = abs(forward_derivative(vals, h, 1) - 1.0)
        assert err <= 10 * h ** 4

    def test_u1_is_harmonic_number(self):
        for n in range(1, 21):
            co = twosided_coeffs(0, n, 1)
            assert co.W[0] == harmonic_number(n)
            assert float(co.W[0]) == pytest.approx(
                sum(1.0 / i for i in range(1, n + 1)), rel=1e-12)


class TestTwoSidedAndCentral:
    @pytest.mark.parametrize("m,n,name", [
        (4, 0, "backward-5pt-d2"), (3, 1, "semi-backward-5pt-d2"),
        (2, 2, "central-5pt-d2"), (1, 3, "semi-forward-5pt-d2"),
        (0, 4, "forward-5pt-d2")])
    def test_five_point_stencils_match_golden(self, m, n, name):
        got = stencil_weights(m, n, 2)
        golden = known_stencils()[name]
        assert got.offsets == golden.offsets
        assert got.weights == golden.weights

    def test_twosided_reduces_to_forward(self):
        vals = [0.3, 1.9, -0.7, 0.2]
        got = twosided_derivative(vals, 0.25, 2, m=0)
        want = forward_derivative(vals, 0.25, 2)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_central_matches_twosided(self):
        vals = [0.3, 1.9, -0.7, 0.2, 1.1]
        a = central_derivative(vals, 0.2, 2)
        b = twosided_derivative(vals, 0.2, 2, m=2)
        assert a == pytest.approx(float(b), rel=1e-12)

    def test_classic_central_first_derivative(self):
        vals = [1.0, 5.0, 2.0]
        h = 0.4
        assert central_derivative(vals, h, 1) == pytest.approx(
            (vals[2] - vals[0]) / (2 * h), rel=1e-13)

    def test_odd_data_even_order_gives_zero(self):
        vals = [-2.0, -1.0, 0.0, 1.0, 2.0]  # odd about the centre
        assert central_derivative(vals, 0.1, 2) == pytest.approx(0.0, abs=1e-9)

    def test_stencil_moment_conditions_exact(self, rng):
        for m, n in itertools.product(range(9), repeat=2):
            for t in range(1, m + n + 1):
                st = stencil_weights(m, n, t)
                # through moment t + accuracy_order - 1: the symmetric
                # stencils' extra order is checked too
                for j in range(t + st.accuracy_order):
                    want = math.factorial(t) if j == t else 0
                    got = sum(c * Fraction(off) ** j
                              for c, off in zip(st.weights, st.offsets))
                    assert got == want, (m, n, t, j)

    def test_stencil_apply_equals_twosided(self, rng):
        vals = [rng.uniform(-1, 1) for _ in range(6)]
        st = stencil_weights(2, 3, 2)
        assert st.apply(vals, 0.3) == pytest.approx(
            twosided_derivative(vals, 0.3, 2, m=2), rel=1e-12)
        # every grid route is the cached stencil applied to the data
        for t in (1, 2, 3):
            assert twosided_derivative(vals, 0.3, t, m=2) == \
                stencil_weights(2, 3, t).apply(vals, 0.3)
            assert forward_derivative(vals, 0.3, t) == \
                stencil_weights(0, 5, t).apply(vals, 0.3)
            assert central_derivative(vals[:5], 0.3, t) == \
                stencil_weights(2, 2, t).apply(vals[:5], 0.3)
        assert stencil_weights(2, 3, 2) is st

    @pytest.mark.parametrize("h,t,shown", [(1e-300, 2, "0.0"),
                                           (1e200, 2, "inf"),
                                           (0.0, 1, "0.0")])
    def test_unusable_step_names_h_and_t(self, h, t, shown):
        want = f"step h={h} gives h**t = {shown} at t={t}"
        with pytest.raises(ValueError, match=re.escape(want)):
            twosided_derivative([1.0, 2.0, 4.0], h, t, m=1)

    @pytest.mark.parametrize("vals", [[1.0, 2.0, 4.0], [1.0, 2.0, 4.0, 8.0, 9.0]],
                             ids=["short", "long"])
    def test_apply_rejects_a_value_count_off_the_stencil(self, vals):
        # the count is checked before the step, which here is unusable too
        for h in (0.1, 0.0):
            with pytest.raises(ValueError,
                               match="value count does not match the rule"):
                stencil_weights(2, 1, 2).apply(vals, h)

    def test_grid_exactness_in_rational_mode(self, rng):
        m, n = 2, 3
        h = Fraction(1, 4)
        for t in (1, 2, 3):
            poly = random_rational_poly(rng, m + n)
            vals = [poly(i * h) for i in range(-m, n + 1)]
            want = poly.derivative(t)(Fraction(0))
            assert twosided_derivative(vals, h, t, m=m) == want

    def test_accuracy_order_metadata(self):
        assert stencil_weights(2, 2, 2).accuracy_order == 4
        assert stencil_weights(1, 3, 2).accuracy_order == 3
        assert stencil_weights(0, 4, 2).accuracy_order == 3
        assert stencil_weights(1, 1, 1).accuracy_order == 2

    def test_empirical_fourth_order_convergence(self):
        a = 0.5
        errs = []
        for h in (0.1, 0.05, 0.025):
            vals = [math.sin(a + i * h) for i in (-2, -1, 0, 1, 2)]
            errs.append(abs(central_derivative(vals, h, 2) + math.sin(a)))
        for e1, e2 in zip(errs, errs[1:]):
            order = math.log2(e1 / e2)
            assert abs(order - 4.0) <= 0.3

    def test_central_A_limit_is_alternating_unit(self):
        co = twosided_coeffs(1000, 1000, 2)
        for i in (1, 2, 3):
            assert float(co.A_pos[i]) == pytest.approx((-1) ** (i - 1), abs=1e-2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            twosided_derivative([1.0, 2.0], 0.1, 3, m=1)
        with pytest.raises(ValueError, match="odd length"):
            central_derivative([1.0, 2.0, 3.0, 4.0], 0.1, 1)
        with pytest.raises(ValueError, match=r"^t=2 out of range 1\.\.1$"):
            forward_derivative([1.0, 2.0], 0.1, 2)
        with pytest.raises(ValueError, match="^m out of range$"):
            twosided_derivative([1.0, 2.0, 3.0], 0.1, 1, m=-1)
        with pytest.raises(ValueError, match=r"^t=3 out of range 1\.\.2$"):
            central_derivative([1.0, 2.0, 3.0], 0.1, 3)
        with pytest.raises(ValueError, match=(
                r"^need m, n >= 0 and 1 <= t <= m \+ n$")):
            stencil_weights(1, 1, 3)


@st.composite
def _stencil_case(draw, values):
    """A cached stencil (m, n <= 6, t <= 4) and data of one kind for it."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0 if m else 1, 6))
    t = draw(st.integers(1, min(m + n, 4)))
    return m, n, t, draw(values(m + n + 1))


def _grid_routes(m, n, t, vals, h):
    """Every public route that applies the (m, n, t) stencil to ``vals``."""
    routes = [stencil_weights(m, n, t).apply(vals, h),
              twosided_derivative(vals, h, t, m)]
    if m == 0:
        routes.append(forward_derivative(vals, h, t))
    if m == n:
        routes.append(central_derivative(vals, h, t))
    return routes


class TestWeightImages:
    """Float data runs the float image and int/Fraction data the integer
    image; both give what the loop over the exact weights gives."""

    @given(st.fractions(), st.floats(width=64))
    @settings(max_examples=300, deadline=None)
    def test_fraction_times_float_is_float_of_fraction_times_float(self, w, v):
        # the float image rests on this CPython behaviour
        assert repr(w * v) == repr(float(w) * v)

    @given(st.sampled_from([float_values, mixed_values]).flatmap(_stencil_case),
           st.sampled_from([0.1, 0.3, -0.25, 2.0, 3, Fraction(1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_float_and_mixed_data_match_exact_loop_bit_for_bit(self, case, h):
        # all floats run the float image, mixed int/float the exact loop
        m, n, t, vals = case
        want = repr(_weighted_sum(stencil_weights(m, n, t).weights, vals)
                    / h ** t)
        for got in _grid_routes(m, n, t, vals, h):
            assert repr(got) == want

    @given(_stencil_case(exact_values),
           st.sampled_from([1, 3, Fraction(1, 10), Fraction(-7, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_exact_data_gives_the_equal_fraction(self, case, h):
        m, n, t, vals = case
        sw = stencil_weights(m, n, t)
        total = sw._typed_sum(vals)
        assert type(total) is Fraction
        assert total == _weighted_sum(sw.weights, vals)
        for got in _grid_routes(m, n, t, vals, h):
            assert type(got) is Fraction
            assert got == total / h ** t

    def test_images_are_built_once_and_match_the_weights(self):
        sw = stencil_weights(3, 2, 2)
        assert sw.float_image is sw.float_image
        assert sw.float_image == tuple(float(w) for w in sw.weights)
        assert type(sw.float_image) is tuple
        num, den = sw.integer_image
        assert tuple(Fraction(k, den) for k in num) == sw.weights
        assert (sw.to_json_dict()["num"], sw.to_json_dict()["den"]) == \
            (list(num), den)

    def test_exact_sums_hold_no_memory_between_calls(self):
        # a star call over a generator would leave one argument tuple per
        # call on a free list that no later call takes from
        vals = [Fraction(k * k, 7) for k in range(9)]
        for _ in range(500):
            central_derivative(vals, Fraction(1, 10), 2)
        before = sys.getallocatedblocks()
        for _ in range(3000):
            central_derivative(vals, Fraction(1, 10), 2)
        assert sys.getallocatedblocks() - before < 100


class TestLincomb:
    def test_single_subset_collapse(self):
        s = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert derivative_lincomb(s, 0.6, 2) == pytest.approx(2.0, rel=1e-12)

    def test_exactness_in_rational_mode(self, rng):
        poly = random_rational_poly(rng, 4)
        s = poly.sample(random_rational_nodes(rng, 5))
        x = Fraction(3, 8)
        for k in (1, 2, 3):
            assert derivative_lincomb(s, x, k) == poly.derivative(k)(x)
            assert derivative_lincomb(s, x, k, fx=poly(x)) == \
                poly.derivative(k)(x)

    def test_agrees_with_recursive_path(self, rng):
        for n, k in ((4, 1), (5, 2), (6, 3), (8, 2)):
            nodes = [2.0 * i / n + 0.05 * math.sin(3.7 * i) for i in range(n + 1)]
            s = SampleSet(nodes, [math.exp(x) * math.cos(x) for x in nodes])
            x = 0.5 * (nodes[n // 2] + nodes[n // 2 + 1])
            a = derivative_lincomb(s, x, k)
            b = derivative_uneven(s, x, k)
            assert a == pytest.approx(b, rel=1e-8)

    def test_weight_sum_identity(self, rng):
        for n in (3, 5, 7):
            for k in (1, 2, 3):
                nodes = [2.0 * (i + 0.3 * rng.uniform(-1, 1)) / n
                         for i in range(n + 1)]
                mid = n // 2
                x = 0.5 * (nodes[mid] + nodes[mid + 1])
                total = subset_weight_sum(nodes, x, k)
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_grid_weight_sum_identity(self):
        for n in range(1, 8):
            for k in range(1, min(n, 3) + 1):
                assert grid_lincomb_weight_sum(n, k) == 1

    def test_grid_specialization_matches_forward(self):
        h, n, k = 0.05, 5, 2
        a = 0.3
        f = math.exp
        rest = SampleSet([a + i * h for i in range(1, n + 1)],
                         [f(a + i * h) for i in range(1, n + 1)])
        got = derivative_lincomb(rest, a, k, fx=f(a))
        want = forward_derivative([f(a + i * h) for i in range(n + 1)], h, k)
        assert got == pytest.approx(float(want), abs=100 * h ** 3)

    def test_combinatorial_guard(self):
        nodes = list(range(60))
        s = SampleSet(nodes, [0.0] * 60)
        with pytest.raises(ValueError, match="guard"):
            derivative_lincomb(s, 0.5, 25)

    def test_k_out_of_range(self):
        s = SampleSet([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            derivative_lincomb(s, 0.5, 2)
        # a known f(x) adds one node, so k may reach n + 1 but no further
        with pytest.raises(ValueError, match=r"^k=3 out of range 1\.\.2$"):
            derivative_lincomb(s, 0.5, 3, fx=0.25)


class TestSeries:
    def test_sigma2_is_pi_squared_over_12(self):
        assert _alternating_zeta(2) == pytest.approx(math.pi ** 2 / 12, abs=1e-12)

    def test_first_derivative_of_cos(self):
        got = series_derivative(math.cos, 0.3, 0.3, 1, 500)
        want = -math.sin(0.3)
        assert abs(got - want) / abs(want) <= 1e-2

    def test_error_shrinks_with_more_terms(self):
        want = -math.sin(0.3)
        e250 = abs(series_derivative(math.cos, 0.3, 0.3, 1, 250) - want)
        e1000 = abs(series_derivative(math.cos, 0.3, 0.3, 1, 1000) - want)
        assert e1000 < e250

    def test_second_derivative_of_sin(self):
        got = series_derivative(math.sin, 0.7, 0.2, 2, 800)
        assert got == pytest.approx(-math.sin(0.7), rel=2e-2)

    def test_odd_function_even_order_data_sum_vanishes(self):
        # f odd about a: the sampled combination cancels pairwise for even k
        a = 0.0
        got = series_derivative(math.sin, a, 0.4, 2, 300)
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_derivative(math.cos, 0.0, 0.3, 0, 10)
        with pytest.raises(ValueError):
            series_derivative(math.cos, 0.0, 1.5, 1, 10)
        with pytest.raises(ValueError, match="^terms must be >= 1$"):
            series_derivative(math.cos, 0.0, 0.3, 1, terms=0)
        with pytest.raises(ValueError, match="^m must be >= 2$"):
            _alternating_zeta(1)


class TestDiffOpCounts:
    def test_validation(self):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            diff_op_counts(0, 1)
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            diff_op_counts(2, 0)

    def test_spot_values(self):
        c = diff_op_counts(2, 1)
        assert c.divisions == 9
        assert c.additions == 7
        for n in (2, 3, 5):
            assert diff_op_counts(n, 1).multiplications == 2 * n * (n + 1) + 1

    def test_instrumented_matches(self, rng):
        for n in range(2, 7):
            s = random_float_samples(rng, n, lo=0.0, hi=2.0)
            for k in (1, 2, 3):
                if k > n:
                    continue
                tally = OpTally()
                derivative_uneven(s, 2.5, k, tally=tally)
                assert tally.snapshot() == diff_op_counts(n, k)

    def test_instrumented_value_unchanged(self, rng):
        s = random_float_samples(rng, 5, lo=0.0, hi=2.0)
        tally = OpTally()
        assert derivative_uneven(s, 2.2, 2, tally=tally) == \
            derivative_uneven(s, 2.2, 2)
