import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdiff import (SampleSet, alternating_zeta, central_coeffs,
                     central_derivative, derivative_lincomb,
                     derivative_uneven, diff_op_counts, forward_coeffs,
                     forward_derivative, grid_lincomb_weight_sum,
                     harmonic_number, known_stencils, lincomb_weight_sum,
                     rho_coeffs, series_derivative, stencil_weights,
                     twosided_coeffs, twosided_derivative)
from divdiff.counting import OpTally
from divdiff.derivatives import _weighted_sum

from conftest import (exact_values, float_values, mixed_values,
                      random_float_samples, random_rational_nodes,
                      random_rational_poly)


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
            co = forward_coeffs(n, 1)
            assert co.u(1) == harmonic_number(n)
            assert float(co.u(1)) == pytest.approx(
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
        for m, n, t in ((2, 2, 2), (1, 3, 2), (0, 4, 3), (3, 3, 5), (2, 1, 1)):
            st = stencil_weights(m, n, t)
            for j in range(m + n + 1):
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
        co = central_coeffs(1000, 2)
        for i in (1, 2, 3):
            assert float(co.A[i]) == pytest.approx((-1) ** (i - 1), abs=1e-2)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            twosided_derivative([1.0, 2.0], 0.1, 3, m=1)
        with pytest.raises(ValueError, match="odd length"):
            central_derivative([1.0, 2.0, 3.0, 4.0], 0.1, 1)


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
        assert sw.as_floats() == list(sw.float_image)
        num, den = sw.integer_image
        assert tuple(Fraction(k, den) for k in num) == sw.weights
        assert sw.common_denominator() == (list(num), den)


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
                total = lincomb_weight_sum(nodes, x, k)
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


class TestSeries:
    def test_sigma2_is_pi_squared_over_12(self):
        assert alternating_zeta(2) == pytest.approx(math.pi ** 2 / 12, abs=1e-12)

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


class TestDiffOpCounts:
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
