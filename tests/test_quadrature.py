import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdiff import (SampleSet, central_quad_weights, even_quad_weights,
                     known_stencils, quad_composite, quad_uneven,
                     uneven_quad_plan)

from divdiff.derivatives import _ExactRule, _sum_kernel, _weighted_sum

from conftest import (check_composite, exact_values, float_values,
                      mixed_values, random_rational_nodes,
                      random_rational_poly)


class TestEvenWeights:
    def test_trapezoid(self):
        plan = even_quad_weights(1)
        assert plan.node_weights == (Fraction(1, 2), Fraction(1, 2))

    def test_simpson(self):
        assert even_quad_weights(2).node_weights == \
            (Fraction(1, 3), Fraction(4, 3), Fraction(1, 3))

    def test_seven_point_rule(self):
        want = tuple(Fraction(n, 140) for n in (41, 216, 27, 272, 27, 216, 41))
        assert even_quad_weights(6).node_weights == want

    def test_golden_catalog_agreement(self):
        golden = known_stencils()
        assert even_quad_weights(2).node_weights == golden["simpson"].weights
        assert even_quad_weights(6).node_weights == golden["nc7"].weights

    @pytest.mark.parametrize("n", range(1, 9))
    def test_palindromic_and_normalized(self, n):
        w = even_quad_weights(n).node_weights
        assert w == w[::-1]
        assert sum(w) == n

    @pytest.mark.parametrize("n", range(1, 25))
    def test_degree_of_exactness(self, n):
        plan = even_quad_weights(n)
        top = n + 1 if n % 2 == 0 else n
        for d in range(top + 1):
            got = plan.apply([Fraction(i) ** d for i in range(n + 1)], Fraction(1))
            want = Fraction(n) ** (d + 1) / (d + 1)
            assert got == want, (n, d)

    def test_json_dict(self):
        d = even_quad_weights(2).to_json_dict()
        assert d == {"n": 2, "weights_num": [1, 4, 1], "weights_den": 3}

    @pytest.mark.parametrize("vals", [[1.0, 2.0], [1.0, 2.0, 3.0, 99.0],
                                      [], [1, 2], [Fraction(1, 3)] * 4],
                             ids=["short", "long", "empty", "short-int",
                                  "long-fraction"])
    def test_apply_rejects_a_value_count_off_the_rule(self, vals):
        for h in (0.1, 0, Fraction(1, 3)):
            with pytest.raises(ValueError,
                               match="value count does not match the rule"):
                even_quad_weights(2).apply(vals, h)

    @pytest.mark.parametrize("rule", [even_quad_weights, central_quad_weights])
    def test_rule_needs_one_step(self, rule):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            rule(0)


class TestQuadEven:
    def test_simpson_on_square(self):
        assert even_quad_weights(2).apply([0.0, 1.0, 4.0], 1.0) == \
            pytest.approx(8.0 / 3.0)

    def test_constant(self):
        for n in (1, 2, 5):
            vals = [3.5] * (n + 1)
            assert even_quad_weights(n).apply(vals, 0.5) == \
                pytest.approx(3.5 * n * 0.5, rel=1e-13)

    def test_seven_point_is_exact_through_degree_seven(self):
        rule = even_quad_weights(6)
        vals = [Fraction(i) ** 6 for i in range(7)]
        assert rule.apply(vals, Fraction(1)) == Fraction(6 ** 7, 7)
        vals = [Fraction(i) ** 7 for i in range(7)]
        assert rule.apply(vals, Fraction(1)) == Fraction(6 ** 8, 8)

    def test_needs_two_values(self):
        vals = [1.0]  # no step, and no rule has n = 0
        with pytest.raises(ValueError):
            even_quad_weights(len(vals) - 1).apply(vals, 0.1)


class TestQuadCentral:
    def test_three_point_is_simpson(self):
        vals = [1.0, 4.0, 2.0]
        h = 0.3
        want = h / 3 * (vals[0] + 4 * vals[1] + vals[2])
        assert central_quad_weights(1).apply(vals, h) == \
            pytest.approx(want, rel=1e-13)

    def test_odd_function_integrates_to_zero(self):
        vals = [-8.0, -1.0, 0.0, 1.0, 8.0]
        assert central_quad_weights(2).apply(vals, 0.25) == \
            pytest.approx(0.0, abs=1e-14)

    def test_constant(self):
        for n in (1, 2, 3):
            vals = [2.0] * (2 * n + 1)
            assert central_quad_weights(n).apply(vals, 0.5) == \
                pytest.approx(2.0 * 2 * n * 0.5)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_matches_even_rule_over_same_points(self, n):
        assert central_quad_weights(n).node_weights == \
            even_quad_weights(2 * n).node_weights

    def test_exact_through_degree_2n(self):
        # 2n + 1 nodes give degree 2n; symmetry adds the odd degree 2n + 1
        h = Fraction(1, 3)
        for n in range(1, 13):
            for d in range(2 * n + 2):
                vals = [(i * h) ** d for i in range(-n, n + 1)]
                want = ((n * h) ** (d + 1) - (-n * h) ** (d + 1)) / (d + 1)
                assert central_quad_weights(n).apply(vals, h) == want, \
                    (n, d)

    def test_needs_odd_length(self):
        # four values are no 2n+1: the half-width-1 rule rejects the count
        with pytest.raises(ValueError,
                           match="^value count does not match the rule$"):
            central_quad_weights(1).apply([1.0, 2.0, 3.0, 4.0], 0.1)

    def test_needs_three_values(self):
        vals = [1.0]  # half-width 0, and no rule has n = 0
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            central_quad_weights(len(vals) // 2).apply(vals, 0.1)

    def test_json_dict(self):
        d = central_quad_weights(1).to_json_dict()
        assert d == {"n": 1, "weights_num": [1, 4, 1], "weights_den": 3}

    def test_apply_rejects_a_value_count_off_the_rule(self):
        with pytest.raises(ValueError,
                           match="value count does not match the rule"):
            central_quad_weights(1).apply([1.0], 0.1)


class TestQuadUneven:
    def test_constant(self):
        s = SampleSet([0.1, 0.7, 1.3], [4.0, 4.0, 4.0])
        assert quad_uneven(s, 0.2, 0.5) == pytest.approx(4.0 * 0.5, rel=1e-12)

    def test_linear_exactness(self):
        s = SampleSet([0.1, 0.7, 1.3], [0.1, 0.7, 1.3])
        assert quad_uneven(s, 0.2, 0.5) == pytest.approx(0.225, rel=1e-12)

    def test_quartic_exact_in_rational_mode(self):
        nodes = [Fraction(1, 20), Fraction(1, 4), Fraction(1, 2),
                 Fraction(3, 4), Fraction(19, 20)]
        s = SampleSet(nodes, [x ** 4 for x in nodes])
        x, h = Fraction(3, 10), Fraction(2, 5)
        want = ((x + h) ** 5 - x ** 5) / 5
        assert quad_uneven(s, x, h) == want

    def test_random_polynomial_exactness(self, rng):
        poly = random_rational_poly(rng, 4)
        s = poly.sample(random_rational_nodes(rng, 5))
        x, h = Fraction(-1, 7), Fraction(3, 5)
        assert quad_uneven(s, x, h) == poly.definite_integral(x, x + h)

    def test_weights_sum_to_step(self, rng):
        poly = random_rational_poly(rng, 3)
        s = poly.sample(random_rational_nodes(rng, 4))
        plan = uneven_quad_plan(s, Fraction(1, 9), Fraction(2, 7))
        assert sum(plan.node_weights) == Fraction(2, 7)

    def test_anchor_must_be_off_node(self):
        s = SampleSet([0.1, 0.7, 1.3], [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="anchor"):
            quad_uneven(s, 0.7, 0.5)

    def test_apply_rejects_a_value_count_off_the_rule(self):
        plan = uneven_quad_plan(SampleSet([0.1, 0.7, 1.3], [1.0, 2.0, 3.0]),
                                0.2, 0.5)
        with pytest.raises(ValueError,
                           match="value count does not match the rule"):
            plan.apply([1.0, 2.0])


class TestComposite:
    def test_simpson_on_sin(self):
        got = quad_composite(math.sin, 0.0, math.pi, 8)
        # classical error bound for eight three-point panels: 2.59e-5
        assert got == pytest.approx(2.0, abs=2.6e-5)

    def test_constant(self):
        assert quad_composite(lambda x: 2.5, 1.0, 4.0, 3) == \
            pytest.approx(2.5 * 3.0, rel=1e-14)

    def test_precomputed_values_match_sampler(self):
        vals = [math.sin(x * math.pi / 16) for x in range(17)]
        from_values = quad_composite(vals, 0.0, math.pi, 8)
        from_sampler = quad_composite(math.sin, 0.0, math.pi, 8)
        assert from_values == from_sampler
        with pytest.raises(ValueError, match="need 17 values"):
            quad_composite(vals[:-1], 0.0, math.pi, 8)

    def test_halving_divides_error_by_sixteen(self):
        e1 = abs(quad_composite(math.sin, 0.0, math.pi, 8) - 2.0)
        e2 = abs(quad_composite(math.sin, 0.0, math.pi, 16) - 2.0)
        assert e1 / e2 == pytest.approx(16.0, rel=0.15)

    def test_convergence_order_four(self):
        errs = [abs(quad_composite(math.sin, 0.0, math.pi, p) - 2.0)
                for p in (4, 8, 16, 32)]
        for e1, e2 in zip(errs, errs[1:]):
            assert math.log2(e1 / e2) == pytest.approx(4.0, abs=0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            quad_composite(math.sin, 1.0, 0.0, 4)
        with pytest.raises(ValueError):
            quad_composite(math.sin, 0.0, 1.0, 0)

    def test_symmetric_rule_is_rejected(self):
        # its 2n+1 weights span 2n steps, not the n of a panel
        with pytest.raises(ValueError, match="needs an even-grid rule"):
            quad_composite(math.sin, 0.0, math.pi, 8, central_quad_weights(1))


_PLANS = st.one_of(st.builds(even_quad_weights, st.integers(1, 24)),
                   st.builds(central_quad_weights, st.integers(1, 12)))


@st.composite
def _rule_case(draw, values):
    plan = draw(_PLANS)
    return plan, draw(values(len(plan.node_weights)))


def _panel_sum(plan, panel_values, h):
    """The composite as one ``plan.apply`` per panel, in index order."""
    total = 0
    for vals in panel_values:
        total += plan.apply(vals, h)
    return total


def _sampled_panels(f, p, q, panels, n):
    width = (q - p) / panels
    h = width / n
    return [[f(p + i * width + j * h) for j in range(n + 1)]
            for i in range(panels)], h


class FloatSub(float):
    pass


class TestWeightImages:
    """Grid rules run the float image on float data and the integer image
    on int/Fraction data; both give what the loop over the exact weights
    gives."""

    @given(st.sampled_from([float_values, mixed_values]).flatmap(_rule_case),
           st.sampled_from([0.1, 0.3, -0.25, 2.0, 3, Fraction(1, 3)]))
    @settings(max_examples=300, deadline=None)
    def test_float_and_mixed_data_match_exact_loop_bit_for_bit(self, case, h):
        # all floats run the float image, mixed int/float the exact loop
        plan, vals = case
        assert repr(plan.apply(vals, h)) == \
            repr(_weighted_sum(plan.node_weights, vals) * h)

    @given(_rule_case(exact_values),
           st.sampled_from([1, 3, -2, 0, Fraction(1, 10), Fraction(-7, 3)]))
    @settings(max_examples=200, deadline=None)
    def test_exact_data_gives_the_equal_fraction(self, case, h):
        # exact data and an exact step: one Fraction with the step folded in
        plan, vals = case
        for got in (plan.apply(vals, h), plan.apply(tuple(vals), h)):
            assert type(got) is Fraction
            assert got == _weighted_sum(plan.node_weights, vals) * h

    @given(_rule_case(exact_values), st.sampled_from([0.1, -0.25, 2.0]))
    @settings(max_examples=50, deadline=None)
    def test_exact_data_with_a_float_step_scale_the_exact_sum(self, case, h):
        plan, vals = case
        assert repr(plan.apply(vals, h)) == \
            repr(_weighted_sum(plan.node_weights, vals) * h)

    @given(st.integers(1, 6), st.integers(1, 12),
           st.sampled_from([(float_values, 0.0),
                            (exact_values, Fraction(0)),
                            (exact_values, 0.0),
                            (mixed_values, 0.0)]),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_composite_sequence_is_the_per_panel_apply_sum(
            self, n, panels, case, data):
        # exactly, on exact data and ends; within the rounding bound of a
        # per-panel sum when the result is a finite float; an inf or nan
        # (any float, so inf, nan and near-max values too) is the per-panel
        # sum's.  A float h with float data: a Fraction h would be rounded
        # once more, in the product by h
        values, p = case
        flat = data.draw(values(panels * n + 1))
        plan = even_quad_weights(n)
        q = p + Fraction(1, 2)
        h = q / panels / n
        panel_values = [flat[i * n:i * n + n + 1] for i in range(panels)]
        for rule in (n, plan):
            got = quad_composite(flat, p, q, panels, rule)
            if isinstance(got, float) and not math.isfinite(got):
                assert repr(got) == repr(_panel_sum(plan, panel_values, h))
            else:
                check_composite(got, plan.node_weights, panel_values, h)
        if type(got) is Fraction:
            assert got == _panel_sum(plan, panel_values, h)

    @pytest.mark.parametrize("f,p,q", [
        (math.sin, 0.0, 3.0),
        (lambda x: x * x - 1, Fraction(-1), Fraction(2)),
        (lambda x: 1 if x < 0.5 else 2.0, 0.0, 1.0),
        (lambda x: round(10 * x), 0.0, 1.0),
    ], ids=["float", "fraction", "mixed", "int"])
    @pytest.mark.parametrize("n,panels", [(1, 1), (2, 7), (4, 25), (6, 3),
                                          (3, 1000)])
    def test_composite_sampler_is_the_per_panel_apply_sum(self, f, p, q, n,
                                                          panels):
        # the sampler is called panels * (n + 1) times, in panel order;
        # exact data give the per-panel sum, the rest a float within the
        # rounding bound of it
        calls = []

        def sampler(x):
            calls.append(x)
            return f(x)
        panel_values, h = _sampled_panels(f, p, q, panels, n)
        got = quad_composite(sampler, p, q, panels, n)
        width = (q - p) / panels
        assert calls == [p + i * width + j * h
                         for i in range(panels) for j in range(n + 1)]
        weights = even_quad_weights(n).node_weights
        check_composite(got, weights, panel_values, h)
        if isinstance(p, Fraction):
            assert got == _panel_sum(even_quad_weights(n), panel_values, h)

    @pytest.mark.parametrize("special", [None, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_composite_of_many_panels_is_the_per_panel_apply_sum(self, n,
                                                                  special):
        # magnitudes 1e-150..1e150 and both zeros; the first 50 panels are
        # all -0.0.  Finite data are within the rounding bound of the exact
        # composite; an inf or nan gives the per-panel sum's inf or nan
        rng = random.Random(n)
        panels = 10_000
        flat = [rng.choice([0.0, -0.0, rng.uniform(-1, 1)
                            * 10.0 ** rng.randint(-150, 150)])
                for _ in range(panels * n + 1)]
        flat[:50 * n + 1] = [-0.0] * (50 * n + 1)
        if special is not None:
            flat[rng.randrange(len(flat))] = special
        plan = even_quad_weights(n)
        panel_values = [flat[i * n:i * n + n + 1] for i in range(panels)]
        h = 0.5 / panels / n
        for form in (flat, tuple(flat)):
            got = quad_composite(form, 0.0, 0.5, panels, plan)
            if special is None:
                check_composite(got, plan.node_weights, panel_values, h)
            else:
                assert repr(got) == repr(_panel_sum(plan, panel_values, h))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_composite_of_near_max_floats_stays_finite(self, n, sign):
        # each column of 10^4 values near 1e305 sums past the float
        # maximum; the per-panel sum scales each panel by h first, so the
        # composite is finite and within the rounding bound
        assert repr(quad_composite([sign * 1e308] * 3, 0.0, 1.0, 2, 1)) == \
            repr(sign * 1e308)
        rng = random.Random(n)
        panels = 10_000
        flat = [sign * rng.uniform(1, 9) * 1e305
                for _ in range(panels * n + 1)]
        panel_values = [flat[i * n:i * n + n + 1] for i in range(panels)]
        got = quad_composite(flat, 0.0, 1.0, panels, n)
        assert math.isfinite(got)
        check_composite(got, even_quad_weights(n).node_weights, panel_values,
                        1.0 / panels / n)
        # a sampler, column sums near 1e310: exp(707) - exp(700)
        got = sign * quad_composite(lambda x: sign * math.exp(x), 700.0,
                                    707.0, panels, n)
        assert got == pytest.approx(math.exp(707) - math.exp(700), rel=1e-7)

    @pytest.mark.parametrize("n", [31, 32, 33, 64, 65])
    def test_composite_of_a_rule_past_32_columns(self, n):
        # wide rules, with weights of both signs: float data within the
        # rounding bound, Fraction data the per-panel exact sum
        rng = random.Random(n)
        weights = even_quad_weights(n).node_weights
        flat = [rng.uniform(-5, 5) for _ in range(30 * n + 1)]
        panel_values = [flat[i * n:i * n + n + 1] for i in range(30)]
        check_composite(quad_composite(flat, 0.0, 3.75 * n, 30, n), weights,
                        panel_values, 0.125)
        exact = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                 for _ in range(30 * n + 1)]
        panel_values = [exact[i * n:i * n + n + 1] for i in range(30)]
        got = quad_composite(exact, Fraction(0), Fraction(15 * n, 4), 30, n)
        assert type(got) is Fraction
        assert got == _panel_sum(even_quad_weights(n), panel_values,
                                 Fraction(1, 8))

    @pytest.mark.parametrize("form", ["list", "tuple", "sampler"])
    @pytest.mark.parametrize("n", range(1, 25))
    def test_exact_composite_is_the_per_panel_exact_sum(self, n, form):
        # every rule up to n = 24, the first with negative weights at n = 8
        rng = random.Random(100 + n)
        plan = even_quad_weights(n)
        p, q, panels = Fraction(-1, 3), Fraction(5, 2), 4
        h = (q - p) / panels / n
        for draw in (lambda: rng.randint(-10 ** 9, 10 ** 9),
                     lambda: Fraction(rng.randint(-99, 99),
                                      rng.randint(1, 99))):
            if form == "sampler":
                values = {}
                got = quad_composite(lambda x: values.setdefault(x, draw()),
                                     p, q, panels, plan)
                panel_values = [[values[p + i * (q - p) / panels + j * h]
                                 for j in range(n + 1)]
                                for i in range(panels)]
            else:
                flat = [draw() for _ in range(panels * n + 1)]
                got = quad_composite(flat if form == "list" else tuple(flat),
                                     p, q, panels, plan)
                panel_values = [flat[i * n:i * n + n + 1]
                                for i in range(panels)]
            assert type(got) is Fraction
            assert got == _panel_sum(plan, panel_values, h)

    def test_a_wide_kernel_compiles_and_sums_left_to_right(self):
        # a single 2049-term expression would overflow the compiler
        rng = random.Random(2049)
        weights = [rng.uniform(-1, 1) for _ in range(2049)]
        vals = [rng.uniform(-1, 1) for _ in range(2049)]
        assert repr(_sum_kernel(2049)(weights, vals)) == \
            repr(_weighted_sum(weights, vals))

    @pytest.mark.xfail(strict=True, reason=(
        "rounding swamps the n=70 rule: sum |w_i| / n is about 3.2e16, so "
        "the result is garbage; the rounding amplification of ROADMAP "
        "item 10 is the estimate that should reject it"))
    def test_composite_of_a_rule_too_wide_for_floats_is_accurate(self):
        assert quad_composite(math.sin, 0.0, math.pi, 2, 70) == \
            pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_composite_of_negative_zeros_is_positive_zero(self, n):
        flat = [-0.0] * (40 * n + 1)
        want = _panel_sum(even_quad_weights(n), [flat[:n + 1]] * 40, 0.25)
        assert repr(quad_composite(flat, 0.0, 10.0 * n, 40, n)) == \
            repr(want) == "0.0"

    def test_exact_data_give_an_exact_total(self):
        got = quad_composite(lambda x: x * x, Fraction(0), Fraction(1), 3, 2)
        assert type(got) is Fraction and got == Fraction(1, 3)
        vals = [Fraction(k, 6) ** 2 for k in range(7)]
        got = quad_composite(vals, Fraction(0), Fraction(1), 3, 2)
        assert type(got) is Fraction and got == Fraction(1, 3)

    @pytest.mark.parametrize("vals,kind", [
        ([0.5, 1.0, 2.0, 1.0, 0.5], float),
        ([0.5, 1, 2.0, 1.0, 0.5], float),
        ([0.5, True, 2.0, FloatSub(1.0), Fraction(1, 2)], float),
        ([1, 2, 3, 4, 5], Fraction),
        ([1, 0.5, Fraction(2), 1, 0.5], float),
    ], ids=["float", "mixed", "intruders", "int", "exact-first-mixed"])
    def test_composite_takes_its_type_from_the_column_sums(self, monkeypatch,
                                                           vals, kind):
        # one apply, on the n + 1 column sums, picks the type; no panel
        # runs its own sum while the total is finite
        calls, apply = [], _ExactRule.apply

        def spy(rule, values, h):
            calls.append(list(values))
            return apply(rule, values, h)
        monkeypatch.setattr(_ExactRule, "apply", spy)
        got = quad_composite(vals, Fraction(0), Fraction(1), 2, 2)
        assert calls == [[vals[0] + vals[2], vals[1] + vals[3],
                          vals[2] + vals[4]]]
        assert type(got) is kind
        check_composite(got, even_quad_weights(2).node_weights,
                        [vals[:3], vals[2:]], Fraction(1, 4))
        # a total that is not finite is recomputed panel by panel
        calls.clear()
        got = quad_composite([*vals[:4], math.inf], Fraction(0),
                             Fraction(1), 2, 2)
        assert repr(got) == "inf" and len(calls) == 3
        assert calls[1:] == [[*vals[:3]], [vals[2], vals[3], math.inf]]

    def test_images_are_built_once_and_read_by_the_json_forms(self):
        plan = central_quad_weights(2)
        assert plan.float_image is plan.float_image
        assert plan.float_image == tuple(float(w) for w in plan.node_weights)
        num, den = plan.integer_image
        assert tuple(Fraction(k, den) for k in num) == plan.node_weights
        d = plan.to_json_dict()
        assert (d["weights_num"], d["weights_den"]) == (list(num), den)
        d["weights_num"].append(0)  # the cached image stays as it was
        assert plan.to_json_dict()["weights_num"] == list(num)
        assert plan.display() == f"h/{den} * ({', '.join(map(str, num))})"
