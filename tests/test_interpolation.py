import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from divdiff import (CENTRAL_VARIANTS, SampleSet, TailModel, count_ops,
                     divided_difference, extended_dd_eval, fit_tail,
                     interpolate_backward_even, interpolate_barycentric,
                     interpolate_central, interpolate_forward_even,
                     interpolate_general, interpolate_with_tail,
                     lagrange_op_counts, newton_op_counts, oracle_interpolate,
                     split_plan, table5_function, tail_model_from_json)
from divdiff import repro
from divdiff.counting import OpTally
from divdiff.tables import build_new_table, zigzag_positions

from conftest import (random_float_samples, random_rational_nodes,
                      random_rational_poly)

T5_X = [1.0 + 0.25 * i for i in range(9)]
T5_Y = [6.2780346, 9.0395024, 12.7004652, 17.5471328, 23.9857632,
        32.5858062, 44.1349092, 59.7094373, 80.7655077]


class TestGeneralForm:
    def test_newton_and_lagrange_limits_agree(self, rng):
        s = random_float_samples(rng, 6)
        for x in (0.21, 0.52, 0.77):
            newton = interpolate_general(s, s.n, x)
            lagrange = interpolate_general(s, 0, x)
            assert newton == pytest.approx(lagrange, rel=1e-10, abs=1e-12)

    def test_cubic_exactness_every_split(self):
        s = SampleSet([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 8.0, 27.0])
        for r in range(4):
            assert interpolate_general(s, r, 1.5) == pytest.approx(3.375, rel=1e-13)

    def test_reference_forward_fit_error(self):
        # fourth-degree fit on the first five tabulated samples
        s = SampleSet(T5_X[:5], T5_Y[:5])
        err = interpolate_general(s, 4, 0.85) - table5_function(0.85)
        assert err == pytest.approx(1.19e-02, abs=2e-4)

    def test_node_reproduction(self, rng):
        # well-separated nodes: a jittered unit grid
        nodes = [(i + 0.35 * rng.uniform(-1, 1)) / 8 for i in range(9)]
        s = SampleSet(nodes, [rng.uniform(-1, 1) for _ in nodes])
        for r in (0, 3, 8):
            for i in (0, 4, 8):
                got = interpolate_general(s, r, s.nodes[i])
                assert got == pytest.approx(s.values[i], rel=1e-12, abs=1e-12)

    def test_rational_exactness_at_random_points(self, rng):
        poly = random_rational_poly(rng, 5)
        s = poly.sample(random_rational_nodes(rng, 6))
        lo, hi = min(s.nodes), max(s.nodes)
        r = 2
        for k in range(200):
            # random rational points inside the node hull
            x = lo + (hi - lo) * Fraction(rng.randint(0, 997), 997)
            if x in s.nodes:
                continue
            assert interpolate_general(s, r, x) == poly(x)
            r = (r + 1) % 6

    def test_r_sweep_equivalence(self, rng):
        for _ in range(20):
            n = rng.randint(1, 10)
            s = random_float_samples(rng, n)
            for _ in range(5):
                x = rng.uniform(0, 1)
                base = interpolate_general(s, 0, x)
                worst = max(abs(interpolate_general(s, r, x) - base)
                            for r in range(n + 1))
                assert worst <= 1e-9 * (1 + abs(base))

    def test_matches_oracle_exactly_in_rational_mode(self, rng):
        poly = random_rational_poly(rng, 7)
        s = poly.sample(random_rational_nodes(rng, 9))
        x = Fraction(5, 11)
        want = oracle_interpolate(s, x)
        for r in (0, 3, 8):
            assert interpolate_general(s, r, x) == want

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            interpolate_general(SampleSet([0, 1], [0, 1]), 3, 0.5)


class TestBarycentric:
    def test_agrees_with_general(self, rng):
        poly_vals = random_float_samples(rng, 5)
        for r in range(6):
            for x in (0.11, 0.43, 0.88):
                a = interpolate_barycentric(poly_vals, r, x)
                b = interpolate_general(poly_vals, r, x)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_nodal_values_exact(self, rng):
        s = random_float_samples(rng, 6)
        for r in (0, 2, 6):
            for i in range(7):
                assert interpolate_barycentric(s, r, s.nodes[i]) == \
                    pytest.approx(s.values[i], rel=1e-12)

    def test_zero_split_is_barycentric_lagrange(self, rng):
        s = random_float_samples(rng, 4)
        # classic second-form evaluation, written independently
        w = []
        for i in range(5):
            p = 1.0
            for j in range(5):
                if j != i:
                    p *= s.nodes[i] - s.nodes[j]
            w.append(1.0 / p)
        x = 0.37
        num = sum(wi * fi / (x - xi) for wi, fi, xi in zip(w, s.values, s.nodes))
        den = sum(wi / (x - xi) for wi, xi in zip(w, s.nodes))
        assert interpolate_barycentric(s, 0, x) == pytest.approx(num / den,
                                                                 rel=1e-12)


def per_call_barycentric(samples, r, x):
    """Table, prefix, weights and ratio rebuilt on every call, in the
    operation order the cached plan must keep."""
    n = samples.n
    xs = samples.nodes
    table = build_new_table(samples, r)
    coeff = table.columns[r]
    prefix = samples.values[0] if r else 0
    prod = 1
    for i in range(1, r):
        prod = prod * (x - xs[i - 1])
        prefix = prefix + table.columns[i][0] * prod
    prefix_product = 1
    for i in range(r):
        prefix_product = prefix_product * (x - xs[i])
    weights = []
    for i in range(r, n + 1):
        p = 1
        for j in range(r, n + 1):
            if j != i:
                p = p * (xs[i] - xs[j])
        weights.append(1 / p)
    for i in range(r, n + 1):
        if x == xs[i]:
            return prefix + prefix_product * coeff[i - r]
    num = 0
    den = 0
    for i in range(r, n + 1):
        c = weights[i - r] / (x - xs[i])
        num = num + coeff[i - r] * c
        den = den + c
    return prefix + prefix_product * (num / den)


class TestSplitPlan:
    def test_float_results_match_per_call_arithmetic(self, rng):
        s = random_float_samples(rng, 12)
        shuffled = s.subset(rng.sample(range(13), 13))
        points = [rng.uniform(-0.1, 1.1) for _ in range(6)]
        points += s.nodes[::3]
        for samples in (s, shuffled):
            for r in (0, 6, 12):
                for _ in range(2):  # the second pass is served from the cache
                    for x in points:
                        want = per_call_barycentric(samples, r, x)
                        got = interpolate_barycentric(samples, r, x)
                        assert repr(got) == repr(want)

    def test_fraction_results_stay_exact_from_cache(self, rng):
        poly = random_rational_poly(rng, 6)
        s = poly.sample(random_rational_nodes(rng, 7))
        for r in (0, 3, 6):
            for x in (Fraction(2, 7), s.nodes[4]):
                first = interpolate_barycentric(s, r, x)
                plan = split_plan(s, r)
                second = interpolate_barycentric(s, r, x)
                assert split_plan(s, r) is plan
                assert first == second == poly(x)
                assert type(second) is Fraction

    def test_equal_sets_of_other_types_get_separate_plans(self):
        floats = SampleSet([0.0, 0.5, 1.25, 2.0], [1.0, 0.25, 3.5, -2.0])
        exact = SampleSet([Fraction(v) for v in floats.nodes],
                          [Fraction(v) for v in floats.values])
        assert floats == exact and hash(floats) == hash(exact)
        x = Fraction(1, 3)
        assert isinstance(interpolate_barycentric(floats, 2, x), float)
        assert split_plan(exact, 2) is not split_plan(floats, 2)
        got = interpolate_barycentric(exact, 2, x)
        assert type(got) is Fraction
        assert got == oracle_interpolate(exact, x)

    def test_out_of_range_r_raises(self, rng):
        s = random_float_samples(rng, 4)
        interpolate_barycentric(s, 4, 0.5)
        for r in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                interpolate_barycentric(s, r, 0.5)
            with pytest.raises(ValueError, match="out of range"):
                split_plan(s, r)


class TestGeneralFromPlan:
    """Untallied ``interpolate_general`` runs the first-kind barycentric form
    from the cached plan: exactly the tallied path's value on ``Fraction``
    data, and on floats the same float on every call of a point."""

    @staticmethod
    def sets(rng):
        for n in (0, 1, 2, 8, 33):
            s = random_float_samples(rng, n)
            yield s.subset(rng.sample(range(n + 1), n + 1)), \
                [rng.uniform(-0.1, 1.1) for _ in range(3)]
            poly = random_rational_poly(rng, min(n, 6))
            exact = poly.sample(random_rational_nodes(rng, n + 1))
            yield exact, [Fraction(2, 7), Fraction(-31, 5), 0.37]

    def test_matches_tallied_path_first_and_repeat(self, rng):
        for s, off_node in self.sets(rng):
            n = s.n
            for r in sorted({0, min(1, n), n // 2, n}):
                points = off_node + list(s.nodes[r::4]) + list(s.nodes[:r:3])
                for x in points:
                    # a fresh set per point: its first call forms the weights
                    fresh = SampleSet(s.nodes, s.values)
                    first = interpolate_general(fresh, r, x)
                    if r < n and x not in s.nodes:
                        assert "weights" in vars(split_plan(fresh, r))
                    again = interpolate_general(fresh, r, x)
                    assert repr(again) == repr(first), (n, r, x)
                    if type(x) is Fraction or x in s.nodes:
                        want = interpolate_general(s, r, x, tally=OpTally())
                        if type(want) is Fraction:
                            assert type(first) is Fraction
                            assert first == want, (n, r, x)

    def test_negative_zero_survives(self):
        # every Lagrange term is -0.0, so the r = 0 sum is -0.0 as well
        s = SampleSet([0.0, 1.0], [-0.0, -0.0])
        for r in range(2):
            for x in (0.25, 0.5, 0.75):
                want = interpolate_general(s, r, x, tally=OpTally())
                for _ in range(2):
                    assert repr(interpolate_general(s, r, x)) == repr(want)
        # on two or more suffix nodes with every coefficient -0.0 the sum
        # is +0.0, so the value is a zero with the sign of l(x), inside
        # the hull and outside, at r = 0 and at r = 1 (column 1 is +0.0
        # there, the prefix head -0.0), on the first and the repeat call
        nodes = [0.0, 1.0, 2.0, 3.0]
        for r in range(2):
            for x in (0.5, 1.5, 2.25, -0.5, 3.5, -2.0):
                want = repr(math.copysign(0.0, math.prod(x - xj
                                                         for xj in nodes)))
                fresh = SampleSet(nodes, [-0.0] * 4)
                for _ in range(2):
                    assert repr(interpolate_general(fresh, r, x)) == want, \
                        (r, x)

    def test_underflowing_denominators_raise_like_tallied_path(self):
        nodes, values = [0, 1e-170, 2e-170], [1.0, 2.0, 3.0]
        s = SampleSet(nodes, values)
        with pytest.raises(ZeroDivisionError):
            interpolate_general(s, 0, 0.5, tally=OpTally())
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                interpolate_general(s, 0, 0.5)
        weights_first = SampleSet(nodes, values)
        with pytest.raises(ZeroDivisionError):
            interpolate_barycentric(weights_first, 0, 0.5)
        with pytest.raises(ZeroDivisionError):
            interpolate_general(weights_first, 0, 0.5)

    def test_point_that_rounds_onto_a_node(self):
        # x - 0.1 rounds to 0.0 although x != 0.1: the stored coefficient,
        # the value of the tallied path's cardinal basis, not a division
        # by zero
        s = SampleSet([0.1, 0.2, 0.3], [1.0, 2.0, 5.0])
        x = Fraction(0.1) + Fraction(1, 10 ** 30)
        for r in (0, 1):
            want = interpolate_general(s, r, x, tally=OpTally())
            for _ in range(2):
                assert repr(interpolate_general(s, r, x)) == repr(want)

    def test_ratio_form_at_a_point_that_rounds_onto_a_node(self):
        # x - 0.1 rounds to 0.0 although x != 0.1: the ratio form tests the
        # differences as the first-kind form does, the stored coefficient
        s = SampleSet([0.1, 0.2, 0.3], [1.0, 2.0, 5.0])
        x = Fraction(0.1) + Fraction(1, 10 ** 30)
        for r in (0, 1):
            want = interpolate_general(s, r, x)
            assert repr(interpolate_barycentric(s, r, x)) == repr(want)
        assert repr(extended_dd_eval(s, 0, x, barycentric=True)) == "1.0"

    def test_denominators_match_whichever_path_fills_them(self, rng):
        for s, off_node in self.sets(rng):
            for r in sorted({0, s.n // 2, max(s.n - 1, 0)}):
                general_first = SampleSet(s.nodes, s.values)
                weights_first = SampleSet(s.nodes, s.values)
                interpolate_general(general_first, r, off_node[0])
                interpolate_barycentric(weights_first, r, off_node[0])
                a = split_plan(general_first, r)
                b = split_plan(weights_first, r)
                assert repr(a.weights) == repr(b.weights)


class TestExactOnIntegerNodes:
    """Suffix weights over integer gaps are exact ``Fraction``s, so on
    ``int`` nodes every split-form evaluator keeps ``Fraction`` data
    exact."""

    @pytest.mark.parametrize("count", [5, 17])  # either side of 16 nodes
    def test_fraction_data_give_the_exact_fraction(self, count):
        # 16 suffix nodes or fewer would run the generated first-use
        # kernel, whose weights are 1 / den; int nodes take the loop
        rng = random.Random(count)
        n = count - 1
        nodes = rng.sample(range(-3 * count, 3 * count), count)
        values = [Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                  for _ in nodes]
        forms = (interpolate_general, interpolate_barycentric,
                 extended_dd_eval, lambda s, r, x: extended_dd_eval(s, r, x,
                                                                    True))
        for r in sorted({0, 1, n // 2, n}):
            for x in (Fraction(2, 7), Fraction(-31, 5)):
                want = oracle_interpolate(SampleSet(nodes, values), x)
                tallied = interpolate_general(SampleSet(nodes, values), r, x,
                                              tally=OpTally())
                assert type(tallied) is Fraction and tallied == want
                dd_want = divided_difference(
                    SampleSet(nodes[:r] + [x], values[:r] + [want]),
                    range(r + 1))
                for k, form in enumerate(forms):
                    fresh = SampleSet(nodes, values)  # first call, then repeat
                    for _ in range(2):
                        got = form(fresh, r, x)
                        assert type(got) is Fraction, (count, r, x, k)
                        assert got == (dd_want if k > 1 else want), \
                            (count, r, x, k)

    def test_all_int_data_give_a_fraction_at_r0(self):
        # on all-int data at r = 0 every weight, difference and value is
        # exact, so the result is a Fraction, not the float 26.0
        for form in (interpolate_general, interpolate_barycentric,
                     extended_dd_eval):
            got = form(SampleSet([0, 1, 2, 3], [1, 2, 5, 10]), 0, 5)
            assert type(got) is Fraction and got == 26
            got = form(SampleSet([0, 1, 2, 3], [Fraction(v) for v in
                                                (1, 2, 5, 10)]),
                       0, Fraction(1, 2))
            assert type(got) is Fraction and got == Fraction(5, 4)


def exact_interpolant(nodes, values, x, bits=1200):
    """The interpolant of the floats ``nodes`` and ``values`` at the float
    x, as a Fraction within (n+1) * 2^-bits, and ``sum_i |L_i(x) f_i|``.

    Every float is an integer over a power of two, so over one common
    power the node differences are integers and each term
    ``f_i prod_{j!=i} (x - x_j) / (x_i - x_j)`` is one integer quotient,
    here floored at 2^-bits.
    """
    scale = max(Fraction(v).denominator for v in (*nodes, x))
    xs = [int(Fraction(v) * scale) for v in nodes]
    d = [int(Fraction(x) * scale) - xj for xj in xs]
    ell = math.prod(d)
    total, size = 0, 0.0
    for i, (xi, f) in enumerate(zip(xs, values)):
        a, b = f.as_integer_ratio()
        den = math.prod(xi - xj for j, xj in enumerate(xs) if j != i) * b
        term = ((a * (ell // d[i])) << bits) // den
        total += term
        size += abs(term) / (1 << bits)
    return Fraction(total, 1 << bits), size


class TestFirstKindAccuracy:
    """The untallied split form against the exact interpolant of the same
    floats, on item 3's node families."""

    @staticmethod
    def families(n, rng):
        yield "chebyshev", sorted(math.cos(math.pi * k / n)
                                  for k in range(n + 1)), math.exp
        # arcsine-clustered, one node per jittered cell, in random order
        xs = [math.cos(math.pi * (k + rng.uniform(0.25, 0.75)) / (n + 1))
              for k in range(n + 1)]
        rng.shuffle(xs)
        yield "clustered", xs, math.exp
        yield "equispaced", [-1.0 + 2.0 * k / n for k in range(n + 1)], \
            math.exp
        # the jittered series of the sliding-window benchmark
        xs = [rng.uniform(0.0, 50.0)]
        for _ in range(n):
            xs.append(xs[-1] + 1.0 + rng.uniform(-0.4, 0.4))
        yield "series", xs, lambda t: math.sin(0.3 * t) + \
            0.5 * math.cos(0.11 * t + 1.0)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_within_the_backward_stable_bound(self, n):
        # r = 0: both forms stay within gamma_{5(n+1)} sum_i |L_i(x) f_i|,
        # the first-kind form's backward-stability bound (Higham, IMA J.
        # Numer. Anal. 24, 2004); r = n/2 adds the Newton prefix and the
        # fixed-prefix column, whose rounding on sorted nodes at n = 128
        # no suffix form repairs (ROADMAP item 2), so there the first-kind
        # form is held to the larger of that bound and twice the error of
        # the tallied path on the same plan
        rng = random.Random(5100 + n)
        bound = 5 * (n + 1) * 2.0 ** -53
        for family, xs, f in self.families(n, rng):
            fs = [f(v) for v in xs]
            for _ in range(4):
                x = rng.uniform(min(xs), max(xs))
                exact, size = exact_interpolant(xs, fs, x)
                for r in (0, n // 2):
                    s = SampleSet(xs, fs)
                    got = [interpolate_general(s, r, x) for _ in range(2)]
                    assert repr(got[0]) == repr(got[1])
                    today = interpolate_general(s, r, x, tally=OpTally())
                    err = float(abs(Fraction(got[0]) - exact)) / size
                    err_today = float(abs(Fraction(today) - exact)) / size
                    where = (family, n, r, x, err, err_today)
                    if r == 0:
                        assert err <= bound and err_today <= bound, where
                    else:
                        assert err <= max(bound, 2 * err_today), where

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_extended_dd_eval_within_the_backward_stable_bound(self, n):
        # the plain extended_dd_eval is the first-kind suffix sum alone, so
        # against the exact interpolant of the plan's float column over the
        # suffix nodes it stays within gamma_{5(n-r+1)} sum_i |L_i(x) c_i|
        rng = random.Random(5200 + n)
        for family, xs, f in self.families(n, rng):
            s = SampleSet(xs, [f(v) for v in xs])
            for r in (0, n // 2):
                suffix, column = xs[r:], split_plan(s, r).column
                bound = 5 * len(suffix) * 2.0 ** -53
                for _ in range(4):
                    x = rng.uniform(min(xs), max(xs))
                    got = [extended_dd_eval(s, r, x) for _ in range(2)]
                    assert repr(got[0]) == repr(got[1])
                    exact, size = exact_interpolant(suffix, column, x)
                    err = float(abs(Fraction(got[0]) - exact)) / size
                    assert err <= bound, (family, n, r, x, err)


class TestEvenFormAccuracy:
    """The evenly spaced forms against the exact interpolant of the same
    floats over their positions."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_within_the_difference_table_bound(self, n):
        # the Newton prefix's differences can double their rounding with
        # each order, so every form at every split is held to 2^n (n+1) u
        # sum_i |L_i(s) f_i|; the sweep includes new_forward at r = m = n/2,
        # whose suffix is empty
        rng = random.Random(2700 + n)
        bound = 2 ** n * (n + 1) * 2.0 ** -53
        empty_suffix = 0

        def check(got, positions, vals, s, where):
            exact, size = exact_interpolant([float(p) for p in positions],
                                            vals, s)
            err = float(abs(Fraction(got) - exact)) / size
            assert err <= bound, (*where, s, err / bound)

        for trial in range(10):
            if trial % 2:
                vals = [math.sin(1.0 + 0.37 * k) for k in range(n + 1)]
            else:
                vals = [rng.uniform(-1.0, 1.0) for _ in range(n + 1)]
            s = rng.uniform(-1.0, n + 1.0)
            for r in range(n + 1):
                check(interpolate_forward_even(vals, r, s), range(n + 1),
                      vals, s, ("forward", r))
                check(interpolate_backward_even(vals, r, -s),
                      range(0, -n - 1, -1), vals, -s, ("backward", r))
            for m in range(n + 1):
                right = n - m
                s = rng.uniform(-m - 1.0, right + 1.0)
                for variant in CENTRAL_VARIANTS:
                    top = min(m, right - (variant == "bessel"))
                    for r in range(top + 1):
                        check(interpolate_central(vals, m, r, s, variant),
                              range(-m, right + 1), vals, s, (variant, m, r))
                        empty_suffix += variant == "new_forward" and \
                            2 * r == n
        assert empty_suffix


class TestEvenForms:
    def test_forward_matches_reference_polynomial(self):
        # tabulated fourth-degree forward coefficients on the first 5 rows
        coeffs = [2.761468, 0.449747, 0.047702, 0.005002]
        for s in (-0.6, 0.4, 1.3, 3.7):
            poly = T5_Y[0] + coeffs[0] * s + coeffs[1] * s * (s - 1) \
                + coeffs[2] * s * (s - 1) * (s - 2) \
                + coeffs[3] * s * (s - 1) * (s - 2) * (s - 3)
            got = interpolate_forward_even(T5_Y[:5], 4, s)
            assert got == pytest.approx(poly, abs=5e-5)

    def test_backward_matches_reference_polynomial(self):
        coeffs = [21.056070, 2.740771, 0.242686, 0.015823]
        vals = T5_Y[::-1][:5]
        for s in (0.6, -0.4, -2.3):
            poly = vals[0] + coeffs[0] * s + coeffs[1] * s * (s + 1) \
                + coeffs[2] * s * (s + 1) * (s + 2) \
                + coeffs[3] * s * (s + 1) * (s + 2) * (s + 3)
            got = interpolate_backward_even(vals, 4, s)
            assert got == pytest.approx(poly, abs=5e-5)

    def test_endpoint_and_node_reproduction(self):
        assert interpolate_forward_even(T5_Y[:5], 4, 0) == pytest.approx(T5_Y[0])
        for k in range(5):
            assert interpolate_forward_even(T5_Y[:5], 3, k) == \
                pytest.approx(T5_Y[k], rel=1e-12)
            assert interpolate_backward_even(T5_Y[::-1][:5], 3, -k) == \
                pytest.approx(T5_Y[::-1][k], rel=1e-12)

    def test_grid_invariance(self, rng):
        vals = [rng.uniform(-1, 1) for _ in range(7)]
        for h in (0.25, -0.4, 3.0):
            x0 = 1.7
            mapped = SampleSet([x0 + i * h for i in range(7)], vals)
            for r in (0, 2, 6):
                for s in (0.3, 2.8, -1.1):
                    direct = interpolate_forward_even(vals, r, s)
                    via_x = interpolate_general(mapped, r, x0 + s * h)
                    assert direct == pytest.approx(via_x, rel=1e-10, abs=1e-12)

    def test_fraction_polynomial_exact_at_every_split(self, rng):
        for n in range(9):
            poly = random_rational_poly(rng, n)
            fwd = [poly(Fraction(p)) for p in range(n + 1)]
            bwd = [poly(Fraction(-p)) for p in range(n + 1)]
            off_node = (Fraction(2, 7), Fraction(-13, 5), Fraction(2 * n + 1, 2))
            for r in range(n + 1):
                for s in off_node + tuple(Fraction(k) for k in range(n + 1)):
                    assert interpolate_forward_even(fwd, r, s) == poly(s)
                for s in off_node + tuple(Fraction(-k) for k in range(n + 1)):
                    assert interpolate_backward_even(bwd, r, s) == poly(s)

    def test_backward_consistency_with_general(self, rng):
        vals = [rng.uniform(-1, 1) for _ in range(6)]
        mapped = SampleSet([-k for k in range(6)], vals)
        for r in range(6):
            for s in (0.4, -2.2, -4.9):
                direct = interpolate_backward_even(vals, r, s)
                via = interpolate_general(mapped, r, s)
                assert direct == pytest.approx(via, rel=1e-10, abs=1e-12)


class TestCentralVariants:
    def test_gauss_forward_matches_reference_polynomial(self):
        coeffs = [8.600043, 1.080706, 0.131275, 0.009092]
        vals = T5_Y[2:7]  # centred on x = 2.0
        for s in (0.3, -1.6, 1.9):
            poly = T5_Y[4] + coeffs[0] * s + coeffs[1] * s * (s - 1) \
                + coeffs[2] * s * (s * s - 1) \
                + coeffs[3] * s * (s * s - 1) * (s - 2)
            got = interpolate_central(vals, 2, 2, s, "new_forward")
            assert got == pytest.approx(poly, abs=5e-5)

    def test_stirling_matches_reference_polynomial(self):
        vals = T5_Y[2:7]
        for s in (0.3, -1.6, 1.9):
            poly = T5_Y[4] + 7.519337 * s + 1.080706 * s * s \
                + 0.113091 * s * (s * s - 1) + 0.009092 * s * s * (s * s - 1)
            got = interpolate_central(vals, 2, 2, s, "stirling")
            assert got == pytest.approx(poly, abs=5e-5)

    def test_all_variants_reproduce_centre(self, rng):
        vals = [rng.uniform(-1, 1) for _ in range(9)]
        for variant in CENTRAL_VARIANTS:
            assert interpolate_central(vals, 4, 2, 0.0, variant) == \
                pytest.approx(vals[4], rel=1e-12, abs=1e-12)

    def test_pairwise_agreement_on_full_support(self, rng):
        for m, n, r in ((4, 4, 2), (3, 4, 3), (2, 2, 1)):
            vals = [math.sin(1.0 + 0.37 * k) for k in range(m + n + 1)]
            for s in (0.45, -1.3, 2.2):
                got = [interpolate_central(vals, m, r, s, v)
                       for v in CENTRAL_VARIANTS]
                lo, hi = min(got), max(got)
                assert hi - lo <= 1e-9 * (1 + abs(hi))

    def test_variants_equal_full_interpolant_exactly(self, rng):
        # every (m, n) up to 4, every valid r, points inside, outside and
        # on the nodes: the prefix and the tail cover every node once
        points = [Fraction(2, 7), Fraction(-13, 5), Fraction(-1), Fraction(0),
                  Fraction(1)]
        cases = 0
        for m in range(5):
            for n in range(5):
                poly = random_rational_poly(rng, m + n)
                vals = [poly(Fraction(p)) for p in range(-m, n + 1)]
                for variant in CENTRAL_VARIANTS:
                    right = n - 1 if variant == "bessel" else n
                    for r in range(min(m, right) + 1):
                        for s in points:
                            assert interpolate_central(vals, m, r, s,
                                                       variant) == poly(s)
                            cases += 1
        assert cases == 1575

    def test_range_validation(self):
        with pytest.raises(ValueError, match="insufficient"):
            interpolate_central([1.0, 2.0, 3.0, 4.0], 1, 2, 0.5, "stirling")
        with pytest.raises(ValueError, match="unknown variant"):
            interpolate_central([1.0, 2.0, 3.0], 1, 1, 0.5, "gauss")
        with pytest.raises(ValueError, match="^m exceeds the sample count$"):
            interpolate_central([1.0, 2.0], 3, 0, 0.5)


class TestTailFit:
    def test_exact_linear_column_recovered(self):
        # choose data whose order-2 fixed-prefix differences are linear in
        # the trailing node: f = x^3 has f[0, x1, x] = x + x1 (monic cubic)
        nodes = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        s = SampleSet(nodes, [x ** 3 for x in nodes])
        model = fit_tail(s, 2, 1)
        assert model.coefficients[1] == pytest.approx(1.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert model.residual == pytest.approx(0.0, abs=1e-18)

    def test_constant_column_degree_zero(self):
        nodes = [0.0, 1.0, 2.0, 3.0, 4.0]
        s = SampleSet(nodes, [x * x for x in nodes])
        model = fit_tail(s, 2, 0)
        assert model.coefficients == (pytest.approx(1.0, abs=1e-12),)

    def test_reference_theta_forward(self):
        s = SampleSet(range(9), T5_Y)
        model = fit_tail(s, 3, 1, basis="s")
        assert model.coefficients[1] == pytest.approx(0.006633, abs=5e-6)
        assert model.coefficients[0] == pytest.approx(0.026390, abs=5e-6)

    def test_reference_theta_central(self):
        zig = zigzag_positions(4, 4)
        by_pos = {p - 4: v for p, v in enumerate(T5_Y)}
        s = SampleSet(zig, [by_pos[p] for p in zig])
        model = fit_tail(s, 3, 1, basis="s")
        assert model.coefficients[1] == pytest.approx(0.009269, abs=5e-6)
        assert model.coefficients[0] == pytest.approx(0.116079, abs=5e-6)

    def test_underdetermined_fit_rejected(self):
        s = SampleSet([0.0, 1.0, 2.0], [0.0, 1.0, 8.0])
        with pytest.raises(ValueError, match="not enough"):
            fit_tail(s, 2, 1)

    def test_split_zero_rejected(self):
        s = SampleSet([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 5.0, 10.0])
        with pytest.raises(ValueError, match=r"^r=0 out of range 1\.\.3$"):
            fit_tail(s, 0, 1)
        with pytest.raises(ValueError, match=r"^r=0 out of range 1\.\.3$"):
            interpolate_with_tail(s, 0, TailModel((0.25,), 3), 0.5)

    def test_negative_degree_rejected(self):
        s = SampleSet([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 5.0, 10.0])
        with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
            fit_tail(s, 3, -1)

    def test_tail_model_json_round_trip(self):
        model = TailModel((0.25, -1.5), 3, basis="s")
        again = tail_model_from_json(model.to_json())
        assert again == TailModel((0.25, -1.5), 3, basis="s")

    @pytest.mark.parametrize("d,message", [
        ({"coeffs": [1.0]}, r"^r: missing$"),
        ({"r": 1}, r"^coeffs: missing$"),
        ({"coeffs": "12", "r": 1}, r"^coeffs: '12' is not a list$"),
        ({"coeffs": [], "r": 1}, r"^coeffs: empty$"),
        ({"coeffs": [1.0], "r": True}, r"^r=True is not an int >= 0$"),
        ({"coeffs": [1.0], "r": -3}, r"^r=-3 is not an int >= 0$"),
        ({"coeffs": [1.0], "r": 1, "basis": 5}, r"^basis: 5 is not a str$"),
        ({"coeffs": [None], "r": 1}, r"^coeffs\[0\]: None is not a number$"),
        ({"coeffs": [1.0, [2]], "r": 1},
         r"^coeffs\[1\]: \[2\] is not a number$"),
        ({"coeffs": [1.0, False], "r": 1},
         r"^coeffs\[1\]: False is not a number$"),
        ({"coeffs": ["1/0"], "r": 1}, r"^coeffs\[0\]: '1/0' is not a number$"),
        ({"coeffs": ["one"], "r": 1}, r"^coeffs\[0\]: 'one' is not a number$"),
        ('{"coeffs": [NaN], "r": 1}', r"^coeffs\[0\]: nan is not finite$"),
        ('{"coeffs": [1.0, -Infinity], "r": 1}',
         r"^coeffs\[1\]: -inf is not finite$"),
    ], ids=["r-missing", "coeffs-missing", "coeffs-string", "coeffs-empty",
            "r-bool", "r-negative", "basis-not-a-string", "coeff-null",
            "coeff-list", "coeff-bool", "coeff-zero-denominator",
            "coeff-bad-string", "coeff-nan", "coeff-minus-inf"])
    def test_tail_model_json_no_model_writes_is_rejected(self, d, message):
        with pytest.raises(ValueError, match=message):
            tail_model_from_json(d)

    def test_fraction_tail_model_json_round_trip(self):
        model = TailModel((Fraction(1, 3), Fraction(-7, 2)), 2)
        assert model.to_json_dict()["coeffs"] == ["1/3", "-7/2"]
        assert tail_model_from_json(model.to_json()) == model

    def test_exact_fraction_fit(self):
        nodes = [Fraction(i) for i in range(6)]
        s = SampleSet(nodes, [x ** 3 for x in nodes])
        model = fit_tail(s, 2, 1)
        assert model.coefficients == (Fraction(1), Fraction(1))
        assert all(type(c) is Fraction for c in model.coefficients)
        assert model.residual == 0 and type(model.residual) is Fraction

    # (slope, intercept) as numpy.polyfit's SVD solve gave them; the exact
    # normal equations must agree to a few units in the last place
    POLYFIT_LINES = {
        "modified_forward": (0.006632543872101967, 0.026389729258026157),
        "modified_backward": (0.01307776769091519, 0.27970964774817636),
        "modified_central": (0.009269211487543425, 0.1160792748947605),
    }

    def test_table7_lines_match_polyfit(self):
        fitted = repro.table7_theta_fitted()
        assert fitted.keys() == self.POLYFIT_LINES.keys()
        for name, line in self.POLYFIT_LINES.items():
            assert all(type(c) is float for c in fitted[name])
            assert fitted[name] == pytest.approx(line, rel=1e-14, abs=0)

    def test_infinite_column_raises(self):
        # f[x0, x1] = (-1e308 - 1e308) / 1 overflows to -inf
        s = SampleSet([0.0, 1.0, 2.0, 3.0], [1e308, -1e308, 0.0, 0.0])
        assert math.isinf(build_new_table(s, 1).columns[1][0])
        with pytest.raises(OverflowError):
            fit_tail(s, 1, 1)


def test_import_leaves_numpy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, divdiff; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


class TestInterpolateWithTail:
    def test_zero_tail_is_pure_prefix(self):
        s = SampleSet([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 5.0, 10.0])
        zero = TailModel((0.0,), 2)
        got = interpolate_with_tail(s, 2, zero, 0.5)
        # prefix of order 1: f0 + (x - x0) f[x0, x1]
        assert got == pytest.approx(1.0 + 0.5 * 1.0, rel=1e-14)

    def test_reference_modified_forward_error(self):
        s = SampleSet(range(9), T5_Y)
        theta = TailModel((0.026390, 0.006633), 3, basis="s")
        err = interpolate_with_tail(s, 3, theta, (0.85 - 1.0) / 0.25) \
            - table5_function(0.85)
        assert err == pytest.approx(3.00e-02, abs=2e-4)

    def test_reference_modified_central_error(self):
        zig = zigzag_positions(4, 4)
        by_pos = {p - 4: v for p, v in enumerate(T5_Y)}
        s = SampleSet(zig, [by_pos[p] for p in zig])
        theta = TailModel((0.116079, 0.009269), 3, basis="s")
        err = interpolate_with_tail(s, 3, theta, (1.50 - 2.0) / 0.25) \
            - table5_function(1.50)
        assert err == pytest.approx(-1.58e-02, abs=2e-4)


class TestOpCounts:
    def test_lagrange_boundary(self):
        for n in range(1, 9):
            c = count_ops(n, 0)
            assert c.multiplications == (2 * n - 1) * (n + 1)
            assert c.divisions == n + 1
            assert c == lagrange_op_counts(n)

    def test_newton_boundary_subtractions(self):
        for n in range(1, 9):
            assert count_ops(n, n).subtractions == 3 * n * (n + 1) // 2
            assert newton_op_counts(n).subtractions == 3 * n * (n + 1) // 2

    def test_worked_interior_case(self):
        c = count_ops(4, 2)
        assert (c.additions, c.subtractions, c.multiplications, c.divisions) \
            == (4, 29, 12, 10)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_ops(4, 5)

    @pytest.mark.parametrize("counts", [
        lambda: count_ops(0, 0), lambda: count_ops(-1, 0),
        lambda: lagrange_op_counts(0), lambda: newton_op_counts(0),
        lambda: newton_op_counts(-1),
    ], ids=["count-0", "count-negative", "lagrange-0", "newton-0",
            "newton-negative"])
    def test_n_below_one_is_rejected(self, counts):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            counts()

    def test_instrumented_matches_interior(self, rng):
        for n in range(4, 9):
            s = random_float_samples(rng, n)
            for r in range(1, n):
                tally = OpTally()
                interpolate_general(s, r, 0.41, tally=tally)
                assert tally.snapshot() == count_ops(n, r)

    def test_instrumented_boundaries(self, rng):
        for n in (4, 6):
            s = random_float_samples(rng, n)
            tally = OpTally()
            interpolate_general(s, 0, 0.41, tally=tally)
            assert tally.snapshot() == count_ops(n, 0)  # no discrepancy at r=0
            tally = OpTally()
            interpolate_general(s, n, 0.41, tally=tally)
            got = tally.snapshot()
            # the degenerate one-term suffix makes the true Newton-path cost
            # one multiplication more / one division fewer than the formula
            formula = count_ops(n, n)
            assert got == newton_op_counts(n)
            assert got.multiplications == formula.multiplications + 1
            assert got.divisions == formula.divisions - 1

    def test_instrumented_value_unchanged(self, rng):
        s = random_float_samples(rng, 6)
        tally = OpTally()
        # the tallied path's float, as before the untallied path took the
        # first-kind form (which gives 0.20965190850674062 here)
        assert repr(interpolate_general(s, 3, 0.29, tally=tally)) == \
            "0.2096519085067406"
