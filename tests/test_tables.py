import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divdiff import (SampleSet, build_combined_table, build_integer_table,
                     build_new_table, build_newton_table, divided_difference,
                     extended_dd_eval, split_plan, table_from_json,
                     zigzag_positions)
from divdiff.tables import _dd_over

from conftest import (argument_indices, random_float_samples,
                      random_rational_nodes, random_rational_poly)

T5_X = [1.0 + 0.25 * i for i in range(9)]
T5_Y = [6.2780346, 9.0395024, 12.7004652, 17.5471328, 23.9857632,
        32.5858062, 44.1349092, 59.7094373, 80.7655077]


def quad_samples():
    return SampleSet([0, 1, 2], [1, 2, 5])  # x^2 + 1


def entries_in(table, part):
    """``(i, j, entry)`` for every entry of columns 1.. that
    ``table.part_of`` puts in ``part``."""
    return [(i, j, v) for i, col in enumerate(table.columns) if i
            for j, v in enumerate(col) if table.part_of(i, j) == part]


def signed_table(m, n, vals):
    """The fixed-prefix table over the zigzag positions of -m..n, with
    ``vals`` at -m..n listed left to right."""
    pos = zigzag_positions(m, n)
    return build_new_table(SampleSet(pos, [vals[p + m] for p in pos]), m + n)


class TestDividedDifference:
    def test_leading_coefficient_of_quadratic(self):
        assert divided_difference(quad_samples(), (0, 1, 2)) == 1

    def test_constant_data_vanishes(self):
        s = SampleSet([0.0, 0.3, 1.1, 2.0], [4.5] * 4)
        assert divided_difference(s, (0, 1, 2)) == 0.0
        assert divided_difference(s, (0, 1, 2, 3)) == 0.0

    def test_first_order_quotient_on_reference_data(self):
        s = SampleSet(T5_X, T5_Y)
        got = divided_difference(s, (0, 1))
        assert got == pytest.approx((T5_Y[1] - T5_Y[0]) / 0.25, abs=1e-12)
        assert got == pytest.approx(11.0458712, abs=1e-7)

    def test_errors(self):
        s = quad_samples()
        with pytest.raises(ValueError, match="coincident"):
            divided_difference(s, (0, 0, 1))
        with pytest.raises(ValueError, match="empty"):
            divided_difference(s, ())

    def test_negative_index_is_rejected(self):
        # Python indexing would read [0, -1] as f[x_0, x_n]
        with pytest.raises(IndexError, match="^node index -1 is negative$"):
            divided_difference(quad_samples(), [0, -1])

    @given(st.permutations(list(range(5))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, perm):
        rng = random.Random(7)
        s = SampleSet([0.05, 0.31, 0.47, 0.66, 0.93],
                      [rng.uniform(-1, 1) for _ in range(5)])
        base = divided_difference(s, range(5))
        got = divided_difference(s, perm)
        assert got == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_permutation_invariance_exact_in_rational_mode(self, rng):
        nodes = random_rational_nodes(rng, 6)
        poly = random_rational_poly(rng, 5)
        s = poly.sample(nodes)
        base = divided_difference(s, range(6))
        for _ in range(10):
            perm = rng.sample(range(6), 6)
            assert divided_difference(s, perm) == base

    def test_annihilates_high_orders_exactly(self, rng):
        poly = random_rational_poly(rng, 3)
        nodes = random_rational_nodes(rng, 7)
        s = poly.sample(nodes)
        assert divided_difference(s, range(5)) == 0
        assert divided_difference(s, range(7)) == 0

    def test_leading_coefficient_exact(self, rng):
        poly = random_rational_poly(rng, 6)
        nodes = random_rational_nodes(rng, 7)
        s = poly.sample(nodes)
        assert divided_difference(s, range(7)) == poly.coefficients[6]


class TestNewtonTable:
    def test_square_data(self):
        t = build_newton_table(SampleSet([0, 1, 2], [0, 1, 4]))
        assert t.columns[1] == (1.0, 3.0)
        assert t.columns[2] == (1.0,)

    def test_reference_first_entry(self):
        t = build_newton_table(SampleSet(T5_X, T5_Y))
        assert t.columns[1][0] == pytest.approx(11.0458712, abs=1e-7)

    def test_single_sample_degenerates(self):
        t = build_newton_table(SampleSet([2.0], [7.0]))
        assert t.columns == ((7.0,),)


class TestNewTable:
    def test_square_data_columns(self):
        s = SampleSet([0, 1, 2, 3], [0, 1, 4, 9])
        t = build_new_table(s, 2)
        assert t.columns[1] == (1.0, 2.0, 3.0)
        assert t.columns[2] == (1.0, 1.0)

    def test_constant_columns_vanish(self):
        t = build_new_table(SampleSet([0.0, 0.5, 1.2, 3.0], [2.0] * 4), 3)
        assert all(v == 0 for col in t.columns[1:] for v in col)

    def test_full_split_top_diagonal_matches_newton(self):
        s = SampleSet(T5_X, T5_Y)
        t = build_new_table(s, s.n)
        newton = build_newton_table(s)
        for i in range(1, s.n + 1):
            assert t.columns[i][0] == pytest.approx(
                newton.columns[i][0], rel=1e-10)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            build_new_table(quad_samples(), 5)

    def test_every_entry_matches_brute_force(self, rng):
        poly = random_rational_poly(rng, 4)
        nodes = random_rational_nodes(rng, 6)
        s = poly.sample(nodes)
        t = build_new_table(s, 4)
        for i in range(1, 5):
            for j, v in enumerate(t.columns[i]):
                assert v == divided_difference(s, list(range(i)) + [i + j])


class TestCombinedTable:
    def test_full_split_equals_newton(self):
        s = SampleSet(T5_X, T5_Y)
        assert build_combined_table(s, s.n).columns == \
            build_newton_table(s).columns

    def test_zero_split_is_all_new_part(self, rng):
        poly = random_rational_poly(rng, 3)
        s = poly.sample(random_rational_nodes(rng, 6))
        t = build_combined_table(s, 0)
        for i in range(1, 6):
            for j, v in enumerate(t.columns[i]):
                assert t.part_of(i, j) == "new"
                assert v == divided_difference(s, list(range(i)) + [i + j])

    def test_first_new_entry_is_span_quotient(self):
        # with 7 nodes and split 4, the first fixed-prefix first-order
        # entry couples the first and sixth samples directly
        nodes = [0.0, 0.3, 0.7, 1.0, 1.6, 2.2, 3.1]
        vals = [math.exp(x) for x in nodes]
        t = build_combined_table(SampleSet(nodes, vals), 4)
        assert t.part_of(1, 4) == "new"
        assert t.columns[1][4] == pytest.approx(
            (vals[5] - vals[0]) / (nodes[5] - nodes[0]), rel=1e-14)

    def test_parts_match_their_schemes(self, rng):
        poly = random_rational_poly(rng, 5)
        s = poly.sample(random_rational_nodes(rng, 7))
        t = build_combined_table(s, 4)
        newton = build_newton_table(s)
        for i, j, v in entries_in(t, "newton"):
            assert v == newton.columns[i][j]
        for i, j, v in entries_in(t, "new"):
            assert v == divided_difference(s, list(range(i)) + [i + j])

    @given(st.lists(st.integers(-60, 60), min_size=2, max_size=9, unique=True),
           st.lists(st.floats(-1e3, 1e3), min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_parts_are_entries_of_their_schemes(self, keys, ys):
        s = SampleSet([k / 7 for k in keys], ys[:len(keys)])
        exact = SampleSet([Fraction(k, 7) for k in keys],
                          [Fraction(y) for y in ys[:len(keys)]])
        newton = build_newton_table(s)
        new = build_new_table(s, s.n)
        new_exact = build_new_table(exact, exact.n)
        for r in range(s.n + 1):
            for i, j, v in entries_in(build_combined_table(s, r), "newton"):
                assert v == newton.columns[i][j]
            # from r = 2 on, the fixed-prefix part starts from window-part
            # heads f[x_0..x_{i-1}], which round differently from the
            # fixed-prefix ones; the parts agree bit for bit only in exact
            # arithmetic
            if r <= 1:
                for i, j, v in entries_in(build_combined_table(s, r), "new"):
                    assert v == new.columns[i][j]
            for i, j, v in entries_in(build_combined_table(exact, r), "new"):
                assert v == new_exact.columns[i][j]


class TestIntegerTable:
    def test_square_positions(self):
        t = build_integer_table([i * i for i in range(4)], 1)
        # fixed-prefix column 2 entries are all 1 for square data
        assert t.columns[2] == (1, 1) or t.columns[2] == (Fraction(1), Fraction(1))
        assert all(t.entry_as_dd(2, j) == 1 for j in range(2))

    def test_constant_and_linear(self):
        t = build_integer_table([5, 5, 5, 5], 2)
        assert all(v == 0 for col in t.columns[1:] for v in col)
        t = build_integer_table([0, 2, 4, 6], 2)
        assert all(v == 2 for v in t.columns[1])
        assert all(v == 0 for col in t.columns[2:] for v in col)

    def test_window_part_is_plain_difference(self):
        vals = [1.0, 4.0, 9.0, 15.0, 28.0, 40.0, 55.0]
        t = build_integer_table(vals, 4)
        assert t.part_of(1, 2) == "newton"
        assert t.columns[1][2] == pytest.approx(vals[3] - vals[2])
        assert t.part_of(2, 1) == "newton"
        assert t.columns[2][1] == pytest.approx(vals[3] - 2 * vals[2] + vals[1])

    def test_heads_are_normalized_differences(self):
        vals = [Fraction(v) for v in (1, 4, 9, 15, 28, 40, 55)]
        t = build_integer_table(vals, 4)
        for i in range(1, 5):
            expect = _dd_over(list(range(i + 1)), vals[:i + 1])
            assert t.column_heads[i] == expect

    def test_every_entry_against_brute_force(self, rng):
        poly = random_rational_poly(rng, 4)
        vals = [poly(Fraction(i)) for i in range(7)]
        t = build_integer_table(vals, 3)
        s = SampleSet([Fraction(i) for i in range(7)], vals)
        for i in range(1, 7):
            for j in range(len(t.columns[i])):
                idx = argument_indices(t, i, j)
                assert t.entry_as_dd(i, j) == divided_difference(s, idx)

    def test_signed_zigzag_layout(self, rng):
        poly = random_rational_poly(rng, 5)
        vals = [poly(Fraction(p)) for p in range(-2, 4)]
        t = signed_table(2, 3, vals)
        assert t.nodes == (0, -1, 1, -2, 2, 3)
        by_pos = {p: poly(Fraction(p)) for p in range(-2, 4)}
        for i in range(1, 6):
            for j in range(len(t.columns[i])):
                args = argument_indices(t, i, j)
                assert t.columns[i][j] == _dd_over(
                    args, [by_pos[p] for p in args])


class TestExtendedDDEval:
    def test_cubic_first_order(self):
        s = SampleSet([0, 1, 2, 3], [0, 1, 8, 27])
        got = extended_dd_eval(s, 1, 0.5)
        assert got == pytest.approx((0.5 ** 3 - 0.0) / 0.5, rel=1e-12)

    def test_zero_prefix_reduces_to_interpolation(self, rng):
        poly = random_rational_poly(rng, 4)
        s = poly.sample(random_rational_nodes(rng, 5))
        x = Fraction(3, 7)
        assert extended_dd_eval(s, 0, x) == poly(x)

    def test_nodal_value_returned_exactly(self):
        s = SampleSet(T5_X, T5_Y)
        t = build_new_table(s, 1)
        assert extended_dd_eval(s, 1, T5_X[2]) == t.columns[1][1]

    def test_barycentric_agrees_and_falls_back(self, rng):
        poly = random_rational_poly(rng, 5)
        s = poly.sample(random_rational_nodes(rng, 5))
        x = Fraction(1, 3)
        direct = extended_dd_eval(s, 2, x)
        bary = extended_dd_eval(s, 2, x, barycentric=True)
        assert bary == direct
        node = s.nodes[4]
        assert extended_dd_eval(s, 2, node, barycentric=True) == \
            extended_dd_eval(s, 2, node)


def per_call_extended_dd(samples, r, x):
    """Column and weights rebuilt on every call, in the operation order the
    cached plan must keep."""
    n = samples.n
    coeff = build_new_table(samples, r).columns[r]
    xs = samples.nodes
    for i in range(r, n + 1):
        if x == xs[i]:
            return coeff[i - r]
    ws = []
    for i in range(r, n + 1):
        p = 1
        for j in range(r, n + 1):
            if j != i:
                p = p * (xs[i] - xs[j])
        ws.append(1 / p)
    num = 0
    den = 0
    for i in range(r, n + 1):
        c = ws[i - r] / (x - xs[i])
        num = num + coeff[i - r] * c
        den = den + c
    return num / den


class TestSplitPlan:
    def test_barycentric_matches_per_call_arithmetic(self, rng):
        s = random_float_samples(rng, 12)
        shuffled = s.subset(rng.sample(range(13), 13))
        points = [rng.uniform(-0.1, 1.1) for _ in range(6)]
        points += s.nodes[::3]
        for samples in (s, shuffled):
            for r in (0, 6, 12):
                for _ in range(2):  # the second pass is served from the cache
                    for x in points:
                        want = per_call_extended_dd(samples, r, x)
                        got = extended_dd_eval(samples, r, x, barycentric=True)
                        assert repr(got) == repr(want)

    def test_fraction_values_stay_exact_from_cache(self, rng):
        poly = random_rational_poly(rng, 5)
        s = poly.sample(random_rational_nodes(rng, 6))
        x = Fraction(4, 9)
        for r in (0, 2, 5):
            first = extended_dd_eval(s, r, x, barycentric=True)
            second = extended_dd_eval(s, r, x, barycentric=True)
            assert first == second == extended_dd_eval(s, r, x)
            assert type(second) is Fraction

    def test_cache_is_not_part_of_the_value(self):
        a = SampleSet([0.0, 0.5, 1.5], [1.0, 2.0, 0.5])
        b = SampleSet([0.0, 0.5, 1.5], [1.0, 2.0, 0.5])
        before = repr(a)
        split_plan(a, 1)
        extended_dd_eval(a, 0, 0.25, barycentric=True)
        assert set(a._plans) == {0, 1}
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == before

    def test_subset_and_sorted_start_empty(self):
        s = SampleSet([1.0, 0.0, 2.0], [3.0, 1.0, 4.0])
        split_plan(s, 1)
        assert s.sorted()._plans == {}
        assert s.subset([2, 0])._plans == {}

    def test_column_path_needs_no_suffix_weights(self):
        # every suffix product underflows to zero, so the weights cannot be
        # formed: at a node both forms return the stored coefficient, and
        # off the nodes they raise, as the untallied interpolate_general
        # does (weights that cannot underflow are ROADMAP item 12)
        s = SampleSet([0.0, 1e-170, 2e-170], [1.0, 2.0, 5.0])
        with pytest.raises(ZeroDivisionError):
            split_plan(s, 0).weights
        for barycentric in (False, True):
            assert extended_dd_eval(s, 0, 1e-170, barycentric) == 2.0
            with pytest.raises(ZeroDivisionError):
                extended_dd_eval(s, 0, 0.5e-170, barycentric)

    @pytest.mark.parametrize("count", [*range(1, 20), 33, 40])
    def test_plan_has_the_values_of_the_new_table(self, count):
        # the plan builder keeps its own kernel (up to 16 nodes) and loop;
        # both must give the fixed-prefix table's heads and column r: the
        # same floats, and equal Fractions
        rng = random.Random(count)
        nodes = [math.cos(math.pi * (k + rng.uniform(-0.25, 0.25)) / count)
                 for k in range(count)]
        rng.shuffle(nodes)
        values = [math.exp(x) + rng.uniform(-0.01, 0.01) for x in nodes]
        def dyadic(vs):
            return [Fraction(round(v * 2 ** 16), 2 ** 16) for v in vs]

        for s in (SampleSet(nodes, values),
                  SampleSet(dyadic(nodes), dyadic(values))):
            for r in range(count):
                table = build_new_table(s, r)
                plan = split_plan(s, r)
                want = (tuple(table.columns[i][0] for i in range(r)),
                        table.columns[r])
                assert repr((plan.heads, plan.column)) == repr(want)

    def test_out_of_range_r_raises(self):
        s = quad_samples()
        for r in (-1, 3):
            for barycentric in (False, True):
                with pytest.raises(ValueError, match="out of range"):
                    extended_dd_eval(s, r, 0.5, barycentric=barycentric)


class TestSerialization:
    def test_json_round_trip_all_schemes(self):
        s = SampleSet(T5_X[:6], T5_Y[:6])
        built = [build_newton_table(s), build_new_table(s, 3),
                 build_combined_table(s, 3),
                 build_integer_table(T5_Y[:6], 3),
                 signed_table(2, 3, T5_Y[:6]), signed_table(0, 5, T5_Y[:6])]
        for table in built:
            again = table_from_json(table.to_json())
            assert again == table

    def test_json_keys(self):
        t = build_new_table(quad_samples(), 1)
        d = json.loads(t.to_json())
        assert d["scheme"] == "new"
        assert d["r"] == 1
        assert d["columns"][0] == [1, 2, 5]
        d["scheme"] = "lagrange"
        with pytest.raises(ValueError, match="^unknown scheme 'lagrange'$"):
            table_from_json(d)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d.update(r=7), r"^r=7 out of range 0\.\.2$"),
        (lambda d: d.update(r=-1), r"^r=-1 out of range 0\.\.2$"),
        (lambda d: d.update(r="1"), r"^r='1' out of range 0\.\.2$"),
        (lambda d: d.update(r=True), r"^r=True out of range 0\.\.2$"),
        (lambda d: d["columns"][0].pop(), r"^columns\[0\] has 2 entries, "
         r"want 3$"),
        (lambda d: d["columns"][2].append(1), r"^columns\[2\] has 2 "
         r"entries, want 1$"),
        (lambda d: d["columns"].append([]), r"^columns: 4 columns for 3 "
         r"nodes$"),
        (lambda d: d.update(columns=[]), r"^columns: 0 columns for 3 nodes$"),
        (lambda d: d.pop("nodes"), r"^columns: 3 columns for 0 nodes$"),
        (lambda d: d.pop("scheme"), r"^scheme: missing$"),
        (lambda d: d.pop("columns"), r"^columns: missing$"),
        (lambda d: d.pop("r"), r"^r: missing$"),
        (lambda d: d.update(nodes="012"), r"^nodes: '012' is not a list$"),
        (lambda d: d.update(columns="125"),
         r"^columns: '125' is not a list$"),
        (lambda d: d["columns"].__setitem__(0, "125"),
         r"^columns\[0\]: '125' is not a list$"),
        (lambda d: d.update(nodes=[[1], 2, 3]),
         r"^nodes\[0\]: \[1\] is not a number$"),
        (lambda d: d["nodes"].__setitem__(2, None),
         r"^nodes\[2\]: None is not a number$"),
        (lambda d: d["columns"][1].__setitem__(1, None),
         r"^columns\[1\]\[1\]: None is not a number$"),
        (lambda d: d["columns"][0].__setitem__(2, True),
         r"^columns\[0\]\[2\]: True is not a number$"),
        (lambda d: d["columns"][2].__setitem__(0, "1/x"),
         r"^columns\[2\]\[0\]: '1/x' is not a number$"),
        (lambda d: d["columns"][2].__setitem__(0, {"v": 1}),
         r"^columns\[2\]\[0\]: \{'v': 1\} is not a number$"),
        (lambda d: d["nodes"].__setitem__(0, math.nan),
         r"^nodes\[0\]: nan is not finite$"),
        (lambda d: d["columns"][1].__setitem__(0, -math.inf),
         r"^columns\[1\]\[0\]: -inf is not finite$"),
        (lambda d: d["nodes"].__setitem__(2, 0),
         r"^nodes\[2\]: 0 repeats nodes\[0\]$"),
        (lambda d: d["nodes"].__setitem__(1, "0/3"),
         r"^nodes\[1\]: Fraction\(0, 1\) repeats nodes\[0\]$"),
        (lambda d: d.update(scheme="integer", positions=[0, 1, 0]),
         r"^positions\[2\]: 0 repeats positions\[0\]$"),
    ], ids=["r-high", "r-negative", "r-string", "r-bool", "short-values",
            "long-column", "extra-column", "no-columns", "no-nodes",
            "scheme-missing", "columns-missing", "r-missing", "nodes-string",
            "columns-string", "column-string", "node-list", "node-null",
            "entry-null", "entry-bool", "entry-bad-string", "entry-dict",
            "node-nan", "entry-minus-inf", "node-repeated",
            "node-repeated-as-fraction", "position-repeated"])
    def test_json_shape_no_builder_makes_is_rejected(self, edit, message):
        d = json.loads(build_newton_table(quad_samples()).to_json())
        edit(d)
        with pytest.raises(ValueError, match=message):
            table_from_json(d)

    def test_json_of_a_non_numeric_node_is_rejected(self):
        with pytest.raises(ValueError, match=r"^nodes\[0\]: \[1\] is not "
                           r"a number$"):
            table_from_json({"scheme": "new", "nodes": [[1], 2], "r": 0,
                             "columns": [[1, 2]]})

    def test_json_with_only_a_scheme_is_rejected(self):
        with pytest.raises(ValueError, match=r"^columns: missing$"):
            table_from_json({"scheme": "new"})

    def test_json_of_a_partial_table_loads(self):
        t = build_new_table(quad_samples(), 1)  # columns 0..1 of 3 nodes
        assert table_from_json(t.to_json()) == t

    def test_render_text_contains_staggered_entries(self):
        text = build_newton_table(quad_samples()).render_text()
        lines = text.splitlines()
        assert lines[0].split() == ["x", "y", "d1", "d2"]
        assert "1" in lines[2]  # first-order entry between the node rows

    def test_zigzag_positions(self):
        assert zigzag_positions(2, 3) == [0, -1, 1, -2, 2, 3]
        assert zigzag_positions(3, 1) == [0, -1, 1, -2, -3]


class TestOracleEquivalence:
    def test_all_schemes_all_entries_exact(self, rng):
        for _ in range(5):
            n = rng.randint(2, 9)
            poly = random_rational_poly(rng, min(n, 5))
            nodes = random_rational_nodes(rng, n + 1)
            s = poly.sample(nodes)
            r = rng.randint(0, n)
            newton = build_newton_table(s)
            for i in range(1, n + 1):
                for j, v in enumerate(newton.columns[i]):
                    assert v == divided_difference(s, range(j, j + i + 1))
            new = build_new_table(s, r)
            for i in range(1, r + 1):
                for j, v in enumerate(new.columns[i]):
                    assert v == divided_difference(s, list(range(i)) + [i + j])
            comb = build_combined_table(s, r)
            for i in range(1, n + 1):
                for j, v in enumerate(comb.columns[i]):
                    if comb.part_of(i, j) == "newton":
                        assert v == divided_difference(s, range(j, j + i + 1))
                    else:
                        assert v == divided_difference(s, list(range(i)) + [i + j])
