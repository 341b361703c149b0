"""End-to-end acceptance checks, one numbered test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Criterion 5a is expected to fail and is marked accordingly:
the bundled modified-forward error column was generated from the
unrounded fitted tail line, and the 6-decimal printed coefficients alone
shift four far-from-anchor entries past the two-unit agreement window
(see test_05c for the fitted-line reproduction, which matches every cell).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from divdiff import (SampleSet, central_derivative, count_ops,
                     derivative_lincomb, derivative_uneven, diff_op_counts,
                     divided_difference, even_quad_weights,
                     interpolate_general, known_stencils, newton_op_counts,
                     quad_composite, quad_uneven, series_derivative,
                     stencil_weights, table5_function, twosided_coeffs,
                     twosided_derivative)
from divdiff.counting import OpTally
from divdiff.oracle import grid_lincomb_weight_sum, harmonic_number
from divdiff import repro
from divdiff.tables import (build_combined_table, build_integer_table,
                            build_new_table, build_newton_table,
                            zigzag_positions)

from conftest import (argument_indices, random_rational_nodes,
                      random_rational_poly, subset_weight_sum)


def _report(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{tag} {detail}"


def test_01_five_point_stencils_exact():
    start = time.perf_counter()
    golden = known_stencils()
    layouts = {(4, 0): "backward-5pt-d2", (3, 1): "semi-backward-5pt-d2",
               (2, 2): "central-5pt-d2", (1, 3): "semi-forward-5pt-d2",
               (0, 4): "forward-5pt-d2"}
    ok = all(stencil_weights(m, n, 2).weights == golden[name].weights
             for (m, n), name in layouts.items())
    elapsed = time.perf_counter() - start
    _report("01 stencil reproduction", ok and elapsed < 1.0,
            f"(5 layouts, {elapsed:.3f}s)")


def test_02_quadrature_weights_exact():
    start = time.perf_counter()
    ok = even_quad_weights(2).node_weights == tuple(
        Fraction(v, 3) for v in (1, 4, 1))
    ok &= even_quad_weights(6).node_weights == tuple(
        Fraction(v, 140) for v in (41, 216, 27, 272, 27, 216, 41))
    elapsed = time.perf_counter() - start
    _report("02 quadrature weights", ok and elapsed < 1.0, f"({elapsed:.3f}s)")


def test_03_reference_function_values():
    report = repro.ReproReport()
    repro.table5_cases(report)
    _report("03 reference function values", report.ok,
            "(%d/%d within 5e-7)" % report.counts())


def test_04_error_table_reproduction():
    start = time.perf_counter()
    report = repro.ReproReport()
    repro.table6_cases(report)
    elapsed = time.perf_counter() - start
    _report("04 fourth-degree error table", report.ok and elapsed < 1.0,
            "(%d/%d cells, %.3fs)" % (*report.counts(), elapsed))


def test_05a_modified_error_table_printed_theta_central():
    fix = repro._fixture("table7.json")
    computed = repro.table7_computed(theta_source="printed")
    ok = all(abs(got - want) <= repro.error_table_tolerance(want)
             for want, got in zip(fix["modified_central"],
                                  computed["modified_central"]))
    _report("05a modified central column, printed tail line", ok)


@pytest.mark.xfail(strict=True, reason=(
    "the bundled forward column was computed from the unrounded fitted "
    "tail line; its printed 6-decimal rounding alone moves the cells at "
    "x in {1.85, 2.0, 2.75, 2.85} beyond two units of the last digit"))
def test_05b_modified_error_table_printed_theta_forward():
    fix = repro._fixture("table7.json")
    computed = repro.table7_computed(theta_source="printed")
    bad = [x for x, want, got in zip(fix["x"], fix["modified_forward"],
                                     computed["modified_forward"])
           if abs(got - want) > repro.error_table_tolerance(want)]
    _report("05b modified forward column, printed tail line", not bad,
            f"(cells off: {bad})")


def test_05c_modified_error_table_fitted_theta():
    report = repro.ReproReport()
    repro.table7_cases(report, theta_source="fitted")
    fitted = repro.table7_theta_fitted()
    fix = repro._fixture("table7.json")
    theta_ok = all(
        abs(fitted[name][0] - printed[0]) < 5e-6
        and abs(fitted[name][1] - printed[1]) < 5e-6
        for name, printed in fix["theta_printed"].items())
    _report("05c modified error table, fitted tail line",
            report.ok and theta_ok, "(%d/%d cells)" % report.counts())


def test_06_split_sweep_equivalence():
    rng = random.Random(1106)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(1, 10)
        while True:
            nodes = sorted(rng.uniform(0.0, 1.0) for _ in range(n + 1))
            if all(b > a for a, b in zip(nodes, nodes[1:])):
                break
        s = SampleSet(nodes, [rng.uniform(-1.0, 1.0) for _ in nodes])
        for _ in range(20):
            x = rng.uniform(0.0, 1.0)
            base = interpolate_general(s, 0, x)
            for r in range(1, n + 1):
                dev = abs(interpolate_general(s, r, x) - base) / (1 + abs(base))
                worst = max(worst, dev)
    _report("06 split-sweep equivalence", worst <= 1e-9,
            f"(worst relative disagreement {worst:.2e})")


def test_07_exactness_suite_rational():
    rng = random.Random(1107)
    # interpolation
    for _ in range(50):
        n = rng.randint(1, 6)
        poly = random_rational_poly(rng, n)
        s = poly.sample(random_rational_nodes(rng, n + 1))
        x = Fraction(rng.randint(-50, 50), 51)
        r = rng.randint(0, n)
        assert interpolate_general(s, r, x) == poly(x)
    # differentiation: recursive, subset linear combination, grid
    for _ in range(50):
        t = rng.randint(1, 3)
        n = rng.randint(t, 5)
        poly = random_rational_poly(rng, n)
        nodes = random_rational_nodes(rng, n + 1)
        s = poly.sample(nodes)
        x = Fraction(rng.randint(-40, 40), 41)
        while x in s.nodes:
            x += Fraction(1, 83)
        want = poly.derivative(t)(x)
        assert derivative_uneven(s, x, t) == want
        assert derivative_lincomb(s, x, t) == want
        m_grid = rng.randint(0, 2)
        n_grid = rng.randint(max(1, t - m_grid), 3)
        gpoly = random_rational_poly(rng, m_grid + n_grid)
        h = Fraction(rng.randint(1, 5), 7)
        vals = [gpoly(i * h) for i in range(-m_grid, n_grid + 1)]
        assert twosided_derivative(vals, h, t, m=m_grid) == \
            gpoly.derivative(t)(0)
    # quadrature
    for _ in range(50):
        n = rng.randint(1, 5)
        poly = random_rational_poly(rng, n)
        s = poly.sample(random_rational_nodes(rng, n + 1))
        x = Fraction(rng.randint(-30, 30), 31)
        while x in s.nodes:
            x += Fraction(1, 97)
        h = Fraction(rng.randint(1, 9), 11)
        assert quad_uneven(s, x, h) == poly.definite_integral(x, x + h)
    _report("07 rational exactness suite", True,
            "(50 polynomials per operation family)")


def test_08_coefficient_identities():
    rng = random.Random(1108)
    worst = 0.0
    for n in range(1, 8):
        for k in range(1, min(n, 3) + 1):
            nodes = [2.0 * (i + 0.3 * rng.uniform(-1, 1)) / n
                     for i in range(n + 1)]
            mid = n // 2
            x = 0.5 * (nodes[mid] + nodes[mid + 1])
            worst = max(worst, abs(subset_weight_sum(nodes, x, k) - 1.0))
            assert grid_lincomb_weight_sum(n, k) == 1
    hn_ok = all(twosided_coeffs(0, n, 1).W[0] == harmonic_number(n)
                and abs(float(twosided_coeffs(0, n, 1).W[0])
                        - float(harmonic_number(n))) <= 1e-12
                for n in range(1, 21))
    _report("08 coefficient identities", worst <= 1e-10 and hn_ok,
            f"(worst subset-sum deviation {worst:.2e})")


def test_09_convergence_orders():
    a = 0.5
    orders = []
    errs = []
    for h in (0.1, 0.05, 0.025):
        vals = [math.sin(a + i * h) for i in (-2, -1, 0, 1, 2)]
        errs.append(abs(central_derivative(vals, h, 2) + math.sin(a)))
    orders += [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    ok = all(abs(o - 4.0) <= 0.3 for o in orders)

    qerrs = [abs(quad_composite(math.sin, 0.0, math.pi, p) - 2.0)
             for p in (4, 8, 16, 32)]
    qorders = [math.log2(e1 / e2) for e1, e2 in zip(qerrs, qerrs[1:])]
    ok &= all(abs(o - 4.0) <= 0.2 for o in qorders)
    _report("09 convergence orders", ok,
            f"(derivative {orders}, quadrature {qorders})")


def test_10_operation_count_instrumentation():
    rng = random.Random(1110)
    for n in range(4, 9):
        nodes = sorted(rng.uniform(0.0, 2.0) for _ in range(n + 1))
        s = SampleSet(nodes, [rng.uniform(-1.0, 1.0) for _ in nodes])
        for r in range(1, n):
            tally = OpTally()
            interpolate_general(s, r, 0.77, tally=tally)
            assert tally.snapshot() == count_ops(n, r), (n, r)
        # boundary behaviour, asserted as documented exceptions
        tally = OpTally()
        interpolate_general(s, 0, 0.77, tally=tally)
        assert tally.snapshot() == count_ops(n, 0)
        tally = OpTally()
        interpolate_general(s, n, 0.77, tally=tally)
        got = tally.snapshot()
        assert got == newton_op_counts(n)
        assert got.multiplications == count_ops(n, n).multiplications + 1
        assert got.divisions == count_ops(n, n).divisions - 1
    for n in range(2, 7):
        nodes = sorted(rng.uniform(0.0, 2.0) for _ in range(n + 1))
        s = SampleSet(nodes, [rng.uniform(-1.0, 1.0) for _ in nodes])
        for k in range(1, min(n, 3) + 1):
            tally = OpTally()
            derivative_uneven(s, 2.3, k, tally=tally)
            assert tally.snapshot() == diff_op_counts(n, k), (n, k)
    _report("10 operation-count instrumentation", True,
            "(interpolation n=4..8 interior r; derivative n=2..6, k<=3)")


def test_11_table_oracle_equivalence():
    rng = random.Random(1111)
    for trial in range(25):
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
        m_signed = rng.randint(1, n - 1)
        positions = SampleSet([Fraction(p) for p in range(n + 1)], s.values)
        integer = build_integer_table(s.values, r)
        for i in range(1, n + 1):
            for j in range(len(integer.columns[i])):
                idx = argument_indices(integer, i, j)
                assert integer.entry_as_dd(i, j) == \
                    divided_difference(positions, idx)
        zigzag = zigzag_positions(m_signed, n - m_signed)
        signed = build_new_table(
            SampleSet(zigzag, [s.values[p + m_signed] for p in zigzag]), n)
        by_pos = {p: v for p, v in zip(range(-m_signed, n - m_signed + 1),
                                       s.values)}
        sset = SampleSet([Fraction(p) for p in sorted(by_pos)],
                         [by_pos[p] for p in sorted(by_pos)])
        pos_index = {p: i for i, p in enumerate(sorted(by_pos))}
        for i in range(1, n + 1):
            for j in range(len(signed.columns[i])):
                idx = [pos_index[p] for p in argument_indices(signed, i, j)]
                assert signed.columns[i][j] == divided_difference(sset, idx)
    _report("11 table/oracle equivalence", True,
            "(25 sample sets, four schemes, every entry)")


def test_12_series_derivative():
    want = -math.sin(0.3)
    got = series_derivative(math.cos, 0.3, 0.3, 1, 500)
    rel = abs(got - want) / abs(want)
    e250 = abs(series_derivative(math.cos, 0.3, 0.3, 1, 250) - want)
    e1000 = abs(series_derivative(math.cos, 0.3, 0.3, 1, 1000) - want)
    _report("12 series derivative", rel <= 1e-2 and e1000 < e250,
            f"(rel {rel:.2e} at 500 terms; {e1000:.2e} < {e250:.2e})")
