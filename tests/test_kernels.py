"""The straight-line kernels of ``samples._cardinal``,
``tables._build_plan``, a split form's first call
(``tables._first_point``), a split plan's repeat forms
(``tables.SplitPlan``) and ``derivatives.derivative_uneven``, each the
trace of its loop (``samples._trace``), and the generated
``derivatives._sum_kernel``, against the loops.

Each test carries its own copy of the loop, so a kernel that drifts from
it fails here: floats must be ``repr``-identical (signed zeros included),
Fractions equal and types the same.  A kernel forms each distinct
operation once, so it does at most its loop's operations; the tallied
routes record the loops (``samples._op_counts``, which the ``OpTally`` of
a tallied call is charged), never a kernel.  The tracer compiles a shape
only when its recorded tape fits ``_TAPE_BUDGET``; the tests pin which
shapes fall on each side of it, cover both, and count the kernels that
``_trace`` compiles.
"""

import functools
import gc
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from divdiff import (OpCounts, SampleSet, central_quad_weights,
                     count_ops, derivative_uneven, diff_op_counts,
                     even_quad_weights, extended_dd_eval,
                     interpolate_barycentric, interpolate_central,
                     interpolate_forward_even, interpolate_general,
                     quad_composite, quad_uneven,
                     rho_coeffs, split_plan, stencil_weights,
                     uneven_quad_plan, zigzag_positions)
from divdiff import derivatives as derivatives_module
from divdiff import samples as samples_module
from divdiff.counting import OpTally
from divdiff.derivatives import _deriv_loop, _point_deriv, _sum_kernel
from divdiff.samples import (_TAPE_BUDGET, _cardinal, _cardinal_loop,
                             _op_counts, _OverBudget, _record, _trace)
from divdiff.tables import (_build_plan, _first_point, _plan_loop,
                            _point_loop, _split_loop, _suffix_sum)

from conftest import check_composite

# every shape on these counts but some derivative ones fits the budget
COUNTS = range(1, 18)

# the highest order t whose first derivative at a point (_point_deriv, the
# cardinal basis and the derivative in one loop) fits the budget, on each
# node count where some t does not; on fewer nodes every t fits, on 21
# nodes or more none does
POINT_DERIV_TOP = {13: 9, 14: 8, 15: 7, 16: 5, 17: 4, 18: 3, 19: 2, 20: 1}


def point_deriv_fits(count, t):
    return t <= POINT_DERIV_TOP.get(count, count - 1 if count < 13 else 0)


def ref_cardinal(nodes, x):
    """``_cardinal``'s loop: each product factor by factor from its first
    factor, every difference taken anew."""
    if len(nodes) == 1:
        return [1]
    basis = []
    for i, xi in enumerate(nodes):
        num = den = None
        for j, xj in enumerate(nodes):
            if j == i:
                continue
            if num is None:
                num, den = x - xj, xi - xj
            else:
                num, den = num * (x - xj), den * (xi - xj)
        basis.append(num / den)
    return basis


def ref_plan(nodes, values, r):
    """``_build_plan``'s loop: the heads and column r of the fixed-prefix
    table, column i entry j ``(prev[j+1] - prev[0]) / (x[i+j] - x[i-1])``."""
    heads, column = [], values
    for i in range(1, r + 1):
        heads.append(column[0])
        head, base = column[0], nodes[i - 1]
        column = [(p - head) / (xj - base)
                  for p, xj in zip(column[1:], nodes[i:])]
    return tuple(heads), tuple(column)


def float_families(count):
    """Random, Chebyshev, equispaced, and a set with a -0.0 node."""
    rng = random.Random(8831 + count)
    yield "random", sorted(rng.uniform(-3.0, 3.0) for _ in range(count))
    yield "chebyshev", ([math.cos(math.pi * k / (count - 1))
                         for k in range(count)] if count > 1 else [0.5])
    yield "equispaced", [0.1 * k for k in range(count)]
    yield "signed-zero", [-0.0] + [0.25 * k for k in range(1, count)]


def float_points(nodes):
    """Off-node points, every node, and both signed zeros (so some
    differences are +0.0 and some -0.0)."""
    return [0.37, -1.7e-3, 0.0, -0.0, *nodes]


def fraction_nodes(count):
    rng = random.Random(4409 + count)
    pool = sorted({Fraction(a, b)
                   for a in range(-30, 31) for b in (1, 2, 3, 7)})
    return rng.sample(pool, count)


@pytest.fixture
def compiles(monkeypatch):
    """The labels of the kernels that ``_trace`` compiles from here on, over
    its emptied cache (``_sum_kernel`` imports the compile helper by name,
    so its kernels are not counted)."""
    _trace.cache_clear()
    labels = []
    compile_kernel = samples_module._compile_kernel

    def counting(lines, label):
        labels.append(label)
        return compile_kernel(lines, label)
    monkeypatch.setattr(samples_module, "_compile_kernel", counting)
    return labels


def deriv_trace(count, t, known):
    return _trace(_deriv_loop, count, count, count, None, t, known)


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_floats_repr_identical(count, compiles):
    for _, nodes in float_families(count):
        for x in float_points(nodes):
            got = _cardinal(nodes, x)
            assert repr(got) == repr(ref_cardinal(nodes, x))
            # one kernel compiles, on the first call, on two nodes or more
            # (the 21-node loop's tape is the largest that fits)
            assert len(compiles) == (count >= 2)


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_fractions_equal(count):
    nodes = fraction_nodes(count)
    for x in (Fraction(3, 11), nodes[0], nodes[-1], 2):
        basis = _cardinal(nodes, x)
        assert basis == ref_cardinal(nodes, x)
        if count > 1:
            assert {type(v) for v in basis} == {Fraction}


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_tallies_equal(count):
    # the loop, which the tallied routes run and charge: 2 (count - 1)
    # subtractions, 2 (count - 2) multiplications and one division per
    # node; the kernel, recorded through _cardinal, does at most as many
    if count == 1:
        assert _op_counts(_cardinal, 1, None) == (0, 0, 0, 0)
        return
    got = _op_counts(_cardinal_loop, count, None)
    assert got == _op_counts(ref_cardinal, count, None)
    assert got == (0, 2 * count * (count - 1), 2 * count * (count - 2), count)
    # each x - x_j formed once, not once per other node
    kernel = _op_counts(_cardinal, count, None)
    assert all(k <= g for k, g in zip(kernel, got))
    assert kernel[1] == count * count and kernel[3] == count


def test_cardinal_kernel_shares_its_operations():
    # on 9 nodes the loop forms each x - x_j eight times and each numerator
    # prefix product once per node after it
    assert sum(_op_counts(_cardinal_loop, 9, None)) == 279
    assert sum(_op_counts(_trace(_cardinal_loop, 9, None), 9, None)) <= 195


@pytest.mark.parametrize("count", COUNTS)
def test_plan_floats_repr_identical(count, compiles):
    rng = random.Random(77 + count)
    for family, (_, nodes) in enumerate(float_families(count)):
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        values[0] = -0.0  # a signed zero in every column head's difference
        for r in range(count + 1):
            plan = _build_plan(nodes, values, r)
            assert repr((plan.heads, plan.column)) == \
                repr(ref_plan(nodes, values, r))
            assert plan.nodes == tuple(nodes) and plan.r == r
            # one kernel per r, on its first call
            assert len(compiles) == (count + 1 if family else r + 1)


@pytest.mark.parametrize("count", COUNTS)
def test_plan_fractions_and_integer_positions_equal(count):
    nodes = fraction_nodes(count)
    values = [Fraction(v, 5) for v in range(-count, count, 2)]
    float_values = [float(v) for v in values]
    for r in range(count + 1):
        plan = _build_plan(nodes, values, r)
        assert (plan.heads, plan.column) == ref_plan(nodes, values, r)
        # the evenly spaced forms pass positions as a range
        for pos in (range(count), range(0, -count, -1)):
            for vals in (values, float_values):
                plan = _build_plan(pos, vals, r)
                want = ref_plan(pos, vals, r)
                assert repr((plan.heads, plan.column)) == repr(want)
                assert plan.nodes == tuple(pos)


def built_plan(nodes, values, *, r):
    plan = _build_plan(nodes, values, r)
    return plan.heads + plan.column


def ref_plan_entries(nodes, values, *, r):
    heads, column = ref_plan(nodes, values, r)
    return heads + column


@pytest.mark.parametrize("count", COUNTS)
def test_plan_tallies_equal(count):
    # recorded through _build_plan, whose kernel runs on the placeholders
    # up to the bound: two subtractions and a division per entry of
    # columns 1..r
    for r in range(count + 1):
        got = _op_counts(built_plan, count, count, r)
        assert got == _op_counts(ref_plan_entries, count, count, r)
        entries = r * count - r * (r + 1) // 2
        assert got == (0, 2 * entries, 0, entries)


def ref_lagrange(nodes, column, x):
    """``SplitPlan.lagrange``'s loop and weights: ``w_i = 1 / den_i``, each
    ``den_i`` from its first factor, and ``l(x) * sum_i c_i * (w_i / d_i)``
    with ``d_i = x - x_i``, ``l(x)`` the product of the ``d_i`` left to
    right, the sum from its first term; where a ``d_i`` is zero, the
    coefficient."""
    d = [x - xj for xj in nodes]
    if 0 in d:
        return column[d.index(0)], None
    weights = []
    for i, xi in enumerate(nodes):
        den = None
        for j, xj in enumerate(nodes):
            if j != i:
                den = xi - xj if den is None else den * (xi - xj)
        weights.append(1 / den)
    ell, total = d[0], column[0] * (weights[0] / d[0])
    for c, w, di in zip(column[1:], weights[1:], d[1:]):
        ell, total = ell * di, total + c * (w / di)
    return ell * total, tuple(weights)


SUFFIX_COUNTS = range(2, 18)


@pytest.mark.parametrize("count", SUFFIX_COUNTS)
def test_lagrange_floats_repr_identical(count, compiles):
    rng = random.Random(313 + count)
    for _, nodes in float_families(count):
        column = [rng.uniform(-2.0, 2.0) for _ in nodes]
        column[0] = -0.0
        for x in float_points(nodes):
            want, weights = ref_lagrange(nodes, column, x)
            # a set's first call: the kernel forms the weights and the
            # value, and gives way where it divides by a zero x - x_i
            first = _first_point(nodes, column, 0, x)
            assert (first is None) == (weights is None)
            if first is not None:
                plan, prefix, tail, value = first
                assert repr((prefix, tail, value)) == repr((0, want, want))
                assert repr(vars(plan)["weights"]) == repr(weights)
                # the repeat call binds the suffix sum's kernel
                assert repr(plan.lagrange(x)) == repr(want)
                assert "_lagrange" in vars(plan)
            # the first-call and repeat kernels, each once; the loop of a
            # fresh plan forms its weights itself and compiles nothing
            plan = _build_plan(nodes, column, 0)
            assert repr(plan.lagrange(x)) == repr(want)
            assert "_lagrange" not in vars(plan)
            assert repr(plan.weights) == repr(ref_lagrange(nodes, column,
                                                           0.37)[1])
            names = [label.split()[2] for label in compiles]
            assert sorted(set(names)) == \
                ["_plan_loop", "_point_loop", "_suffix_sum"]
            assert names.count("_suffix_sum") == 1


@pytest.mark.parametrize("count", SUFFIX_COUNTS)
def test_lagrange_fractions_equal(count):
    nodes = fraction_nodes(count)
    column = [Fraction(v, 5) for v in range(-count, count, 2)]
    for x in (Fraction(3, 11), nodes[0], nodes[-1], 2):
        want, weights = ref_lagrange(nodes, column, x)
        first = _first_point(nodes, column, 0, x)
        if weights is not None:  # the first-call kernel, off every node
            assert first[3] == want and type(first[3]) is Fraction
            assert first[0].weights == weights
        plan = _build_plan(nodes, column, 0)
        for _ in range(2):  # the first use, then the pass on kept weights
            got = plan.lagrange(x)
            assert got == want and type(got) is Fraction
        assert plan.weights == ref_lagrange(nodes, column, Fraction(1, 9))[1]
        assert {type(w) for w in plan.weights} == {Fraction}


# node counts of the benchmark's sets: at r = 0 and r = n // 2 every
# repeat call runs the suffix sum's kernel, bound to the plan
REPEAT_COUNTS = (9, 33, 129)


def warm_plan(nodes, values, r):
    """A plan whose weights its first call, off every node, has kept."""
    plan = _build_plan(nodes, values, r)
    plan.lagrange(min(nodes) - 0.5)
    assert "weights" in vars(plan)
    return plan


@pytest.mark.parametrize("count", REPEAT_COUNTS)
def test_lagrange_repeat_repr_identical(count):
    rng = random.Random(577 + count)
    for family, nodes in float_families(count):
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        for r in (0, (count - 1) // 2):
            plan = warm_plan(nodes, values, r)
            suffix = nodes[r:]
            points = [0.37, -1.7e-3, 0.0, -0.0, *suffix,
                      Fraction(suffix[1]),
                      Fraction(suffix[-1]) + Fraction(1, 10**30)]
            for x in points:
                want = ref_lagrange(suffix, plan.column, x)[0]
                got = plan.lagrange(x)
                assert repr(got) == repr(want) and type(got) is type(want), \
                    (family, r, x)


@pytest.mark.parametrize("count", REPEAT_COUNTS)
def test_lagrange_repeat_negative_zero_column(count):
    for _, nodes in float_families(count):
        plan = warm_plan(nodes, [-0.0] * count, 0)
        for x in (0.37, -1.7e-3, nodes[2]):
            want = ref_lagrange(nodes, plan.column, x)[0]
            assert repr(plan.lagrange(x)) == repr(want)


@pytest.mark.parametrize("count", REPEAT_COUNTS)
def test_lagrange_repeat_integer_positions_exact(count):
    # int positions keep exact weights, so the first call is the loop too
    nodes = list(range(count))
    column = [Fraction(k * k - 3, 7) for k in nodes]
    exact = [Fraction(k) for k in nodes]
    plan = _build_plan(nodes, column, 0)
    for x in (Fraction(5, 2), Fraction(-1, 3), Fraction(count - 2), 3):
        want = ref_lagrange(exact, column, x)[0]
        for _ in range(2):
            got = plan.lagrange(x)
            assert got == want and type(got) is Fraction


@pytest.mark.parametrize("count", [17, 129])
def test_lagrange_first_call_equals_repeat(count):
    rng = random.Random(911 + count)
    for _, nodes in float_families(count):
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        for x in (0.37, -1.7e-3, nodes[3]):
            plan = _build_plan(nodes, values, 0)
            assert repr(plan.lagrange(x)) == repr(plan.lagrange(x))


def ref_deriv(nodes, values, basis, x, t, known):
    """The untallied ``derivative_uneven`` loop: ``P_1[i] = x_i - x``,
    ``P_k = P_(k-1) * P_1``, ``rho_k = sum_i b_i / P_k[i]`` from its first
    term, ``a_k = -(rho_k * a_0 + rho_(k-1) * a_1 + ...)`` from ``a_0 =
    1``, node i's bracket ``a_0 / P_t[i] + a_1 / P_(t-1)[i] + ...`` (``+
    a_t`` unless known) and ``sum_i bracket_i * f_i * b_i``, with a_t."""
    powers = [None, [xi - x for xi in nodes]]
    for k in range(2, t + 1):
        powers.append([p * q for p, q in zip(powers[k - 1], powers[1])])
    rho = [None] + [functools.reduce(lambda u, v: u + v,
                                     [b / p for b, p in zip(basis, pw)])
                    for pw in powers[1:]]
    a = [1]
    for k in range(1, t + 1):
        acc = rho[k] * a[0]
        for m in range(1, k):
            acc = acc + rho[k - m] * a[m]
        a.append(-acc)
    total = None
    for i, (f, b) in enumerate(zip(values, basis)):
        inner = a[0] / powers[t][i]
        for m in range(1, t):
            inner = inner + a[m] / powers[t - m][i]
        if not known:
            inner = inner + a[t]
        total = inner * f * b if total is None else total + inner * f * b
    return total, a[t]


def ref_derivative(nodes, values, x, t, fx):
    """``derivative_uneven`` by :func:`ref_deriv`: the sum, plus ``a_t *
    fx`` when f(x) is given, times t!."""
    basis = ref_cardinal(nodes, x)
    total, last = ref_deriv(nodes, values, basis, x, t, fx is not None)
    if fx is not None:
        total = total + last * fx
    return total * math.factorial(t)


# an order t of 1..count-1 needs two nodes or more, as a suffix kernel does
@pytest.mark.parametrize("count", SUFFIX_COUNTS)
def test_derivative_floats_repr_identical(count, compiles):
    rng = random.Random(5303 + count)
    shapes = set()
    for _, nodes in float_families(count):
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        values[0] = -0.0
        zeros = [(-0.0, 0.0)[k % 2] for k in range(count)]
        for x in (x for x in float_points(nodes)[:4] if x not in nodes):
            basis = tuple(ref_cardinal(nodes, x))
            for vals, t, fx in itertools.product(
                    (values, zeros), range(1, count), (None, -0.0, 0.625)):
                known = fx is not None
                want = ref_deriv(nodes, vals, basis, x, t, known)
                samples = SampleSet(nodes, vals)
                got = derivative_uneven(samples, x, t, fx=fx)
                assert repr(got) == repr(ref_derivative(nodes, vals, x, t, fx))
                assert repr(samples._point) == repr(((float, x), basis))
                # a new point's kernel compiles once per order and form
                # that fits the budget, basis and derivative in one
                if point_deriv_fits(count, t):
                    shapes.add((t, known))
                names = [label.split()[2] for label in compiles]
                assert names.count("_point_deriv") == len(shapes)
                assert "_cardinal_loop" not in names
                got = deriv_trace(count, t, known)(nodes, vals, basis, x)
                assert repr(got) == repr(want)
                got = _deriv_loop(nodes, vals, basis, x, t=t, known=known)
                assert repr(got) == repr(want)


@pytest.mark.parametrize("count", SUFFIX_COUNTS)
def test_derivative_fractions_equal(count):
    nodes = fraction_nodes(count)
    values = [Fraction(v, 5) for v in range(-count, count, 2)]
    samples = SampleSet(nodes, values)
    for x in (Fraction(3, 11), Fraction(-41, 13)):
        basis = tuple(ref_cardinal(nodes, x))
        for t in range(1, count):
            for fx in (None, Fraction(7, 3)):
                got = deriv_trace(count, t, fx is not None)(nodes, values,
                                                            basis, x)
                assert got == ref_deriv(nodes, values, basis, x, t,
                                        fx is not None)
                got = derivative_uneven(samples, x, t, fx=fx)
                assert got == ref_derivative(nodes, values, x, t, fx)
                assert type(got) is Fraction


@pytest.mark.parametrize("count", [16, 17])
def test_first_and_repeat_call_agree_across_the_bound(count):
    # the first call runs the first-call kernel, every later call the
    # plan's bound kernel of the same suffix sum
    nodes = [math.cos(math.pi * k / (count - 1)) for k in range(count)]
    values = [math.exp(v) for v in nodes]
    for r in (0, 1):
        for x in (0.3, -0.77, 1.02, nodes[5]):
            samples = SampleSet(nodes, values)
            first = interpolate_general(samples, r, x)
            assert repr(interpolate_general(samples, r, x)) == repr(first)
            assert first == pytest.approx(math.exp(x), rel=1e-12)


def ref_ratio(nodes, column, x):
    """``SplitPlan.suffix``'s loop: ``sum_i c_i * (w_i / d_i) / sum_i (w_i
    / d_i)``, both sums from 0, ``w_i = 1 / den_i``, each ``den_i`` from
    its first factor (``Fraction(1, den_i)`` on int nodes, 1 on one node);
    where a ``d_i`` is zero, the coefficient."""
    d = [x - xj for xj in nodes]
    if 0 in d:
        return column[d.index(0)]
    num = den = 0
    for i, (xi, c, di) in enumerate(zip(nodes, column, d)):
        w = 1
        if len(nodes) > 1:
            prod = None
            for j, xj in enumerate(nodes):
                if j != i:
                    prod = xi - xj if prod is None else prod * (xi - xj)
            w = Fraction(1, prod) if type(prod) is int else 1 / prod
        num, den = num + c * (w / di), den + w / di
    return num / den


def ref_prefix(nodes, heads, x):
    """``SplitPlan.prefix``'s loop: the Newton prefix from ``heads[0]``,
    each product from its first factor, and the prefix product; 0 and 1
    with no heads."""
    if not heads:
        return 0, 1
    total, product = heads[0], 1
    for i in range(1, len(heads)):
        product = product * (x - nodes[i - 1])
        total = total + heads[i] * product
    return total, product * (x - nodes[len(heads) - 1])


def ref_forms(nodes, values, r, x):
    """``interpolate_general``, ``extended_dd_eval``,
    ``interpolate_barycentric`` and ``extended_dd_eval(barycentric=True)``
    at x by the copies of the loops: the Newton prefix plus the prefix
    product times each suffix sum (the first-kind one bare at r = 0)."""
    heads, column = ref_plan(nodes, values, r)
    suffix = nodes[r:]
    if len(suffix) == 1:
        first = column[0]
    elif type(suffix[0]) is int:  # the exact weights of int gaps
        first = ref_lagrange([Fraction(v) for v in suffix], column, x)[0]
    else:
        first = ref_lagrange(suffix, column, x)[0]
    ratio = ref_ratio(suffix, column, x)
    total, product = ref_prefix(nodes, heads, x)
    return (total + product * first if r else first, first,
            total + product * ratio, ratio)


def first_call_sets(count):
    """Float nodes, with a -0.0 column too, Fraction nodes (up to 17) and
    int nodes (exact weights, so no first-call kernel)."""
    rng = random.Random(6133 + count)
    floats = sorted(rng.uniform(-3.0, 3.0) for _ in range(count))
    yield floats, [math.sin(v) for v in floats]
    yield floats, [-0.0] * count
    if count <= 17:
        yield fraction_nodes(count), [Fraction(v, 5)
                                      for v in range(-count, count, 2)]
    yield list(range(count)), [Fraction(k * k - 3, 7) for k in range(count)]


def extended_ratio(samples, r, x):
    return extended_dd_eval(samples, r, x, barycentric=True)


@pytest.mark.parametrize("count", [*COUNTS, 33, 65, 129])
def test_first_call_equals_repeat_and_a_fresh_plan(count):
    # the first call at r (the first-call kernel, or the loop), the second
    # (the plan's bound kernel) and the third give the loops' value and
    # type, on both sides of the budget
    routes = (interpolate_general, extended_dd_eval,
              interpolate_barycentric, extended_ratio)
    for nodes, values in first_call_sets(count):
        points = [0.37, Fraction(3, 11), -0.0, nodes[0], nodes[-1]]
        if type(nodes[0]) is float:  # a Fraction that rounds onto a node
            points.append(Fraction(nodes[-1]) + Fraction(1, 10 ** 30))
        # r = 0, 0 < r < n and r = n; nodes[0] is a prefix node at r > 0
        for r in sorted({0, count // 2, count - 1}):
            for x in points:
                want = ref_forms(nodes, values, r, x)
                for route, value in zip(routes, want):
                    samples = SampleSet(nodes, values)
                    got = [route(samples, r, x) for _ in range(3)]
                    assert {repr(v) for v in got} == {repr(value)}, \
                        (route.__name__, r, x)
                    assert {type(v) for v in got} == {type(value)}
                weights = split_plan(samples, r).weights
                if type(nodes[0]) is int and r < count - 1:
                    assert {type(w) for w in weights} == {Fraction}


def test_first_call_with_an_empty_suffix():
    # new_forward at r = m = n = 4 on positions -4..4 is the split form at
    # index 9 over nine positions: a Newton prefix, and its product times 0
    values = [math.exp(0.1 * k) for k in range(-4, 5)]
    pos = [-p for p in zigzag_positions(4, 4)]
    vals = [values[p + 4] for p in pos]
    for s in (0.37, -0.0, 2.0, -3.5, 1e-300):
        prefix, product = _build_plan([float(p) for p in pos], vals,
                                      9).prefix(s)
        got = interpolate_central(values, 4, 4, s, "new_forward")
        assert repr(got) == repr(prefix + product * 0)


@pytest.mark.parametrize("count", [2, 9, 16, 17])
def test_derivative_first_and_repeat_call_read_one_point_slot(count,
                                                              monkeypatch):
    rng = random.Random(7717 + count)
    nodes = sorted(rng.uniform(-3.0, 3.0) for _ in range(count))
    values = [math.cos(v) for v in nodes]
    x = (nodes[0] + nodes[1]) / 2
    basis = tuple(ref_cardinal(nodes, x))
    for t in range(1, count):
        for fx in (None, 0.625):
            want = ref_derivative(nodes, values, x, t, fx)
            samples = SampleSet(nodes, values)
            first = derivative_uneven(samples, x, t, fx=fx)
            assert repr(samples._point) == repr(((float, x), basis))
            again = derivative_uneven(samples, x, t, fx=fx)
            assert repr(first) == repr(again) == repr(want), (t, fx)
    # after a derivative the other off-node routes find the basis in the
    # slot and form none
    want = (repr(rho_coeffs(SampleSet(nodes, values), x, count - 1)),
            repr(uneven_quad_plan(SampleSet(nodes, values), x, 0.1)))
    samples = SampleSet(nodes, values)
    derivative_uneven(samples, x, 1)
    monkeypatch.setattr(derivatives_module, "_cardinal", None)
    assert (repr(rho_coeffs(samples, x, count - 1)),
            repr(uneven_quad_plan(samples, x, 0.1))) == want


def test_no_kernel_above_the_bound(compiles):
    # on 33 and 40 nodes no first call's O(n^2) loop fits the budget: the
    # cardinal basis, the first split-form call, the derivative at a new
    # point and the tallied routes run their loops; only the repeat call's
    # O(n) loop and the plan columns of a short prefix compile
    for count in (33, 40):
        nodes = [math.cos(math.pi * k / (count - 1)) for k in range(count)]
        values = [math.exp(v) for v in nodes]
        _cardinal(nodes, 0.3)
        samples = SampleSet(nodes, values)
        interpolate_general(samples, 0, 0.3)
        interpolate_general(samples, 0, 0.3, tally=OpTally())
        derivative_uneven(samples, 0.3, 2)
        derivative_uneven(samples, 0.3, count - 1, fx=1.0)
        derivative_uneven(samples, 0.31, 2, tally=OpTally())
        quad_uneven(samples, 0.3, 0.01)
        interpolate_forward_even(values, 0, 0.5)
        assert compiles == []
        interpolate_general(samples, 0, 0.7)
        assert [label.split()[2] for label in compiles] == ["_suffix_sum"]
        compiles.clear()
        for r in range(count + 1):
            _build_plan(nodes, values, r)
        # the largest r whose columns fit: 15 of 33 nodes, 10 of 40
        assert len(compiles) == {33: 16, 40: 11}[count]
        compiles.clear()


def test_grid_routes_compile_no_kernel():
    """The grid routes, on the command line and in the library, in a fresh
    process: no loop is traced (``tables`` need not even load)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, json, sys\n"
        "import divdiff as dd\n"
        "import divdiff.samples as samples\n"
        "compile_kernel, labels = samples._compile_kernel, []\n"
        "samples._compile_kernel = lambda lines, label: (\n"
        "    labels.append(label) or compile_kernel(lines, label))\n"
        "from divdiff.cli import main\n"
        "for argv in (['stencil', '-m', '2', '-n', '2', '-t', '2'],\n"
        "             ['diff', '--grid', '0,0.1,2,2', '--func', 'exp',"
        " '-t', '2'],\n"
        "             ['quad', '--grid', '0,1,0,6', '--func', 'exp'],\n"
        "             ['quad', '--panels', '4', '--func', 'sin']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        main(argv)\n"
        "vals = [0.1 * k for k in range(9)]\n"
        "dd.forward_derivative(vals, 0.1, 2)\n"
        "dd.twosided_derivative(vals, 0.1, 2, 4)\n"
        "dd.central_derivative(vals, 0.1, 2)\n"
        "dd.stencil_weights(3, 5, 2).apply(vals, 0.1)\n"
        "dd.even_quad_weights(8).apply(vals, 0.1)\n"
        "dd.central_quad_weights(4).apply(vals, 0.1)\n"
        "dd.quad_composite(vals, 0.0, 1.0, 4)\n"
        "print(json.dumps(labels))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    # derivatives may bind the counting helper first: _sum_kernel's kernels
    # are not traces
    assert [label for label in json.loads(out)
            if label.startswith("trace of ")] == []


# ---------------------------------------------------------------------------
# the tracer


def branch_on_truth(values):
    return [v for v in values if v]


def branch_on_equality(values):
    return values[0] if values[0] == 0 else values[1]


def branch_on_membership(values):
    return values[0] if 0 in values else values[1]


def branch_on_order(values):
    return values[0] if values[0] < 0 else values[1]


def branch_on_hash(values):
    return {values[0]: 1}


@pytest.mark.parametrize("loop", [branch_on_truth, branch_on_equality,
                                  branch_on_membership, branch_on_order,
                                  branch_on_hash])
def test_a_loop_that_tests_its_data_is_refused(loop):
    # Python's default == is identity: without the refusal, ``0 in values``
    # would read False on every placeholder and trace one branch for all
    with pytest.raises(TypeError, match="tested a value of its data"):
        _trace(loop, 2)


def mixed_ops(values, x):
    """Reflected int constants, unary minus, a dead value, and a value
    used twice."""
    a, b = values
    a * b  # dead, but the kernel must run it too
    twice = a - x
    return (1 / twice + 2 * b - (3 - twice) / -a, [-b, 1 + a], 7)


def counted_ops(values, x):
    """Reflected int constants on ``+`` and ``*`` only, a dead value, and
    a value used twice in one product."""
    a, b = values
    a * b
    twice = a - x
    return twice * twice, -(2 + b), 3 * a


def test_trace_repeats_every_operation():
    kernel = _trace(mixed_ops, 2, None)
    for values, x in (([0.3, -0.0], 1.25), ([Fraction(1, 3), 2], Fraction(5))):
        assert repr(kernel(values, x)) == repr(mixed_ops(values, x))
    # counted by hand: unary minus is free, a dead value and a reflected
    # int operand count
    assert _op_counts(mixed_ops, 2, None) == (2, 3, 2, 2)
    assert _op_counts(counted_ops, 2, None) == (1, 1, 3, 0)
    for loop in (mixed_ops, counted_ops):
        assert _op_counts(_trace(loop, 2, None), 2, None) == \
            _op_counts(loop, 2, None)


def shared_ops(values, x):
    """One difference formed four times and another twice, products by 1
    of computed values on either side and of a placeholder, and a dead
    division."""
    a, b = values
    a / b
    d = (a - x) * (a - x)
    return d * 1, 1 * (b - x), a * 1, (a - x) + (b - x) - (a - x)


def test_trace_forms_each_distinct_operation_once():
    kernel = _trace(shared_ops, 2, None)
    for values, x in (([-0.0, 0.3], 1.25), ([Fraction(1, 3), 2], 5),
                      ([True, -2], Fraction(1, 7))):
        got, want = kernel(values, x), shared_ops(values, x)
        assert repr(got) == repr(want)
        assert [type(v) for v in got] == [type(v) for v in want]
    # a placeholder times 1 is kept (True * 1 is the int 1); the dead
    # division stays, so the kernel raises where the loop does
    assert _op_counts(shared_ops, 2, None) == (1, 7, 4, 1)
    assert _op_counts(kernel, 2, None) == (1, 3, 2, 1)
    with pytest.raises(ZeroDivisionError):
        kernel([0.3, 0.0], 1.25)


def test_a_wrapped_loop_traces_as_the_loop():
    # a wrapper such as a profiler's span reads *args, **kwargs: the
    # shape and the keyword-only values are the wrapped loop's
    @functools.wraps(_plan_loop)
    def spanned(*args, **kwargs):
        return _plan_loop(*args, **kwargs)
    for count, r in ((3, 2), (40, 20)):  # a kernel, and the loop itself
        nodes = [0.5 * k * k for k in range(count)]
        values = [math.cos(v) for v in nodes]
        got = _trace(spanned, count, count, r)(nodes, values)
        assert repr(got) == repr(_plan_loop(nodes, values, r=r))
        assert _op_counts(spanned, count, count, r) == \
            _op_counts(_plan_loop, count, count, r)


def test_trace_refuses_a_constant_it_cannot_write():
    with pytest.raises(TypeError):
        _trace(lambda v: v[0] * 0.5, 1)
    with pytest.raises(TypeError, match="returned None"):
        _trace(lambda v: (v[0], None), 1)


# shapes on both sides of the budget, with the length of their shared
# tape, placeholders included: window-stream's 9-node first calls, the
# repeat forms of scatter-reuse's sets, the largest cardinal basis that
# fits, and past the budget every first call on 33 nodes and the high
# orders of a derivative on 16
PINNED_TAPES = [
    (_point_loop, (9, 9, None, 0), 207),
    (_point_deriv, (9, 9, None, 2, False), 332),
    (_split_loop, (33, 16, 17, 17, None, False), 231),
    (_split_loop, (33, 0, 33, 33, None, True), 267),
    (_split_loop, (129, 64, 65, 65, None, False), 903),
    (_split_loop, (129, 0, 129, 129, None, True), 1035),
    (_suffix_sum, (129, 129, 129, None, False), 1032),
    (_cardinal_loop, (21, None), 1111),
    (_point_deriv, (16, 16, None, 5, False), 1129),
    (_plan_loop, (33, 33, 15), 1191),
    (_plan_loop, (33, 33, 16), 1242),
    (_point_deriv, (16, 16, None, 6, False), 1219),
    (_point_deriv, (16, 16, None, 15, False), 2119),
    (_cardinal_loop, (22, None), 1219),
    (_point_loop, (33, 33, None, 32), 1777),
    (_point_loop, (33, 33, None, 0), 2343),
]


@pytest.mark.parametrize("loop,key,entries", PINNED_TAPES,
                         ids=[f"{loop.__name__}-{key}" for loop, key, _ in
                              PINNED_TAPES])
def test_the_budget_decides_which_shapes_compile(loop, key, entries,
                                                 monkeypatch):
    kernel = _trace(loop, *key)
    if entries <= _TAPE_BUDGET:
        assert kernel.__name__ == "kernel"
    else:
        assert kernel.func is loop
    monkeypatch.setattr(samples_module, "_TAPE_BUDGET", math.inf)
    assert len(_record(loop, key, share=True)[1]) == entries


def test_a_loop_over_the_budget_stops_recording_and_runs_as_itself():
    # recording stops at the first entry past the budget, the shape runs
    # the loop with its keyword-only values fixed, and a tally still
    # records the loop in full
    key = (33, 33, None, 16)
    with pytest.raises(_OverBudget) as over:
        _record(_point_loop, key, share=True)
    assert len(over.value.args[0]) == _TAPE_BUDGET + 1
    kernel = _trace(_point_loop, *key)
    assert kernel.func is _point_loop and kernel.keywords == {"r": 16}
    nodes = [math.cos(math.pi * k / 32) for k in range(33)]
    values = [math.exp(v) for v in nodes]
    assert repr(kernel(nodes, values, 0.3)) == \
        repr(_point_loop(nodes, values, 0.3, r=16))
    assert sum(_op_counts(_point_loop, *key)) > _TAPE_BUDGET
    # placeholders alone past the budget: 2401 on an 800-node suffix sum
    with pytest.raises(_OverBudget) as over:
        _record(_suffix_sum, (800, 800, 800, None, False), share=True)
    assert len(over.value.args[0]) == _TAPE_BUDGET + 1


def test_a_trace_leaves_no_placeholder_alive():
    # each placeholder refers to its tape: the tracer empties the tape of a
    # kernel before it compiles and of a recording cut at the budget, so
    # the placeholders go with their last reference, not at a collection
    gc.collect()
    gc.disable()
    try:
        _trace.cache_clear()
        _trace(_split_loop, 33, 16, 17, 17, None, True)
        _trace(_point_loop, 33, 33, None, 16)
        assert not [v for v in gc.get_objects()
                    if type(v) is samples_module._Traced]
    finally:
        gc.enable()


def kernel_counts(loop, *key):
    """The operations of ``loop``'s kernel at ``key``, recorded through it."""
    return _op_counts(_trace(loop, *key),
                      *key[:loop.__code__.co_argcount])


@pytest.mark.parametrize("count", range(2, 17))
def test_traced_kernels_charge_their_loops_tallies(count):
    # a kernel does at most its loop's operations, and exactly as many
    # where the loop forms nothing twice and multiplies nothing by 1; a
    # tallied call records the loop at every size, never the kernel.  The
    # split form's prefix product starts at 1 * (x - x_0), and at r = 0
    # it is 0 + 1 * the suffix sum
    equal = [(_plan_loop, (count, count, r)) for r in range(count + 1)]
    equal += [(_suffix_sum, (count,) * 3 + (None, ratio))
              for ratio in (False, True)]
    fewer = [(_point_loop, (count, count, None, count // 2)),
             (_point_deriv, (count, count, None, min(count - 1, 5), False))]
    fewer += [(_split_loop, (count, r, count - r, count - r, None, ratio))
              for r in (0, count // 2, count - 1) for ratio in (False, True)]
    # on two nodes each x - x_j is formed once
    (fewer if count > 2 else equal).append((_cardinal_loop, (count, None)))
    for loop, key in equal:
        assert kernel_counts(loop, *key) == _op_counts(loop, *key)
    for loop, key in fewer:
        got, want = kernel_counts(loop, *key), _op_counts(loop, *key)
        assert all(g <= w for g, w in zip(got, want)) and got != want


@pytest.mark.parametrize("t", [1, 2, 5])
def test_derivative_kernel_multiplies_nothing_by_one(t, monkeypatch):
    # _convolved_coeffs starts each a_k at rho_k * a_0 with a_0 = 1: the
    # loop, which a tally counts, forms those t products; the kernel none
    _trace.cache_clear()
    source = []
    compile_kernel = samples_module._compile_kernel
    monkeypatch.setattr(samples_module, "_compile_kernel", lambda lines, label:
                        source.extend(lines) or compile_kernel(lines, label))
    got = _op_counts(deriv_trace(6, t, False), 6, 6, 6, None)
    assert source and not any("* 1)" in line or "(1 *" in line
                              for line in source)
    want = _op_counts(_deriv_loop, 6, 6, 6, None, t, False)
    assert got == (want[0], want[1], want[2] - t, want[3])


def test_recording_at_129_nodes_compiles_nothing(compiles):
    _op_counts.cache_clear()
    nodes = [math.cos(math.pi * k / 128) for k in range(129)]
    samples = SampleSet(nodes, [math.exp(v) for v in nodes])
    tally = OpTally()
    interpolate_general(samples, 64, 0.3, tally=tally)
    assert tally.snapshot() == count_ops(128, 64)
    tally = OpTally()
    derivative_uneven(samples, 0.3, 2, tally=tally)
    assert tally.snapshot() == diff_op_counts(128, 2)
    _record(_cardinal_loop, (129, None))
    assert compiles == []


# ---------------------------------------------------------------------------
# the op counts of the tallied routes, on both sides of the bound


@pytest.mark.parametrize("n", range(1, 18))
def test_op_counts_across_the_kernel_bound(n):
    rng = random.Random(2617 + n)
    nodes = sorted(rng.uniform(-3.0, 3.0) for _ in range(n + 1))
    samples = SampleSet(nodes, [math.sin(v) for v in nodes])
    x = (nodes[0] + nodes[1]) / 2
    for r in range(n + 1):
        tally = OpTally()
        interpolate_general(samples, r, x, tally=tally)
        want = count_ops(n, r)
        if r == n:  # count_ops' note: one multiplication more, one division fewer
            want = OpCounts(want.additions, want.subtractions,
                            want.multiplications + 1, want.divisions - 1)
        assert tally.snapshot() == want, r
    for t in range(1, n + 1):
        want = diff_op_counts(n, t)
        tally = OpTally()
        derivative_uneven(samples, x, t, tally=tally)
        assert tally.snapshot() == want, t
        # the known form drops the + a_t of each of the n + 1 nodes and adds
        # one + a_t * f(x)
        tally = OpTally()
        derivative_uneven(samples, x, t, fx=0.5, tally=tally)
        assert tally.snapshot() == OpCounts(
            want.additions - n, want.subtractions, want.multiplications + 1,
            want.divisions), t


def test_a_raising_tallied_call_charges_nothing():
    # the basis denominators underflow to 0.0, so both values raise
    samples = SampleSet([0, 1e-170, 2e-170], [1.0, 2.0, 3.0])
    for call in (lambda t: interpolate_general(samples, 0, 0.5e-170, tally=t),
                 lambda t: derivative_uneven(samples, 0.5e-170, 1, tally=t)):
        tally = OpTally()
        with pytest.raises(ZeroDivisionError):
            call(tally)
        assert tally.snapshot() == OpCounts()


# ---------------------------------------------------------------------------
# the weighted-sum kernel of every exact rule, and the composite's column
# sums


class FloatSub(float):
    pass


def ref_apply(rule, vals):
    """``rule.apply(vals, 1)`` as a type-set dispatch: the float image on
    all-float data, else the loop over the exact weights (on int and
    Fraction data the equal Fraction of the integer dot product).  A step
    of 1 leaves every sum as it is: a float divided or multiplied by the
    int 1 is exact, and -0.0 stays -0.0."""
    weights = rule.float_image if set(map(type, vals)) == {float} \
        else rule._exact
    total = 0
    for w, v in zip(weights, vals):
        total = total + w * v
    return total


# widths 5, 3, 5, 33 and 65: one statement, two, and three
RULES = {"stencil-2-2-2": lambda: stencil_weights(2, 2, 2),
         "even-2": lambda: even_quad_weights(2),
         "central-2": lambda: central_quad_weights(2),
         "stencil-16-16-3": lambda: stencil_weights(16, 16, 3),
         "even-64": lambda: even_quad_weights(64)}
INTRUDERS = {"int": 3, "fraction": Fraction(1, 3), "bool": True,
             "float-subclass": FloatSub(0.25)}


def _floats(rng, count):
    return [rng.uniform(-2.0, 2.0) for _ in range(count)]


@pytest.mark.parametrize("rule", RULES)
def test_sum_kernel_one_rule_floats_repr_identical(rule):
    rule = RULES[rule]()
    width = len(rule._exact)
    rng = random.Random(width)
    for vals in (_floats(rng, width), [-0.0] * width, [0.0] * width,
                 [math.inf] + _floats(rng, width - 1),
                 _floats(rng, width - 1) + [math.nan]):
        want = ref_apply(rule, vals)
        assert repr(_sum_kernel(width)(rule.float_image, vals)) == repr(want)
        assert repr(rule.apply(vals, 1)) == repr(want)
        assert repr(rule.apply(tuple(vals), 1)) == repr(want)
    assert repr(rule.apply([-0.0] * width, 1)) == "0.0"


@pytest.mark.parametrize("intruder", INTRUDERS)
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("rule", RULES)
def test_sum_kernel_one_rule_gives_way_to_the_typed_path(rule, where,
                                                         intruder):
    rule = RULES[rule]()
    width = len(rule._exact)
    vals = _floats(random.Random(width), width)
    vals[{"first": 0, "middle": width // 2, "last": -1}[where]] = \
        INTRUDERS[intruder]
    assert _sum_kernel(width)(rule.float_image, vals) is None
    want = ref_apply(rule, vals)
    got = rule.apply(vals, 1)
    assert type(got) is type(want) is float
    assert repr(got) == repr(want)
    h = 0.125
    if hasattr(rule, "order"):
        assert repr(rule.apply(vals, h)) == repr(want / h ** rule.order)
    else:
        assert repr(rule.apply(vals, h)) == repr(want * h)


@pytest.mark.parametrize("where,intruder", [
    ("nowhere", None), *((where, intruder) for where in
                         ("first", "middle", "last") for intruder in INTRUDERS)])
@pytest.mark.parametrize("n", [2, 32, 64])
@pytest.mark.parametrize("form", ["list", "sampler"])
def test_sum_kernel_composite_forms(form, n, where, intruder):
    # the weighted sum over panels, by rule column.  List input: panels
    # share endpoints (stride n); a sampler gives each panel its own n + 1
    # values (stride n + 1), called panels * (n + 1) times in panel order.
    # Float data, and float data with an intruder, give a float within the
    # rounding bound of the exact composite
    rule, panels = even_quad_weights(n), 5
    stride = n if form == "list" else n + 1
    flat = _floats(random.Random(n), panels * stride + (form == "list"))
    if intruder is not None:
        flat[{"first": 0, "middle": len(flat) // 2,
              "last": -1}[where]] = INTRUDERS[intruder]
    width = 0.5 / panels
    h = width / n
    if form == "list":
        got = quad_composite(flat, 0.0, 0.5, panels, n)
    else:
        values, calls = iter(flat), []
        got = quad_composite(lambda x: calls.append(x) or next(values),
                             0.0, 0.5, panels, n)
        assert calls == [0.0 + i * width + j * h
                         for i in range(panels) for j in range(n + 1)]
    check_composite(got, rule.node_weights,
                    [flat[i:i + n + 1] for i in range(0, panels * stride,
                                                      stride)], h)


@pytest.mark.parametrize("n", [1, 2, 32, 64])
@pytest.mark.parametrize("form", ["list", "sampler"])
def test_sum_kernel_composite_of_negative_zeros(form, n):
    # the weights of n = 32 and 64 have both signs, so the column products
    # are zeros of both signs
    panels = 7
    f = [-0.0] * (panels * n + 1) if form == "list" else (lambda x: -0.0)
    got = quad_composite(f, 0.0, 0.25 * panels * n, panels, n)
    assert repr(got) == "0.0"


def test_sum_kernel_exact_data_pay_no_kernel_call():
    # Fraction and int data skip the kernel on their first value's type
    _sum_kernel.cache_clear()
    rule = stencil_weights(3, 3, 2)
    got = rule.apply([Fraction(k, 3) for k in range(7)], 1)
    assert type(got) is Fraction
    assert got == ref_apply(rule, [Fraction(k, 3) for k in range(7)])
    assert type(rule.apply(list(range(7)), 1)) is Fraction
    info = _sum_kernel.cache_info()
    assert info.hits == info.misses == 0
