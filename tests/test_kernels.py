"""The generated straight-line kernels of ``samples._cardinal`` and
``tables._build_plan`` against the loops they replace.

Each test carries its own copy of the loop, so a kernel that drifts from
it fails here: floats must be ``repr``-identical (signed zeros included),
Fractions equal, and ``OpTally`` counts on ``Counted`` values the same.
Node counts run from 1 to one past ``_KERNEL_NODES``, so both the kernels
and the loops above the bound are covered.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from divdiff import (SampleSet, derivative_uneven, interpolate_forward_even,
                     interpolate_general, quad_uneven)
from divdiff.counting import Counted, OpTally
from divdiff.samples import _KERNEL_NODES, _cardinal, _cardinal_kernel
from divdiff.tables import _build_plan, _plan_kernel

COUNTS = range(1, _KERNEL_NODES + 2)


def ref_cardinal(nodes, x):
    """``_cardinal``'s loop: each product factor by factor from its first
    factor, every difference taken anew."""
    if len(nodes) == 1:
        return [1], [1]
    basis, dens = [], []
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
        dens.append(den)
    return basis, dens


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


def counted(values, tally):
    return [Counted(v, tally) for v in values]


def plain(values):
    """The values behind ``Counted`` entries (one node gives plain 1s)."""
    return [getattr(v, "value", v) for v in values]


def kernel_calls(kernel):
    info = kernel.cache_info()
    return info.hits + info.misses


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_floats_repr_identical(count):
    for _, nodes in float_families(count):
        for x in float_points(nodes):
            calls = kernel_calls(_cardinal_kernel)
            got = _cardinal(nodes, x)
            assert repr(got) == repr(ref_cardinal(nodes, x))
            # the kernel runs exactly on 2.._KERNEL_NODES nodes
            ran = kernel_calls(_cardinal_kernel) - calls
            assert ran == (2 <= count <= _KERNEL_NODES)


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_fractions_equal(count):
    nodes = fraction_nodes(count)
    for x in (Fraction(3, 11), nodes[0], nodes[-1], 2):
        basis, dens = _cardinal(nodes, x)
        assert (basis, dens) == ref_cardinal(nodes, x)
        if count > 1:
            assert {type(v) for v in basis + dens} == {Fraction}


@pytest.mark.parametrize("count", COUNTS)
def test_cardinal_tallies_equal(count):
    _, nodes = next(float_families(count))
    for x in (0.37, nodes[-1]):
        got_tally, want_tally = OpTally(), OpTally()
        got = _cardinal(counted(nodes, got_tally), Counted(x, got_tally))
        want = ref_cardinal(counted(nodes, want_tally), Counted(x, want_tally))
        assert got_tally.snapshot() == want_tally.snapshot()
        assert repr([plain(part) for part in got]) == \
            repr([plain(part) for part in want])


@pytest.mark.parametrize("count", COUNTS)
def test_plan_floats_repr_identical(count):
    rng = random.Random(77 + count)
    for _, nodes in float_families(count):
        values = [rng.uniform(-2.0, 2.0) for _ in nodes]
        values[0] = -0.0  # a signed zero in every column head's difference
        for r in range(count + 1):
            calls = kernel_calls(_plan_kernel)
            plan = _build_plan(nodes, values, r)
            assert repr((plan.heads, plan.column)) == \
                repr(ref_plan(nodes, values, r))
            assert plan.nodes == tuple(nodes) and plan.r == r
            ran = kernel_calls(_plan_kernel) - calls
            assert ran == (count <= _KERNEL_NODES)


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


@pytest.mark.parametrize("count", COUNTS)
def test_plan_tallies_equal(count):
    _, nodes = next(float_families(count))
    values = [math.sin(v) for v in nodes]
    for r in range(count + 1):
        got_tally, want_tally = OpTally(), OpTally()
        plan = _build_plan(counted(nodes, got_tally),
                           counted(values, got_tally), r)
        want = ref_plan(counted(nodes, want_tally),
                        counted(values, want_tally), r)
        assert got_tally.snapshot() == want_tally.snapshot()
        assert repr(plain(plan.heads + plan.column)) == \
            repr(plain(want[0] + want[1]))


def test_no_kernel_above_the_bound():
    _cardinal_kernel.cache_clear()
    _plan_kernel.cache_clear()
    for count in (_KERNEL_NODES + 1, 2 * _KERNEL_NODES + 1, 40):
        nodes = [math.cos(math.pi * k / (count - 1)) for k in range(count)]
        values = [math.exp(v) for v in nodes]
        _cardinal(nodes, 0.3)
        for r in range(count + 1):
            _build_plan(nodes, values, r)
        # every public route whose sets and suffixes all exceed the bound
        samples = SampleSet(nodes, values)
        interpolate_general(samples, 0, 0.3)
        interpolate_general(samples, 0, 0.3, tally=OpTally())
        derivative_uneven(samples, 0.3, 2)
        derivative_uneven(samples, 0.31, 2, tally=OpTally())
        quad_uneven(samples, 0.3, 0.01)
        interpolate_forward_even(values, 0, 0.5)
    for kernel in (_cardinal_kernel, _plan_kernel):
        info = kernel.cache_info()
        assert info.hits == info.misses == info.currsize == 0


def test_grid_routes_compile_no_kernel():
    """The grid routes, on the command line and in the library, in a fresh
    process: neither kernel is compiled (``tables`` need not even load)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, json, sys\n"
        "import divdiff as dd\n"
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
        "dd.quad_even(vals, 0.1)\n"
        "dd.quad_central(vals, 0.1)\n"
        "dd.quad_composite(vals, 0.0, 1.0, 4)\n"
        "from divdiff.samples import _cardinal_kernel\n"
        "misses = {'cardinal': _cardinal_kernel.cache_info().misses}\n"
        "if 'divdiff.tables' in sys.modules:\n"
        "    from divdiff.tables import _plan_kernel\n"
        "    misses['plan'] = _plan_kernel.cache_info().misses\n"
        "print(json.dumps(misses))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert all(v == 0 for v in json.loads(out).values())
