"""Split-form polynomial interpolation.

One family of evaluators, parameterized by a split index ``r``: the first
``r`` nodes contribute classical Newton terms, the remaining ``n - r + 1``
nodes enter through a Lagrange-style sum of prefix-extended divided
differences.  ``r = n`` is Newton's form, ``r = 0`` is Lagrange's; every
``r`` evaluates the same interpolating polynomial.

Evenly spaced specializations are the same split form over integer
positions, in the dimensionless position variable ``s``, so results are
independent of the grid spacing; every form's Lagrange part is the one
O(n) first-kind suffix sum of the split plan.  The tail of the split form
can also be replaced by a fitted low-degree polynomial (:func:`fit_tail` /
:func:`interpolate_with_tail`), which keeps a short Newton prefix while
modelling everything beyond it.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul

from .counting import OpCounts
from .samples import (SampleSet, _as_order, _cardinal_loop, _charge,
                      _check_finite, _Record)
from .tables import (_build_plan, _field, _first_point, _jsonable, _numbers,
                     _plan_loop, build_integer_table, split_plan,
                     zigzag_positions)

CENTRAL_VARIANTS = ("new_forward", "new_backward", "stirling", "bessel",
                    "everett", "steffensen")


# ---------------------------------------------------------------------------
# the general split form

def interpolate_general(samples: SampleSet, r: int, x, tally=None):
    """Interpolating-polynomial value with an r-term Newton prefix.

    Newton prefix terms, then the suffix sum
    ``sum_i f[x_0..x_{r-1}, x_i] prod_{j!=i} (x - x_j) / (x_i - x_j)`` over
    the suffix nodes.  Without a tally the plan is :func:`split_plan`'s,
    cached on the sample set, and the value is
    :meth:`~divdiff.tables.SplitPlan.general`'s, whose suffix sum is the
    first-kind form: O(n) float operations on every call, first and
    repeat.  A first call at r builds the plan, its weights and the value
    in one kernel (:func:`~divdiff.tables._first_point`) and caches the
    plan; a repeat call is one call of the plan's bound kernel.  With a
    tally the value is :func:`_reference_general`'s and the tally is
    charged that loop's operations on data at this shape, the costing
    convention of :func:`count_ops`.  Both give one polynomial, rounded
    apart.
    """
    if tally is None:
        if type(r) is not int:  # a float r must not find an int's plan
            r = _as_order(r, "r", 0, samples.n)
        plan = samples._plans.get(r)
        if plan is None:
            # r before x, as the tally checks them
            _as_order(r, "r", 0, samples.n)
            first = _first_point(samples.nodes, samples.values, r, x)
            if first is not None:
                samples._plans[r], prefix, tail, value = first
                _check_finite(x, "x")
                return prefix + tail if r else value
            plan = split_plan(samples, r)
        _check_finite(x, "x")
        return plan.general(x)
    r = _as_order(r, "r", 0, samples.n)
    _check_finite(x, "x")
    value = _reference_general(samples.nodes, samples.values, x, r=r)
    count = len(samples.nodes)
    _charge(tally, _reference_general, count, count, None, r)
    return value


def _reference_general(nodes, values, x, *, r):
    """The tallied :func:`interpolate_general`: the heads and column of
    :func:`~divdiff.tables._plan_loop`, the suffix sum of ``column[i] *
    L_i(x)`` over the O(n^2) basis of
    :func:`~divdiff.samples._cardinal_loop` (``column[0]`` bare on one
    node), and each prefix product rebuilt from its first factor: loops,
    not their kernels, so its recorded tape counts them."""
    heads, column = _plan_loop(nodes, values, r=r)
    tail = column[0]
    if r < len(nodes) - 1:
        tail = reduce(add, map(mul, column, _cardinal_loop(nodes[r:], x)))
    if not r:
        return tail

    def product(k):  # prod_{j<k} (x - x_j), from its first factor
        return reduce(mul, [x - xj for xj in nodes[1:k]], x - nodes[0])
    prefix = heads[0]
    for i in range(1, r):
        prefix = prefix + heads[i] * product(i)
    return prefix + product(r) * tail


def interpolate_barycentric(samples: SampleSet, r: int, x):
    """Same polynomial as :func:`interpolate_general`, suffix sum in
    barycentric ratio form.

    At a suffix node the ratio degenerates; the nodal limit (prefix plus
    prefix product times the stored divided difference) is returned, which
    reproduces the sample value.  The prefix heads, the order-r column and
    the suffix weights come from :func:`split_plan`, built once per
    (sample set, r) and cached on the sample set, so every point after the
    first costs O(n), from the second on in one call of the plan's bound
    kernel (:meth:`~divdiff.tables.SplitPlan.__call__`).
    """
    _check_finite(x, "x")
    return split_plan(samples, r)(x)


# ---------------------------------------------------------------------------
# evenly spaced forms (position variable s; node i at position i)

def _falling(s, k):
    p = 1
    for j in range(k):
        p = p * (s - j)
    return p


def _even_split(pos, vals, k, s):
    """The split form at index k over integer positions ``pos``: the Newton
    prefix over ``pos[:k]`` at s, and the prefix product times the
    first-kind :meth:`~divdiff.tables.SplitPlan.lagrange` over ``pos[k:]``
    (0 when k is the node count).  Every evenly spaced form calls it.  At a
    float s the positions are floats, the same gaps with no ``Fraction``
    weights, and one kernel forms it all (:func:`_first_point`); otherwise
    exact weights keep ``Fraction`` data exact."""
    _check_finite(s, "s")
    if isinstance(s, float):
        pos = list(map(float, pos))
        first = _first_point(pos, vals, k, s)
        if first is not None:
            return first[1:3]
    plan = _build_plan(pos, vals, k)
    prefix, product = plan.prefix(s)
    return prefix, product * plan.lagrange(s)


def interpolate_forward_even(values, r: int, s):
    """Value at position ``s`` from samples at positions 0..n: the split
    form over them, whose prefix heads are the forward differences over i!."""
    vals = list(values)
    r = _as_order(r, "r", 0, len(vals) - 1)
    prefix, tail = _even_split(range(len(vals)), vals, r, s)
    return prefix + tail


def interpolate_backward_even(values, r: int, s):
    """Value at position ``s`` from ``values[k]`` at position ``-k``: the
    split form over 0, -1, ..., -n, whose prefix heads are the backward
    differences over i!."""
    vals = list(values)
    r = _as_order(r, "r", 0, len(vals) - 1)
    prefix, tail = _even_split(range(0, -len(vals), -1), vals, r, s)
    return prefix + tail


def interpolate_central(values, m: int, r: int, s, variant: str = "new_forward"):
    """Two-sided even-grid interpolation at position ``s``.

    ``values`` run over positions -m..n (``values[k]`` at ``k - m``); all
    variants evaluate the same interpolating polynomial.  ``new_backward``
    and ``new_forward`` (Gauss's formulas) are the split form at index 2r+1
    over the zigzag positions 0, -1, 1, ... and their mirror 0, 1, -1, ....
    The classical variants arrange the prefix -r..r in the differences of
    :func:`build_integer_table` and add the zigzag form's tail.  The bessel
    variant carries the odd-order balancing term with the same
    factorial-power factor as its final even term, which is exactly what
    folds its half-step average back onto the symmetric node set.
    """
    m, r = _as_order(m, "m", 0), _as_order(r, "r", 0)
    if variant not in CENTRAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    vals = list(values)
    n = len(vals) - 1 - m
    if n < 0:
        raise ValueError("m exceeds the sample count")
    need_right = r + 1 if variant == "bessel" else r
    if r > m or need_right > n:
        raise ValueError("insufficient two-sided range for requested r")
    if variant == "new_forward":
        pos = [-p for p in zigzag_positions(n, m)]
    else:
        pos = zigzag_positions(m, n)
    prefix, tail = _even_split(pos, [vals[p + m] for p in pos], 2 * r + 1, s)
    if variant.startswith("new_"):
        return prefix + tail
    fact = math.factorial
    cols = build_integer_table(vals, m + n).columns

    def d(base, order):  # forward difference anchored at position base
        return cols[order][base + m]

    if variant == "stirling":
        acc = vals[m]
        for j in range(1, r + 1):
            mean_odd = (d(-(j - 1), 2 * j - 1) + d(-j, 2 * j - 1)) / 2
            acc = acc + mean_odd * _falling(s + j - 1, 2 * j - 1) / fact(2 * j - 1)
            acc = acc + d(-j, 2 * j) * s * _falling(s + j - 1, 2 * j - 1) / fact(2 * j)
    elif variant == "bessel":
        half = Fraction(1, 2) if isinstance(s, (Fraction, int)) else 0.5
        acc = (vals[m] + vals[m + 1]) / 2
        for j in range(1, r + 1):
            if j == 1:
                acc = acc + (s - half) * d(0, 1)
            else:
                acc = acc + (s - half) * _falling(s + j - 2, 2 * j - 2) \
                    * d(-(j - 1), 2 * j - 1) / fact(2 * j - 1)
            mean_even = (d(-j, 2 * j) + d(-(j - 1), 2 * j)) / 2
            acc = acc + mean_even * _falling(s + j - 1, 2 * j) / fact(2 * j)
        acc = acc - _falling(s + r - 1, 2 * r) * d(-r, 2 * r + 1) / (2 * fact(2 * r))
    elif variant == "everett":
        t = 1 - s
        acc = 0
        for j in range(r):
            acc = acc + d(-j, 2 * j) * _falling(t + j, 2 * j + 1) / fact(2 * j + 1)
            acc = acc + d(-j + 1, 2 * j) * _falling(s + j, 2 * j + 1) / fact(2 * j + 1)
        acc = acc + d(-r, 2 * r) * _falling(s + r - 1, 2 * r) / fact(2 * r)
    else:  # steffensen
        acc = vals[m]
        for j in range(1, r + 1):
            acc = acc + d(-(j - 1), 2 * j - 1) * _falling(s + j, 2 * j) / fact(2 * j)
            acc = acc - d(-j, 2 * j - 1) * _falling(s + j - 1, 2 * j) / fact(2 * j)
    return acc + tail


# ---------------------------------------------------------------------------
# fitted-tail replacement

class TailModel(_Record):
    """Low-degree stand-in for the order-r divided-difference function:
    ``coefficients`` in ascending degree; ``residual`` is a Fraction for
    an exact fit."""

    __slots__ = _fields = ("coefficients", "fit_order", "basis", "residual")

    def __init__(self, coefficients, fit_order, basis="x", residual=0.0):
        self._init(coefficients, fit_order, basis, residual)

    def __call__(self, u):
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * u + c
        return acc

    def to_json_dict(self):
        return {"r": self.fit_order, "basis": self.basis,
                "coeffs": _jsonable(self.coefficients)}

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)


def _lstsq_poly(us, vs, degree):
    """Ascending coefficients of the least-squares polynomial, exactly.

    Solves the normal equations ``sum_j u_j^(i+k) c_k = sum_j u_j^i v_j``
    over ``Fraction``; the Gram matrix of distinct nodes is positive
    definite, so Gauss-Jordan elimination without row exchanges never meets
    a zero pivot.
    """
    us = [Fraction(u) for u in us]
    vs = [Fraction(v) for v in vs]
    m = degree + 1
    sums = [sum(u ** k for u in us) for k in range(2 * m - 1)]
    rows = [sums[i:i + m] + [sum(u ** i * v for u, v in zip(us, vs))]
            for i in range(m)]
    for i in range(m):
        for j in range(m):
            if j != i:
                f = rows[j][i] / rows[i][i]
                rows[j] = [a - f * b for a, b in zip(rows[j], rows[i])]
    return [row[m] / row[i] for i, row in enumerate(rows)]


def fit_tail(samples: SampleSet, r: int, model_degree: int,
             basis: str = "x") -> TailModel:
    """Least-squares polynomial fit to the order-r fixed-prefix column.

    The regressor for column entry j is the trailing argument ``x_{r+j}``
    itself (pass position-coordinate samples to fit in the position
    variable; record that choice via ``basis``).  Ordinary unweighted
    least squares over all available entries, solved through the exact
    normal equations in ``Fraction`` arithmetic, so the conditioning of the
    power basis never enters.  The number type follows the input: an
    all-``Fraction`` column gives exact ``Fraction`` coefficients and
    residual; otherwise each coefficient is rounded to float once and the
    residual is that of the rounded model.  A column entry that is inf or
    nan raises ``OverflowError`` / ``ValueError``.
    """
    n = samples.n
    r = _as_order(r, "r", 1, n)
    model_degree = _as_order(model_degree, "model_degree")
    if model_degree < 0:
        raise ValueError(f"model degree must be >= 0, got {model_degree}")
    if n - r + 1 < model_degree + 1:
        raise ValueError("not enough divided differences for the requested degree")
    ys = split_plan(samples, r).column
    xs = samples.nodes[r:]
    coeffs = _lstsq_poly(xs, ys, model_degree)
    if not all(isinstance(y, Fraction) for y in ys):
        coeffs = [float(c) for c in coeffs]
    model = TailModel(tuple(coeffs), r, basis)
    resid = sum((model(u) - y) ** 2 for u, y in zip(xs, ys))
    return TailModel(model.coefficients, r, basis, resid)


def tail_model_from_json(text_or_dict) -> TailModel:
    """Rebuild a :class:`TailModel` from its JSON form; ValueError naming
    the field unless coeffs is a non-empty list of finite numbers and r an
    int >= 0."""
    d = text_or_dict if isinstance(text_or_dict, dict) else json.loads(text_or_dict)
    coeffs = _field(d, "coeffs", list)
    if not coeffs:
        raise ValueError("coeffs: empty")
    r = _field(d, "r")
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise ValueError(f"r={r!r} is not an int >= 0")
    return TailModel(_numbers("coeffs", coeffs), r,
                     _field(d, "basis", str, "x"))


def interpolate_with_tail(samples: SampleSet, r: int, tail: TailModel, x):
    """Newton prefix of order r-1 plus prefix product times the tail model.

    Evaluate in the same coordinate the tail was fitted in: for a
    position-basis model, ``samples`` must be in position coordinates and
    ``x`` is the position.  The prefix is :meth:`SplitPlan.prefix` of the
    cached :func:`split_plan`, so its heads are built once per (sample set,
    r).
    """
    r = _as_order(r, "r", 1, samples.n)
    _check_finite(x, "x")
    prefix, product = split_plan(samples, r).prefix(x)
    return prefix + product * tail(x)


# ---------------------------------------------------------------------------
# closed-form operation counts for the split form

def count_ops(n: int, r: int) -> OpCounts:
    """Closed-form cost of one split-form evaluation (table included).

    Exact for 0 <= r < n; at r = n the true Newton-path cost differs by
    +1 multiplication / -1 division from these expressions because the
    suffix sum degenerates to a single bare coefficient.
    """
    n = _as_order(n, "n", 1)
    r = _as_order(r, "r", 0, n)
    d = n - r
    return OpCounts(
        additions=n,
        subtractions=n * (n + 1) + d * (d + 1) + r * (r + 1) // 2,
        multiplications=(2 * d - 1) * (d + 1) + r * (r + 1) // 2,
        divisions=n * (n + 1) // 2 - d * (d + 1) // 2 + d + 1,
    )


def newton_op_counts(n: int) -> OpCounts:
    """Cost of the pure Newton path (r = n) under the same conventions."""
    n = _as_order(n, "n", 1)
    return OpCounts(n, 3 * n * (n + 1) // 2, n * (n + 1) // 2, n * (n + 1) // 2)


def lagrange_op_counts(n: int) -> OpCounts:
    """Cost of the pure Lagrange path (r = 0) under the same conventions."""
    n = _as_order(n, "n", 1)
    return OpCounts(n, 2 * n * (n + 1), (2 * n - 1) * (n + 1), n + 1)
