"""Divided differences and the table schemes that organize them.

Every scheme is one layout at a different split ``r``: in column ``i``,
entry ``j`` is the sliding-window difference ``f[x_j .. x_{j+i}]`` when
``j < r - i + 1`` and the fixed-prefix difference
``f[x_0 .. x_{i-1}, x_{i+j}]`` otherwise.  One container, :class:`DDTable`,
holds every scheme, and one column builder, :func:`_columns`, fills it:

* ``"newton"`` -- the classical sliding-window table (split ``n``).
* ``"new"`` -- the fixed-prefix table, columns ``0..r`` (split 0); over
  :func:`zigzag_positions` it is the two-sided grid's table.
* ``"combined"`` -- all columns, each entry routed by the split ``r``.
* ``"integer"`` -- the combined layout over integer node positions, with
  plain forward differences in the sliding-window part; it keeps its own
  loop, since those entries are differences, not quotients.

:func:`_build_plan` takes the fixed-prefix columns from the same
builder, through their trace, compiled once per ``(node count, r)`` where
it fits the tracer's budget (:data:`~divdiff.samples._TAPE_BUDGET`).  A
:class:`SplitPlan` evaluates the split form at any x in O(n) operations,
through the trace of one loop per form, bound to the plan on its second
call.

Every entry of every scheme is checkable against
:func:`divided_difference`, which is the single recursive definition.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, partial, reduce
from operator import mul

from .samples import (SampleSet, _as_order, _check_finite, _fraction_text,
                      _Record, _set, _trace)

SCHEMES = ("newton", "new", "combined", "integer")


def _window_column(prev, xs, i, stop):
    """Entries j < stop of sliding-window column i from column i-1:
    ``(prev[j+1] - prev[j]) / (xs[j+i] - xs[j])``."""
    col = []
    for j in range(stop):
        den = xs[j + i] - xs[j]
        if den == 0:
            raise ValueError("coincident nodes")
        col.append((prev[j + 1] - prev[j]) / den)
    return col


def _prefix_column(prev, xs, i, start=0, head=None):
    """Entries j >= start of fixed-prefix column i from column i-1:
    ``(prev[j+1] - head) / (xs[i+j] - xs[i-1])``, head ``prev[0]`` unless
    given."""
    if head is None:
        head = prev[0]
    base = xs[i - 1]
    return [(p - head) / (xj - base)
            for p, xj in zip(prev[start + 1:], xs[i + start:])]


def _columns(xs, values, split, ncols):
    """Columns 0..ncols over nodes ``xs``: in column i, entries
    ``j < split - i + 1`` from :func:`_window_column`, the rest from
    :func:`_prefix_column`."""
    cols = [tuple(values)]
    for i in range(1, ncols + 1):
        prev = cols[i - 1]
        stop = max(split - i + 1, 0)
        col = _window_column(prev, xs, i, stop)
        if stop < len(prev) - 1:
            # an empty call would double the cost of a sliding-window-only
            # build such as _dd_over
            col += _prefix_column(prev, xs, i, stop)
        cols.append(tuple(col))
    return tuple(cols)


def _dd_over(nodes, values):
    # the top entry of the sliding-window table
    n = len(nodes) - 1
    return _columns(nodes, values, n, n)[-1][0]


def divided_difference(samples: SampleSet, indices):
    """Classical divided difference over the selected node indices.

    The result is symmetric in the indices; any order gives the same
    value (up to rounding in float mode, exactly with Fractions).
    """
    idx = list(indices)
    if not idx:
        raise ValueError("empty index list")
    if min(idx) < 0:
        raise IndexError(f"node index {min(idx)} is negative")
    if max(idx) > samples.n:
        raise IndexError(f"node index {max(idx)} is past the last node "
                         f"index {samples.n}")
    if len(set(idx)) != len(idx):
        raise ValueError("coincident nodes")
    nodes = [samples.nodes[i] for i in idx]
    values = [samples.values[i] for i in idx]
    return _dd_over(nodes, values)


# ---------------------------------------------------------------------------
# the table container

class DDTable(_Record):
    """A divided-difference table of one of :data:`SCHEMES`.

    ``columns[0]`` is the value row over ``nodes`` (integer positions for
    the ``"integer"`` scheme).  Entry ``(i, j)`` is sliding-window where
    :meth:`part_of` says ``"newton"`` and fixed-prefix otherwise; the
    ``"new"`` scheme is fixed-prefix throughout.  The integer scheme
    stores its sliding-window entries as plain forward differences, the
    divided difference times ``i!``.
    """

    __slots__ = _fields = ("scheme", "nodes", "r", "columns")

    def __init__(self, scheme, nodes, r, columns):
        self._init(scheme, nodes, r, columns)

    def part_of(self, i, j) -> str:
        if self.scheme != "new" and j < self.r - i + 1:
            return "newton"
        return "new"

    def entry_as_dd(self, i, j):
        """Entry normalized to a divided difference."""
        if i and self.scheme == "integer" and self.part_of(i, j) == "newton":
            return self.columns[i][j] / math.factorial(i)
        return self.columns[i][j]

    @property
    def column_heads(self):
        return [self.entry_as_dd(i, 0) for i in range(len(self.columns))]

    def to_json_dict(self):
        key = "positions" if self.scheme == "integer" else "nodes"
        return {
            "scheme": self.scheme,
            "r": self.r,
            "columns": _jsonable(self.columns),
            key: _jsonable(self.nodes),
        }

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    def render_text(self, fmt="%.10g"):
        """The staggered text layout: column ``i`` entry ``j`` on text row
        ``2j + i``, between the rows of the nodes it couples, and column
        heads as divided differences (:meth:`entry_as_dd`); a Fraction as
        :func:`~divdiff.samples._fraction_text` gives it."""
        return self._render(fmt)[0]

    def _render(self, fmt="%.10g"):
        """:meth:`render_text` and whether every Fraction in it printed
        exactly."""
        cols = self.columns
        ncols = len(cols)
        exact = True

        def cell(v):
            nonlocal exact
            if not isinstance(v, Fraction):
                return fmt % v
            text, whole = _fraction_text(v)
            exact = exact and whole
            return text

        grid = [[""] * (ncols + 1) for _ in range(2 * len(cols[0]) - 1)]
        for j, x in enumerate(self.nodes):
            grid[2 * j][0] = cell(x)
        for i in range(ncols):
            for j, v in enumerate(cols[i]):
                grid[2 * j + i][i + 1] = cell(self.entry_as_dd(i, 0)
                                              if j == 0 else v)
        labels = ["x", "y"] + [f"d{i}" for i in range(1, ncols)]
        widths = [max(len(row[c]) for row in [labels, *grid])
                  for c in range(ncols + 1)]
        return "\n".join("  ".join(v.rjust(w) for v, w in zip(row, widths))
                         .rstrip() for row in [labels, *grid]), exact


def _jsonable(v):
    if isinstance(v, (tuple, list)):
        return [_jsonable(u) for u in v]
    if isinstance(v, Fraction):
        return str(v)
    return v


# ---------------------------------------------------------------------------
# builders

def build_newton_table(samples: SampleSet) -> DDTable:
    """Full sliding-window divided-difference table."""
    n = samples.n
    return DDTable("newton", samples.nodes, n,
                   _columns(samples.nodes, samples.values, n, n))


def build_new_table(samples: SampleSet, r: int) -> DDTable:
    """Fixed-prefix table with columns 1..r populated.

    Column ``i`` entry ``j`` is generated from the previous column by

        (column[i-1][j+1] - column[i-1][0]) / (x[i+j] - x[i-1])
    """
    r = _as_order(r, "r", 0, samples.n)
    return DDTable("new", samples.nodes, r,
                   _columns(samples.nodes, samples.values, 0, r))


def build_combined_table(samples: SampleSet, r: int) -> DDTable:
    """All columns 1..n, each entry routed by the split predicate.

    At ``r = n`` every entry is sliding-window and the table coincides with
    :func:`build_newton_table`; at ``r = 0`` every entry is fixed-prefix.
    """
    r = _as_order(r, "r", 0, samples.n)
    return DDTable("combined", samples.nodes, r,
                   _columns(samples.nodes, samples.values, r, samples.n))


def zigzag_positions(m: int, n: int):
    """0, -1, 1, -2, 2, ... clipped to the available two-sided range."""
    m, n = _as_order(m, "m", 0), _as_order(n, "n", 0)
    out = [0]
    for k in range(1, max(m, n) + 1):
        if k <= m:
            out.append(-k)
        if k <= n:
            out.append(k)
    return out


def build_integer_table(values, r: int) -> DDTable:
    """Difference/divided-difference table over integer node positions.

    ``values`` are samples at positions ``0..n``.  The sliding-window part
    stores plain forward differences; fixed-prefix entries divide by the
    true integer argument gap ``j + 1``, normalizing window heads by their
    factorial first.
    """
    vals = list(values)
    n = len(vals) - 1
    r = _as_order(r, "r", 0, n)
    pos = tuple(range(n + 1))
    cols = [tuple(vals)]
    for i in range(1, n + 1):
        prev = cols[i - 1]
        stop = max(r - i + 1, 0)  # entries j < stop are plain differences
        head = prev[0]
        if 1 < i <= r + 1:
            # window-part head is a plain difference; the true
            # integer-argument gap pos[i+j] - pos[i-1] = j + 1 needs its
            # dd value
            head = head / math.factorial(i - 1)
        cols.append(tuple([prev[j + 1] - prev[j] for j in range(stop)]
                          + _prefix_column(prev, pos, i, stop, head)))
    return DDTable("integer", pos, r, tuple(cols))


# ---------------------------------------------------------------------------
# extended divided-difference evaluation

class SplitPlan(_Record):
    """The x-independent part of the split form at index ``r``.

    ``heads[i]`` is ``f[x_0..x_i]`` for i < r and ``column`` is column r of
    :func:`build_new_table` (``f[x_0..x_{r-1}, x_{r+j}]``); the suffix
    weights follow on first use, cached in the instance ``__dict__``.
    Built by :func:`_build_plan` and cached by :func:`split_plan`, or
    built with its weights by a set's first call at r
    (:func:`_first_point`).

    Four forms give its value at x, each O(n) operations a point: the
    suffix sums alone, :meth:`lagrange` (first kind) and :meth:`suffix`
    (ratio form), and the Newton prefix plus the prefix product times
    each, :meth:`general` and :meth:`__call__`.  Each is one loop,
    :func:`_suffix_sum` or :func:`_split_loop`.  A form's call on a plan
    without its weights runs that loop, which forms them; on a plan with
    them it binds the loop's trace (:func:`~divdiff.samples._trace`) to
    the plan's data in the instance ``__dict__``, where every later call
    finds it: one kernel call a point, and no cache lookup.  Where ``x -
    x_i`` is zero for a suffix node (x that node, or a ``Fraction`` that
    rounds onto it), a form takes :func:`_nodal`'s coefficient for its
    suffix sum.
    """

    _fields = ("nodes", "r", "heads", "column")

    def __init__(self, nodes, r, heads, column):
        # one plan per single-use sample set: _set, not _init
        _set(self, "nodes", nodes)
        _set(self, "r", r)
        _set(self, "heads", heads)
        _set(self, "column", column)

    @cached_property
    def weights(self):
        """``w_i = 1 / prod_{j=r..n, j!=i} (x_i - x_j)`` for i = r..n, each
        product left to right, formed on first use; 1 on one node.  Exact
        on integer gaps: an ``int`` product gives ``Fraction(1, den)``, so
        all-``int`` data at r = 0 give a ``Fraction`` (nodes 0..3, values 1,
        2, 5, 10, x = 5: ``Fraction(26, 1)``, not 26.0), and at a float x
        ``float(w) / d`` is the float ``(1 / den) / d``.  A product that
        underflows to zero raises ``ZeroDivisionError``, the limit that
        :func:`~divdiff.samples._cardinal` states; at a suffix node the
        forms still give the coefficient."""
        return _suffix_weights(self.nodes[self.r:])

    def lagrange(self, x):
        """``sum_i column[i] prod_{j!=i} (x - x_j) / (x_i - x_j)`` over the
        suffix nodes in the first-kind barycentric form of
        :func:`_suffix_sum`, backward stable on any nodes (Higham, IMA J.
        Numer. Anal. 24, 2004); the coefficient on one node, 0 on none.

        Signed zeros: a sum of zeros is -0.0 only when every term is, and
        with every coefficient -0.0 the terms on two or more nodes never
        all are, so the value is a zero with the sign of ``l(x)``.  The
        tallied path of :func:`~divdiff.interpolate.interpolate_general`
        follows the signs of its ``column[i] * L_i(x)``: on nodes 0, 1, 2
        with every value -0.0, x = 1.5 gives -0.0 here and +0.0 there.
        """
        try:
            return self._lagrange(x)
        except ZeroDivisionError:
            return _nodal(self.nodes[self.r:], self.column, x)

    def suffix(self, x):
        """``f[x, x_0..x_{r-1}]`` in the barycentric ratio form of
        :func:`_suffix_sum` over the suffix nodes."""
        try:
            return self._suffix(x)
        except ZeroDivisionError:
            return _nodal(self.nodes[self.r:], self.column, x)

    def general(self, x):
        """The value of :func:`~divdiff.interpolate.interpolate_general`:
        the Newton prefix plus the prefix product times :meth:`lagrange`,
        and at r = 0 :meth:`lagrange` alone (``0 + -0.0`` would be +0.0)."""
        try:
            return self._general(x)
        except ZeroDivisionError:
            value = _nodal(self.nodes[self.r:], self.column, x)
        if not self.r:
            return value
        total, product = self.prefix(x)
        return total + product * value

    def __call__(self, x):
        """Newton prefix plus prefix product times :meth:`suffix`."""
        try:
            return self._ratio(x)
        except ZeroDivisionError:
            value = _nodal(self.nodes[self.r:], self.column, x)
        total, product = self.prefix(x)
        return total + product * value

    def prefix(self, x):
        """:func:`_newton_prefix` over this plan's nodes and heads."""
        return _newton_prefix(self.nodes, self.heads, x)

    # the forms, each replaced in the instance __dict__ by its bound kernel
    def _lagrange(self, x):
        return self._bind("_lagrange", x, False, False)

    def _suffix(self, x):
        return self._bind("_suffix", x, True, False)

    def _general(self, x):
        return self._bind("_general", x, False, self.r > 0)

    def _ratio(self, x):
        return self._bind("_ratio", x, True, True)

    def _bind(self, name, x, ratio, whole):
        """The form ``name`` at x: :func:`_suffix_sum`, with ``whole``
        :func:`_split_loop`, and with ``ratio`` their ratio form.  Without
        the weights, the loop, which forms them; with them, the loop's
        trace, bound to the plan's data under ``name``."""
        data = (self.nodes, self.heads, self.column) if whole else \
            (self.nodes[self.r:], self.column)
        loop = _split_loop if whole else _suffix_sum
        if "weights" not in self.__dict__:
            return loop(*data, self.weights, x, ratio=ratio)
        data += (self.weights,)
        kernel = self.__dict__[name] = partial(
            _trace(loop, *map(len, data), None, ratio), *data)
        return kernel(x)


def _nodal(nodes, column, x):
    """Inside the ``except ZeroDivisionError`` of a suffix sum over
    ``nodes``: ``column[i]`` where ``x - x_i`` is zero, else re-raise."""
    d = [x - xi for xi in nodes]
    if 0 not in d:
        raise
    return column[d.index(0)]


def _suffix_weights(nodes):
    """The :attr:`SplitPlan.weights` of the suffix ``nodes``."""
    if len(nodes) == 1:
        return (1,)  # an int divides a float faster than a Fraction
    dens = [reduce(mul, [xi - xj for j, xj in enumerate(nodes) if j != i])
            for i, xi in enumerate(nodes)]
    return tuple(Fraction(1, den) if type(den) is int else 1 / den
                 for den in dens)


def _suffix_sum(nodes, column, weights, x, *, ratio):
    """The suffix sum at x over ``nodes``, ``d_i = x - x_i``: the first
    kind ``l(x) * sum_i column[i] * (w_i / d_i)``, ``l(x)`` the product of
    the ``d_i`` and the sum both left to right from their first term
    (``column[0]`` on one node, 0 on none); with ``ratio``, ``sum_i
    column[i] * c_i / sum_i c_i``, ``c_i = w_i / d_i``, both sums from 0
    (Berrut & Trefethen, SIAM Rev. 46, 2004).  One zip loop, which runs
    as itself where its trace is over budget."""
    if ratio:
        num = den = 0
        for xi, coeff, w in zip(nodes, column, weights):
            c = w / (x - xi)
            num, den = num + coeff * c, den + c
        return num / den
    if len(nodes) < 2:
        return column[0] if column else 0
    terms = zip(nodes, column, weights)
    xi, c, w = next(terms)
    ell = x - xi
    total = c * (w / ell)
    for xi, c, w in terms:
        di = x - xi
        ell, total = ell * di, total + c * (w / di)
    return ell * total


def _newton_prefix(nodes, heads, x):
    """The Newton prefix ``sum_{i<r} heads[i] prod_{j<i} (x - x_j)`` and
    the prefix product ``prod_{i<r} (x - x_i)``, r = ``len(heads)``; 0 and
    1 at r = 0."""
    r = len(heads)
    if not r:
        return 0, 1
    total = heads[0]
    prod = 1
    for i in range(1, r):
        prod = prod * (x - nodes[i - 1])
        total = total + heads[i] * prod
    return total, prod * (x - nodes[r - 1])


def _split_loop(nodes, heads, column, weights, x, *, ratio):
    """The split form at x, r = ``len(heads)``: :func:`_newton_prefix`
    plus the prefix product times :func:`_suffix_sum` over
    ``nodes[r:]``."""
    total, product = _newton_prefix(nodes, heads, x)
    return total + product * _suffix_sum(nodes[len(heads):], column,
                                         weights, x, ratio=ratio)


def _point_loop(nodes, values, x, *, r):
    """A split form's first call at x: the heads and column of
    :func:`_plan_loop`, the suffix weights, and at x the Newton prefix,
    the prefix product times the first-kind suffix sum, and that sum."""
    heads, column = _plan_loop(nodes, values, r=r)
    prefix, product = _newton_prefix(nodes, heads, x)
    weights = _suffix_weights(nodes[r:])
    value = _suffix_sum(nodes[r:], column, weights, x, ratio=False)
    return heads, column, weights, prefix, product * value, value


def _first_point(nodes, values, r, x):
    """The plan of ``nodes`` and ``values`` at index r, weights formed, and
    at x the Newton prefix, the prefix product times the suffix sum, and
    the suffix sum: one call of the trace of :func:`_point_loop`, the
    operations of :func:`_build_plan`, :meth:`SplitPlan.prefix` and
    :meth:`SplitPlan.lagrange` (over budget, the loop itself).  None on
    ``int`` suffix nodes, whose weights are exact ``Fraction``s, and where
    the kernel raises (x on a suffix node, whose zero ``x - x_i`` it
    divides by, among others): the caller then takes those three steps,
    which give the value or raise."""
    count = len(nodes)
    if r < count and type(nodes[r]) is int:
        return None
    kernel = _trace(_point_loop, count, count, None, r)
    try:
        heads, column, weights, prefix, tail, value = kernel(nodes, values, x)
    except (ArithmeticError, TypeError):
        return None
    plan = SplitPlan(tuple(nodes), r, heads, column)
    plan.__dict__["weights"] = weights
    return plan, prefix, tail, value


def _build_plan(nodes, values, r) -> SplitPlan:
    """The :class:`SplitPlan` of ``nodes`` and ``values`` at index r,
    uncached and unchecked, from :func:`_plan_loop` through
    :func:`~divdiff.samples._trace`.  ``r`` may be ``len(nodes)``, which
    leaves an empty column."""
    count = len(nodes)
    heads, column = _trace(_plan_loop, count, count, r)(nodes, values)
    return SplitPlan(tuple(nodes), r, heads, column)


def _plan_loop(nodes, values, *, r):
    """The heads and column r of :func:`build_new_table`'s columns."""
    cols = _columns(nodes, values, 0, r)
    return tuple([col[0] for col in cols[:r]]), cols[r]


def split_plan(samples: SampleSet, r: int) -> SplitPlan:
    """The :class:`SplitPlan` of ``samples`` at index r.

    Built by :func:`_build_plan` on the first request and cached on the
    sample set, keyed by r; the cache lives and dies with that one
    instance, so an equal-comparing set of another numeric type never
    shares its plans.
    """
    if type(r) is not int:  # a float r must not find an int's plan
        r = _as_order(r, "r", 0, samples.n)
    plan = samples._plans.get(r)
    if plan is None:
        _as_order(r, "r", 0, samples.n)
        plan = samples._plans[r] = _build_plan(samples.nodes, samples.values, r)
    return plan


def extended_dd_eval(samples: SampleSet, r: int, x, barycentric: bool = False):
    """Value of the divided-difference function ``f[x, x_0..x_{r-1}]``.

    Interpolates the prefix-extended divided differences of order r over
    the suffix nodes; exact whenever the data come from a polynomial of
    degree <= n.  ``r = 0`` reduces to plain interpolation of f itself.  At
    a suffix node, the stored nodal value.  On the :func:`split_plan`
    cached on the sample set, the suffix is :meth:`SplitPlan.lagrange`'s
    first-kind form or, with ``barycentric``, :meth:`SplitPlan.suffix`'s
    ratio form: both O(n) float operations a point, and at a repeat point
    one call of the plan's bound kernel.  The first-kind form's first call
    at r builds the plan, its weights and the value in one
    kernel (:func:`_first_point`).
    """
    _check_finite(x, "x")
    if type(r) is not int:  # a float r must not find an int's plan
        r = _as_order(r, "r", 0, samples.n)
    if not barycentric and r not in samples._plans:
        _as_order(r, "r", 0, samples.n)
        first = _first_point(samples.nodes, samples.values, r, x)
        if first is not None:
            samples._plans[r] = first[0]
            return first[3]
    plan = split_plan(samples, r)
    return plan.suffix(x) if barycentric else plan.lagrange(x)


# ---------------------------------------------------------------------------
# serialization helpers

def table_from_json(text_or_dict):
    """Rebuild a :class:`DDTable` from its JSON form.

    ValueError naming the field unless the shape is one a builder makes:
    1 to len(nodes) columns, column i of len(nodes) - i numbers, and
    0 <= r <= (column count) - 1, over a list of distinct numbers as
    nodes.
    """
    d = text_or_dict if isinstance(text_or_dict, dict) else json.loads(text_or_dict)
    scheme = _field(d, "scheme", str)
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    key = "positions" if scheme == "integer" else "nodes"
    nodes = _numbers(key, _field(d, key, list, []))
    first = {}
    for k, v in enumerate(nodes):
        if first.setdefault(v, k) != k:
            raise ValueError(f"{key}[{k}]: {v!r} repeats {key}[{first[v]}]")
    raw = _field(d, "columns", list)
    if not 1 <= len(raw) <= len(nodes):
        raise ValueError(f"columns: {len(raw)} columns for "
                         f"{len(nodes)} {key}")
    for i, col in enumerate(raw):
        if not isinstance(col, list):
            raise ValueError(f"columns[{i}]: {col!r} is not a list")
        if len(col) != len(nodes) - i:
            raise ValueError(f"columns[{i}] has {len(col)} entries, "
                             f"want {len(nodes) - i}")
    r = _field(d, "r")
    if (isinstance(r, bool) or not isinstance(r, int)
            or not 0 <= r <= len(raw) - 1):
        raise ValueError(f"r={r!r} out of range 0..{len(raw) - 1}")
    return DDTable(scheme, nodes, r, tuple(
        _numbers(f"columns[{i}]", col) for i, col in enumerate(raw)))


def _field(d, name, kind=object, default=None):
    """``d[name]``, or ``default`` if given when it is missing; ValueError
    naming the field when it is missing or null, or not a ``kind``."""
    v = d.get(name, default)
    if v is None:
        raise ValueError(f"{name}: missing")
    if not isinstance(v, kind):
        raise ValueError(f"{name}: {v!r} is not a {kind.__name__}")
    return v


def _numbers(name, items):
    """The JSON list ``items`` as a tuple, Fraction strings read as
    Fractions; ValueError naming ``name[k]``, as :func:`_field` names a
    field, at an entry that is not an int, float, Fraction or one's
    string, or that is inf or nan."""
    out = []
    for k, v in enumerate(items):
        try:
            if isinstance(v, bool) or not isinstance(v, (int, float, str,
                                                          Fraction)):
                raise ValueError
            out.append(Fraction(v) if isinstance(v, str) else v)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{name}[{k}]: {v!r} is not a number") from None
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name}[{k}]: {v!r} is not finite")
    return tuple(out)
