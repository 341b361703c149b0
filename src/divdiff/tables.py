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

:func:`_build_plan` keeps its own fixed-prefix columns: up to 16 nodes
a kernel generated once per ``(node count, r)``, above that a loop that
keeps one column (through :func:`_columns`, a plan at n = r = 128 took
811 us, not 558, and 264 KiB of peak traced allocation, not 10).

Every entry of every scheme is checkable against
:func:`divided_difference`, which is the single recursive definition.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from operator import add, mul, truediv

from .samples import (_KERNEL_NODES, SampleSet, _check_finite,
                      _compile_kernel, _Record, _set)

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
        heads as divided differences (:meth:`entry_as_dd`)."""
        cols = self.columns
        ncols = len(cols)

        def cell(v):
            if isinstance(v, Fraction):
                return str(v)
            return fmt % v

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
                         .rstrip() for row in [labels, *grid])


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


def _check_r(r, n):
    if not 0 <= r <= n:
        raise ValueError(f"r={r} out of range 0..{n}")


def build_new_table(samples: SampleSet, r: int) -> DDTable:
    """Fixed-prefix table with columns 1..r populated.

    Column ``i`` entry ``j`` is generated from the previous column by

        (column[i-1][j+1] - column[i-1][0]) / (x[i+j] - x[i-1])
    """
    _check_r(r, samples.n)
    return DDTable("new", samples.nodes, r,
                   _columns(samples.nodes, samples.values, 0, r))


def build_combined_table(samples: SampleSet, r: int) -> DDTable:
    """All columns 1..n, each entry routed by the split predicate.

    At ``r = n`` every entry is sliding-window and the table coincides with
    :func:`build_newton_table`; at ``r = 0`` every entry is fixed-prefix.
    """
    _check_r(r, samples.n)
    return DDTable("combined", samples.nodes, r,
                   _columns(samples.nodes, samples.values, r, samples.n))


def zigzag_positions(m: int, n: int):
    """0, -1, 1, -2, 2, ... clipped to the available two-sided range."""
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
    _check_r(r, n)
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
    Built by :func:`_build_plan` and cached by :func:`split_plan`.  Both
    suffix forms read the weights and cost O(n) float operations a point,
    first and repeat: :meth:`__call__`, the barycentric ratio form, and
    :meth:`lagrange`, the first-kind form.
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
        :func:`~divdiff.samples._cardinal` states."""
        suffix_nodes = self.nodes[self.r:]
        if len(suffix_nodes) == 1:
            return (1,)  # an int divides a float faster than a Fraction
        dens = (math.prod(xi - xj for j, xj in enumerate(suffix_nodes) if j != i)
                for i, xi in enumerate(suffix_nodes))
        return tuple(Fraction(1, den) if type(den) is int else 1 / den
                     for den in dens)

    def suffix(self, x):
        """``f[x, x_0..x_{r-1}]`` in barycentric ratio form over the suffix
        nodes; where an ``x - x_i`` is zero, the stored coefficient, as in
        :meth:`lagrange` (tested once a division by zero stops the sum, so
        the sum's loop runs as fast as without the test)."""
        suffix_nodes = self.nodes[self.r:]
        num = den = 0
        try:
            for xi, coeff, w in zip(suffix_nodes, self.column, self.weights):
                c = w / (x - xi)
                num, den = num + coeff * c, den + c
            return num / den
        except ZeroDivisionError:
            d = [x - xi for xi in suffix_nodes]
            if 0 not in d:
                raise
            return self.column[d.index(0)]

    def lagrange(self, x):
        """``sum_i column[i] prod_{j!=i} (x - x_j) / (x_i - x_j)`` over the
        suffix nodes in the first-kind barycentric form ``l(x) * sum_i
        column[i] * (w_i / (x - x_i))``, ``l(x) = prod_j (x - x_j)`` left to
        right and the sum from its first term: O(n) float operations, and
        backward stable on any nodes (Higham, IMA J. Numer. Anal. 24, 2004).
        Where an ``x - x_i`` is zero (x a suffix node, or a ``Fraction``
        that rounds onto a float one), and on one node, the coefficient.
        On a plan's first use with at most ``_KERNEL_NODES`` suffix nodes,
        not ``int`` ones (the loop forms their exact :attr:`weights`),
        :func:`_lagrange_kernel` forms the weights and the value in one
        pass, the loop's operations in its order, so a point gives the same
        float on every call.

        Signed zeros: a sum of zeros is -0.0 only when every term is, and
        with every coefficient -0.0 the terms on two or more nodes never
        all are, so the value is a zero with the sign of ``l(x)``.  The
        tallied path of :func:`~divdiff.interpolate.interpolate_general`
        follows the signs of its ``column[i] * L_i(x)``: on nodes 0, 1, 2
        with every value -0.0, x = 1.5 gives -0.0 here and +0.0 there.
        """
        suffix_nodes, column = self.nodes[self.r:], self.column
        if len(suffix_nodes) == 1:
            return column[0]
        d = [x - xj for xj in suffix_nodes]
        if 0 in d:
            return column[d.index(0)]
        if ("weights" not in self.__dict__ and len(d) <= _KERNEL_NODES
                and type(suffix_nodes[0]) is not int):
            value, self.__dict__["weights"] = \
                _lagrange_kernel(len(d))(suffix_nodes, column, d)
            return value
        return math.prod(d) * reduce(add, map(mul, column,
                                              map(truediv, self.weights, d)))

    def prefix(self, x):
        """Newton prefix ``sum_{i<r} f[x_0..x_i] prod_{j<i} (x - x_j)`` and
        the prefix product ``prod_{i<r} (x - x_i)``."""
        xs, heads, r = self.nodes, self.heads, self.r
        if not r:
            return 0, 1
        total = heads[0]
        prod = 1
        for i in range(1, r):
            prod = prod * (x - xs[i - 1])
            total = total + heads[i] * prod
        return total, prod * (x - xs[r - 1])

    def __call__(self, x):
        """Newton prefix plus prefix product times :meth:`suffix`."""
        total, product = self.prefix(x)
        return total + product * self.suffix(x)


def _build_plan(nodes, values, r) -> SplitPlan:
    """The :class:`SplitPlan` of ``nodes`` and ``values`` at index r,
    uncached and unchecked.

    The columns are :func:`_prefix_column`'s, the same values as
    :func:`build_new_table` without its table container: run by the
    straight-line kernel of ``(len(nodes), r)`` (:func:`_plan_kernel`) for
    at most :data:`~divdiff.samples._KERNEL_NODES` nodes, by the loop
    otherwise.  ``r`` may be ``len(nodes)``, which leaves an empty column.
    """
    if len(nodes) <= _KERNEL_NODES:
        heads, column = _plan_kernel(len(nodes), r)(nodes, values)
        return SplitPlan(tuple(nodes), r, heads, column)
    heads = []
    column = values
    for i in range(1, r + 1):
        heads.append(column[0])
        column = _prefix_column(column, nodes, i)
    return SplitPlan(tuple(nodes), r, tuple(heads), tuple(column))


@lru_cache(maxsize=None)
def _plan_kernel(count, r):
    """:func:`_build_plan`'s loop for ``count`` nodes at index r written
    out, compiled once per ``(count, r)``: ``kernel(nodes, values)`` holds
    entry k of the current column in ``c<k>`` and forms column i as
    ``c<k> = (c<k> - c<i-1>) / (x<k> - x<i-1>)`` for k = i..count-1, the
    operations of :func:`_prefix_column` in its order, and returns the
    heads ``c0..c<r-1>`` and the column ``c<r>..``."""
    xs = "".join(f"x{k}, " for k in range(count))
    cs = [f"c{k}, " for k in range(count)]
    lines = ["def kernel(nodes, values):",
             f"    {xs}= nodes",
             f"    {''.join(cs)}= values"]
    for i in range(1, r + 1):
        lines += [f"    c{k} = (c{k} - c{i - 1}) / (x{k} - x{i - 1})"
                  for k in range(i, count)]
    lines.append(f"    return ({''.join(cs[:r])}), ({''.join(cs[r:])})")
    return _compile_kernel(lines, f"plan kernel, {count} nodes, r={r}")


@lru_cache(maxsize=None)
def _lagrange_kernel(count):
    """:meth:`SplitPlan.lagrange`'s loop for ``count`` >= 2 suffix nodes
    written out, compiled once per count: ``kernel(nodes, column, d)``, d
    the differences ``x - x<i>``, returns the value ``d0 * d1 * ... *
    (c0 * (w0 / d0) + ...)`` and the weights ``w<i>``, each one product."""
    idx = range(count)
    lines = ["def kernel(nodes, column, d):",
             "    " + "".join(f"x{i}, " for i in idx) + "= nodes",
             "    " + "".join(f"c{i}, " for i in idx) + "= column",
             "    " + "".join(f"d{i}, " for i in idx) + "= d"]
    lines += [f"    w{i} = 1 / (" + " * ".join(f"(x{i} - x{j})" for j in idx
                                            if j != i) + ")" for i in idx]
    lines.append("    return " + " * ".join(f"d{i}" for i in idx) + " * ("
                 + " + ".join(f"c{i} * (w{i} / d{i})" for i in idx) + "), ("
                 + "".join(f"w{i}, " for i in idx) + ")")
    return _compile_kernel(lines, f"lagrange kernel, {count} nodes")


def split_plan(samples: SampleSet, r: int) -> SplitPlan:
    """The :class:`SplitPlan` of ``samples`` at index r.

    Built by :func:`_build_plan` on the first request and cached on the
    sample set, keyed by r; the cache lives and dies with that one
    instance, so an equal-comparing set of another numeric type never
    shares its plans.
    """
    plan = samples._plans.get(r)
    if plan is None:
        _check_r(r, samples.n)
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
    ratio form: both O(n) float operations a point.
    """
    _check_finite(x, "x")
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
