"""Divided differences and the table schemes that organize them.

Four layouts are provided:

* :class:`TriangularTable` -- the classical sliding-window table where
  column ``i`` holds ``f[x_j .. x_{j+i}]``.
* :class:`NewDDTable` -- fixed-prefix layout: column ``i`` holds
  ``f[x_0 .. x_{i-1}, x_{i+j}]`` (a sliding *last* argument).
* :class:`CombinedTable` -- the two layouts stitched together, the part
  chosen per entry by the predicate ``j < r - i + 1``.
* :class:`IntegerDDTable` -- the combined layout over integer node
  positions, with plain forward differences in the sliding-window part.

Every entry of every scheme is checkable against
:func:`divided_difference`, which is the single recursive definition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .samples import SampleSet


def _window_column(prev, xs, i, stop=None):
    """Entries j < stop of sliding-window column i from column i-1:
    ``(prev[j+1] - prev[j]) / (xs[j+i] - xs[j])``."""
    col = []
    for j in range(len(prev) - 1 if stop is None else stop):
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


def _dd_over(nodes, values):
    # classical recursive table collapsed to its top entry
    cur = list(values)
    for order in range(1, len(nodes)):
        cur = _window_column(cur, nodes, order)
    return cur[0]


def divided_difference(samples: SampleSet, indices):
    """Classical divided difference over the selected node indices.

    The result is symmetric in the indices; any order gives the same
    value (up to rounding in float mode, exactly with Fractions).
    """
    idx = list(indices)
    if not idx:
        raise ValueError("empty index list")
    if len(set(idx)) != len(idx):
        raise ValueError("coincident nodes")
    nodes = [samples.nodes[i] for i in idx]
    values = [samples.values[i] for i in idx]
    return _dd_over(nodes, values)


# ---------------------------------------------------------------------------
# table containers

class _TableBase:
    scheme = ""

    def to_json_dict(self):
        d = {
            "scheme": self.scheme,
            "r": self.r,
            "columns": [[_jsonable(v) for v in col] for col in self.columns],
        }
        xs = getattr(self, "nodes", None)
        if xs is not None:
            d["nodes"] = [_jsonable(v) for v in xs]
        return d

    def to_json(self, **kw):
        return json.dumps(self.to_json_dict(), **kw)

    def entry(self, i, j):
        return self.columns[i][j]

    def render_text(self, labels=None, fmt="%.10g"):
        return _render_staggered(self, labels, fmt)


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


@dataclass(frozen=True)
class TriangularTable(_TableBase):
    """Sliding-window table: ``columns[i][j] = f[x_j .. x_{j+i}]``."""

    nodes: tuple
    columns: tuple  # columns[0] is the raw value row

    scheme = "newton"

    @property
    def r(self):
        return len(self.nodes) - 1


@dataclass(frozen=True)
class NewDDTable(_TableBase):
    """Fixed-prefix table: ``columns[i][j] = f[x_0 .. x_{i-1}, x_{i+j}]``."""

    nodes: tuple
    r: int
    columns: tuple

    scheme = "new"

    def prefix_coefficient(self, i):
        """``f[x_0 .. x_i]`` -- head of column i (column 0 head for i=0)."""
        return self.columns[i][0]


@dataclass(frozen=True)
class CombinedTable(_TableBase):
    """Sliding-window entries where ``j < r-i+1`` holds, fixed-prefix after."""

    nodes: tuple
    split: int
    columns: tuple

    scheme = "combined"

    @property
    def r(self):
        return self.split

    def part_of(self, i, j) -> str:
        return "newton" if j < self.split - i + 1 else "new"

    @property
    def newton_part(self):
        return [(i, j, v) for i, col in enumerate(self.columns) if i
                for j, v in enumerate(col) if self.part_of(i, j) == "newton"]

    @property
    def new_part(self):
        return [(i, j, v) for i, col in enumerate(self.columns) if i
                for j, v in enumerate(col) if self.part_of(i, j) == "new"]


@dataclass(frozen=True)
class IntegerDDTable(_TableBase):
    """Combined-layout table over integer node positions.

    In the sliding-window part the stored entry is the *plain* forward
    difference (the divided difference times ``i!`` -- unit spacing makes
    every denominator a factorial).  Fixed-prefix entries are true divided
    differences over their integer arguments.  ``column_heads[i]`` is the
    head entry normalized to a divided difference.

    A signed layout (``positions`` covering ``-m..n``) stores divided
    differences over the zigzag prefix ordering ``0, -1, 1, -2, 2, ...``
    in every column.
    """

    positions: tuple
    r: int
    columns: tuple
    signed: bool = False

    scheme = "integer"

    def part_of(self, i, j) -> str:
        if self.signed:
            return "new"
        return "newton" if j < self.r - i + 1 else "new"

    def entry_as_dd(self, i, j):
        """Entry normalized to a divided difference."""
        if i and self.part_of(i, j) == "newton":
            return self.columns[i][j] / math.factorial(i)
        return self.columns[i][j]

    @property
    def column_heads(self):
        return [self.entry_as_dd(i, 0) for i in range(len(self.columns))]

    def argument_indices(self, i, j):
        """Positions whose divided difference entry (i, j) represents."""
        if i == 0:
            return [self.positions[j]]
        if self.part_of(i, j) == "newton":
            return list(self.positions[j:j + i + 1])
        return list(self.positions[:i]) + [self.positions[i + j]]

    def to_json_dict(self):
        d = super().to_json_dict()
        d["positions"] = list(self.positions)
        return d


# ---------------------------------------------------------------------------
# builders

def build_newton_table(samples: SampleSet) -> TriangularTable:
    """Full sliding-window divided-difference table."""
    cols = [tuple(samples.values)]
    for i in range(1, samples.n + 1):
        cols.append(tuple(_window_column(cols[i - 1], samples.nodes, i)))
    return TriangularTable(samples.nodes, tuple(cols))


def _check_r(r, n):
    if not 0 <= r <= n:
        raise ValueError(f"r={r} out of range 0..{n}")


def build_new_table(samples: SampleSet, r: int) -> NewDDTable:
    """Fixed-prefix table with columns 1..r populated.

    Column ``i`` entry ``j`` is generated from the previous column by

        (column[i-1][j+1] - column[i-1][0]) / (x[i+j] - x[i-1])
    """
    _check_r(r, samples.n)
    cols = [tuple(samples.values)]
    for i in range(1, r + 1):
        cols.append(tuple(_prefix_column(cols[i - 1], samples.nodes, i)))
    return NewDDTable(samples.nodes, r, tuple(cols))


def build_combined_table(samples: SampleSet, r: int) -> CombinedTable:
    """All columns 1..n, each entry routed by the split predicate.

    At ``r = n`` every entry is sliding-window and the table coincides with
    :func:`build_newton_table`; at ``r = 0`` every entry is fixed-prefix.
    """
    _check_r(r, samples.n)
    xs = samples.nodes
    cols = [tuple(samples.values)]
    for i in range(1, samples.n + 1):
        stop = max(r - i + 1, 0)  # entries j < stop are sliding-window
        cols.append(tuple(_window_column(cols[i - 1], xs, i, stop)
                          + _prefix_column(cols[i - 1], xs, i, stop)))
    return CombinedTable(xs, r, tuple(cols))


def zigzag_positions(m: int, n: int):
    """0, -1, 1, -2, 2, ... clipped to the available two-sided range."""
    out = [0]
    for k in range(1, max(m, n) + 1):
        if k <= m:
            out.append(-k)
        if k <= n:
            out.append(k)
    return out


def build_integer_table(values, r: int, signed_range=None) -> IntegerDDTable:
    """Difference/divided-difference table over integer node positions.

    ``values`` are samples at positions ``0..n`` (or, with
    ``signed_range=(m, n)``, at ``-m..n`` listed left to right).  For the
    unsigned layout the sliding-window part stores plain forward
    differences; fixed-prefix entries divide by the true integer argument
    gap ``j + 1``, normalizing window heads by their factorial first.
    """
    vals = list(values)
    if signed_range is not None:
        m, n = signed_range
        if m + n + 1 != len(vals):
            raise ValueError("signed range does not match value count")
        _check_r(r, m + n)
        pos = zigzag_positions(m, n)
        cols = [tuple(vals[p + m] for p in pos)]
        for i in range(1, m + n + 1):
            cols.append(tuple(_prefix_column(cols[i - 1], pos, i)))
        return IntegerDDTable(tuple(pos), r, tuple(cols), signed=True)

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
    return IntegerDDTable(pos, r, tuple(cols), signed=False)


# ---------------------------------------------------------------------------
# extended divided-difference evaluation

@dataclass(frozen=True)
class SplitPlan:
    """The x-independent part of the split form at index ``r``.

    ``heads[i]`` is ``f[x_0..x_i]`` for i < r and ``column`` is column r of
    :func:`build_new_table` (``f[x_0..x_{r-1}, x_{r+j}]``); the suffix
    denominators ``dens`` and weights follow on first use.  Built by
    :func:`split_plan`; each evaluation then costs O(n) Python steps:
    :meth:`__call__` in barycentric ratio form, :meth:`lagrange` in the
    Lagrange form of :func:`divdiff.interpolate.interpolate_general`, with
    that function's floats.
    """

    nodes: tuple
    r: int
    heads: tuple
    column: tuple

    @cached_property
    def dens(self):
        """``den_i = prod_{j=r..n, j!=i} (x_i - x_j)`` for i = r..n, taken
        left to right over j; an empty product is 1."""
        suffix_nodes = self.nodes[self.r:]
        return tuple(math.prod(xi - xj for j, xj in enumerate(suffix_nodes)
                               if j != i)
                     for i, xi in enumerate(suffix_nodes))

    @cached_property
    def weights(self):
        """``w_i = prod_{j=r..n, j!=i} 1/(x_i - x_j)`` for i = r..n.

        Computed on first use, so the paths that need only ``column`` never
        meet a product that underflows to zero.
        """
        if self.r == len(self.nodes) - 1:
            return (1,)  # empty product; 1 / 1 would make Fraction data float
        return tuple(1 / den for den in self.dens)

    def suffix(self, x):
        """``f[x, x_0..x_{r-1}]`` in barycentric ratio form over the suffix
        nodes; at a suffix node, the stored coefficient."""
        suffix_nodes = self.nodes[self.r:]
        if x in suffix_nodes:
            return self.column[suffix_nodes.index(x)]
        num = 0
        den = 0
        for xi, coeff, w in zip(suffix_nodes, self.column, self.weights):
            c = w / (x - xi)
            num = num + coeff * c
            den = den + c
        return num / den

    def lagrange(self, x):
        """``sum_i column[i] * (num_i / den_i)`` over the suffix nodes i, with
        ``num_i = prod_{j!=i} (x - x_j)`` and ``den_i`` from :attr:`dens`,
        each product left to right and the sum started at its first term.

        The first call forms each ``den_i`` next to its ``num_i`` and keeps
        them, so a plan used once pays no separate denominator pass.  Later
        calls form ``d_j = x - x_j`` once and each ``num_i`` as the running
        product of ``d[:i]`` times ``d[i+1:]``: O(n) Python steps.  A
        one-node suffix gives the stored coefficient itself.
        """
        suffix_nodes, column = self.nodes[self.r:], self.column
        if len(suffix_nodes) == 1:
            return column[0]
        if "dens" not in self.__dict__:
            return self._first_lagrange(x)
        dens = self.dens
        d = [x - xj for xj in suffix_nodes]
        total = column[0] * (math.prod(d[2:], start=d[1]) / dens[0])
        left = d[0]
        for i in range(1, len(d)):
            total = total + column[i] * (math.prod(d[i + 1:], start=left)
                                         / dens[i])
            left = left * d[i]
        return total

    def _first_lagrange(self, x):
        # num_i and den_i formed factor by factor, side by side; den_i kept
        suffix_nodes = self.nodes[self.r:]
        total = None
        dens = []
        for i, (xi, coeff) in enumerate(zip(suffix_nodes, self.column)):
            num = den = None
            for j, xj in enumerate(suffix_nodes):
                if j == i:
                    continue
                if num is None:
                    num, den = x - xj, xi - xj
                else:
                    num, den = num * (x - xj), den * (xi - xj)
            term = coeff * (num / den)
            total = term if total is None else total + term
            dens.append(den)
        self.__dict__["dens"] = tuple(dens)  # the cached_property's own slot
        return total

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


def split_plan(samples: SampleSet, r: int) -> SplitPlan:
    """The :class:`SplitPlan` of ``samples`` at index r.

    Built on the first request and cached on the sample set, keyed by r;
    the cache lives and dies with that one instance, so an equal-comparing
    set of another numeric type never shares its plans.  The columns come
    from :func:`_prefix_column` directly, the same floats as
    :func:`build_new_table` without its table container.
    """
    plan = samples._plans.get(r)
    if plan is None:
        _check_r(r, samples.n)
        xs = samples.nodes
        heads = []
        column = samples.values
        for i in range(1, r + 1):
            heads.append(column[0])
            column = tuple(_prefix_column(column, xs, i))
        plan = SplitPlan(xs, r, tuple(heads), column)
        samples._plans[r] = plan
    return plan


def barycentric_suffix_weights(samples: SampleSet, r: int):
    """Weights ``w_i = prod_{j=r..n, j!=i} 1/(x_i - x_j)`` for i = r..n."""
    return list(split_plan(samples, r).weights)


def extended_dd_eval(samples: SampleSet, r: int, x, barycentric: bool = False):
    """Value of the divided-difference function ``f[x, x_0..x_{r-1}]``.

    Interpolates the prefix-extended divided differences of order r over
    the suffix nodes; exact whenever the data come from a polynomial of
    degree <= n.  ``r = 0`` reduces to plain interpolation of f itself.
    When x coincides with a suffix node the stored nodal value is returned
    directly (the barycentric form falls back to the same value).  The
    column and the weights come from :func:`split_plan`, built once per
    (sample set, r) and cached on the sample set, so the barycentric form
    costs O(n) per point after the first.
    """
    plan = split_plan(samples, r)
    if barycentric or x in plan.nodes[r:]:
        return plan.suffix(x)  # at a suffix node: the stored coefficient
    return _lagrange_sum(plan.nodes[r:], plan.column, x)


def _lagrange_sum(pos, coeffs, s):
    """``sum_i coeffs[i] prod_{j != i} (s - pos[j]) / (pos[i] - pos[j])``,
    each term's factors applied one by one."""
    total = 0
    for i, (pi, term) in enumerate(zip(pos, coeffs)):
        for j, pj in enumerate(pos):
            if j != i:
                term = term * (s - pj) / (pi - pj)
        total = total + term
    return total


# ---------------------------------------------------------------------------
# serialization helpers

def table_from_json(text_or_dict):
    """Rebuild a table container from its JSON form."""
    d = text_or_dict if isinstance(text_or_dict, dict) else json.loads(text_or_dict)
    scheme = d["scheme"]
    cols = tuple(tuple(_from_jsonable(v) for v in col) for col in d["columns"])
    nodes = tuple(_from_jsonable(v) for v in d.get("nodes", ()))
    if scheme == "newton":
        return TriangularTable(nodes, cols)
    if scheme == "new":
        return NewDDTable(nodes, d["r"], cols)
    if scheme == "combined":
        return CombinedTable(nodes, d["r"], cols)
    if scheme == "integer":
        pos = tuple(d.get("positions", ()))
        return IntegerDDTable(pos, d["r"], cols, signed=any(p < 0 for p in pos))
    raise ValueError(f"unknown scheme {scheme!r}")


def _from_jsonable(v):
    if isinstance(v, str):
        return Fraction(v)
    return v


def _render_staggered(table, labels, fmt):
    """Text layout with column ``i`` entry ``j`` on text row ``2j + i``.

    Mirrors the usual staggered presentation where an order-i entry sits
    between the rows of the nodes it couples.  Integer-table window heads
    are shown factorial-normalized, like their divided-difference meaning.
    """
    cols = table.columns
    ncols = len(cols)
    nrows = 2 * len(cols[0]) - 1

    def cell(v):
        if isinstance(v, Fraction):
            return str(v)
        return fmt % v

    grid = [["" for _ in range(ncols + 1)] for _ in range(nrows)]
    xs = getattr(table, "nodes", None) or getattr(table, "positions", None)
    for j in range(len(cols[0])):
        if xs:
            grid[2 * j][0] = cell(xs[j])
    for i in range(ncols):
        for j, v in enumerate(cols[i]):
            if i and isinstance(table, IntegerDDTable) and j == 0:
                v = table.entry_as_dd(i, 0)
            grid[2 * j + i][i + 1] = cell(v)
    if labels is None:
        labels = ["x", "y"] + [f"d{i}" for i in range(1, ncols)]
    widths = [max(len(labels[c]), max((len(row[c]) for row in grid), default=0))
              for c in range(ncols + 1)]
    lines = ["  ".join(lab.rjust(w) for lab, w in zip(labels, widths))]
    for row in grid:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(line.rstrip() for line in lines)
