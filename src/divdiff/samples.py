"""Sample-set and grid containers, and the cardinal-basis kernel, shared by
every other module.

Nodes are kept in the numeric type they arrive in: pass floats for the
ordinary fast path, or :class:`fractions.Fraction` everywhere for exact
arithmetic.  No epsilon-merging is ever applied -- coincident nodes are a
hard error.
"""

from __future__ import annotations

import functools
import math

_set = object.__setattr__  # bypasses _Record.__setattr__


class _Record:
    """Base of the library's value classes.

    A subclass names its fields in ``_fields``; ``==``, ``hash`` and
    ``repr`` read them in that order.  ``==`` holds only between instances
    of the same class (``NotImplemented`` otherwise), ``hash`` is the hash
    of the field tuple (a TypeError when a field is a list), and assigning
    or deleting an attribute raises AttributeError: ``__init__`` sets the
    fields through :meth:`_init`, or through ``_set`` on a hot path.
    ``copy`` and ``pickle`` rebuild an instance from its fields, so caches
    kept on it start empty.
    """

    __slots__ = ()
    _fields = ()

    def _init(self, *values):
        """Set the fields, in ``_fields`` order, to ``values`` (about
        0.4 us slower than one ``_set`` line per field)."""
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields) + ")"

    def __reduce__(self):
        return self.__class__, self._astuple()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_finite(v, name):
    """ValueError ``name=v is not finite`` when v is an inf or nan float;
    ints and Fractions are always finite."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name}={v} is not finite")


# the most nodes _cardinal, tables._build_plan, SplitPlan.lagrange's first
# use and the untallied derivatives.derivative_uneven hand to a generated
# kernel; larger sets run the loops.  A
# cardinal kernel's compile time and memory grow faster than the count
# squared: 17 nodes cost about 2.5 ms and 0.4 MB of peak RSS, 33 nodes
# 15 ms and 3.5 MB, 129 nodes 0.2 s and 59 MB (Python 3.11, one x86-64 core)
_KERNEL_NODES = 16


def _compile_kernel(lines, label):
    """The function ``kernel`` that the generated source ``lines`` define,
    compiled under the file name ``<label>``.

    Every generated kernel is compiled here.  Its source holds fixed text
    and names built from indices (``x3``, ``c5``, ``w0``) only, never a
    value of the data: a kernel is cached per shape and serves every set
    of that shape.
    """
    namespace = {}
    exec(compile("\n".join(lines), f"<{label}>", "exec"), namespace)
    return namespace["kernel"]


def _cardinal(nodes, x):
    """Cardinal basis values ``L_i(x) = num_i / den_i`` over ``nodes``,
    where ``num_i = prod_{j!=i} (x - x_j)`` and ``den_i = prod_{j!=i}
    (x_i - x_j)``, each product taken factor by factor from its first
    factor.  One node gives ``[1]``.

    The one kernel behind the tallied suffix sum of the split form, the
    off-node derivative and the step-integral weights.  Sets of at most
    :data:`_KERNEL_NODES` nodes run the straight-line kernel of their
    count (:func:`_cardinal_kernel`), larger ones the loop below; both
    form the same differences and products, so floats, Fractions and
    ``OpTally`` counts agree.

    The limit of this form on floats: ``den_i`` is a plain product, so on
    many nodes its running product underflows.  On the Chebyshev nodes
    ``cos(pi k / N)`` it goes subnormal from about N = 770, which costs
    digits (the basis values at x = 0.3 sum to 1 - 2e-6 at N = 800), and
    some ``den_i`` are 0.0 from N = 860, where the division raises
    ZeroDivisionError.
    """
    count = len(nodes)
    if count == 1:
        return [1]
    if count <= _KERNEL_NODES:
        return _cardinal_kernel(count)(nodes, x)
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


@functools.lru_cache(maxsize=None)
def _cardinal_kernel(count):
    """:func:`_cardinal`'s loop for ``count`` >= 2 nodes written out,
    compiled once per count: ``kernel(nodes, x)`` forms each ``num_i`` and
    ``den_i`` as one product, left to right from its first factor, with
    every difference taken anew as the loop takes it."""
    xs = [f"x{j}" for j in range(count)]
    lines = ["def kernel(nodes, x):", f"    {', '.join(xs)}, = nodes"]
    for i, xi in enumerate(xs):
        others = xs[:i] + xs[i + 1:]
        lines += [f"    n{i} = " + " * ".join(f"(x - {j})" for j in others),
                  f"    d{i} = " + " * ".join(f"({xi} - {j})" for j in others)]
    basis = ", ".join(f"n{i} / d{i}" for i in range(count))
    lines.append(f"    return [{basis}]")
    return _compile_kernel(lines, f"cardinal kernel, {count} nodes")


class SampleSet(_Record):
    """Ordered distinct abscissae with matching ordinates.

    ``nodes[k]`` carries the k-th abscissa, ``values[k]`` the sampled
    ordinate.  The order is meaningful: prefix-based formulas treat
    ``nodes[:r]`` as the fixed prefix.

    Each instance caches, in two slots that are not fields, what later
    calls at the same set reuse: its split-form plans
    (:func:`divdiff.tables.split_plan`), one per split index r, in a plain
    dict, and the cardinal basis at the most recent off-node point
    (:func:`divdiff.derivatives._at_point`), replaced whole by a new tuple
    at a new point.
    Neither takes part in ``==``, ``hash`` or ``repr``, and every new
    instance, :meth:`subset` and :meth:`sorted` included, starts with both
    empty.
    """

    _fields = ("nodes", "values")
    __slots__ = _fields + ("_plans", "_point")

    def __init__(self, nodes, values):
        nodes = tuple(nodes)
        values = tuple(values)
        _set(self, "nodes", nodes)
        _set(self, "values", values)
        if len(nodes) != len(values):
            raise ValueError("nodes and values must have equal length")
        if not nodes:
            raise ValueError("need at least one sample")
        for v in nodes + values:
            # ints and Fractions are always finite
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError("non-finite entry in sample set")
        if len(set(nodes)) != len(nodes):
            raise ValueError("coincident nodes")
        _set(self, "_plans", {})
        _set(self, "_point", None)

    @property
    def n(self) -> int:
        """Highest index, i.e. sample count minus one."""
        return len(self.nodes) - 1

    def subset(self, indices):
        """New SampleSet over the selected indices, in the given order."""
        idx = list(indices)
        return SampleSet([self.nodes[i] for i in idx], [self.values[i] for i in idx])

    def sorted(self):
        order = sorted(range(len(self.nodes)), key=lambda i: self.nodes[i])
        return self.subset(order)


class GridSpec(_Record):
    """Evenly spaced node layout ``origin + i*step`` for i in -backward..forward."""

    __slots__ = _fields = ("origin", "step", "forward_count", "backward_count")

    def __init__(self, origin, step, forward_count=0, backward_count=0):
        # ints and Fractions are always finite
        if step == 0 or isinstance(step, float) and not math.isfinite(step):
            raise ValueError("step must be finite and nonzero")
        if forward_count < 0 or backward_count < 0:
            raise ValueError("counts must be nonnegative")
        self._init(origin, step, forward_count, backward_count)

    def offsets(self):
        return list(range(-self.backward_count, self.forward_count + 1))

    def nodes(self):
        return [self.origin + i * self.step for i in self.offsets()]

    def sample(self, func) -> SampleSet:
        xs = self.nodes()
        return SampleSet(xs, [func(x) for x in xs])


def uniform_step(nodes, rel_tol=1e-12):
    """Return the common spacing of ``nodes`` or None if they are not a grid.

    Detection only: the node values themselves are never altered.  The
    spacing is ``(x_n - x_0)/n`` and every gap must match it to ``rel_tol``
    relatively.
    """
    xs = list(nodes)
    if len(xs) < 2:
        return None
    h = (xs[-1] - xs[0]) / (len(xs) - 1)
    if h == 0:
        return None
    for a, b in zip(xs, xs[1:]):
        if abs((b - a) - h) > rel_tol * abs(h):
            return None
    return h
