"""Sample-set and grid containers shared by every other module.

Nodes are kept in the numeric type they arrive in: pass floats for the
ordinary fast path, or :class:`fractions.Fraction` everywhere for exact
arithmetic.  No epsilon-merging is ever applied -- coincident nodes are a
hard error.
"""

from __future__ import annotations

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


class SampleSet(_Record):
    """Ordered distinct abscissae with matching ordinates.

    ``nodes[k]`` carries the k-th abscissa, ``values[k]`` the sampled
    ordinate.  The order is meaningful: prefix-based formulas treat
    ``nodes[:r]`` as the fixed prefix.

    Each instance caches, in two slots that are not fields, what later
    calls at the same set reuse: its split-form plans
    (:func:`divdiff.tables.split_plan`), one per split index r, in a plain
    dict, and the state of the most recent off-node point
    (:func:`divdiff.derivatives._at_point`: the cardinal basis, the rho
    power sums and the table of powers (x_i - x)^k there), replaced whole
    by a new tuple on each change.
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
