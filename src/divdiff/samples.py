"""Sample-set and grid containers shared by every other module.

Nodes are kept in the numeric type they arrive in: pass floats for the
ordinary fast path, or :class:`fractions.Fraction` everywhere for exact
arithmetic.  No epsilon-merging is ever applied -- coincident nodes are a
hard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_finite(v, name):
    """ValueError ``name=v is not finite`` when v is an inf or nan float;
    ints and Fractions are always finite."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"{name}={v} is not finite")


@dataclass(frozen=True)
class SampleSet:
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

    nodes: tuple
    values: tuple

    def __init__(self, nodes, values):
        nodes = tuple(nodes)
        values = tuple(values)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
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
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_point", None)

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


@dataclass(frozen=True)
class GridSpec:
    """Evenly spaced node layout ``origin + i*step`` for i in -backward..forward."""

    origin: float
    step: float
    forward_count: int = 0
    backward_count: int = 0

    def __post_init__(self):
        step = self.step  # ints and Fractions are always finite
        if step == 0 or isinstance(step, float) and not math.isfinite(step):
            raise ValueError("step must be finite and nonzero")
        if self.forward_count < 0 or self.backward_count < 0:
            raise ValueError("counts must be nonnegative")

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
