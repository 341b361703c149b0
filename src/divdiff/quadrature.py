"""Integration weights from the Taylor-plus-recursive-derivative construction.

The step-h integral of the interpolant is expanded through the same
convolved coefficient sets the derivative formulas use; collecting powers
gives per-node weights.  Grid rules come out as the classical closed
even-spacing families (trapezoid, the 1-4-1 rule, ...) and are built in
exact rational arithmetic, converting to float only when applied to float
data.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .derivatives import (_basis_values, _convolved_coeffs, _ExactRule,
                          _rho_values, _weighted_sum, central_coeffs,
                          forward_coeffs)
from .samples import SampleSet


@dataclass(frozen=True)
class UnevenQuadPlan:
    """Weights for the integral from x to x+h against uneven samples."""

    x: object
    h: object
    rho: tuple
    a_coeffs: tuple
    gamma: tuple
    node_weights: tuple

    def apply(self, values):
        if len(values) != len(self.node_weights):
            raise ValueError("value count does not match the rule")
        return _weighted_sum(self.node_weights, values)


def uneven_quad_plan(samples: SampleSet, x, h) -> UnevenQuadPlan:
    """Build node weights for the step integral anchored off-node at x."""
    n = samples.n
    if any(x == xi for xi in samples.nodes):
        raise ValueError("x coincides with a node; shift the anchor slightly")
    xs = samples.nodes
    basis = _basis_values(xs, x)
    rho = _rho_values(xs, basis, x, n)
    a = _convolved_coeffs(rho, n) if n else [1]
    gamma = []
    for k in range(n + 1):
        acc = h ** (k + 1) / (k + 1)
        for j in range(1, n - k + 1):
            acc = acc + a[j] * h ** (k + j + 1) / (k + j + 1)
        gamma.append(acc)
    weights = []
    for i in range(n + 1):
        bracket = gamma[0]
        for k in range(1, n + 1):
            bracket = bracket + gamma[k] / (xs[i] - x) ** k
        weights.append(basis[i] * bracket)
    return UnevenQuadPlan(x, h, tuple(rho[1:]), tuple(a), tuple(gamma),
                          tuple(weights))


def quad_uneven(samples: SampleSet, x, h):
    """Integral of the sampled function over [x, x+h].

    Exact for polynomial data of degree <= n; accuracy is only claimed for
    x and x+h near the node hull.
    """
    return uneven_quad_plan(samples, x, h).apply(samples.values)


class _GridQuadPlan(_ExactRule):
    """JSON and text forms of an exact grid rule: ``n`` and
    ``node_weights`` in h units.  Each subclass defines its own ``apply``,
    the rule's typed sum times h."""

    _exact = property(operator.attrgetter("node_weights"))

    def to_json_dict(self):
        num, den = self.integer_image
        return {"n": self.n, "weights_num": list(num), "weights_den": den}

    def display(self) -> str:
        num, den = self.integer_image
        return f"h/{den} * ({', '.join(str(v) for v in num)})"


@dataclass(frozen=True)
class EvenQuadPlan(_GridQuadPlan):
    """Closed even-grid rule over offsets 0..n; weights are in h units."""

    n: int
    u_coeffs: tuple
    a_hat: tuple
    xi: tuple
    node_weights: tuple  # exact Fractions summing to n

    def apply(self, values, h):
        return self._typed_sum(values) * h


@functools.lru_cache(maxsize=None)
def even_quad_weights(n: int) -> EvenQuadPlan:
    """Weights integrating samples at a, a+h, ..., a+nh over [a, a+nh]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    co = forward_coeffs(n, n)
    a = co.a_hat
    xi = []
    for k in range(n + 1):
        acc = Fraction(n ** (k + 1), k + 1)
        for j in range(1, n - k + 1):
            acc += a[j] * Fraction(n ** (k + j + 1), k + j + 1)
        xi.append(acc)
    weights = [xi[0]]
    for i in range(1, n + 1):
        bracket = sum(xi[k] / Fraction(i ** k) for k in range(1, n + 1))
        weights.append((-1) ** (i - 1) * math.comb(n, i) * bracket)
    return EvenQuadPlan(n, co.U, a, tuple(xi), tuple(weights))


def quad_even(values, h):
    """Apply the closed even-grid rule matching the sample count."""
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("need at least two values")
    return even_quad_weights(len(vals) - 1).apply(vals, h)


@dataclass(frozen=True)
class CentralQuadPlan(_GridQuadPlan):
    """Symmetric rule over offsets -n..n for the integral over [a-nh, a+nh]."""

    n: int
    A: tuple
    V: tuple
    a_tilde: tuple
    xi_even: tuple
    node_weights: tuple  # over offsets -n..n, palindromic

    def apply(self, values, h):
        return self._typed_sum(values) * h


@functools.lru_cache(maxsize=None)
def central_quad_weights(n: int) -> CentralQuadPlan:
    if n < 1:
        raise ValueError("n must be >= 1")
    co = central_coeffs(n, 2 * n)
    at, A = co.a_tilde, co.A
    xi = []
    for k in range(n + 1):
        acc = Fraction(0)
        for j in range(0, 2 * (n - k) + 1, 2):
            acc += Fraction(n ** (2 * k + j + 1), 2 * k + j + 1) * at[j]
        xi.append(acc)
    w = {0: 2 * xi[0]}
    for i in range(1, n + 1):
        bracket = sum(xi[k] / Fraction(i ** (2 * k)) for k in range(1, n + 1))
        w[i] = w[-i] = 2 * A[i] * bracket
    offsets = range(-n, n + 1)
    return CentralQuadPlan(n, A, co.V, at, tuple(xi),
                           tuple(w[i] for i in offsets))


def quad_central(values, h):
    """Symmetric-grid integral over [a-nh, a+nh] from 2n+1 samples."""
    vals = list(values)
    if len(vals) % 2 == 0:
        raise ValueError("need a symmetric sample with odd length")
    if len(vals) < 3:
        raise ValueError("need at least three values")
    return central_quad_weights((len(vals) - 1) // 2).apply(vals, h)


def quad_composite(f, p, q, panels: int, rule: EvenQuadPlan | int = 2):
    """Composite application of an even-grid rule over [p, q].

    ``f`` is either a sampler called on each panel's local grid, or a
    sequence of ``panels * n + 1`` equally spaced values spanning [p, q]
    (shared panel endpoints).  Panels are evaluated in index order, so
    results are deterministic.  ``rule`` may be a plan or the per-panel
    subdivision count n.  The value types are checked once: when every
    value is a float, each panel is the rule's float image applied to its
    values, the same sum ``plan.apply`` forms; otherwise each panel is the
    rule's typed sum, as in ``plan.apply``.
    """
    if not p < q:
        raise ValueError("need p < q")
    if panels < 1:
        raise ValueError("panels must be >= 1")
    plan = even_quad_weights(rule) if isinstance(rule, int) else rule
    n = plan.n
    if len(plan.node_weights) != n + 1:
        raise ValueError("a composite needs an even-grid rule, "
                         "n + 1 weights over offsets 0..n")
    width = (q - p) / panels
    h = width / n
    # h is inf or nan exactly when the panel width is
    if isinstance(h, float) and not math.isfinite(h):
        raise ValueError(f"panel step over [{p}, {q}] is not finite ({h})")
    if callable(f):
        panel_values = [
            [f(p + i * width + j * h) for j in range(n + 1)]
            for i in range(panels)]
        kinds = {type(v) for vals in panel_values for v in vals}
    else:
        flat = list(f)
        if len(flat) != panels * n + 1:
            raise ValueError(f"need {panels * n + 1} values for "
                             f"{panels} panels of the n={n} rule")
        panel_values = [flat[i * n:i * n + n + 1] for i in range(panels)]
        kinds = set(map(type, flat))
    panel_sum = (functools.partial(_weighted_sum, plan.float_image)
                 if kinds == {float} else plan._typed_sum)
    total = 0.0
    for vals in panel_values:
        total += panel_sum(vals) * h
    return total
