"""Integration weights from the Taylor-plus-recursive-derivative construction.

The step-h integral of the interpolant is expanded through the same
convolved coefficient sets the derivative formulas use; collecting powers
gives per-node weights.  Grid rules integrate the integer Lagrange basis,
giving the closed even-spacing families (trapezoid, the 1-4-1 rule, ...)
in integers, one Fraction per weight, converted to float only when
applied to float data.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .derivatives import (_at_point, _convolved_coeffs, _ExactRule,
                          _lagrange_rows, _weighted_sum)
from .samples import SampleSet, _check_finite, _Record


class UnevenQuadPlan(_Record):
    """Weights for the integral from x to x+h against uneven samples."""

    __slots__ = _fields = ("x", "h", "rho", "a_coeffs", "gamma",
                           "node_weights")

    def __init__(self, x, h, rho, a_coeffs, gamma, node_weights):
        self._init(x, h, rho, a_coeffs, gamma, node_weights)

    def apply(self, values):
        if len(values) != len(self.node_weights):
            raise ValueError("value count does not match the rule")
        return _weighted_sum(self.node_weights, values)


def uneven_quad_plan(samples: SampleSet, x, h) -> UnevenQuadPlan:
    """Build node weights for the step integral anchored off-node at x."""
    n = samples.n
    _check_finite(h, "h")
    basis, rho, _ = _at_point(
        samples, x, n, "x coincides with a node; shift the anchor slightly")
    rho = rho[:n + 1]  # an earlier, higher request may have left more
    xs = samples.nodes
    a = _convolved_coeffs(rho, n) if n else [1]
    gamma = []
    for k in range(n + 1):
        acc = h ** (k + 1) / (k + 1)
        for j in range(1, n - k + 1):
            acc = acc + a[j] * h ** (k + j + 1) / (k + j + 1)
        gamma.append(acc)
    weights = []
    # ``**`` rounds differently from the power table's repeated products,
    # so these powers stay as they are
    for i in range(n + 1):
        bracket = gamma[0]
        for k in range(1, n + 1):
            bracket = bracket + gamma[k] / (xs[i] - x) ** k
        weights.append(basis[i] * bracket)
    return UnevenQuadPlan(x, h, rho[1:], tuple(a), tuple(gamma),
                          tuple(weights))


def quad_uneven(samples: SampleSet, x, h):
    """Integral of the sampled function over [x, x+h].

    Exact for polynomial data of degree <= n; accuracy is only claimed for
    x and x+h near the node hull.
    """
    return uneven_quad_plan(samples, x, h).apply(samples.values)


class EvenQuadPlan(_ExactRule):
    """Closed even-grid rule over offsets 0..n, ``node_weights`` (exact
    Fractions) in h units; the weights sum to n.  :class:`CentralQuadPlan`
    shares its ``apply``."""

    _fields = ("n", "node_weights")

    def __init__(self, n, node_weights):
        self._init(n, node_weights)

    _exact = property(operator.attrgetter("node_weights"))

    def apply(self, values, h):
        return self._typed_sum(values) * h

    def to_json_dict(self):
        num, den = self.integer_image
        return {"n": self.n, "weights_num": list(num), "weights_den": den}

    def display(self) -> str:
        num, den = self.integer_image
        return f"h/{den} * ({', '.join(str(v) for v in num)})"


@functools.lru_cache(maxsize=None)
def even_quad_weights(n: int) -> EvenQuadPlan:
    """Weights integrating samples at a, a+h, ..., a+nh over [a, a+nh].

    Node i's cardinal polynomial integrated over [0, n]: sum_k q_i[k]
    n^(k+1) / (k+1) over d_i, summed over the denominator lcm(1..n+1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lcm = math.lcm(*range(1, n + 2))
    moments = [n ** (k + 1) * (lcm // (k + 1)) for k in range(n + 1)]
    return EvenQuadPlan(n, tuple(
        Fraction(sum(map(operator.mul, q, moments)), lcm * d)
        for q, d in _lagrange_rows(0, n, n)))


class CentralQuadPlan(EvenQuadPlan):
    """The even rule over 2n steps read as offsets -n..n: the integral over
    [a-nh, a+nh], ``n`` the half-width; the weights are palindromic."""


@functools.lru_cache(maxsize=None)
def central_quad_weights(n: int) -> CentralQuadPlan:
    """The even rule over 2n steps, read as offsets -n..n: both integrate
    the interpolant through the same 2n+1 nodes over the same interval."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CentralQuadPlan(n, even_quad_weights(2 * n).node_weights)


def quad_composite(f, p, q, panels: int, rule: EvenQuadPlan | int = 2):
    """Composite application of an even-grid rule over [p, q].

    ``f`` is either a sampler called on each panel's local grid, or a
    sequence of ``panels * n + 1`` equally spaced values spanning [p, q]
    (shared panel endpoints).  Panels are sampled and summed in index
    order, so results are deterministic.  ``rule`` may be a plan or the
    per-panel subdivision count n.  Float values run the rule's panel
    kernel, one pass that checks each type once and is bit-identical to
    the sum of ``plan.apply`` over the panels; once a value is not a
    float, each panel is the rule's typed sum, as in ``plan.apply``, and
    exact values give an exact total.
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
        # each panel samples its own n + 1 points
        flat = [f(p + i * width + j * h)
                for i in range(panels) for j in range(n + 1)]
        stride = n + 1
    else:
        flat = f if isinstance(f, (list, tuple)) else list(f)
        if len(flat) != panels * n + 1:
            raise ValueError(f"need {panels * n + 1} values for "
                             f"{panels} panels of the n={n} rule")
        stride = n
    total = plan._panel_sum(flat, stride, h)
    if total is None:
        total = 0
        for start in range(0, panels * stride, stride):
            total += plan._typed_sum(flat[start:start + n + 1]) * h
    return total
