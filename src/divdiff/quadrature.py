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
from fractions import Fraction

from .derivatives import (_at_point, _convolved_coeffs, _ExactRule,
                          _node_weights, _weighted_sum, twosided_coeffs)
from .samples import SampleSet, _check_finite, _compile_kernel, _Record


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

    The node weights of the one-sided solve, fed the Taylor coefficients
    xi_k = sum_j a_hat[j] n^(k+j+1) / (k+j+1) of the step integral.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    co = twosided_coeffs(0, n, n)
    a = co.a_hat
    xi = [sum(a[j] * Fraction(n ** (k + j + 1), k + j + 1)
              for j in range(n - k + 1)) for k in range(n + 1)]
    return EvenQuadPlan(n, _node_weights(co, xi))


def quad_even(values, h):
    """Apply the closed even-grid rule matching the sample count."""
    vals = list(values)
    if len(vals) < 2:
        raise ValueError("need at least two values")
    return even_quad_weights(len(vals) - 1).apply(vals, h)


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


def quad_central(values, h):
    """Symmetric-grid integral over [a-nh, a+nh] from 2n+1 samples."""
    vals = list(values)
    if len(vals) % 2 == 0:
        raise ValueError("need a symmetric sample with odd length")
    if len(vals) < 3:
        raise ValueError("need at least three values")
    return central_quad_weights((len(vals) - 1) // 2).apply(vals, h)


# terms per statement of a generated panel sum; one long expression
# nests one level per term and overflows the compiler at a few thousand
_STATEMENT_TERMS = 32


@functools.lru_cache(maxsize=None)
def _panel_kernel(width):
    """The straight-line kernel for rules of ``width`` weights, compiled
    once per width: ``kernel(columns, h, w0, ..., w<width-1>)`` runs one
    loop over the panels, each panel's values unpacked from the columns,
    with the panel sum written out term by term.

    Its source holds index-named identifiers only (``w<j>``, ``v<j>``),
    the rule of :func:`divdiff.samples._compile_kernel`.  The sum is split
    into statements of at most ``_STATEMENT_TERMS`` terms, ``s = s + ...``
    after the first, so the compiler's depth stays flat at any width;
    every addition is still left to right.
    """
    ws = ", ".join(f"w{j}" for j in range(width))
    vs = ", ".join(f"v{j}" for j in range(width))
    terms = [f"w{j} * v{j}" for j in range(width)]
    sums = [" + ".join(terms[k:k + _STATEMENT_TERMS])
            for k in range(0, width, _STATEMENT_TERMS)]
    return _compile_kernel([
        f"def kernel(columns, h, {ws}):",
        "    total = 0.0",
        f"    for {vs}, in zip(*columns):",
        f"        s = {sums[0]}",
        *(f"        s = s + {part}" for part in sums[1:]),
        "        total = total + s * h",
        "    return total",
    ], f"panel kernel, width {width}")


def _columnar_sum(weights, flat, stride, panels, h):
    """``sum_i (sum_j weights[j] * flat[i*stride + j]) * h`` over panels i,
    every sum left to right and the total started at 0.0: the per-panel
    ``_weighted_sum`` times h, run by the generated kernel of the rule's
    width (``_panel_kernel``) over the strided slices that hold the j-th
    value of every panel.

    A panel sum starts at its first product, where ``_weighted_sum`` adds
    it to 0; that can flip only the sign of a zero panel sum, and the
    total's ``0.0 +`` absorbs that.  Builtin ``sum`` is compensated from
    Python 3.12 on, so the total is a plain left fold.
    """
    stop = panels * stride
    columns = [flat[j:stop + j:stride] for j in range(len(weights))]
    return _panel_kernel(len(weights))(columns, h, *weights)


def quad_composite(f, p, q, panels: int, rule: EvenQuadPlan | int = 2):
    """Composite application of an even-grid rule over [p, q].

    ``f`` is either a sampler called on each panel's local grid, or a
    sequence of ``panels * n + 1`` equally spaced values spanning [p, q]
    (shared panel endpoints).  Panels are sampled and summed in index
    order, so results are deterministic.  ``rule`` may be a plan or the
    per-panel subdivision count n.  The value types are checked once.
    When every value is a float, one straight-line kernel, generated and
    compiled once per rule width, applies the rule's float image to all
    panels in one loop: column j holds the j-th value of every panel, each
    panel sum adds the same products ``plan.apply`` forms in the same
    order (in statements of at most 32 terms, whose source holds only
    index-built names), and the panel sums times h are totalled left to
    right, so the result is bit-identical to the sum of ``plan.apply``
    over the panels.  Otherwise each panel is the rule's typed sum, as in
    ``plan.apply``, and exact values give an exact total.
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
        # each panel samples its own n + 1 points, so panel i starts at
        # i * (n + 1)
        flat = [f(p + i * width + j * h)
                for i in range(panels) for j in range(n + 1)]
        stride = n + 1
    else:
        flat = f if isinstance(f, (list, tuple)) else list(f)
        if len(flat) != panels * n + 1:
            raise ValueError(f"need {panels * n + 1} values for "
                             f"{panels} panels of the n={n} rule")
        stride = n
    if set(map(type, flat)) == {float}:
        return _columnar_sum(plan.float_image, flat, stride, panels, h)
    total = 0
    for start in range(0, panels * stride, stride):
        total += plan._typed_sum(flat[start:start + n + 1]) * h
    return total
