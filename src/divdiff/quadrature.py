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
                          _integer_image, _lagrange_rows, _power_sums,
                          _weighted_sum)
from .samples import SampleSet, _as_order, _check_finite, _Record


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
    xs = samples.nodes
    basis = _at_point(
        samples, x, "x coincides with a node; shift the anchor slightly")
    rho = _power_sums(xs, basis, x, n)[0]
    a = _convolved_coeffs(rho, n) if n else [1]
    gamma = []
    for k in range(n + 1):
        acc = h ** (k + 1) / (k + 1)
        for j in range(1, n - k + 1):
            acc = acc + a[j] * h ** (k + j + 1) / (k + j + 1)
        gamma.append(acc)
    weights = []
    # ``**`` rounds differently from the repeated products of the rho
    # sums' powers, so these powers stay as they are
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


class EvenQuadPlan(_ExactRule):
    """Closed even-grid rule over offsets 0..n, ``node_weights`` (exact
    Fractions) in h units; the weights sum to n, and ``apply`` scales by h."""

    _fields = ("n", "node_weights")

    def __init__(self, n, node_weights):
        self._init(n, node_weights)

    _exact = functools.cached_property(operator.attrgetter("node_weights"))
    _order = None

    def to_json_dict(self):
        num, den = self.integer_image
        return {"n": self.n, "weights_num": list(num), "weights_den": den}

    def display(self) -> str:
        num, den = self.integer_image
        return f"h/{den} * ({', '.join(str(v) for v in num)})"


@functools.lru_cache(maxsize=None, typed=True)
def even_quad_weights(n: int) -> EvenQuadPlan:
    """Weights integrating samples at a, a+h, ..., a+nh over [a, a+nh].

    Node i's cardinal polynomial integrated over [0, n]: sum_k q_i[k]
    n^(k+1) / (k+1) over d_i, summed over the denominator lcm(1..n+1).
    Cached per n and its type, as :func:`stencil_weights` is.
    """
    n = _as_order(n, "n", 1)
    lcm = math.lcm(*range(1, n + 2))
    moments = [n ** (k + 1) * (lcm // (k + 1)) for k in range(n + 1)]
    return EvenQuadPlan(n, tuple(
        Fraction(sum(map(operator.mul, q, moments)), lcm * d)
        for q, d in _lagrange_rows(0, n, n)))


class CentralQuadPlan(EvenQuadPlan):
    """The even rule over 2n steps read as offsets -n..n: the integral over
    [a-nh, a+nh], ``n`` the half-width; the weights are palindromic."""


@functools.lru_cache(maxsize=None, typed=True)
def central_quad_weights(n: int) -> CentralQuadPlan:
    """The even rule over 2n steps, read as offsets -n..n: both integrate
    the interpolant through the same 2n+1 nodes over the same interval."""
    n = _as_order(n, "n", 1)
    return CentralQuadPlan(n, even_quad_weights(2 * n).node_weights)


def quad_composite(f, p, q, panels: int, rule: EvenQuadPlan | int = 2):
    """Composite application of an even-grid rule over [p, q].

    ``f`` is either a sampler called on each panel's local grid, in panel
    order, or a sequence of ``panels * n + 1`` equally spaced values
    spanning [p, q] (shared panel endpoints).  ``rule`` may be a plan or
    the per-panel subdivision count n.

    The total is ``plan.apply`` over the n + 1 column sums C_j, C_j the
    sum of every panel's value at offset j: when every value is exactly an
    int or a Fraction, an integer sum over their common denominator, made
    one Fraction, so the total is the Fraction of summing the panels'
    exact sums; otherwise the built-in ``sum``.  Any float gives a float
    within
    gamma_(panels + n + 2) * h * sum_j |w_j| * sum_i |v_ij|
    of the exact composite of the same values, the bound of a per-panel
    sum, when no product underflows (each of the n + 2 products that does
    adds at most half the smallest subnormal, times h for the n + 1
    weight products); its last bits need not be those of summing
    ``plan.apply`` over the panels, and since Python 3.12 compensates a
    float ``sum`` they can differ between interpreter versions, though
    not between runs on one.  A float total that is not finite (a column
    past the float maximum, or an inf or nan in the data) is recomputed as
    that per-panel sum from int 0, which scales each panel by h first: it
    keeps a finite per-panel composite finite and the sign of an inf.
    """
    if not p < q:
        raise ValueError("need p < q")
    panels = _as_order(panels, "panels", 1)
    plan = (rule if isinstance(rule, EvenQuadPlan)
            else even_quad_weights(_as_order(rule, "rule", 1)))
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
    stop = panels * stride
    image = None if type(flat[0]) is float else _integer_image(flat)
    if image is None:
        # an int start keeps an exact column exact, and never -0.0
        columns = [sum(flat[j:j + stop:stride]) for j in range(n + 1)]
    else:
        ints, scale = image
        columns = [Fraction(sum(ints[j:j + stop:stride]), scale)
                   for j in range(n + 1)]
    total = plan.apply(columns, h)
    if isinstance(total, float) and not math.isfinite(total):
        total = 0
        for start in range(0, stop, stride):
            total += plan.apply(flat[start:start + n + 1], h)
    return total
