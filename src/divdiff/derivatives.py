"""Arbitrary-order numerical differentiation.

Three routes to the same quantity:

* a recursive-coefficient solve at an off-node point x (the power sums of
  the reciprocal node distances, weighted by the cardinal basis of
  :func:`divdiff.samples._cardinal`, feed a convolution recurrence for the
  bracket coefficients; :func:`_at_point` keeps the basis on the sample
  set for the most recent point, and each call forms the powers
  (x_i - x)^k anew by one product each, so after the basis an order-t
  derivative costs O(n t) operations in :func:`_deriv_loop`, in its trace
  where that fits the tracer's budget, compiled once per (node count,
  order, form); the tallied path is the reference route,
  which rebuilds every power factor by factor at O(n t^2) and is what
  :func:`diff_op_counts` and ``--opcount`` count),
* grid formulas (one-sided, two-sided, symmetric), all taking one path:
  the exact weights of :func:`stencil_weights`, from the integer Lagrange
  basis, built once per (m, n, t) and cached, applied to the data, and
* a linear combination over all node subsets of fixed-order divided
  differences,

plus a truncated two-sided alternating series for smooth functions on an
infinite grid.  Grid weights are built in integers, one Fraction each,
and meet floats only at the data boundary; they equal the paper's.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .counting import OpCounts
from .samples import (SampleSet, _as_order, _cardinal, _cardinal_loop,
                      _charge, _check_finite, _compile_kernel, _Record, _set,
                      _trace)

_SUBSET_LIMIT = 10 ** 6


# ---------------------------------------------------------------------------
# off-node recursive path

def _rho_values(nodes, basis, x, kmax):
    """``[None, rho_1 .. rho_kmax]``, the power sums
    rho_k = sum_i L_i / (x_i - x)^k: the reference route of the tallied
    path.

    Each power is rebuilt factor by factor from fresh differences, so
    rho_1..rho_K cost (n+1) K(K-1)/2 multiplications; this is the costing
    convention the closed-form operation counts (:func:`diff_op_counts`,
    ``--opcount``) assume.  The untallied routes form the same powers by
    one product each (:func:`_power_sums`, :func:`_deriv_loop`).
    """
    rho = [None]
    for k in range(1, kmax + 1):
        acc = None
        for i, xi in enumerate(nodes):
            pw = xi - x
            for _ in range(k - 1):
                pw = pw * (xi - x)
            term = basis[i] / pw
            acc = term if acc is None else acc + term
        rho.append(acc)
    return rho


def _check_point(samples, x, at_node):
    """ValueError when x is inf or nan, or, with message ``at_node``, when
    x is one of the nodes."""
    _check_finite(x, "x")
    if x in samples.nodes:
        raise ValueError(at_node)


def _at_point(samples, x, at_node):
    """The cardinal basis at off-node x, kept on ``samples`` for the most
    recent point: the basis of :func:`rho_coeffs` and the step integral.

    The slot holds ``((type(x), x), basis)`` and is replaced whole by a new
    tuple at a new point; a repeat skips :func:`_cardinal`.  A miss checks
    x first (:func:`_check_point`, with the route's ``at_node`` message),
    so inf and nan never become a key.  :func:`derivative_uneven` reads
    the same slot, and at a new point fills it, in this format, from the
    kernel that also forms the derivative (:func:`_point_deriv`).
    """
    key = (type(x), x)
    state = samples._point
    if state is not None and state[0] == key:
        return state[1]
    _check_point(samples, x, at_node)
    basis = tuple(_cardinal(samples.nodes, x))
    _set(samples, "_point", (key, basis))
    return basis


def _power_sums(nodes, basis, x, kmax):
    """``(None, rho_1 .. rho_kmax)`` and the powers ``(None, P_1 ..
    P_kmax)``, ``P_k[i] = (x_i - x)^k``, uncached.

    P_1 is formed once and each P_k is ``P_(k-1) * P_1`` element by
    element, the same left-to-right products :func:`_rho_values` forms, so
    rho_k, the sum of ``L_i / P_k[i]``, is bit-identical to it at n+1
    multiplications per k instead of (n+1)(k-1).
    """
    powers = [None, tuple([xi - x for xi in nodes])][:kmax + 1]
    for k in range(2, kmax + 1):
        powers.append(tuple(map(operator.mul, powers[k - 1], powers[1])))
    return [None] + [functools.reduce(operator.add, map(
        operator.truediv, basis, pk)) for pk in powers[1:]], powers


def _convolved_coeffs(power_sums, t, one=1):
    """a_0 = 1, a_k = -(s_k a_0 + s_{k-1} a_1 + ... + s_1 a_{k-1})."""
    a = [one]
    for k in range(1, t + 1):
        acc = power_sums[k] * a[0]
        for m in range(1, k):
            acc = acc + power_sums[k - m] * a[m]
        a.append(-acc)
    return a


class RhoSet(_Record):
    """rho_1..rho_k at a point; rho_0 is 1 by convention."""

    __slots__ = _fields = ("values",)

    def __init__(self, values):
        self._init(values)

    def __getitem__(self, m):
        if m == 0:
            return 1
        if m < 0:
            raise IndexError(f"rho index {m} is negative")
        return self.values[m - 1]


def rho_coeffs(samples: SampleSet, x, kmax: int) -> RhoSet:
    """Reciprocal-distance power sums at x (x must not be a node)."""
    kmax = _as_order(kmax, "kmax", 1)
    basis = _at_point(samples, x, "rho undefined at node")
    return RhoSet(tuple(_power_sums(samples.nodes, basis, x, kmax)[0][1:]))


def _deriv_loop(nodes, values, basis, x, *, t, known):
    """The untallied ``sum_i bracket_i * f_i * b_i`` and a_t, each bracket
    the reference loop's, ``+ a_t`` unless ``known`` (f(x) given)."""
    rho, powers = _power_sums(nodes, basis, x, t)
    a = _convolved_coeffs(rho, t)
    brackets = [a[0] / p for p in powers[t]]
    for m in range(1, t):
        brackets = [g + a[m] / p for g, p in zip(brackets, powers[t - m])]
    if not known:
        brackets = [g + a[t] for g in brackets]
    return functools.reduce(operator.add, map(
        operator.mul, map(operator.mul, brackets, values), basis)), a[t]


def derivative_uneven(samples: SampleSet, x, t: int, fx=None, tally=None):
    """t-th derivative at off-node x from unevenly spaced samples.

    Exact for polynomial data of degree <= n.  Supply ``fx`` to use the
    known-value form (the final coefficient multiplies f(x) itself instead
    of its interpolated stand-in).  Without a tally, a point new to the
    set runs one kernel for the cardinal basis and the derivative
    (:func:`_point_deriv`) and keeps the basis in :func:`_at_point`'s slot;
    at that point later orders and forms run :func:`_deriv_loop` on it.
    With a tally, the value is :func:`_reference_deriv`'s, and the tally
    is charged that loop's operations on data at this shape, whose
    interior count is :func:`diff_op_counts`.
    """
    t = _as_order(t, "t", 1, samples.n)
    at_node = ("x coincides with a node; use a grid formula or "
               "derivative_lincomb")
    if fx is not None:
        _check_finite(fx, "fx")
    nodes, values = samples.nodes, samples.values
    count, known = len(nodes), fx is not None
    if tally is None:
        key, state = (type(x), x), samples._point
        if state is not None and state[0] == key:
            total, last = _trace(_deriv_loop, count, count, count, None, t,
                                 known)(nodes, values, state[1], x)
        else:
            _check_point(samples, x, at_node)
            basis, total, last = _trace(_point_deriv, count, count, None, t,
                                        known)(nodes, values, x)
            _set(samples, "_point", (key, basis))
        if known:
            total = total + last * fx
        return total * math.factorial(t)
    _check_point(samples, x, at_node)
    total = _reference_deriv(nodes, values, x, fx, t=t, known=known)
    _charge(tally, _reference_deriv, count, count, None, None, t, known)
    return total * math.factorial(t)


def _point_deriv(nodes, values, x, *, t, known):
    """:func:`derivative_uneven` at a new point: the basis of
    :func:`~divdiff.samples._cardinal_loop`, as a tuple for the point slot
    of :func:`_at_point`, then :func:`_deriv_loop` on it."""
    basis = tuple(_cardinal_loop(nodes, x))
    return (basis, *_deriv_loop(nodes, values, basis, x, t=t, known=known))


def _reference_deriv(nodes, values, x, fx, *, t, known):
    """The tallied :func:`derivative_uneven` before its t!: the reference
    route whose count is :func:`diff_op_counts`, each power rebuilt factor
    by factor, ``+ a_t * fx`` when ``known``, else ``+ a_t`` per node."""
    basis = _cardinal_loop(nodes, x)
    rho = _rho_values(nodes, basis, x, t)
    a = _convolved_coeffs(rho, t)
    total = None
    for xi, f, b in zip(nodes, values, basis):
        inner = functools.reduce(operator.add, [a[m] / functools.reduce(
            operator.mul, [xi - x for _ in range(t - m)]) for m in range(t)])
        if not known:
            inner = inner + a[t]
        total = inner * f * b if total is None else total + inner * f * b
    if known:
        total = total + a[t] * fx
    return total


# ---------------------------------------------------------------------------
# grid coefficient sets (exact, from integers)

def _lagrange_rows(m: int, n: int, degree: int):
    """Per offset i of -m..n, the integers q_i, coefficients 0..degree of
    prod_{j!=i} (s-j), and d_i = prod_{j!=i} (i-j) = +-(i+m)! (n-i)!: node
    i's cardinal polynomial is q_i / d_i.  With omega = prod_j (s-j) cut
    past s^(degree+1), q[k] = (q[k-1] - omega[k]) / i divides exactly."""
    omega = [1]
    for j in range(-m, n + 1):
        omega = [a - j * b for a, b in zip([0, *omega], [*omega, 0])]
        del omega[degree + 2:]
    fact = [1]
    for k in range(1, m + n + 1):
        fact.append(fact[-1] * k)
    rows = []
    for i in range(-m, n + 1):
        if i:
            q, prev = [], 0
            for c in omega[:-1]:
                prev = (prev - c) // i
                q.append(prev)
        else:
            q = omega[1:]
        rows.append((q, (-1) ** (n - i) * fact[i + m] * fact[n - i]))
    return rows


# ---------------------------------------------------------------------------
# grid derivative evaluators

@functools.lru_cache(maxsize=None, typed=True)
def _grid_stencil(m, count, t):
    """The stencil of a grid derivative over ``count`` values at the node
    with ``m`` of them to its left, once t passes its one check: cached per
    (m, count, t) and their types, so a repeat request checks nothing."""
    t = _as_order(t, "t", 1, count - 1)
    return stencil_weights(m, count - 1 - m, t)


def forward_derivative(values, h, t: int):
    """t-th derivative at the leftmost node of an even grid.

    ``values`` are f at a, a+h, ..., a+nh; accuracy degrades like
    O(h^(n+1-t)).
    """
    vals = values if isinstance(values, (list, tuple)) else list(values)
    return _grid_stencil(0, len(vals), t).apply(vals, h)


def twosided_derivative(values, h, t: int, m: int):
    """t-th derivative at the node with ``m`` points to its left.

    ``values`` run over a-mh .. a+nh; reduces to the one-sided form at
    m = 0 and to the symmetric form at m = n.
    """
    vals = values if isinstance(values, (list, tuple)) else list(values)
    m = _as_order(m, "m", 0, len(vals) - 1)
    return _grid_stencil(m, len(vals), t).apply(vals, h)


def central_derivative(values, h, t: int):
    """t-th derivative at the centre of a symmetric grid a +- ih.

    Only the parity-matched combination of each node pair enters; for odd
    t the centre weight is zero.
    """
    vals = values if isinstance(values, (list, tuple)) else list(values)
    if len(vals) % 2 == 0:
        raise ValueError("need a symmetric sample with odd length")
    return _grid_stencil(len(vals) // 2, len(vals), t).apply(vals, h)


def _weighted_sum(weights, values):
    """``sum_i weights[i] * values[i]``, accumulated left to right."""
    total = 0
    for w, v in zip(weights, values):
        total = total + w * v
    return total


@functools.lru_cache(maxsize=None)
def _sum_kernel(width):
    """The float kernel for rules of ``width`` weights, generated and
    compiled once per width: ``kernel(weights, values)`` is
    :func:`_weighted_sum` of one rule, and it checks each value's type
    once and returns None at the first that is not exactly ``float``.
    Each rule binds it to its float image once (``_ExactRule._float_sum``).
    Index-built names only (:func:`divdiff.samples._compile_kernel`), in
    statements of at most 32 terms: one long sum nests a level per term
    and overflows the compiler at a few thousand.
    """
    def split(items, sep):
        return [sep.join(items[k:k + 32]) for k in range(0, len(items), 32)]

    vs = [f"v{j}" for j in range(width)]
    tests = split([f"type({v}) is not float" for v in vs], " or ")
    sums = split([f"w{j} * v{j}" for j in range(width)], " + ")
    return _compile_kernel(
        ["def kernel(weights, values):",
         f"    {', '.join(f'w{j}' for j in range(width))}, = weights",
         f"    {', '.join(vs)}, = values",
         *(f"    if {test}: return None" for test in tests),
         f"    s = 0 + {sums[0]}",
         *(f"    s = s + {part}" for part in sums[1:]), "    return s"],
        f"sum kernel, width {width}")


_EXACT_TYPES = frozenset((int, Fraction))


def _integer_image(values):
    """``(ints, scale)``: each value times the least common multiple
    ``scale`` of their denominators, an int, when every value is exactly
    an ``int`` or a ``Fraction``; else None.  Each value is read once."""
    if not set(map(type, values)) <= _EXACT_TYPES:
        return None
    ratios = [v.as_integer_ratio() for v in values]
    # a list, not a generator: a star call over a generator builds an
    # oversized argument tuple and shrinks it, and the freed tuple joins a
    # free list that no later call takes from
    scale = math.lcm(*[q for _, q in ratios])
    return [p * (scale // q) for p, q in ratios], scale


class _ExactRule(_Record):
    """A cached rule of exact ``Fraction`` weights, named ``_exact`` by
    each subclass, whose ``apply`` divides by ``h**t`` at ``_order`` t or,
    at ``_order`` None, multiplies by h.  Instances keep a ``__dict__``,
    where ``float_image`` (one float per weight), ``integer_image`` (the
    numerators over their least common denominator, and that denominator)
    and ``_float_sum`` (:func:`_sum_kernel` of the rule's width bound to
    the float image) are cached on first use.
    """

    @functools.cached_property
    def float_image(self):
        return tuple(float(w) for w in self._exact)

    @functools.cached_property
    def integer_image(self):
        den = math.lcm(*[w.denominator for w in self._exact])
        return tuple(int(w * den) for w in self._exact), den

    @functools.cached_property
    def _float_sum(self):
        return functools.partial(_sum_kernel(len(self._exact)),
                                 self.float_image)

    def apply(self, values, h):
        """The weighted sum over ``values`` divided by ``h**t``, or times h
        when ``_order`` is None; ValueError when the value count is not the
        rule's, or when ``h**t`` is zero or overflows.

        The exact type of the first value picks the path.  A float: the
        bound float kernel (the exact loop when a later value is not a
        float), the same products in the same order as
        :func:`_weighted_sum`, since ``Fraction * float`` is
        ``float(w) * v``.  Every value exactly an int or a Fraction: one
        integer dot product over the common denominator of weights and
        values (:func:`_integer_image`), one ``Fraction`` with an exact step
        h = hn/hd folded in, or that Fraction, then any other step.
        Anything else: the exact loop, then the step in the data's own
        arithmetic.
        """
        if len(values) != len(self._exact):
            raise ValueError("value count does not match the rule")
        t = self._order
        if type(values[0]) is float:
            total = self._float_sum(values)
            if total is None:
                total = _weighted_sum(self._exact, values)
        elif (image := _integer_image(values)) is None:
            total = _weighted_sum(self._exact, values)
        else:
            num, den = self.integer_image
            num, den = sum(map(operator.mul, num, image[0])), den * image[1]
            if type(h) not in _EXACT_TYPES:
                total = Fraction(num, den)
            elif t is None:
                hn, hd = h.as_integer_ratio()
                return Fraction(num * hn, den * hd)
            elif h:
                hn, hd = h.as_integer_ratio()
                return Fraction(num * hd ** t, den * hn ** t)
            else:
                raise ValueError(f"step h={h} gives h**t = {h ** t} at t={t}")
        if t is None:
            return total * h
        try:
            scale = h ** t
        except OverflowError:
            scale = math.inf
        if not scale or (isinstance(scale, float) and not math.isfinite(scale)):
            raise ValueError(f"step h={h} gives h**t = {scale} at t={t}")
        return total / scale


class StencilWeights(_ExactRule):
    """Dimensionless per-node weights: f^(t)(a) ~ sum(c_i f(a+ih)) / h^t,
    exact Fractions; ``order`` is the derivative order t."""

    _fields = ("offsets", "weights", "order", "accuracy_order")

    def __init__(self, offsets, weights, order, accuracy_order):
        self._init(offsets, weights, order, accuracy_order)

    _exact = functools.cached_property(operator.attrgetter("weights"))
    _order = functools.cached_property(operator.attrgetter("order"))

    def to_json_dict(self):
        num, den = self.integer_image
        return {"offsets": list(self.offsets), "num": list(num), "den": den,
                "t": self.order, "order": self.accuracy_order}

    def display(self) -> str:
        num, den = self.integer_image
        return (f"1/({den}*h^{self.order}) * {list(num)} on offsets "
                f"{list(self.offsets)}")


@functools.lru_cache(maxsize=None, typed=True)
def stencil_weights(m: int, n: int, t: int) -> StencilWeights:
    """Exact weights of the two-sided grid formula, one per offset -m..n:
    t! q_i[t] / d_i (:func:`_lagrange_rows`).

    Cached per (m, n, t) and their types, so 2.0 is never 2: every grid
    derivative applies these weights.
    """
    m, n, t = _as_order(m, "m"), _as_order(n, "n"), _as_order(t, "t")
    if m < 0 or n < 0 or not 1 <= t <= m + n:
        raise ValueError("need m, n >= 0 and 1 <= t <= m + n")
    fact = math.factorial(t)
    weights = tuple(Fraction(fact * q[t], d)
                    for q, d in _lagrange_rows(m, n, t))
    acc = m + n + 1 - t
    if m == n and (m + n + t) % 2 == 0:
        acc += 1  # symmetry cancels the next moment for free
    return StencilWeights(tuple(range(-m, n + 1)), weights, t, acc)


# ---------------------------------------------------------------------------
# subset linear-combination path

def _subset_weight(nodes, x, subset, power):
    w = 1
    for j, xj in enumerate(nodes):
        if j in subset:
            continue
        num = (x - xj) ** power
        den = 1
        for z in subset:
            den = den * (nodes[z] - xj)
        w = w * num / den
    return w


def derivative_lincomb(samples: SampleSet, x, k: int, fx=None):
    """k-th derivative at x as a weighted sum of order-k divided differences.

    Without ``fx`` every (k+1)-node subset contributes its divided
    difference; with ``fx`` known, each k-node subset is extended by the
    point x itself.  Exact for polynomial data of degree <= n.
    """
    # the one tables kernel a derivative route runs, imported here so that
    # the grid and the other off-node routes never load tables
    from .tables import _dd_over

    n = samples.n
    if fx is None:
        k = _as_order(k, "k", 1, n)
        _check_finite(x, "x")
        size = k + 1
    else:
        k = _as_order(k, "k", 1, n + 1)
        _check_point(samples, x, "x coincides with a node")
        _check_finite(fx, "fx")
        size = k
    if math.comb(n + 1, size) > _SUBSET_LIMIT:
        raise ValueError("subset count exceeds the combinatorial guard")
    xs = samples.nodes
    fs = samples.values
    total = 0
    for subset in itertools.combinations(range(n + 1), size):
        sub_nodes = [xs[i] for i in subset]
        sub_vals = [fs[i] for i in subset]
        if fx is not None:
            sub_nodes.append(x)
            sub_vals.append(fx)
        dd = _dd_over(sub_nodes, sub_vals)
        total = total + dd * _subset_weight(xs, x, subset, size)
    return total * math.factorial(k)


# ---------------------------------------------------------------------------
# infinite-series path

@functools.lru_cache(maxsize=None)
def _zeta(m: int) -> float:
    # 64-term power sum with tail corrections; ample for m >= 2
    N = 64
    s = sum(i ** -m for i in range(1, N))
    s += N ** (1 - m) / (m - 1) + 0.5 * N ** -m + m * N ** (-m - 1) / 12.0
    s -= m * (m + 1) * (m + 2) * N ** (-m - 3) / 720.0
    return s


def _alternating_zeta(m: int) -> float:
    """sigma_m = 1 - 2^-m + 3^-m - ...; sigma_2 is pi^2/12."""
    m = _as_order(m, "m", 2)
    return (1.0 - 2.0 ** (1 - m)) * _zeta(m)


def series_derivative(sampler, a, h, k: int, terms: int):
    """k-th derivative at ``a`` from the alternating two-sided sample series.

    The series converges only conditionally; the last partial-sum term is
    halved (average of the final two partial sums), which damps the
    alternating tail so the truncation error shrinks with ``terms``.
    Lower-order derivatives on the bracketed side are resolved by recursion
    of the same formula (depth k // 2).  Requires 0 < |h| < 1 and a
    sampler whose derivatives stay bounded; otherwise the series is not
    usable and no convergence is claimed.
    """
    k, terms = _as_order(k, "k", 1), _as_order(terms, "terms", 1)
    if not 0 < abs(h) < 1:
        raise ValueError("need 0 < |h| < 1")
    psi = k % 2
    total = 0.0
    for i in range(1, terms + 1):
        term = (-1) ** (i - 1) * (sampler(a + i * h)
                                  + (-1) ** psi * sampler(a - i * h)) / i ** k
        if i == terms:
            term *= 0.5
        total += term
    j = 1
    while k - 2 * j >= psi:
        low = k - 2 * j
        d = sampler(a) if low == 0 else series_derivative(sampler, a, h, low, terms)
        total -= 2.0 * _alternating_zeta(2 * j) * h ** low * d / math.factorial(low)
        j += 1
    return total * math.factorial(k) / h ** k


# ---------------------------------------------------------------------------
# closed-form operation counts for the recursive path

def diff_op_counts(n: int, k: int) -> OpCounts:
    """Cost of one off-node derivative evaluation (value unknown form)."""
    k, n = _as_order(k, "k", 1), _as_order(n, "n", 1)
    return OpCounts(
        additions=n * (2 * k + 1) + k * (k + 1) // 2,
        subtractions=(n + 1) * (2 * n + k * k + k),
        multiplications=2 * n * (n + 1) + (n + 1) * k * (k - 1) + k * (k + 1) // 2,
        divisions=(n + 1) * (2 * k + 1),
    )
