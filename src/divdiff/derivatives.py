"""Arbitrary-order numerical differentiation.

Three routes to the same quantity:

* a recursive-coefficient solve at an off-node point x (the power sums of
  the reciprocal node distances, weighted by the cardinal basis of
  :func:`divdiff.samples._cardinal`, a generated straight-line kernel per
  node count up to 16 nodes, feed a convolution recurrence for the
  bracket coefficients; :func:`_at_point` builds the basis, the sums and
  the table of powers (x_i - x)^k and keeps them on the sample set for the
  most recent point, so after the basis an order-t derivative costs
  O(n t) operations; the tallied path is the reference route, which
  rebuilds every power factor by factor at O(n t^2) and is what
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

from .counting import Counted, OpCounts
from .samples import (SampleSet, _cardinal, _check_finite, _compile_kernel,
                      _Record, _set)

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
    ``--opcount``) assume.  The untallied routes read the same powers from
    the table :func:`_at_point` keeps.
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


def _at_point(samples, x, kmax, at_node):
    """The cardinal basis at off-node x, ``(None, rho_1 .. rho_k)`` and the
    power table ``(None, P_1 .. P_k)``, k >= kmax (slice them to the
    request): the one builder of this state.

    ``P_k[i] = (x_i - x)^k``: P_1 is formed once and each P_k is
    ``P_(k-1) * P_1`` element by element, the same left-to-right products
    :func:`_rho_values` forms, so rho_k, the sum of ``L_i / P_k[i]``, is
    bit-identical to it at n+1 multiplications per k instead of
    (n+1)(k-1).  The state of the most recent point is kept on
    ``samples``, keyed by ``(type(x), x)``: a repeat skips
    :func:`_cardinal`, a higher kmax only appends the missing P_k and
    rho_k, and the slot is replaced by a new tuple, never changed in
    place; the shorter power tuples are kept as they are.  Every value
    equals a fresh build's.  A miss checks x first (:func:`_check_point`,
    with the route's ``at_node`` message), so inf and nan never become a
    key.
    """
    key = (type(x), x)
    state = samples._point
    if state is not None and state[0] == key:
        _, basis, rho, powers = state
        if len(rho) > kmax:
            return basis, rho, powers
    else:
        _check_point(samples, x, at_node)
        basis = tuple(_cardinal(samples.nodes, x)[0])
        rho = powers = (None,)
    rho, powers = list(rho), list(powers)
    for k in range(len(rho), kmax + 1):
        if k == 1:
            pw = map(operator.sub, samples.nodes, itertools.repeat(x))
        else:
            pw = map(operator.mul, powers[k - 1], powers[1])
        powers.append(tuple(pw))
        rho.append(functools.reduce(
            operator.add, map(operator.truediv, basis, powers[k])))
    rho, powers = tuple(rho), tuple(powers)
    _set(samples, "_point", (key, basis, rho, powers))
    return basis, rho, powers


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
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    rho = _at_point(samples, x, kmax, "rho undefined at node")[1]
    return RhoSet(rho[1:kmax + 1])


def derivative_uneven(samples: SampleSet, x, t: int, fx=None, tally=None):
    """t-th derivative at off-node x from unevenly spaced samples.

    Exact for polynomial data of degree <= n.  Supply ``fx`` to use the
    known-value form (the final coefficient multiplies f(x) itself instead
    of its interpolated stand-in).  With a tally, operations on data are
    charged along the reference path whose interior cost is
    :func:`diff_op_counts`.
    """
    n = samples.n
    if not 1 <= t <= n:
        raise ValueError(f"t={t} out of range 1..{n}")
    at_node = ("x coincides with a node; use a grid formula or "
               "derivative_lincomb")
    if fx is not None:
        _check_finite(fx, "fx")
    if tally is None:
        basis, rho, powers = _at_point(samples, x, t, at_node)
        a = _convolved_coeffs(rho, t)
        add, mul, div = operator.add, operator.mul, operator.truediv
        # node i's bracket, sum_{m<t} a_m / P_(t-m)[i] left to right over m,
        # for all nodes at once: the reference loop's terms and order
        inner = map(div, itertools.repeat(a[0]), powers[t])
        for m in range(1, t):
            if m % 32 == 0:
                inner = list(inner)  # nested maps recurse on the C stack
            inner = map(add, inner,
                        map(div, itertools.repeat(a[m]), powers[t - m]))
        if fx is None:
            inner = map(add, inner, itertools.repeat(a[t]))
        total = functools.reduce(
            add, map(mul, map(mul, inner, samples.values), basis))
        if fx is not None:
            total = total + a[t] * fx
        return total * math.factorial(t)
    _check_point(samples, x, at_node)
    xs = [Counted(v, tally) for v in samples.nodes]
    fs = [Counted(v, tally) for v in samples.values]
    x = Counted(x, tally)
    one = Counted(1, tally)
    if fx is not None:
        fx = Counted(fx, tally)
    basis = _cardinal(xs, x)[0]
    rho = _rho_values(xs, basis, x, t)
    a = _convolved_coeffs(rho, t, one)

    total = None
    for i in range(n + 1):
        inner = None
        for m in range(t):
            pw = xs[i] - x
            for _ in range(t - m - 1):
                pw = pw * (xs[i] - x)
            term = a[m] / pw
            inner = term if inner is None else inner + term
        if fx is None:
            inner = inner + a[t]
        contrib = inner * fs[i] * basis[i]
        total = contrib if total is None else total + contrib
    if fx is not None:
        total = total + a[t] * fx
    return total.value * math.factorial(t)


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

def forward_derivative(values, h, t: int):
    """t-th derivative at the leftmost node of an even grid.

    ``values`` are f at a, a+h, ..., a+nh; accuracy degrades like
    O(h^(n+1-t)).
    """
    vals = list(values)
    n = len(vals) - 1
    if not 1 <= t <= n:
        raise ValueError(f"t={t} out of range 1..{n}")
    return stencil_weights(0, n, t).apply(vals, h)


def twosided_derivative(values, h, t: int, m: int):
    """t-th derivative at the node with ``m`` points to its left.

    ``values`` run over a-mh .. a+nh; reduces to the one-sided form at
    m = 0 and to the symmetric form at m = n.
    """
    vals = list(values)
    n = len(vals) - 1 - m
    if m < 0 or n < 0:
        raise ValueError("m out of range")
    if not 1 <= t <= m + n:
        raise ValueError(f"t={t} out of range 1..{m + n}")
    return stencil_weights(m, n, t).apply(vals, h)


def central_derivative(values, h, t: int):
    """t-th derivative at the centre of a symmetric grid a +- ih.

    Only the parity-matched combination of each node pair enters; for odd
    t the centre weight is zero.
    """
    vals = list(values)
    if len(vals) % 2 == 0:
        raise ValueError("need a symmetric sample with odd length")
    n = (len(vals) - 1) // 2
    if not 1 <= t <= 2 * n:
        raise ValueError(f"t={t} out of range 1..{2 * n}")
    return stencil_weights(n, n, t).apply(vals, h)


def _weighted_sum(weights, values):
    """``sum_i weights[i] * values[i]``, accumulated left to right."""
    total = 0
    for w, v in zip(weights, values):
        total = total + w * v
    return total


@functools.lru_cache(maxsize=None)
def _sum_kernel(width, stride=0):
    """The float kernel for rules of ``width`` weights, generated and
    compiled once per (width, stride); it checks each value's type once
    and returns None at the first that is not exactly ``float``.

    Stride 0: ``kernel(weights, values)`` is :func:`_weighted_sum` of one
    rule.  Stride width, or width - 1 where panels share endpoints (``v0``
    carries panel i-1's last value): ``kernel(weights, flat, h)`` folds
    ``(w0*v0 + ...) * h`` over the panels at ``i * stride`` from 0.0 in one
    pass; a panel sum that starts at its first product can differ from
    ``_weighted_sum`` only in the sign of a zero, which ``0.0 +`` absorbs.
    Index-built names only (:func:`divdiff.samples._compile_kernel`), in
    statements of at most 32 terms: one long sum nests a level per term
    and overflows the compiler at a few thousand.
    """
    def split(items, sep):
        return [sep.join(items[k:k + 32]) for k in range(0, len(items), 32)]

    def body(pad, checked, lead):
        tests = split([f"type({v}) is not float" for v in checked], " or ")
        sums = split([f"w{j} * v{j}" for j in range(width)], " + ")
        return [*(f"{pad}if {test}: return None" for test in tests),
                f"{pad}s = {lead}{sums[0]}",
                *(f"{pad}s = s + {part}" for part in sums[1:])]

    vs = [f"v{j}" for j in range(width)]
    ws = ", ".join(f"w{j}" for j in range(width))
    if not stride:
        return _compile_kernel(
            ["def kernel(weights, values):", f"    {ws}, = weights",
             f"    {', '.join(vs)}, = values", *body("    ", vs, "0 + "),
             "    return s"], f"sum kernel, width {width}")
    carry = stride == width - 1
    loop = vs[1:] if carry else vs
    first = ["    v0 = next(it)", "    if type(v0) is not float: return None"]
    return _compile_kernel(
        ["def kernel(weights, flat, h):", f"    {ws}, = weights",
         "    it = iter(flat)", *(first if carry else []), "    total = 0.0",
         f"    for {', '.join(loop)}, in zip(*[it] * {len(loop)}):",
         *body("        ", loop, ""), "        total = total + s * h",
         *([f"        v0 = {vs[-1]}"] if carry else []), "    return total"],
        f"sum kernel, width {width}, stride {stride}")


class _ExactRule(_Record):
    """A cached rule of exact ``Fraction`` weights; each subclass names
    its tuple of weights as ``_exact``.  Instances keep a ``__dict__``,
    where the images are cached.

    Two images of the weights are built once, on first use:
    ``float_image``, one float per weight, and ``integer_image``, the
    numerators over their least common denominator and that denominator.
    """

    @functools.cached_property
    def float_image(self):
        return tuple(float(w) for w in self._exact)

    @functools.cached_property
    def integer_image(self):
        den = math.lcm(*[w.denominator for w in self._exact])
        return tuple(int(w * den) for w in self._exact), den

    def _typed_sum(self, values):
        """The weighted sum over ``values``; ValueError when their count is
        not the rule's.

        The exact types of the values choose what runs.  All floats: the
        float image in :func:`_sum_kernel`, the same products in the same
        order, since ``Fraction * float`` is ``float(w) * v``.  All ints and
        Fractions: one integer dot product over the common denominator of
        weights and values, the equal Fraction.  Anything else (mixed int
        and float, bool, float subclasses, numpy scalars): the exact loop.
        """
        if len(values) != len(self._exact):
            raise ValueError("value count does not match the rule")
        if type(values[0]) is float:
            total = _sum_kernel(len(values))(self.float_image, values)
            if total is not None:
                return total
        kinds = set(map(type, values))
        if kinds <= {int, Fraction}:
            num, den = self.integer_image
            # a list, not a generator: a star call over a generator builds
            # an oversized argument tuple and shrinks it, and the freed
            # tuple joins a free list that no later call takes from
            scale = math.lcm(*[v.denominator for v in values])
            return Fraction(
                sum(w * (v.numerator * (scale // v.denominator))
                    for w, v in zip(num, values)),
                den * scale)
        return _weighted_sum(self._exact, values)

    def _panel_sum(self, flat, stride, h):
        """The float composite of :func:`_sum_kernel` over the panels of
        ``flat`` at ``i * stride``; None unless every value is a float."""
        return _sum_kernel(len(self._exact), stride)(self.float_image, flat, h)


class StencilWeights(_ExactRule):
    """Dimensionless per-node weights: f^(t)(a) ~ sum(c_i f(a+ih)) / h^t,
    exact Fractions; ``order`` is the derivative order t."""

    _fields = ("offsets", "weights", "order", "accuracy_order")

    def __init__(self, offsets, weights, order, accuracy_order):
        self._init(offsets, weights, order, accuracy_order)

    _exact = property(operator.attrgetter("weights"))

    def apply(self, values, h):
        """The weighted sum over ``values`` divided by ``h**t``; ValueError
        when the value count is not the stencil's, or when ``h**t``
        underflows to zero or overflows."""
        total = self._typed_sum(values)
        t = self.order
        try:
            scale = h ** t
        except OverflowError:
            scale = math.inf
        if not scale or (isinstance(scale, float) and not math.isfinite(scale)):
            raise ValueError(f"step h={h} gives h**t = {scale} at t={t}")
        return total / scale

    def to_json_dict(self):
        num, den = self.integer_image
        return {"offsets": list(self.offsets), "num": list(num), "den": den,
                "t": self.order, "order": self.accuracy_order}

    def display(self) -> str:
        num, den = self.integer_image
        return (f"1/({den}*h^{self.order}) * {list(num)} on offsets "
                f"{list(self.offsets)}")


@functools.lru_cache(maxsize=None)
def stencil_weights(m: int, n: int, t: int) -> StencilWeights:
    """Exact weights of the two-sided grid formula, one per offset -m..n:
    t! q_i[t] / d_i (:func:`_lagrange_rows`).

    Cached per (m, n, t): every grid derivative applies these weights.
    """
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
        if not 1 <= k <= n:
            raise ValueError(f"k={k} out of range 1..{n}")
        _check_finite(x, "x")
        size = k + 1
    else:
        if not 1 <= k <= n + 1:
            raise ValueError(f"k={k} out of range 1..{n + 1}")
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
    if m < 2:
        raise ValueError("m must be >= 2")
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
    if k < 1:
        raise ValueError("k must be >= 1")
    if terms < 1:
        raise ValueError("terms must be >= 1")
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
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return OpCounts(
        additions=n * (2 * k + 1) + k * (k + 1) // 2,
        subtractions=(n + 1) * (2 * n + k * k + k),
        multiplications=2 * n * (n + 1) + (n + 1) * k * (k - 1) + k * (k + 1) // 2,
        divisions=(n + 1) * (2 * k + 1),
    )
