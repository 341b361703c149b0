"""Independent brute-force references for correctness testing.

Everything here is deliberately structurally different from the main
evaluation paths: plain Lagrange sums with no shared work, symbolic
polynomial calculus over exact rationals, and a catalog of classical
weight sets stored verbatim.  Agreement with the optimized paths is then
evidence, not tautology.

The paper's two-sided solve, which the grid rules must match, and its
closed-form identities below are checks of its algebra, not independent.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from importlib import resources

from .samples import SampleSet, _as_order, _Record


class RationalPoly(_Record):
    """Polynomial with exact rational coefficients, ascending degree."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = [Fraction(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self._init(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self, k: int = 1) -> "RationalPoly":
        coeffs = list(self.coefficients)
        for _ in range(k):
            coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [Fraction(0)]
        return RationalPoly(coeffs)

    def antiderivative(self) -> "RationalPoly":
        return RationalPoly([Fraction(0)] +
                            [c / (i + 1) for i, c in enumerate(self.coefficients)])

    def definite_integral(self, lo, hi) -> Fraction:
        anti = self.antiderivative()
        return anti(Fraction(hi)) - anti(Fraction(lo))

    def sample(self, nodes) -> SampleSet:
        return SampleSet(nodes, [self(x) for x in nodes])


def oracle_interpolate(samples: SampleSet, x):
    """Naive Lagrange sum, one unshared product per node.

    Exact with Fraction inputs; O(n^2) per point on purpose.
    """
    total = None
    for i, xi in enumerate(samples.nodes):
        term = samples.values[i]
        for j, xj in enumerate(samples.nodes):
            if j != i:
                term = term * (x - xj) / (xi - xj)
        total = term if total is None else total + term
    return total


def table5_function(x: float) -> float:
    """Reference test function exp(x)*(1+x) + x*sin(x)."""
    return math.exp(x) * (1.0 + x) + x * math.sin(x)


class GoldenStencil(_Record):
    """A classical weight set: ``kind`` is "derivative" or "quadrature",
    ``weights`` exact Fractions, ``order`` the derivative order (0 for a
    quadrature rule)."""

    __slots__ = _fields = ("name", "kind", "offsets", "weights", "order")

    def __init__(self, name, kind, offsets, weights, order):
        self._init(name, kind, offsets, weights, order)

    def apply(self, values, h):
        total = 0
        for w, v in zip(self.weights, values):
            total = total + w * v
        if self.kind == "derivative":
            return total / h ** self.order
        return total * h


_CATALOG = None


def known_stencils() -> dict:
    """Catalog of classical golden weight sets, keyed by name."""
    global _CATALOG
    if _CATALOG is None:
        text = resources.files("divdiff").joinpath(
            "data/golden_stencils.json").read_text()
        raw = json.loads(text)
        _CATALOG = {}
        for rec in raw["stencils"]:
            weights = tuple(Fraction(n, rec["den"]) for n in rec["num"])
            _CATALOG[rec["name"]] = GoldenStencil(
                rec["name"], rec["kind"], tuple(rec["offsets"]), weights,
                rec.get("t", 0))
    return dict(_CATALOG)


class TwoSidedCoeffs(_Record):
    """The paper's solve on the -m..n grid: cardinal values A_neg[i] at -i
    and A_pos[i] at +i, power sums W and series coefficients a_hat."""

    __slots__ = _fields = ("m", "n", "A_neg", "A_pos", "W", "a_hat")

    def __init__(self, m, n, A_neg, A_pos, W, a_hat):
        self._init(m, n, A_neg, A_pos, W, a_hat)


def twosided_coeffs(m: int, n: int, t: int) -> TwoSidedCoeffs:
    """The paper's exact two-sided coefficient solve through order t,
    each side's cardinal values one ratio recurrence."""
    # the off-node routes' recurrence, imported here: a route that loads
    # the oracle for its reference function need not load derivatives
    from .derivatives import _convolved_coeffs

    def side(count, across):
        vals, cur = [None], Fraction(-1)
        for i in range(1, count + 1):
            cur = cur * Fraction(-(count - i + 1), across + i)
            vals.append(cur)
        return tuple(vals)

    A_neg, A_pos = side(m, n), side(n, m)
    W = []
    for k in range(1, t + 1):
        s = Fraction(0)
        for i in range(1, m + 1):
            s += (-1) ** k * A_neg[i] / Fraction(i ** k)
        for i in range(1, n + 1):
            s += A_pos[i] / Fraction(i ** k)
        W.append(s)
    a = _convolved_coeffs([None] + W, t, Fraction(1))
    return TwoSidedCoeffs(m, n, A_neg, A_pos, tuple(W), tuple(a))


def harmonic_number(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly; H_0 = 0."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return sum((Fraction(1, i) for i in range(1, n + 1)), Fraction(0))


def grid_lincomb_weight_sum(n: int, k: int) -> Fraction:
    """Closed-form grid analog of the subset weight sum; identically 1
    for 1 <= k <= n.

    Weight of the index subset i_1 < ... < i_k of 1..n is the signed
    binomial product over the k-1 power of the index product, times the
    pairwise-difference products.
    """
    k = _as_order(k, "k", 1, n)
    total = Fraction(0)
    for subset in itertools.combinations(range(1, n + 1), k):
        num = math.prod(math.comb(n, z) for z in subset)
        pis = math.prod(z - w for z in subset for w in subset if w != z)
        total += Fraction((-1) ** (sum(subset) - k) * num * pis,
                          math.prod(subset) ** (k - 1))
    return total
