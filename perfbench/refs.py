"""Independent reference values and the tolerances they are checked with.

Nothing here calls the library's evaluation paths.  Float references come
from ``oracle.oracle_interpolate`` (a naive Lagrange sum kept apart from the
main paths on purpose) and from explicit Lagrange-basis formulas written
here; exact references come from ``oracle.RationalPoly`` and from
Lagrange basis polynomials multiplied out in ``Fraction`` arithmetic.

Tolerances follow one rule, fixed before any run: an output passes when

    |computed - reference| <= 2 * (3n + 4) * u * kappa

where u is the unit round-off, ``3n + 4`` is the textbook forward-error
factor of a backward-stable Lagrange evaluation over n + 1 nodes (Higham,
"The numerical stability of barycentric Lagrange interpolation", 2004),
doubled because both the library and the reference round, and ``kappa`` is
the absolute condition number of the quantity with respect to the data:

* a value:        sum_i |l_i(x) f_i|
* a derivative:   sum_i |l_i(x) f_i| * S_i^t with S_i = sum_{j!=i} 1/|x - x_j|,
                  the size of l_i^(t)(x) f_i without cancellation, times t + 1
                  for the t-fold products the formula takes
* a step integral: |h| * max over x, x + h/2, x + h of sum_i |l_i(s) f_i|
* a grid rule:    sum_i |w_i f_i| with the exact weights w_i.

Outputs on exact ``Fraction`` data must equal the exact reference.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from divdiff.oracle import RationalPoly, known_stencils, oracle_interpolate

U = 2.0 ** -53

# oracle_interpolate reads only ``.nodes`` and ``.values``; a plain record
# keeps the reference path clear of the library's SampleSet validation.
Points = namedtuple("Points", "nodes values")

# 5-point Gauss-Legendre rule on [-1, 1]: exact for degree <= 9
_GL_NODES = (-0.9061798459386640, -0.5384693101056831, 0.0,
             0.5384693101056831, 0.9061798459386640)
_GL_WEIGHTS = (0.2369268850561891, 0.4786286704993665, 0.5688888888888889,
               0.4786286704993665, 0.2369268850561891)


def gamma(n: int) -> float:
    """Tolerance factor per unit of condition number for n + 1 nodes."""
    return 2 * (3 * n + 4) * U


def basis(xs, x):
    """Lagrange basis values l_i(x), one unshared product per node."""
    out = []
    for i, xi in enumerate(xs):
        p = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                p *= (x - xj) / (xi - xj)
        out.append(p)
    return out


def value_kappa(xs, fs, x):
    return sum(abs(l * f) for l, f in zip(basis(xs, x), fs))


def interp_ref(xs, fs, x):
    """(reference, tolerance) for the interpolant's value at x."""
    ref = oracle_interpolate(Points(xs, fs), x)
    return ref, gamma(len(xs) - 1) * value_kappa(xs, fs, x)


def dd_function_ref(xs, fs, r, x):
    """(reference, tolerance) for f[x, x_0 .. x_{r-1}] of the interpolant.

    p(x) = q(x) + prod_{i<r}(x - x_i) * f[x, x_0..x_{r-1}], with q the
    interpolant on the prefix nodes, so the divided-difference function is
    the gap between two oracle values over the prefix product.
    """
    p = oracle_interpolate(Points(xs, fs), x)
    q = oracle_interpolate(Points(xs[:r], fs[:r]), x)
    prod = 1.0
    for xi in xs[:r]:
        prod *= x - xi
    kappa = value_kappa(xs, fs, x) + value_kappa(xs[:r], fs[:r], x)
    return (p - q) / prod, gamma(len(xs) - 1) * kappa / abs(prod)


def derivative_kappa(xs, fs, x, t):
    total = 0.0
    for i, (l, f) in enumerate(zip(basis(xs, x), fs)):
        s = sum(1.0 / abs(x - xj) for j, xj in enumerate(xs) if j != i)
        total += abs(l * f) * s ** t
    return (t + 1) * total


def derivative_ref(xs, fs, x, t):
    """(reference, tolerance) for the t-th derivative (t <= 2) of the
    interpolant, from l_i' = l_i s1_i and l_i'' = l_i (s1_i^2 - s2_i)."""
    if t not in (1, 2):
        raise ValueError("explicit basis derivatives cover t = 1, 2")
    total = 0.0
    for i, (l, f) in enumerate(zip(basis(xs, x), fs)):
        inv = [1.0 / (x - xj) for j, xj in enumerate(xs) if j != i]
        s1 = sum(inv)
        d = s1 if t == 1 else s1 * s1 - sum(v * v for v in inv)
        total += l * d * f
    return total, gamma(len(xs) - 1) * derivative_kappa(xs, fs, x, t)


def step_kappa(xs, fs, x, h):
    return abs(h) * max(value_kappa(xs, fs, s) for s in (x, x + h / 2, x + h))


def step_integral_ref(xs, fs, x, h):
    """(reference, tolerance) for the interpolant's integral over [x, x+h]
    by 5-point Gauss-Legendre on oracle values (exact up to degree 9)."""
    if len(xs) > 10:
        raise ValueError("5-point Gauss-Legendre is exact only up to n = 9")
    pts = Points(xs, fs)
    half = h / 2
    ref = half * sum(w * oracle_interpolate(pts, x + half * (1 + g))
                     for g, w in zip(_GL_NODES, _GL_WEIGHTS))
    return ref, gamma(len(xs) - 1) * step_kappa(xs, fs, x, h)


# ---------------------------------------------------------------------------
# polynomial data (exact references)

def random_poly(rng, degree):
    return RationalPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                         for _ in range(degree + 1)])


def poly_derivative_ref(poly, xs, fs, x, t):
    """Exact t-th derivative of polynomial data; tolerance from kappa."""
    ref = float(poly.derivative(t)(Fraction(x)))
    return ref, gamma(len(xs) - 1) * derivative_kappa(xs, fs, x, t)


def poly_step_integral_ref(poly, xs, fs, x, h):
    ref = float(poly.definite_integral(Fraction(x), Fraction(x) + Fraction(h)))
    return ref, gamma(len(xs) - 1) * step_kappa(xs, fs, x, h)


# ---------------------------------------------------------------------------
# exact even-grid weights

def _basis_poly(offsets, i, max_degree):
    """Ascending coefficients of l_i(s) over integer offsets, truncated."""
    coeffs = [Fraction(1)]
    xi = offsets[i]
    for j, xj in enumerate(offsets):
        if j == i:
            continue
        d = xi - xj
        nxt = [Fraction(0)] * min(len(coeffs) + 1, max_degree + 1)
        for k, c in enumerate(coeffs):
            if k < len(nxt):
                nxt[k] -= c * xj / d
            if k + 1 < len(nxt):
                nxt[k + 1] += c / d
        coeffs = nxt
    return coeffs


def grid_derivative_weights(offsets, t_max):
    """{t: exact weights c_i} with f^(t)(a) ~ sum c_i f(a + o_i h) / h^t."""
    polys = [_basis_poly(offsets, i, t_max) for i in range(len(offsets))]
    return {t: tuple(math.factorial(t) * (p[t] if t < len(p) else 0)
                     for p in polys)
            for t in range(1, t_max + 1)}


def grid_quad_weights(offsets, lo, hi):
    """Exact w_i with integral over [a + lo h, a + hi h] = h * sum w_i f_i."""
    out = []
    for i in range(len(offsets)):
        p = _basis_poly(offsets, i, len(offsets))
        out.append(sum(c * (Fraction(hi) ** (k + 1) - Fraction(lo) ** (k + 1))
                       / (k + 1) for k, c in enumerate(p)))
    return tuple(out)


def check_against_golden():
    """The exact-weight references must agree with the golden catalog."""
    golden = known_stencils()
    layouts = {"backward-5pt-d2": (4, 0), "semi-backward-5pt-d2": (3, 1),
               "central-5pt-d2": (2, 2), "semi-forward-5pt-d2": (1, 3),
               "forward-5pt-d2": (0, 4)}
    bad = [name for name, (m, n) in layouts.items()
           if grid_derivative_weights(range(-m, n + 1), 2)[2]
           != golden[name].weights]
    for name, n in (("simpson", 2), ("nc7", 6)):
        if grid_quad_weights(range(n + 1), 0, n) != golden[name].weights:
            bad.append(name)
    return bad
