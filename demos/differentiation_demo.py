"""Arbitrary-order derivatives three ways, plus a stencil gallery.

Run:  python demos/differentiation_demo.py
"""

import math

from divdiff import (SampleSet, central_derivative, derivative_lincomb,
                     derivative_uneven, diff_op_counts, series_derivative,
                     stencil_weights)

print("Off-node derivatives from scattered samples (recursive path vs the")
print("all-subsets divided-difference combination):\n")
nodes = [0.10, 0.34, 0.71, 1.02, 1.55, 1.80]
g = lambda x: math.exp(x) * math.cos(x)
samples = SampleSet(nodes, [g(x) for x in nodes])
x = 0.9
truth = {1: math.exp(x) * (math.cos(x) - math.sin(x)),
         2: -2 * math.exp(x) * math.sin(x)}
for t in (1, 2):
    rec = derivative_uneven(samples, x, t)
    lin = derivative_lincomb(samples, x, t)
    c = diff_op_counts(len(nodes) - 1, t)
    print(f"  order {t}: recursive {rec:+.8f}, subsets {lin:+.8f}, "
          f"exact {truth[t]:+.8f}")
    print(f"           recursive path cost: {c.additions} add, "
          f"{c.subtractions} sub, {c.multiplications} mul, {c.divisions} div")

print("\n\nGrid stencils of any layout, exact rational weights:\n")
for m, n in ((0, 4), (1, 3), (2, 2), (3, 1), (4, 0)):
    st = stencil_weights(m, n, 2)
    num, den = st.integer_image
    print(f"  m={m} n={n}:  1/({den} h^2) * {list(num)}   "
          f"accuracy order {st.accuracy_order}")

print("\nhigher orders come from the same machinery:")
for t in (3, 4):
    st = stencil_weights(3, 3, t)
    num, den = st.integer_image
    print(f"  f^({t}) on -3..3:  1/({den} h^{t}) * {list(num)}")

print("\n\nConvergence of the symmetric 5-point second-derivative rule on")
print("sin at a = 0.5 (expected fourth order):")
prev = None
for h in (0.1, 0.05, 0.025):
    vals = [math.sin(0.5 + i * h) for i in range(-2, 3)]
    err = abs(central_derivative(vals, h, 2) + math.sin(0.5))
    line = f"  h={h:<6} error {err:.3e}"
    if prev is not None:
        line += f"   observed order {math.log2(prev / err):.2f}"
    prev = err
    print(line)

print("\n\nSeries route: sample the function on an infinite symmetric comb")
print("and sum the alternating series (conditionally convergent, so the")
print("final partial-sum term is halved):")
for terms in (100, 500, 2000):
    est = series_derivative(math.cos, 0.3, 0.3, 1, terms)
    print(f"  {terms:5d} terms: {est:+.8f}   (exact {-math.sin(0.3):+.8f})")
