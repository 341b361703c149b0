import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from divdiff import SampleSet

# the explain phase imports libcst and runs more examples to explain a
# failure; without it a failing property test reports much sooner
settings.register_profile(
    "divdiff", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("divdiff")


def random_rational_poly(rng, degree):
    from divdiff import RationalPoly
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(degree + 1)]
    if coeffs[-1] == 0:
        coeffs[-1] = Fraction(1)
    return RationalPoly(coeffs)


def random_rational_nodes(rng, count, span=12):
    pool = [Fraction(num, den) for den in (1, 2, 3, 4, 5)
            for num in range(-2 * span, 2 * span + 1)]
    return rng.sample(sorted(set(pool)), count)


def subset_weight_sum(nodes, x, k):
    """Sum of the known-value subset weights of ``derivative_lincomb``
    over every k-subset of ``nodes``; identically 1."""
    from divdiff.derivatives import _subset_weight
    nodes = list(nodes)
    return sum(_subset_weight(nodes, x, subset, k)
               for subset in itertools.combinations(range(len(nodes)), k))


def argument_indices(table, i, j):
    """The nodes (positions, for integer layouts) whose divided difference
    entry (i, j) of ``table`` represents."""
    if i == 0:
        return [table.nodes[j]]
    if table.part_of(i, j) == "newton":
        return list(table.nodes[j:j + i + 1])
    return list(table.nodes[:i]) + [table.nodes[i + j]]


def random_float_samples(rng, n, lo=0.0, hi=1.0):
    while True:
        nodes = sorted(rng.uniform(lo, hi) for _ in range(n + 1))
        if all(b - a > 1e-6 for a, b in zip(nodes, nodes[1:])):
            break
    values = [rng.uniform(-1.0, 1.0) for _ in nodes]
    return SampleSet(nodes, values)


def exact_sum(values):
    """The exact sum of ints, Fractions and finite floats, as a Fraction,
    over one common denominator (a power of two for floats)."""
    ratios = [Fraction(v).as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in ratios})
    return Fraction(sum(num * (den // d) for num, d in ratios), den)


def check_composite(got, weights, panel_values, h):
    """``got`` against the exact composite sum_ij w_j v_ij h of the same
    values, panel i's values ``panel_values[i]``.  When h and every value
    are ints or Fractions, ``got`` is that Fraction.  Otherwise it is a
    float within gamma_(panels + n + 2) * kappa of it, where
    kappa = |h| sum_j |w_j| sum_i |v_ij| and gamma_k = k u / (1 - k u),
    plus what underflow can add: each of the n + 1 weight products and the
    product by h can lose up to half the smallest subnormal, 2**-1075, the
    first n + 1 of them scaled by |h|."""
    columns = list(zip(*panel_values))
    exact = Fraction(h) * sum(w * exact_sum(c)
                              for w, c in zip(weights, columns))
    if {type(v) for v in (h, *itertools.chain(*panel_values))} <= \
            {int, Fraction}:
        assert type(got) is Fraction and got == exact
        return
    assert type(got) is float
    kappa = abs(Fraction(h)) * sum(abs(w) * exact_sum(map(abs, c))
                                   for w, c in zip(weights, columns))
    k, u = len(panel_values) + len(weights) + 1, Fraction(1, 2 ** 53)
    underflow = (len(weights) * abs(Fraction(h)) + 1) * Fraction(1, 2 ** 1074)
    assert abs(Fraction(got) - exact) <= \
        k * u / (1 - k * u) * kappa + underflow


@pytest.fixture
def rng():
    return random.Random(20240817)


# value strategies for the weight-image dispatch: each draws a list of
# ``count`` values of one data kind
def float_values(count):
    return st.lists(st.floats(width=64), min_size=count, max_size=count)


def exact_values(count):
    return st.lists(st.one_of(st.integers(-10 ** 20, 10 ** 20),
                              st.fractions(max_denominator=10 ** 6)),
                    min_size=count, max_size=count)


def mixed_values(count):
    """Ints and floats together, at least one of each."""
    return st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                              st.floats(-1e6, 1e6)),
                    min_size=count, max_size=count).filter(
        lambda vs: {type(v) for v in vs} == {int, float})


@pytest.fixture
def data_files(tmp_path):
    """A function of a name, ``chebN.csv`` or ``nN.csv``, that writes that
    file into ``tmp_path`` and returns its path: the ROADMAP's data sets,
    ``x_k = cos(pi k / N)``, k = 0..N, with ``y = exp(x)``, both written
    with ``repr``, and the rows ``k,k*k`` for k = 0..N-1."""
    def write(name):
        path = tmp_path / name
        count = int(name[4:-4] if name.startswith("cheb") else name[1:-4])
        if name.startswith("cheb"):
            xs = [math.cos(math.pi * k / count) for k in range(count + 1)]
            rows = [f"{x!r},{math.exp(x)!r}" for x in xs]
        else:
            rows = [f"{k},{k * k}" for k in range(count)]
        path.write_text("\n".join(["x,y", *rows]) + "\n")
        return str(path)
    return write
