import itertools
import math
from fractions import Fraction

import pytest

from divdiff import (RationalPoly, SampleSet, even_quad_weights,
                     known_stencils, oracle_interpolate, stencil_weights,
                     table5_function, twosided_coeffs)
from divdiff.oracle import grid_lincomb_weight_sum, harmonic_number

from conftest import random_rational_nodes, random_rational_poly


class TestRationalPoly:
    def test_canonical_form_trims_trailing_zeros(self):
        p = RationalPoly([1, 2, 0, 0])
        assert p.coefficients == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_second_derivative_of_cube(self):
        p = RationalPoly([0, 0, 0, 1])
        assert p.derivative(2).coefficients == (Fraction(0), Fraction(6))

    def test_definite_integrals(self):
        sq = RationalPoly([0, 0, 1])
        assert sq.definite_integral(0, 1) == Fraction(1, 3)
        quartic = RationalPoly([0, 0, 0, 0, 1])
        want = (Fraction(7, 10) ** 5 - Fraction(3, 10) ** 5) / 5
        assert quartic.definite_integral(Fraction(3, 10), Fraction(7, 10)) == want


class TestPaperIdentities:
    def test_harmonic_number_is_always_a_fraction(self):
        for n, want in ((0, 0), (1, 1), (3, Fraction(11, 6))):
            got = harmonic_number(n)
            assert type(got) is Fraction and got == want

    def test_harmonic_number_rejects_a_negative_count(self):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -1$"):
            harmonic_number(-1)

    @pytest.mark.parametrize("n,k", [(3, 5), (3, 0), (0, 0), (2, -1)])
    def test_grid_weight_sum_rejects_k_outside_1_to_n(self, n, k):
        with pytest.raises(ValueError,
                           match=rf"^k={k} out of range 1\.\.{n}$"):
            grid_lincomb_weight_sum(n, k)


def _paper_weights(co, c):
    """The paper's per-node weights over the offsets -m..n of the solve
    ``co``, from the series coefficients ``c``: the centre takes c[0], the
    node at +-i takes A_+-i * sum_{p>=1} (+-1)^p c[p] / i^p."""
    def side(A, count, sign):
        return [A[i] * sum(sign ** p * c[p] / i ** p
                           for p in range(1, len(c)))
                for i in range(1, count + 1)]
    return (*reversed(side(co.A_neg, co.m, -1)), c[0],
            *side(co.A_pos, co.n, 1))


class TestPaperSolve:
    def test_stencils_are_the_papers_weights(self):
        for m, n in itertools.product(range(13), repeat=2):
            # a_hat[k] reads W_1..W_k only: the solve at t is this prefix
            co = twosided_coeffs(m, n, m + n)
            for t in range(1, m + n + 1):
                c = [math.factorial(t) * co.a_hat[t - p] for p in range(t + 1)]
                assert stencil_weights(m, n, t).weights == \
                    _paper_weights(co, c), (m, n, t)

    def test_the_solve_at_t_is_a_prefix_of_the_solve_at_m_plus_n(self):
        full = twosided_coeffs(3, 4, 7)
        for t in range(1, 8):
            co = twosided_coeffs(3, 4, t)
            assert co.W == full.W[:t] and co.a_hat == full.a_hat[:t + 1]

    @pytest.mark.parametrize("n", [*range(1, 25), 48, 70])
    def test_even_rules_are_the_papers_weights(self, n):
        # the paper's Taylor coefficients of the step integral over [0, n]
        co = twosided_coeffs(0, n, n)
        a = co.a_hat
        xi = [sum(a[j] * Fraction(n ** (k + j + 1), k + j + 1)
                  for j in range(n - k + 1)) for k in range(n + 1)]
        assert even_quad_weights(n).node_weights == _paper_weights(co, xi)


class TestOracleInterpolate:
    def test_square_at_three_halves(self):
        s = SampleSet([Fraction(0), Fraction(1), Fraction(2)],
                      [Fraction(0), Fraction(1), Fraction(4)])
        assert oracle_interpolate(s, Fraction(3, 2)) == Fraction(9, 4)

    def test_nodal_values(self, rng):
        poly = random_rational_poly(rng, 3)
        s = poly.sample(random_rational_nodes(rng, 4))
        for xi, fi in zip(s.nodes, s.values):
            assert oracle_interpolate(s, xi) == fi

    def test_reproduces_random_polynomial(self, rng):
        poly = random_rational_poly(rng, 7)
        s = poly.sample(random_rational_nodes(rng, 8))
        for _ in range(5):
            x = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            assert oracle_interpolate(s, x) == poly(x)

    def test_rejects_coincident_nodes(self):
        with pytest.raises(ValueError, match="coincident"):
            SampleSet([1, 1, 2], [0, 0, 0])


class TestReferenceFunction:
    def test_tabulated_values(self):
        printed = {1.0: 6.2780346, 2.0: 23.9857632, 3.0: 80.7655077}
        for x, want in printed.items():
            assert table5_function(x) == pytest.approx(want, abs=5e-7)

    def test_all_nine_rows(self):
        ys = [6.2780346, 9.0395024, 12.7004652, 17.5471328, 23.9857632,
              32.5858062, 44.1349092, 59.7094373, 80.7655077]
        for k, want in enumerate(ys):
            assert table5_function(1.0 + 0.25 * k) == pytest.approx(want, abs=5e-7)


class TestGoldenCatalog:
    def test_lookup(self):
        golden = known_stencils()
        assert golden["central-5pt-d2"].weights == tuple(
            Fraction(n, 12) for n in (-1, 16, -30, 16, -1))
        assert golden["simpson"].weights == tuple(
            Fraction(n, 3) for n in (1, 4, 1))
        assert golden["nc7"].weights == tuple(
            Fraction(n, 140) for n in (41, 216, 27, 272, 27, 216, 41))

    def test_seven_records(self):
        assert len(known_stencils()) == 7

    def test_derivative_records_satisfy_moment_conditions(self):
        for st in known_stencils().values():
            if st.kind != "derivative":
                continue
            for j in range(len(st.offsets)):
                want = math.factorial(st.order) if j == st.order else 0
                got = sum(c * Fraction(off) ** j
                          for c, off in zip(st.weights, st.offsets))
                assert got == want

    def test_apply_golden_derivative(self):
        st = known_stencils()["central-5pt-d2"]
        h = 0.05
        vals = [math.exp(i * h) for i in (-2, -1, 0, 1, 2)]
        assert st.apply(vals, h) == pytest.approx(1.0, abs=1e-6)

    def test_apply_golden_quadrature(self):
        st = known_stencils()["simpson"]
        assert st.apply([Fraction(0), Fraction(1), Fraction(4)],
                        Fraction(1)) == Fraction(8, 3)

    def test_computed_stencils_match_bit_for_bit(self):
        golden = known_stencils()
        assert stencil_weights(2, 2, 2).weights == golden["central-5pt-d2"].weights
        assert stencil_weights(4, 0, 2).weights == golden["backward-5pt-d2"].weights
