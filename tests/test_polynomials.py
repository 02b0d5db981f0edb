import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from polyopt import Polynomial, basis, basis_size, motzkin
from polyopt.errors import DimensionMismatchError
from polyopt.polynomials import grlex_key

from oracles import central_difference
from ratpoly import RatPoly


def random_poly(rng, nvars, degree, density=0.7):
    terms = {}
    for mono in basis(nvars, degree):
        if rng.uniform() < density:
            terms[mono] = rng.standard_normal()
    return Polynomial(nvars, terms)


class TestEval:
    def test_motzkin_at_ones(self):
        assert motzkin().eval([1.0, 1.0, 1.0]) == 0.0

    def test_zero_polynomial(self):
        z = Polynomial.zero(3)
        assert z.eval([0.3, -2.0, 7.0]) == 0.0

    def test_motzkin_at_symmetric_zero_exact_rational(self):
        # The float value at (1/sqrt3, 1/sqrt3, 1/sqrt3) must agree with the
        # exact rational substitution (all exponents are even, so the point's
        # squares suffice).
        m = motzkin()
        exact = RatPoly.from_float_poly(m).eval_squares(
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        assert exact == 0
        s = 1.0 / math.sqrt(3.0)
        assert abs(m.eval([s, s, s])) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            motzkin().eval([1.0, 2.0])

    def test_eval_many_matches_eval(self):
        rng = np.random.default_rng(7)
        p = random_poly(rng, 3, 4)
        pts = rng.uniform(-2, 2, size=(40, 3))
        batch = p.eval_many(pts)
        single = np.array([p.eval(x) for x in pts])
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)


class TestCalculus:
    def test_gradient_power_rule(self):
        p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        gx, gy = p.gradient()
        assert gx == Polynomial(2, {(1, 0): 2.0})
        assert gy == Polynomial(2, {(0, 1): 2.0})

    def test_gradient_of_constant(self):
        p = Polynomial.constant(3, 5.0)
        assert all(q.is_zero() for q in p.gradient())

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 4)
            p = random_poly(rng, int(n), int(rng.integers(1, 5)))
            x = rng.uniform(-1, 1, size=int(n))
            exact = np.array([q.eval(x) for q in p.gradient()])
            approx = central_difference(p, x)
            assert np.allclose(exact, approx, rtol=1e-6, atol=1e-6)

    def test_hessian_identity(self):
        p = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
        h = p.hessian()
        assert h[0][0] == Polynomial.constant(2, 2.0)
        assert h[1][1] == Polynomial.constant(2, 2.0)
        assert h[0][1].is_zero() and h[1][0].is_zero()

    def test_hessian_cross_term(self):
        p = Polynomial(2, {(1, 1): 1.0})
        h = p.hessian()
        assert h[0][1] == Polynomial.constant(2, 1.0)
        assert h[0][0].is_zero() and h[1][1].is_zero()

    def test_hessian_symmetry_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            p = random_poly(rng, n, int(rng.integers(0, 6)))
            h = p.hessian()
            for i in range(n):
                for j in range(i + 1, n):
                    assert h[i][j] == h[j][i]


class TestArithmetic:
    def test_difference_of_squares(self):
        x = Polynomial.variable(1, 0)
        one = Polynomial.constant(1, 1.0)
        assert (x + one) * (x - one) == Polynomial(1, {(2,): 1.0, (0,): -1.0})

    def test_additive_inverse_gives_empty_terms(self):
        rng = np.random.default_rng(3)
        p = random_poly(rng, 2, 3)
        q = p + (-1.0) * p
        assert q.is_zero()
        assert q.terms == {}
        assert q.degree == float("-inf")

    def test_motzkin_square_degree(self):
        m = motzkin()
        assert (m * m).degree == 12

    def test_degree_additive_random(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p = random_poly(rng, 2, int(rng.integers(1, 5)))
            q = random_poly(rng, 2, int(rng.integers(1, 5)))
            if p.is_zero() or q.is_zero():
                continue
            assert (p * q).degree == p.degree + q.degree

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.variable(2, 0) + Polynomial.variable(3, 0)

    def test_ring_axioms_random(self):
        rng = np.random.default_rng(17)

        def close(a, b):
            keys = set(a.terms) | set(b.terms)
            scale = max(a.coeff_norm(), b.coeff_norm(), 1.0)
            return all(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) <= 1e-12 * scale
                       for k in keys)

        for _ in range(25):
            p = random_poly(rng, 2, 3)
            q = random_poly(rng, 2, 3)
            r = random_poly(rng, 2, 3)
            assert close((p * q) * r, p * (q * r))
            assert close(p * (q + r), p * q + p * r)
            assert close((p + q) + r, p + (q + r))

    def test_eval_multiplicative(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            p = random_poly(rng, 3, 3)
            q = random_poly(rng, 3, 3)
            x = rng.uniform(-1, 1, size=3)
            lhs = (p * q).eval(x)
            rhs = p.eval(x) * q.eval(x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_canonicalization_idempotent(self):
        rng = np.random.default_rng(31)
        p = random_poly(rng, 2, 4)
        again = Polynomial(p.nvars, dict(p.terms))
        assert again == p
        assert Polynomial(again.nvars, dict(again.terms)) == again

    def test_dust_coefficients_dropped(self):
        p = Polynomial(1, {(0,): 1.0, (1,): 1e-16})
        assert p == Polynomial.constant(1, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_raises(self, bad):
        # a NaN used to make every dust test false, so every term was dropped
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(1, {(0,): bad, (1,): 1.0})
        with pytest.raises(ValueError, match="not finite"):
            Polynomial(1, {(1,): 1e300}) * Polynomial(1, {(0,): 1e300})


class TestBasis:
    def test_count_n3_d3(self):
        assert len(basis(3, 3)) == 20
        assert basis_size(3, 3) == 20

    def test_linear_basis_order(self):
        b = basis(2, 1)
        assert list(b) == [(0, 0), (1, 0), (0, 1)]

    def test_constant_only(self):
        assert list(basis(1, 0)) == [(0,)]

    def test_graded_lex_sorted(self):
        b = basis(3, 4)
        keys = [grlex_key(m) for m in b]
        assert keys == sorted(keys)
        assert len(set(b.entries)) == len(b)

    def test_index_map(self):
        b = basis(2, 3)
        for i, mono in enumerate(b):
            assert b.index[mono] == i


class TestCopies:
    """Immutable values copy and pickle through their constructors."""

    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_polynomial_and_basis(self, how):
        dup = {"copy": copy.copy, "deepcopy": copy.deepcopy,
               "pickle": lambda x: pickle.loads(pickle.dumps(x))}[how]
        p = Polynomial(2, {(1, 0): 1.0, (0, 2): -0.5})
        q = dup(p)
        assert q == p and q.sorted_terms() == p.sorted_terms()
        with pytest.raises(AttributeError, match="immutable"):
            q.nvars = 3
        # a copied basis is the shared one of ``basis``
        assert dup(basis(2, 2)) is basis(2, 2)


class TestText:
    def test_to_text_is_pinned(self):
        p = Polynomial(2, {(2, 1): 2.5, (0, 0): -0.125, (0, 2): 1.0 / 3.0})
        assert p.to_text() == "-0.125 + 0.3333333333333333 * x2^2 + 2.5 * x1^2 x2^1"
        assert Polynomial.zero(2).to_text() == "0"
