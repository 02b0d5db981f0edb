"""Exact-rational mirror of the polynomial type, for oracle checks only.

Coefficients and points are ``fractions.Fraction``; arithmetic and evaluation
are exact, which makes this a trustworthy reference for the float path.
"""

from __future__ import annotations

from fractions import Fraction

from polyopt import Polynomial


class RatPoly:
    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                self.terms[tuple(mono)] = self.terms.get(tuple(mono), Fraction(0)) + coeff
        self.terms = {m: c for m, c in self.terms.items() if c}

    @staticmethod
    def from_float_poly(p):
        return RatPoly(p.nvars, {m: Fraction(c) for m, c in p.terms.items()})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return RatPoly(self.nvars, out)

    def __neg__(self):
        return RatPoly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(self.nvars, {m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(m1, m2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return RatPoly(self.nvars, out)

    def eval(self, point):
        """Exact evaluation at a tuple of Fractions."""
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for xi, e in zip(point, mono):
                term *= Fraction(xi) ** e
            total += term
        return total

    def eval_squares(self, squares):
        """Exact evaluation at a point given by the SQUARES of its coordinates.

        Only valid when every exponent is even; this sidesteps irrational
        coordinates like 1/sqrt(3) whose squares are rational.
        """
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for sq, e in zip(squares, mono):
                if e % 2:
                    raise ValueError("odd exponent; point squares are not enough")
                term *= Fraction(sq) ** (e // 2)
            total += term
        return total


def ratpoly_defect(cert, inst):
    """f - gamma - sum phi_i h_i - sum sigma_j g_j in exact arithmetic, with
    each sigma_j expanded from the certificate's Gram matrix."""
    n = inst.nvars
    defect = RatPoly.from_float_poly(inst.f) - RatPoly(n, {(0,) * n: cert.gamma})
    for phi, h in zip(cert.phi, inst.h):
        defect = defect - RatPoly.from_float_poly(phi) * RatPoly.from_float_poly(h)
    g_all = [Polynomial.constant(n, 1.0)] + list(inst.g)
    for gram, g in zip(cert.sigma_grams, g_all):
        terms = {}
        for p, mp in enumerate(gram.basis):
            for q, mq in enumerate(gram.basis):
                mono = tuple(a + b for a, b in zip(mp, mq))
                terms[mono] = terms.get(mono, Fraction(0)) + Fraction(gram.matrix[p, q])
        defect = defect - RatPoly(n, terms) * RatPoly.from_float_poly(g)
    return defect
