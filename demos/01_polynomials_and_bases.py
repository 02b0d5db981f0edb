"""Sparse polynomials: construction, calculus, evaluation, text form.

Run with:  python3 demos/01_polynomials_and_bases.py
"""

import numpy as np

from polyopt import Polynomial, basis, motzkin

# Build f = 2 x1^2 + x2^2 + x1 x2 - x1 - x2 three equivalent ways.
f = Polynomial(2, {(2, 0): 2.0, (0, 2): 1.0, (1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0})

x1 = Polynomial.variable(2, 0)
x2 = Polynomial.variable(2, 1)
g = 2.0 * x1 ** 2 + x2 ** 2 + x1 * x2 - x1 - x2

terms = [((2, 0), 2.0), ((0, 2), 1.0), ((1, 1), 1.0), ((1, 0), -1.0), ((0, 1), -1.0)]
h = sum((Polynomial.monomial(2, m, c) for m, c in terms), Polynomial.zero(2))

print("all three builds agree:", f == g == h)
print("f =", f)
print("degree:", f.degree, " max |coeff|:", f.coeff_norm())

# Calculus: gradient and Hessian are again polynomials.
print("\ngradient:", [str(p) for p in f.gradient()])
print("hessian[0][1] =", f.hessian()[0][1])

# Evaluation is compensated (exact term summation); batch evaluation is vectorized.
point = [1.0 / 7.0, 3.0 / 7.0]
print("\nf at the minimizer (1/7, 3/7):", f.eval(point), "= -2/7")
grid = np.stack(np.meshgrid(np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)), -1).reshape(-1, 2)
print("f on a 3x3 grid:", np.round(f.eval_many(grid), 3))

# The Motzkin polynomial: nonnegative everywhere, zero at (1,1,1)/sqrt(3),
# and famously not a sum of squares.
m = motzkin()
s = 1.0 / np.sqrt(3.0)
print("\nMotzkin polynomial:", m)
print("value at (1,1,1):", m.eval([1, 1, 1]))
print("value at (1,1,1)/sqrt(3):", m.eval([s, s, s]))

# Graded-lex monomial bases index every Gram and moment matrix in the toolkit.
b = basis(3, 2)
print("\nbasis(3, 2) has", len(b), "monomials:", list(b))

# The text form writes each coefficient as its exact float (repr).
print("\ntext form of f:", f.to_text())
