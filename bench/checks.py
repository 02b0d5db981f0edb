"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into polyopt: polynomials are read as plain
``{exponent tuple: coefficient}`` maps (``Polynomial.terms``), and every
expansion, evaluation and eigenvalue test is done with numpy and this
module's own arithmetic.  Each check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
from scipy.optimize import brentq

CERT_TOL = 1e-6        # identity residual, relative to 1 + max |f_alpha|
PSD_TOL = 1e-9         # Gram eigenvalues, relative to the largest one
MOMENT_PSD_TOL = 1e-6  # moment/localizing eigenvalues, relative to max(1, largest)


def monomials(nvars: int, max_degree: int) -> list:
    """Exponent tuples of degree <= max_degree, lower degree first and, within
    a degree, x1-heavy first (the order the corpus recipe draws in)."""
    out = []
    for total in range(max_degree + 1):
        for combo in combinations_with_replacement(range(nvars), total):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


def degree(terms: dict) -> int:
    return max((sum(m) for m in terms), default=0)


def evaluate(terms: dict, points) -> np.ndarray:
    """Values of the polynomial at each row of ``points``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.zeros(len(pts))
    for mono, coeff in terms.items():
        out += coeff * np.prod(pts ** np.asarray(mono), axis=1)
    return out


def _codes(monos, base: int) -> np.ndarray:
    """One integer per exponent row (exponents stay below ``base``)."""
    monos = np.asarray(monos, dtype=np.int64)
    return monos @ (base ** np.arange(monos.shape[-1], dtype=np.int64))


def identity_residual(f: dict, h: list, g: list, gamma: float, phi: list,
                      grams: list, nvars: int) -> float:
    """max |coefficient| of f - gamma - sum phi_i h_i - sum sigma_j g_j.

    ``grams`` is a list of (basis, matrix) pairs, block 0 paired with g_0 = 1
    and block j with g[j-1]; sigma_j = b^T G b over the basis b.
    """
    base = 64
    codes, weights = [], []

    def add(monos, w):
        codes.append(_codes(monos, base).ravel())
        weights.append(np.asarray(w, dtype=float).ravel())

    add(list(f), list(f.values()))
    add([(0,) * nvars], [-gamma])
    for p, hpoly in zip(phi, h):
        for m1, c1 in p.items():
            add([tuple(a + b for a, b in zip(m1, m2)) for m2 in hpoly],
                [-c1 * c2 for c2 in hpoly.values()])
    g_all = [{(0,) * nvars: 1.0}] + list(g)
    for (bas, mat), gpoly in zip(grams, g_all):
        bas = np.asarray(bas, dtype=np.int64).reshape(len(bas), nvars)
        pairs = bas[:, None, :] + bas[None, :, :]
        for gamma_mono, coeff in gpoly.items():
            add(pairs + np.asarray(gamma_mono), -coeff * np.asarray(mat))
    codes = np.concatenate(codes)
    weights = np.concatenate(weights)
    _, inverse = np.unique(codes, return_inverse=True)
    coeffs = np.bincount(inverse.ravel(), weights=weights)
    return float(np.abs(coeffs).max(initial=0.0))


def check_certificate(cert, inst) -> list:
    """PSD Gram blocks and the polynomial identity, re-expanded from scratch."""
    problems = []
    grams = [(gb.basis, np.asarray(gb.matrix, dtype=float)) for gb in cert.sigma_grams]
    if len(grams) != len(inst.g) + 1 or len(cert.phi) != len(inst.h):
        return [f"level {cert.level}: certificate has the wrong number of multipliers"]
    for j, (bas, mat) in enumerate(grams):
        if mat.shape != (len(bas), len(bas)):
            return [f"level {cert.level}: gram {j} does not match its basis"]
        eig = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        if eig[0] < -PSD_TOL * max(abs(eig[-1]), 1.0):
            problems.append(f"level {cert.level}: gram {j} has eigenvalue {eig[0]:.3e}")
    f = inst.f.terms
    residual = identity_residual(
        f, [p.terms for p in inst.h], [p.terms for p in inst.g], cert.gamma,
        [p.terms for p in cert.phi], grams, inst.nvars)
    limit = CERT_TOL * (1.0 + max(abs(c) for c in f.values()))
    if residual > limit:
        problems.append(f"level {cert.level}: identity residual {residual:.3e} > {limit:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Quadratic over the unit ball: the trust-region subproblem
# ---------------------------------------------------------------------------

def quadratic_parts(terms: dict, nvars: int):
    """(H, c, d) with f(x) = x^T H x / 2 + c.x + d for a polynomial of degree <= 2."""
    hess = np.zeros((nvars, nvars))
    lin = np.zeros(nvars)
    const = 0.0
    for mono, coeff in terms.items():
        idx = [i for i, e in enumerate(mono) for _ in range(e)]
        if len(idx) == 0:
            const += coeff
        elif len(idx) == 1:
            lin[idx[0]] += coeff
        elif len(idx) == 2:
            i, j = idx
            if i == j:
                hess[i, i] += 2.0 * coeff
            else:
                hess[i, j] += coeff
                hess[j, i] += coeff
        else:
            raise ValueError("polynomial has degree above 2")
    return hess, lin, const


def trust_region(hess, lin, const):
    """Global minimum of x^T H x / 2 + c.x + d over |x| <= 1.

    Returns (f*, x*, mu) with mu the multiplier of 1 - |x|^2 >= 0, so that
    H x* + c = -2 mu x*.  The boundary case solves the secular equation
    |x(nu)| = 1 with x(nu) = -(H + nu I)^{-1} c and nu = 2 mu; the hard case
    (c orthogonal to the lowest eigenvectors and |x(-e_min)| < 1) adds a
    multiple of a lowest eigenvector to reach the sphere.
    """
    eig, vec = np.linalg.eigh(hess)
    ct = vec.T @ lin
    scale = max(float(np.abs(eig).max(initial=0.0)), float(np.linalg.norm(lin)), 1.0)
    nu_lo = max(0.0, -float(eig[0]))

    def x_of(nu):
        with np.errstate(divide="ignore", invalid="ignore"):
            return -(vec @ (ct / (eig + nu)))

    if eig[0] > 1e-14 * scale:
        x = x_of(0.0)
        if x @ x <= 1.0:
            return float(x @ hess @ x / 2 + lin @ x + const), x, 0.0
    lowest = eig <= eig[0] + 1e-12 * scale
    if np.all(np.abs(ct[lowest]) <= 1e-12 * scale):
        rest = ~lowest
        xp = -(vec[:, rest] @ (ct[rest] / (eig[rest] + nu_lo)))
        if xp @ xp <= 1.0:
            x = xp + np.sqrt(1.0 - xp @ xp) * vec[:, 0]
            return float(x @ hess @ x / 2 + lin @ x + const), x, nu_lo / 2.0

    def secular(nu):
        norm = np.linalg.norm(x_of(nu))
        return (1.0 / norm if np.isfinite(norm) else 0.0) - 1.0

    nu_hi = nu_lo + float(np.linalg.norm(lin)) + 1.0
    nu = brentq(secular, nu_lo, nu_hi, xtol=1e-15, rtol=4 * np.finfo(float).eps, maxiter=500)
    x = x_of(nu)
    x = x / max(np.linalg.norm(x), 1.0)
    return float(x @ hess @ x / 2 + lin @ x + const), x, nu / 2.0


# ---------------------------------------------------------------------------
# Pseudo-moments of the moment form
# ---------------------------------------------------------------------------

def localizing_matrix(y: dict, gterms: dict, nvars: int, order: int) -> np.ndarray:
    """(M(g y))_{pq} = sum_gamma g_gamma y_{p+q+gamma} over monomials of degree <= order."""
    bas = monomials(nvars, order)
    mat = np.zeros((len(bas), len(bas)))
    for p, mp in enumerate(bas):
        for q in range(p, len(bas)):
            pq = tuple(a + b for a, b in zip(mp, bas[q]))
            val = sum(c * y[tuple(a + b for a, b in zip(pq, gm))] for gm, c in gterms.items())
            mat[p, q] = mat[q, p] = val
    return mat


def check_moments(y: dict, inst, level: int, value: float, sample_min: float) -> list:
    """y_0 = 1, PSD moment and localizing matrices, sum f_alpha y_alpha = value,
    and value <= min f over feasible sample points (a lower bound cannot exceed f)."""
    n = inst.nvars
    problems = []
    if abs(y[(0,) * n] - 1.0) > 1e-7:
        problems.append(f"y_0 = {y[(0,) * n]!r}")
    for j, gterms in enumerate([{(0,) * n: 1.0}] + [p.terms for p in inst.g]):
        order = level - (degree(gterms) + 1) // 2
        eig = np.linalg.eigvalsh(localizing_matrix(y, gterms, n, order))
        if eig[0] < -MOMENT_PSD_TOL * max(1.0, abs(eig[-1])):
            which = f"localizing matrix of g[{j - 1}]" if j else "moment matrix"
            problems.append(f"{which} has eigenvalue {eig[0]:.3e}")
    objective = sum(c * y[m] for m, c in inst.f.terms.items())
    if abs(objective - value) > 1e-9 * (1.0 + abs(value)):
        problems.append(f"sum f_alpha y_alpha = {objective!r} but the value is {value!r}")
    if value > sample_min + CERT_TOL * (1.0 + abs(sample_min)):
        problems.append(f"bound {value!r} exceeds f = {sample_min!r} at a feasible point")
    return problems


def feasible_sample_min(inst, rng, count: int = 4096) -> float:
    """min f over the origin and ``count`` uniform points of the unit ball that
    satisfy every inequality of the instance."""
    n = inst.nvars
    direction = rng.standard_normal((count, n))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    points = np.vstack([np.zeros(n), direction * rng.random((count, 1)) ** (1.0 / n)])
    feasible = np.ones(len(points), dtype=bool)
    for p in inst.g:
        feasible &= evaluate(p.terms, points) >= 0.0
    if inst.h:
        raise ValueError("sampling does not handle equality constraints")
    return float(evaluate(inst.f.terms, points[feasible]).min())
