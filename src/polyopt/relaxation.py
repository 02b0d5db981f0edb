"""Level-k SOS and moment relaxations of a polynomial program as SDP data.

The SOS form maximizes gamma subject to

    f - gamma  =  sum_i phi_i h_i  +  sum_j sigma_j g_j        (g_0 = 1),

with deg(phi_i h_i) <= 2k and sigma_j a sum of squares with
deg(sigma_j g_j) <= 2k.  Matching coefficients monomial by monomial turns
this into one equality row per monomial of degree <= 2k, PSD Gram blocks for
the sigma_j, and free scalars for gamma and the phi coefficients.

The moment form is its dual: minimize sum f_alpha y_alpha over pseudo-moment
vectors y with y_0 = 1, the moment matrix and the localizing matrices
(M(g y))_{pq} = sum_gamma g_gamma y_{p+q+gamma} PSD, and y orthogonal to the
truncated ideal of the equalities.  It is built as exactly that, the SDP dual
(``SdpProblem.dual()``) of the SOS form, so the monomial algebra lives in the
SOS builder alone.  Its rows are y_0 = 1, the ideal rows (with equalities),
then the Gram-entry rows.

Both builders are deterministic: the same instance and level produce
identical problem data, with the SOS rows in graded-lex monomial order.

A built problem's layout (``SosLayout`` or ``MomentLayout``) alone maps a
solution back to the instance: ``layout.lift(sol)`` is a ``Lift``.  Both forms
index the pseudo-moments y by ``basis(n, 2k)``, the SOS rows and the moment
free columns alike, so the solver's array is y as it is, and the moments of
degree <= 2t are a prefix of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelError
from .polynomials import Polynomial, basis, monomial_mul
from .pop import PopInstance, ball_constraint
from .sdp import CoeffBlock, SdpProblem


def augment_archimedean(inst: PopInstance, radius_sq: float) -> PopInstance:
    """Append the ball constraint radius_sq - |x|^2 >= 0 to the inequalities.

    Redundant whenever the feasible set already sits inside that ball, but it
    makes the constraint system archimedean, which the convergence theory of
    the hierarchy needs.  The bound applies to the squared norm.
    """
    if radius_sq <= 0:
        raise ValueError(f"ball bound must be positive, got {radius_sq}")
    extra = ball_constraint(inst.nvars, radius_sq)
    meta = dict(inst.metadata)
    meta.setdefault("ball_radius_sq", float(radius_sq))
    return PopInstance(f=inst.f, h=inst.h, g=inst.g + (extra,), metadata=meta)


@dataclass(frozen=True)
class Lift:
    """A solved relaxation read back onto the instance: the level's bound, the
    raw pseudo-moments y over ``basis(nvars, 2*level)`` (not divided by y_0)
    and, in the SOS form only, gamma, one phi polynomial per equality and one
    (basis, Gram matrix) pair per g_j, g_0 = 1 first."""

    value: float
    moments: np.ndarray
    gamma: float | None = None
    phi: tuple | None = None
    grams: tuple | None = None


@dataclass
class SosLayout:
    """Row/variable bookkeeping of a built SOS relaxation; free column 0 is gamma."""

    level: int
    nvars: int
    row_monomials: tuple
    phi_slices: list          # per equality: (first free index, monomial basis)
    block_bases: list         # per block j = 0..m2: monomial basis of the Gram block

    def lift(self, sol) -> Lift:
        """y are the row multipliers, and block j is the Gram matrix of sigma_j."""
        phi = tuple(Polynomial(self.nvars, dict(zip(bas, sol.free_values[start:start + len(bas)])))
                    for start, bas in self.phi_slices)
        return Lift(value=float(sol.primal_objective), moments=sol.dual_vector,
                    gamma=float(sol.free_values[0]), phi=phi,
                    grams=tuple(zip(self.block_bases, sol.x_blocks)))


@dataclass
class MomentLayout:
    """Variable bookkeeping of a built moment relaxation (y are the free scalars)."""

    level: int
    nvars: int
    free_monomials: tuple

    def lift(self, sol) -> Lift:
        """The form maximizes -L_y(f), so the bound is minus its objective."""
        return Lift(value=-float(sol.primal_objective), moments=sol.free_values)


def _gram_bases(inst: PopInstance, k: int):
    """Monomial basis of each Gram block, g_0 = 1 first."""
    n = inst.nvars
    g_all = [Polynomial.constant(n, 1.0)] + list(inst.g)
    bases = []
    for g in g_all:
        half = 0 if g.degree <= 0 else math.ceil(g.degree / 2)
        bases.append(basis(n, k - half))
    return g_all, bases


def build_sos_relaxation(inst: PopInstance, k: int) -> SdpProblem:
    min_k = inst.min_level()
    if k < min_k:
        raise LevelError(
            f"level {k} is below the minimum admissible level {min_k}", min_level=min_k)
    n = inst.nvars
    rows = basis(n, 2 * k)
    nrows = len(rows)
    row_index = rows.index

    g_all, bases = _gram_bases(inst, k)
    a_blocks = []
    for g, bas in zip(g_all, bases):
        # Gram entry (p, q) meets row bas[p] bas[q] gamma with coefficient g_gamma
        size = len(bas)
        gterms = g.sorted_terms()
        mono = bas.entries
        t_rows, t_cols, t_vals = [], [], []
        for p in range(size):
            for q in range(p, size):
                prod = monomial_mul(mono[p], mono[q])
                for gamma, coeff in gterms:
                    m = row_index[monomial_mul(prod, gamma)]
                    t_rows.append(m)
                    t_cols.append(p * size + q)
                    t_vals.append(coeff)
        a_blocks.append(CoeffBlock(nrows, size, t_rows, t_cols, t_vals))

    phi_slices = []
    nfree = 1
    for h in inst.h:
        bas = basis(n, 2 * k - int(h.degree))
        phi_slices.append((nfree, bas))
        nfree += len(bas)

    b_free = np.zeros((nrows, nfree))
    b_free[row_index[(0,) * n], 0] = 1.0
    for (start, bas), h in zip(phi_slices, inst.h):
        hterms = h.sorted_terms()
        for offset, beta in enumerate(bas):
            for gamma, coeff in hterms:
                b_free[row_index[monomial_mul(beta, gamma)], start + offset] += coeff

    rhs = np.zeros(nrows)
    for mono, coeff in inst.f.sorted_terms():
        rhs[row_index[mono]] = coeff

    c_free = np.zeros(nfree)
    c_free[0] = 1.0

    layout = SosLayout(level=k, nvars=n, row_monomials=tuple(rows.entries),
                       phi_slices=phi_slices, block_bases=[tuple(b.entries) for b in bases])
    return SdpProblem(
        block_sizes=[len(b) for b in bases],
        a_blocks=a_blocks, b_free=b_free, rhs=rhs, c_free=c_free,
        name=f"sos-level-{k}", layout=layout)


def build_moment_relaxation(inst: PopInstance, k: int) -> SdpProblem:
    """The level-k moment relaxation: the SDP dual of the SOS form.

    The pseudo-moments y, indexed by the SOS rows' monomials, are the free
    variables.  The rows are y_0 = 1, then L_y(h_i x^beta) = 0 for each
    equality and multiplier monomial, then one row per Gram entry p <= q of
    each block j, setting it to (M(g_j y))_{pq}.  The objective is
    max -L_y(f), so the bound is minus the solved objective.
    """
    sos = build_sos_relaxation(inst, k)
    return sos.dual(name=f"moment-level-{k}",
                    layout=MomentLayout(level=k, nvars=sos.layout.nvars,
                                        free_monomials=sos.layout.row_monomials))


def relaxation_value(prob: SdpProblem, sol) -> float:
    """The hierarchy lower bound f_k encoded by a solved relaxation."""
    if prob.layout is None:
        raise ValueError("problem has no relaxation layout")
    return prob.layout.lift(sol).value
