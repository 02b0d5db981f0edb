"""Level-k SOS and moment relaxations of a polynomial program as SDP data.

The SOS form maximizes gamma subject to

    f - gamma  =  sum_i phi_i h_i  +  sum_j sigma_j g_j        (g_0 = 1),

with deg(phi_i h_i) <= 2k and sigma_j a sum of squares with
deg(sigma_j g_j) <= 2k.  Matching coefficients monomial by monomial turns
this into one equality row per invariant monomial of degree <= 2k (below),
PSD Gram blocks for the sigma_j, and free scalars for gamma and the phi
coefficients.

The moment form is its dual: minimize sum f_alpha y_alpha over pseudo-moment
vectors y with y_0 = 1, the moment matrix and the localizing matrices
(M(g y))_{pq} = sum_gamma g_gamma y_{p+q+gamma} PSD, and y orthogonal to the
truncated ideal of the equalities.  It is built as exactly that, the SDP dual
(``SdpProblem.dual()``) of the SOS form, so the monomial algebra lives in the
SOS builder alone.  Its rows are y_0 = 1, the ideal rows (with equalities),
then the Gram-entry rows.

The SOS builder splits the relaxation by the instance's sign symmetries
(Gatermann & Parrilo 2004; Löfberg 2009).  A flip x_i -> -x_i of the
variables in a set S fixes the term x^alpha when |S & odd(alpha)| is even;
the flips that fix every term of f, g and h form a group G, the GF(2) null
space of the supports' parity vectors.  A monomial's sign class is its
parity dotted with each generator of G, and class 0 are the invariant
monomials.  Averaging an SOS solution over G keeps gamma and zeroes the
non-invariant coefficients and the Gram entries between classes, so the
level-k problem keeps exactly its bound when its rows are the invariant
monomials of degree <= 2k, each g_j's Gram block is split into one block
per class of its basis, and each phi_i ranges over the invariant monomials.
With a trivial G (no flip fixes f, g and h) nothing is split or dropped.

Both builders are deterministic: the same instance and level produce
identical problem data, with the SOS rows in graded-lex monomial order.

A built problem's layout (``SosLayout`` or ``MomentLayout``) alone maps a
solution back to the instance: ``layout.lift(sol)`` is a ``Lift``, which
reads the split problem in the instance's own shape.  Both forms index the
pseudo-moments y by the SOS rows (the moment form's free columns; the
moment layout takes them from the SOS layout), which the lift scatters into
``basis(n, 2k)``, zero at the non-invariant monomials; so the moments of
degree <= 2t are a prefix of y.  The lift assembles each g_j's Gram matrix
over its full basis from its class blocks, zero between classes, and names
the positions of each block, so that a certificate repairs them one by one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import LevelError
from .polynomials import Polynomial, basis, basis_size, monomial_mul
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
    (basis, Gram matrix, parts) triple per g_j, g_0 = 1 first, ``parts`` the
    positions of each of its SDP blocks in the basis (zero between two)."""

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
    rows: tuple               # positions of the SDP's rows in basis(nvars, 2*level)
    phi_slices: list          # per equality: (first free index, its monomials)
    block_bases: list         # per g_j, j = 0..m2: monomial basis of its Gram matrix
    blocks: tuple             # per SDP block: (j, its positions in block_bases[j])

    def lift(self, sol) -> Lift:
        """y are the row multipliers, and the blocks of g_j make its Gram matrix."""
        phi = tuple(Polynomial(self.nvars, dict(zip(bas, sol.free_values[start:start + len(bas)])))
                    for start, bas in self.phi_slices)
        grams = [np.zeros((len(bas), len(bas))) for bas in self.block_bases]
        for (j, part), x in zip(self.blocks, sol.x_blocks):
            idx = np.array(part)
            grams[j][idx[:, None], idx] = x
        parts = [tuple(part for i, part in self.blocks if i == j) for j in range(len(grams))]
        return Lift(value=float(sol.primal_objective), moments=_scatter(self, sol.dual_vector),
                    gamma=float(sol.free_values[0]), phi=phi,
                    grams=tuple(zip(self.block_bases, grams, parts)))


@dataclass
class MomentLayout:
    """Variable bookkeeping of a built moment relaxation (y are the free scalars)."""

    level: int
    nvars: int
    free_monomials: tuple     # per free scalar: its monomial
    rows: tuple               # per free scalar: its position in basis(nvars, 2*level)

    def lift(self, sol) -> Lift:
        """The form maximizes -L_y(f), so the bound is minus its objective."""
        return Lift(value=-float(sol.primal_objective), moments=_scatter(self, sol.free_values))


def _scatter(layout, values) -> np.ndarray:
    """y over ``basis(nvars, 2*level)`` from its values at ``layout.rows``."""
    y = np.zeros(basis_size(layout.nvars, 2 * layout.level))
    y[np.array(layout.rows)] = values
    return y


def _sign_group(inst: PopInstance) -> tuple:
    """A basis of G, the sign flips that fix every term of f, g and h, each a
    0/1 tuple s for x_i -> -x_i where s_i = 1; empty when G is trivial.

    s fixes x^alpha when s . alpha is even, so G is the null space over
    GF(2) of the supports' parity vectors, read off their reduced row
    echelon form (held as bitmasks): one generator per free column.
    """
    n = inst.nvars
    pivots = {}   # pivot bit -> its row, which holds no other pivot bit
    for poly in (inst.f, *inst.g, *inst.h):
        for mono in poly.terms:
            row = _parity(mono)
            for bit, prow in pivots.items():
                if row & bit:
                    row ^= prow
            if row:
                bit = row & -row
                for b, prow in pivots.items():
                    if prow & bit:
                        pivots[b] = prow ^ row
                pivots[bit] = row
                if len(pivots) == n:
                    return ()
    flips = []
    for i in range(n):
        if 1 << i not in pivots:
            flip = 1 << i | sum(bit for bit, prow in pivots.items() if prow >> i & 1)
            flips.append(tuple(flip >> v & 1 for v in range(n)))
    return tuple(flips)


@functools.lru_cache(maxsize=None)
def _parity(mono: tuple) -> int:
    """The exponents mod 2 of a monomial, bit i for x_i."""
    return sum(1 << i for i, e in enumerate(mono) if e & 1)


@functools.lru_cache(maxsize=None)
def _classes(nvars: int, degree: int, group: tuple) -> tuple:
    """``basis(nvars, degree)`` split by sign class: one (positions, monomials)
    pair per class, in order of first appearance, so the invariant monomials
    come first.  A class is the parities dotted with each generator, mod 2."""
    entries = basis(nvars, degree).entries
    exponents = np.array(entries, dtype=np.int64)
    codes = (exponents @ np.array(group, dtype=np.int64).reshape(-1, nvars).T % 2) \
        @ (1 << np.arange(len(group)))
    _, first = np.unique(codes, return_index=True)
    parts = (np.flatnonzero(codes == codes[i]).tolist() for i in np.sort(first))
    return tuple((tuple(part), tuple(entries[p] for p in part)) for part in parts)


@functools.lru_cache(maxsize=None)
def _row_index(nvars: int, degree: int, group: tuple) -> dict:
    """The row of each invariant monomial of ``basis(nvars, degree)``."""
    full = basis(nvars, degree)
    rows = _classes(nvars, degree, group)[0][1]
    return full.index if len(rows) == len(full) else {mono: r for r, mono in enumerate(rows)}


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
    group = _sign_group(inst)
    rows = _classes(n, 2 * k, group)[0][0]
    row_index = _row_index(n, 2 * k, group)
    nrows = len(rows)

    g_all, bases = _gram_bases(inst, k)
    a_blocks, blocks = [], []
    for j, (g, bas) in enumerate(zip(g_all, bases)):
        gterms = g.sorted_terms()
        for part, mono in _classes(n, bas.max_degree, group):
            # Gram entry (p, q) meets row mono[p] mono[q] gamma with coefficient g_gamma
            size = len(mono)
            t_rows, t_cols, t_vals = [], [], []
            for p in range(size):
                for q in range(p, size):
                    prod = monomial_mul(mono[p], mono[q])
                    for gamma, coeff in gterms:
                        t_rows.append(row_index[monomial_mul(prod, gamma)])
                        t_cols.append(p * size + q)
                        t_vals.append(coeff)
            a_blocks.append(CoeffBlock(nrows, size, t_rows, t_cols, t_vals))
            blocks.append((j, part))

    phi_slices = []
    nfree = 1
    for h in inst.h:
        mono = _classes(n, 2 * k - int(h.degree), group)[0][1]
        phi_slices.append((nfree, mono))
        nfree += len(mono)

    b_free = np.zeros((nrows, nfree))
    b_free[row_index[(0,) * n], 0] = 1.0
    for (start, mono), h in zip(phi_slices, inst.h):
        hterms = h.sorted_terms()
        for offset, beta in enumerate(mono):
            for gamma, coeff in hterms:
                b_free[row_index[monomial_mul(beta, gamma)], start + offset] += coeff

    rhs = np.zeros(nrows)
    for mono, coeff in inst.f.sorted_terms():
        rhs[row_index[mono]] = coeff

    c_free = np.zeros(nfree)
    c_free[0] = 1.0

    layout = SosLayout(level=k, nvars=n, rows=rows, phi_slices=phi_slices,
                       block_bases=[tuple(b.entries) for b in bases], blocks=tuple(blocks))
    return SdpProblem(
        block_sizes=[len(part) for _, part in blocks],
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
    rows, entries = sos.layout.rows, basis(inst.nvars, 2 * k).entries
    return sos.dual(name=f"moment-level-{k}",
                    layout=MomentLayout(level=k, nvars=inst.nvars, rows=rows,
                                        free_monomials=tuple(entries[r] for r in rows)))


def relaxation_value(prob: SdpProblem, sol) -> float:
    """The hierarchy lower bound f_k encoded by a solved relaxation."""
    if prob.layout is None:
        raise ValueError("problem has no relaxation layout")
    return prob.layout.lift(sol).value
