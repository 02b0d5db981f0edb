"""Primal-dual interior-point solver for block-diagonal SDPs with sparse A.

Solves the maximization form of `SdpProblem`:

    max  c.u + sum_j <C_j, X_j>    s.t.  A(X) + B u = b,  X_j PSD,  u free,

together with its dual  min b.v  s.t.  Z_j = A_j*(v) - C_j PSD,  B^T v = c.

A problem made by ``SdpProblem.dual()`` is that dual written in the same
form, and it keeps its source in ``dual_of``.  The two are one primal-dual
pair, so ``solve`` runs the interior-point method on the source and, when
that run ends ``optimal``, returns its solution transposed (``_as_dual``).
The moment relaxation is such a problem, and its source, the SOS form, is
the smaller of the two: at the unsplit Motzkin level 5 (as
``tests/unreduced.py`` builds it) it has 286 rows and one free column
against 2,227 rows and 286 free columns, on which the direct run stalls.
GloptiPoly 3 hands the moment SDP to its solver in this dual form for the
same reason (Henrion, Lasserre and Lofberg, Optim. Methods Softw. 24,
2009).  Any other outcome of the source run falls back to a run on the
problem itself, so routing never makes a status worse.

X, Z, B and the Schur complement are dense; the coefficients A are not.
``_start`` mirrors each block's upper-triangle triplets once per solve
(``CoeffBlock.both_triangles``) and turns them into A as an (nrows, s*s)
matrix and its transpose.  A block is held as a dense ndarray when
nrows*s*s is below ``_DENSE_BELOW`` (there scipy's per-call cost outweighs
the zeros it skips) and as CSR otherwise.  The phases use only ``@``,
``.T`` and ``.reshape`` on them, so one ``_apply_A``, one ``_apply_At``
and one ``_schur`` serve both kinds.

``_schur`` forms M_mn = <A_m, (X A_n) Z^{-1}> one chunk of rows n at a
time, from a plan that ``_start`` makes once per solve (``_plan``).  Only
r_n rows of A_n are nonzero (in the SOS form Gram row p meets one row per
monomial, so sum_n r_n = s^2), and so only r_n rows of U_n = A_n X.  A
dense block stacks all s rows of each A_n; a CSR block stacks only its
nonzero rows and gathers: its chunk stacks just those rows of each A_n,
padded with empty rows to the chunk's largest r_n, and names the rows of
Z^{-1} that match them.  T_n = U_n^T Z^{-1} is one batched dense
product over these r_n-row operands, and M's columns get A T^T.  That is
2 s^2 sum_n (padded r_n) dense flops per block instead of 2 nrows s^3
(Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997, treat this
sparsity): at the unsplit Motzkin level 6 (``tests/unreduced.py``) the
84-block stacks 7,402 rows instead of 38,220, and its share of a
formation falls from 539 to 105 MFlop.  The rows are taken in one order for all blocks, the argsort of
r_n in the largest CSR block, so that the rows of a chunk have nearly the
same r_n; M is formed with its columns in that order and put back in
place by its symmetrization.  The padding adds exact zeros and every
other term is summed in the same order as over all s rows, so M is the
same to the bit.  A problem whose CSR blocks each fit in one chunk is not
permuted.  A chunk holds as many rows as keep its T within
``_CHUNK_BYTES`` (1 MiB), so a formation needs M plus a few MB instead of
whole-block arrays of nrows s^2 doubles.

The method is infeasible-start path following with the HKM search direction
and a Mehrotra predictor-corrector step.  ``solve`` is a short loop over
named phases that share one ``_Iterate``:

* ``_measure``     - residuals, objectives and mu of the iterate;
* ``_ray``         - the dual and primal ray tests (infeasible / unbounded);
* ``_factor_kkt``  - the Schur complement M and the factored KKT system;
* ``_kkt_solve``   - one KKT solve with iterative refinement;
* ``_newton``      - the search direction for a complementarity target,
  once as predictor and once as corrector, with ``_centering`` in between;
* ``_step``        - the fraction-to-boundary step to the next iterate;
* ``_final_status`` - the status, read off the best iterate seen.

Free variables make the Newton system M dv - B du = h1, B^T dv = r_f, with
M the HKM Schur complement.  The free columns are eliminated exactly, with
no regularization, by a Schur complement on them as SDPT3 does for free
blocks (Toh, Todd and Tutuncu, Optim. Methods Softw. 11, 1999; Anjos and
Burer, SIAM J. Optim. 18, 2007, compare the ways of handling free
variables): rho B times the second equation is added to the first,
K = M + rho B B^T is factored by Cholesky, and S = B^T K^{-1} B, of order
nfree, by LU.  The B B^T term keeps K positive definite where M is
singular, as on a row with no block entries (the moment form's y_0 = 1).
Rounding can still leave K a hair short of positive definite, late on or
when rows are dependent, so one retry adds a tiny shift to its unit
diagonal; the refinement against the operator absorbs the shift.
Dependent free columns, as from a repeated equality constraint, would make
S exactly singular, so ``_start`` keeps a column-independent subset of B,
picked once by pivoted QR, and the dropped free values are reported as 0.
When a direction in B's null space moves the objective c.u, the problem is
unbounded as soon as it is feasible, so a run whose best iterate meets
``tol_feas`` on the primal side ends ``unbounded``.

The per-iteration, per-block kernels call LAPACK directly: ``dtrtrs`` for
the triangular solves of ``_max_step`` and Z^{-1}, ``dpotrf``/``dpotrs``
for K and ``dgetrf``/``dgetrs`` for S, with ``np.vdot`` for the inner
products.  On the smallest levels (blocks of size 1-6, a few rows) the
argument checks of scipy's wrappers cost several times the arithmetic.
The calls are the ones the wrappers make, so the results are bit for bit
the same, and the checks that matter are kept where the values arise:
``_newton`` rejects a nonfinite direction before any step uses it,
``_factor_kkt`` gives up on a nonfinite S or a nonzero ``info`` from a
factorization, and a singular triangular factor raises LinAlgError.

The endgame is where the digits are won or lost.  Late on M is
ill-conditioned (order 1/mu^2, worse when the Gram blocks are large), and
at a full step the new primal residual is exactly the M-block residual of
the KKT solve, so these rules keep the last iterations converging instead
of wandering:

* refinement measures the residual with M applied as the operator
  dv -> A(X A*(dv) Z^{-1}) that the step realizes, not with the formed M,
  whose rounding late on exceeds ``tol_feas``; once that residual is large
  enough to matter next to ``tol_feas``, refinement continues while each
  round at least halves it and discards a round that does not reduce it;
* no step aims mu below half of what ``tol_gap`` asks for, and once both
  the objective gap and the complementarity gap mu*n meet ``tol_gap``
  while the infeasibility is still above ``tol_feas``, the centering
  parameter is 1: mu is held and the steps only repair feasibility,
  instead of driving mu (and the conditioning of M) further down;
* a step whose trial X or Z fails its Cholesky factorization is halved
  until it passes, so an eigenvalue estimate that is off near the cone
  boundary shortens the step instead of ending the run;
* the run stops when the iterates have moved far away (in residual terms)
  from a best iterate that was already within ``NEAR_TOL``, and the few
  polish iterations after convergence are counted whether or not they keep
  the tolerances: in both cases the best iterate is what is reported.

The cold start is the standard "big initialization": X = rho_p I and
Z = rho_d I with the two scales read off the problem norms, u = 0, v = 0,
which makes runs reproducible for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.lapack import dgetrf, dgetrs, dpotrf, dpotrs, dtrtrs
from scipy.sparse import csr_array

from .errors import check_tolerance
from .sdp import SdpProblem

STATUS_OPTIMAL = "optimal"
STATUS_NEAR_OPTIMAL = "near_optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_MAX_ITER = "max_iter"

STEP_FRACTION = 0.98  # fraction-to-boundary factor
NEAR_TOL = 1e-5       # residual band accepted as near_optimal
POLISH_ITERS = 3      # bonus iterations after reaching tolerance
_MAX_REFINE = 10      # cap on KKT refinement rounds per solve
_MAX_BACKOFF = 30     # cap on step halvings that look for a PD trial iterate
_DIVERGENCE = 1e5     # score growth past a near-optimal best iterate that ends a run
_DENSE_BELOW = 8192   # nrows*s*s under which a block's A is held dense, not as CSR
_CHUNK_BYTES = 1 << 20  # bytes of T (U takes no more) per chunk of rows that ``_schur`` forms
_CHOL_SHIFT = 10.0 * np.finfo(float).eps  # times nrows: the retry's shift of K's unit diagonal


@dataclass(frozen=True)
class SolverOptions:
    """The stopping rules of ``solve``, checked when made: ValueError when
    ``max_iter`` is below 1 or a tolerance is not finite and positive (a NaN
    tolerance is never met)."""

    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        check_tolerance("tol_gap", self.tol_gap)
        check_tolerance("tol_feas", self.tol_feas)


@dataclass
class SdpSolution:
    status: str
    x_blocks: list
    free_values: np.ndarray
    dual_vector: np.ndarray
    z_blocks: list
    primal_objective: float
    dual_objective: float
    iterations: int
    residuals: dict
    trace: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OPTIMAL, STATUS_NEAR_OPTIMAL)


@dataclass
class _Data:
    """The problem arrays as the phases use them, and the scales they share."""

    sizes: list
    nrows: int
    nfree: int
    ntotal: int           # sum of the block sizes
    a_ops: list           # per block: A as an (nrows, s*s) operator, dense or CSR
    a_ts: list            # its transpose, (s*s, nrows)
    a_chunks: list        # per block: the (lo, hi, stack, gather) chunks of ``_chunks``
    position: np.ndarray | None  # where ``_schur`` forms column n of M; None: at n
    b: np.ndarray
    bmat: np.ndarray
    bbt: np.ndarray | None  # B B^T, fixed for the solve; None without free columns
    bbt_mean: float       # mean diag(B B^T), the yardstick of K's rho
    c_free: np.ndarray
    c_blocks: list
    free_cols: np.ndarray | None  # the columns of the problem's B kept in bmat; None: all
    null_moves_c: bool    # a dropped column's null direction moves c.u: unbounded if feasible
    rho_p: float          # initial X scale, the yardstick of the primal-ray test
    b_scale: float
    c_scale: float
    refine_floor: float   # KKT residuals below this cannot move the stopping test


@dataclass
class _Iterate:
    """X, Z (with their Cholesky factors), u and v; ``_measure`` fills in the
    rest.  A step makes a new iterate and never writes into an old one, so
    the best iterate can be kept by reference."""

    x: list
    z: list
    x_chol: list
    z_chol: list
    u: np.ndarray
    v: np.ndarray
    r_p: np.ndarray | None = None
    r_d: list | None = None
    r_f: np.ndarray | None = None
    mu: float = 0.0
    primal: float = 0.0
    dual: float = 0.0
    err_p: float = np.inf
    err_d: float = np.inf
    rel_gap: float = np.inf

    @property
    def score(self) -> float:
        return max(self.err_p, self.err_d, self.rel_gap)

    def meets(self, opts: SolverOptions) -> bool:
        return (self.err_p <= opts.tol_feas and self.err_d <= opts.tol_feas
                and self.rel_gap <= opts.tol_gap)


@dataclass
class _Kkt:
    """One iteration's factored KKT system (``_factor_kkt``): the Cholesky
    factor of K = M + rho B B^T scaled to unit diagonal, and the LU factors
    of S = B^T K^{-1} B, the Schur complement on the free columns."""

    z_inv: list
    rho: float
    scale: np.ndarray      # K is factored as diag(scale) K diag(scale)
    chol: np.ndarray       # its lower Cholesky factor (upper triangle unused)
    s_lu: tuple | None = None  # None when there are no free columns


def _sym(mat):
    return (mat + mat.T) / 2.0


def _apply_A(data: _Data, x_blocks):
    """A(X): one inner product per row."""
    out = None
    for a, x in zip(data.a_ops, x_blocks):
        term = a @ x.reshape(-1)
        out = term if out is None else out + term
    return out


def _apply_At(data: _Data, v):
    """A*(v) per block, one matrix-vector product each."""
    return [(at @ v).reshape(s, s) for at, s in zip(data.a_ts, data.sizes)]


def _lower_solve(chol_lower, rhs):
    """L^{-1} rhs for a C-ordered lower triangular L, by ``dtrtrs`` on the
    upper triangular L^T in Fortran order, which is the call
    ``solve_triangular(L, rhs, lower=True)`` makes for such an L, without
    its checks; a zero on the diagonal of L raises LinAlgError."""
    x, info = dtrtrs(chol_lower.T, rhs, lower=0, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular triangular factor (dtrtrs info {info})")
    return x


def _max_step(chol_lower, delta):
    """Largest alpha with P + alpha*D PSD, via L^{-1} D L^{-T} eigenvalues."""
    w = _lower_solve(chol_lower, delta)
    w = _lower_solve(chol_lower, w.T).T
    lam_min = np.linalg.eigvalsh(_sym(w)).min()
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _pd_step(blocks, deltas, chols):
    """Fraction-to-boundary step along ``deltas``, with the stepped blocks and
    their Cholesky factors (``None`` for both if no step keeps them PD).

    Near the cone boundary the eigenvalue bound of ``_max_step`` is only as
    good as ``chols``, so a trial that fails Cholesky is halved until it
    passes; the factors are reused by the next iteration.
    """
    alpha = min(1.0, STEP_FRACTION * min(_max_step(lc, d) for lc, d in zip(chols, deltas)))
    for _ in range(_MAX_BACKOFF):
        trial = [_sym(m + alpha * d) for m, d in zip(blocks, deltas)]
        try:
            return alpha, trial, [np.linalg.cholesky(t) for t in trial]
        except np.linalg.LinAlgError:
            alpha *= 0.5
    return alpha, None, None


def _operators(nrows: int, s: int, rows, cols, vals):
    """(A, A^T) of one block from both triangles' triplets, (nrows, s*s)
    and (s*s, nrows): views of one dense array when the block is small
    enough that scipy's per-call cost would outweigh the zeros, else A is
    CSR and A^T is ``a.T``, the CSC view over A's arrays."""
    if nrows * s * s < _DENSE_BELOW:
        a = np.zeros((nrows, s * s))
        a[rows, cols] = vals
        return a, a.T
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=indptr[1:])
    a = csr_array((vals, cols, indptr), shape=(nrows, s * s))
    return a, a.T


def _chunk_rows(s: int) -> int:
    """How many rows n ``_schur`` forms at a time in a block of size s: as
    many as keep their T_n, s*s doubles each, within ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (8 * s * s))


def _nonzero_rows(s: int, rows, cols):
    """(keys, inverse): m*s + p for each nonzero row p of each A_m, in
    increasing order, and the index into keys of each triplet's row.  The
    triplets are sorted by (m, p, q), so a key starts where m*s + p changes."""
    key = rows * s + cols // s
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return key[starts], np.cumsum(starts) - 1


def _chunks(a, s: int, triplets, nonzero, order, position):
    """The ``(lo, hi, stack, gather)`` chunks of one block: ``_schur`` forms
    the columns of M at positions lo..hi-1 of ``order`` from each, those of
    rows order[lo:hi] (rows lo..hi-1 when ``order`` is None; ``position``
    is its inverse).

    A dense block stacks all s rows of each A_n; a CSR block stacks only
    its nonzero rows and gathers.  A dense block's ``stack`` is its A_n
    stacked, s rows each, and ``gather`` is None.  A CSR block's holds the
    r_n nonzero rows of each A_n, in their order, padded with empty rows to
    the chunk's largest r_n, and ``gather``, (hi - lo, that r_n), names the
    row of A_n, and so of Z^{-1}, that each is; a padding row names row 0."""
    nrows = a.shape[0]
    step = _chunk_rows(s)
    starts = np.arange(0, nrows, step)
    widths = np.minimum(step, nrows - starts)
    if nonzero is None:
        cube = a.reshape(nrows, s, s)
        stack = (cube if order is None else cube[order]).reshape(nrows * s, s)
        return [(lo, lo + width, stack[lo * s:(lo + width) * s], None)
                for lo, width in zip(starts.tolist(), widths.tolist())]
    _, cols, vals = triplets
    keys, inverse = nonzero
    owner, row = np.divmod(keys, s)
    counts = np.bincount(owner, minlength=nrows)
    rank = np.arange(len(keys)) - (np.cumsum(counts) - counts)[owner]
    pos = owner if position is None else position[owner]
    pad = np.maximum.reduceat(counts if order is None else counts[order], starts)
    offsets = np.zeros(len(starts) + 1, dtype=np.int64)
    np.cumsum(widths * pad, out=offsets[1:])
    chunk = pos // step
    slot = offsets[chunk] + (pos - starts[chunk]) * pad[chunk] + rank
    gather = np.zeros(offsets[-1], dtype=np.intp)
    gather[slot] = row
    entry = slot[inverse]
    if position is not None:
        # a stable sort keeps each row's entries in the triplet order; in
        # the natural order they are sorted already
        by_slot = np.argsort(entry, kind="stable")
        entry, cols, vals = entry[by_slot], cols[by_slot], vals[by_slot]
    indptr = np.zeros(offsets[-1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry, minlength=offsets[-1]), out=indptr[1:])
    stack = csr_array((vals, cols % s, indptr), shape=(offsets[-1], s))
    return [(lo, lo + width, stack[begin:end], gather[begin:end].reshape(width, -1))
            for lo, width, begin, end in zip(starts.tolist(), widths.tolist(),
                                             offsets[:-1].tolist(), offsets[1:].tolist())]


def _plan(sizes, nrows: int, a_ops, full):
    """(chunks, position): each block's chunks (``_chunks``) and where
    ``_schur`` forms each column of M, None when in place.

    The order is the argsort of r_n, the number of nonzero rows of A_n, in
    the largest CSR block, so that the rows of a chunk have nearly the
    same r_n and little padding; r_n follows nearly the same pattern in
    every block.  It is used only when some CSR block has more than one
    chunk: with one chunk per block it would change no padding and cost a
    gather in the symmetrization."""
    nonzero = [None if isinstance(a, np.ndarray) else _nonzero_rows(s, rows, cols)
               for a, s, (rows, cols, _) in zip(a_ops, sizes, full)]
    csr = [(s, nz) for s, nz in zip(sizes, nonzero) if nz is not None]
    order = position = None
    if any(nrows > _chunk_rows(s) for s, _ in csr):
        s, (keys, _) = max(csr, key=lambda item: item[0])
        order = np.argsort(np.bincount(keys // s, minlength=nrows), kind="stable")
        position = np.empty(nrows, dtype=np.intp)
        position[order] = np.arange(nrows)
    return [_chunks(a, s, t, nz, order, position)
            for a, s, t, nz in zip(a_ops, sizes, full, nonzero)], position


def _independent_columns(bmat, c_free):
    """(kept, moves_c): the indices of a column-independent subset of B,
    picked by pivoted QR (None when B has full column rank), and whether a
    direction in B's null space moves the objective c.u.

    It does not when c's dropped entries are the same combination of its
    kept entries as B's dropped columns are of its kept columns.  Otherwise
    the problem is unbounded once it has a feasible point, and the kept
    columns alone describe a bounded one."""
    if bmat.shape[1] == 0:
        return None, False
    r, piv = qr(bmat, mode="r", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.count_nonzero(diag > max(bmat.shape) * np.finfo(float).eps * diag[0]))
    if rank == bmat.shape[1]:
        return None, False
    # B[:, piv] = Q R, so the dropped columns are B_kept W with W = R11^{-1} R12
    w = solve_triangular(r[:rank, :rank], r[:rank, rank:])
    c_piv = c_free[piv]
    moves_c = np.linalg.norm(c_piv[rank:] - w.T @ c_piv[:rank]) > \
        1e-12 * (1.0 + np.linalg.norm(c_free))
    return np.sort(piv[:rank]), bool(moves_c)


def _start(prob: SdpProblem, opts: SolverOptions):
    """The phases' view of the problem, and the big initialization from its norms.

    Dependent free columns (a repeated equality constraint gives them) would
    make S = B^T K^{-1} B exactly singular, so only a column-independent
    subset of B is kept; ``solve`` reports the dropped free values as 0."""
    sizes = prob.block_sizes
    full = [blk.both_triangles() for blk in prob.a_blocks]
    a_ops, a_ts = zip(*(_operators(prob.nrows, s, *t) for s, t in zip(sizes, full)))
    a_chunks, position = _plan(sizes, prob.nrows, a_ops, full)
    b, bmat, c_free = prob.rhs, prob.b_free, prob.c_free
    free_cols, null_moves_c = _independent_columns(bmat, c_free)
    if free_cols is not None:
        bmat, c_free = bmat[:, free_cols], c_free[free_cols]
    anorm = np.sqrt(sum(np.bincount(rows, weights=vals ** 2, minlength=prob.nrows)
                        for rows, _, vals in full) + (bmat ** 2).sum(axis=1))
    rho_p = max(10.0, np.sqrt(max(sizes)),
                max(sizes) * float(np.max((1.0 + np.abs(b)) / (1.0 + anorm))))
    cnorm = max((float(np.linalg.norm(c)) for c in prob.c_blocks), default=0.0)
    rho_d = max(10.0, np.sqrt(max(sizes)), float(anorm.max(initial=0.0)), cnorm,
                float(np.linalg.norm(c_free)))
    b_scale = 1.0 + float(np.linalg.norm(b))
    c_scale = 1.0 + max(cnorm, float(np.linalg.norm(c_free)))
    bbt, bbt_mean = None, 0.0
    if bmat.shape[1]:
        bbt, bbt_mean = bmat @ bmat.T, max(float((bmat ** 2).sum()) / prob.nrows, 1e-300)
    data = _Data(sizes, prob.nrows, bmat.shape[1], sum(sizes), a_ops, a_ts, a_chunks, position,
                 b, bmat, bbt, bbt_mean, c_free, prob.c_blocks, free_cols, null_moves_c, rho_p,
                 b_scale, c_scale, 1e-2 * opts.tol_feas * min(b_scale, c_scale))
    # the Cholesky factor of rho I is sqrt(rho) I, bit for bit
    eyes = [np.eye(s) for s in sizes]
    return data, _Iterate([rho_p * e for e in eyes], [rho_d * e for e in eyes],
                          [np.sqrt(rho_p) * e for e in eyes], [np.sqrt(rho_d) * e for e in eyes],
                          np.zeros(bmat.shape[1]), np.zeros(prob.nrows))


def _measure(data: _Data, it: _Iterate) -> dict:
    """Residuals, objectives, gaps and mu of ``it``, stored on it and
    returned as a trace row."""
    it.r_p = data.b - _apply_A(data, it.x) - data.bmat @ it.u
    atv = _apply_At(data, it.v)
    it.r_d = [at - cb - zb for at, cb, zb in zip(atv, data.c_blocks, it.z)]
    it.r_f = data.c_free - data.bmat.T @ it.v
    it.mu = sum(float(np.vdot(xb, zb)) for xb, zb in zip(it.x, it.z)) / data.ntotal
    it.primal = float(data.c_free @ it.u) + sum(float(np.vdot(cb, xb))
                                                for cb, xb in zip(data.c_blocks, it.x))
    it.dual = float(data.b @ it.v)
    it.err_p = float(np.linalg.norm(it.r_p)) / data.b_scale
    it.err_d = max(max(float(np.linalg.norm(rd)) for rd in it.r_d),
                   float(np.linalg.norm(it.r_f))) / data.c_scale
    it.rel_gap = abs(it.dual - it.primal) / (1.0 + (abs(it.primal) + abs(it.dual)) / 2.0)
    gap_slack = (sum(abs(float(np.vdot(rd, xb))) for rd, xb in zip(it.r_d, it.x))
                 + abs(float(it.r_f @ it.u)) + abs(float(it.r_p @ it.v)))
    return {"mu": it.mu, "primal": it.primal, "dual": it.dual, "err_primal": it.err_p,
            "err_dual": it.err_d, "rel_gap": it.rel_gap, "gap_slack": gap_slack}


def _ray(data: _Data, it: _Iterate, start_err_p: float):
    """(status, note) when a scaled dual ray certifies primal infeasibility or
    a scaled primal ray certifies unboundedness, else None.

    Infeasible-start path following only ever shrinks r_p, by (1 - alpha_p)
    per step, so a primal ray is accepted only from an iterate whose primal
    residual is no larger than the first iterate's (``start_err_p``): a
    large X with a blown-up r_p is a breakdown, not a ray.
    """
    vnorm = float(np.linalg.norm(it.v))
    if vnorm > 1e8 * data.b_scale:
        vn = it.v / vnorm
        ray_psd = min(np.linalg.eigvalsh(_sym(r)).min() for r in _apply_At(data, vn))
        if (float(np.linalg.norm(data.bmat.T @ vn)) < 1e-6
                and ray_psd > -1e-6 and float(data.b @ vn) < -1e-8):
            return STATUS_INFEASIBLE, "dual ray found: primal certified infeasible"
    xnorm = max(float(np.linalg.norm(xb)) for xb in it.x) + float(np.linalg.norm(it.u))
    if (xnorm > 1e8 * data.rho_p and it.primal > 1e8 * (1.0 + abs(it.dual))
            and it.err_p <= start_err_p):
        resid_ray = float(np.linalg.norm(
            _apply_A(data, [xb / xnorm for xb in it.x]) + data.bmat @ (it.u / xnorm)))
        if resid_ray < 1e-6 and it.primal / xnorm > 1e-8:
            return STATUS_UNBOUNDED, "primal ray found: objective unbounded above"
    return None


def _schur(data: _Data, x_blocks, z_inv):
    """The HKM Schur complement M_mn = sum_j <A_{j,m}, X_j A_{j,n} Z_j^{-1}>.

    Per block, the columns of M are formed a chunk at a time
    (``_Data.a_chunks``, see ``_chunks``): a dense block stacks all s rows
    of each A_n; a CSR block stacks only its nonzero rows and gathers.
    U_n = A_n X over the rows that the chunk stacks (sparse work),
    T_n = U_n^T Z^{-1} = (X A_n) Z^{-1} as one batched product with the
    matching rows of Z^{-1}, and the chunk's columns of M get A T^T with A
    as held.  A zero row of U_n only adds exact zeros to T_n, and the
    other terms are summed in the order of the rows, so leaving out zero
    rows and padding with them change no bit of M; neither does the chunk
    size.  Per block that is 2 s^2 sum_n (padded r_n) dense flops, at most
    2 nrows s^3, plus O(nnz (s + nrows)) sparse ones.  The product is
    associated as (X A_n) Z^{-1}, as it was with dense A; the
    free-variable endgame is sensitive enough to rounding that
    X (A_n Z^{-1}) leaves other corpus levels short of the tolerances.

    Row i of the array holds column i of M, or column order[i] when
    ``_plan`` permuted the rows (``_Data.position`` is the inverse), so a
    chunk's columns are one contiguous write.  The array is then
    symmetrized in place, a stripe of columns lo..hi-1 at a time, each
    entry becoming (M_ij + M_ji) / 2 as in ``_sym``: the stripe reads the
    entries it needs at their formed positions, and the columns after it
    only after it is written, so the same pass puts M back in place, with
    temporaries of at most ``_CHUNK_BYTES`` instead of a second M.  The
    result is symmetric, so it is its own transpose.
    """
    nrows, position = data.nrows, data.position
    schur = np.zeros((nrows, nrows))
    for a, chunks, s, xb, zi in zip(data.a_ops, data.a_chunks, data.sizes, x_blocks, z_inv):
        for lo, hi, stack, gather in chunks:
            u = (stack @ xb).reshape(hi - lo, -1, s)
            t = np.matmul(u.transpose(0, 2, 1), zi if gather is None else zi.take(gather, axis=0))
            schur[lo:hi] += (a @ t.reshape(hi - lo, -1).T).T
    step = max(1, _CHUNK_BYTES // (8 * nrows))
    for lo in range(0, nrows, step):
        hi = min(lo + step, nrows)
        # mean[n - lo, m - lo] = (M_mn + M_nm) / 2 for n >= lo, lo <= m < hi
        if position is None:
            mean = schur[lo:, lo:hi] + schur[lo:hi, lo:].T
        else:
            mean = schur[position[lo:], lo:hi] + schur[position[lo:hi], lo:].T
        mean /= 2.0
        schur[:lo, lo:hi] = schur[lo:hi, :lo].T
        schur[lo:, lo:hi] = mean
    return schur


def _factor_kkt(data: _Data, it: _Iterate) -> _Kkt | None:
    """Form the Schur complement M with ``_schur`` from the sparse A (X and Z
    were factored when the last step was taken) and factor the KKT system
    around it; None if K or S cannot be factored.

    The system is M dv - B du = h1, B^T dv = r_f.  Adding rho B times the
    second equation to the first gives K dv - B du = h1 + rho B r_f with
    K = M + rho B B^T.  M has a zero row wherever a row has no block
    entries, such as the moment form's y_0 = 1; B covers such rows, so K
    is positive definite there.  K is factored by Cholesky after scaling it
    to unit diagonal, and the free columns by LU of the small
    S = B^T K^{-1} B, so B^T dv = r_f holds without any regularization.
    rho is mean diag(M) / mean diag(B B^T), which keeps both terms of K of
    one size; B B^T and its mean diagonal are formed once, in ``_start``.

    Rounding can still leave the scaled K a hair short of positive definite
    when it is singular to working precision (dependent rows, or late on
    when M is of order 1/mu^2): its smallest eigenvalue is then about
    -nrows * eps, the size of the rounding in forming and factoring it.  So
    a failed Cholesky is retried once with ``_CHOL_SHIFT * nrows`` added to
    the unit diagonal.  Solves refine against ``_kkt_apply``, which absorbs
    that shift and the rounding of the formed M.  Cholesky is invariant to
    diagonal scaling, but the scaling stays for its rounding: unscaled, with
    the retry multiplying the diagonal by 1 + 10 nrows eps, the gallery's
    ``equality-quadratic`` level 3 and a repeated equality end
    ``near_optimal`` instead of ``optimal``.
    """
    z_inv = []
    for s, lc in zip(data.sizes, it.z_chol):
        w = _lower_solve(lc, np.eye(s))
        z_inv.append(_sym(w.T @ w))
    kmat = _schur(data, it.x, z_inv)
    rho = 0.0
    if data.nfree:
        rho = max(float(np.diag(kmat).mean()), 1e-300) / data.bbt_mean
        kmat += rho * data.bbt
    scale = 1.0 / np.sqrt(np.clip(np.diag(kmat), 1e-300, None))
    kmat *= scale[:, None] * scale[None, :]
    chol, info = dpotrf(kmat, lower=1, clean=0)
    if info > 0:
        kmat[np.diag_indices_from(kmat)] += _CHOL_SHIFT * data.nrows
        chol, info = dpotrf(kmat, lower=1, clean=0)
    if info != 0:
        return None
    kkt = _Kkt(z_inv, rho, scale, chol)
    if data.nfree:
        smat = data.bmat.T @ _k_solve(kkt, data.bmat)
        if not np.all(np.isfinite(smat)):
            return None
        lu, piv, info = dgetrf(smat)
        if info != 0:
            return None
        kkt.s_lu = lu, piv
    return kkt


def _k_solve(kkt: _Kkt, rhs):
    """K^{-1} rhs through the Cholesky factor of the scaled K."""
    scale = kkt.scale if rhs.ndim == 1 else kkt.scale[:, None]
    return scale * dpotrs(kkt.chol, scale * rhs, lower=1)[0]


def _kkt_apply(data: _Data, it: _Iterate, kkt: _Kkt, sol):
    """The KKT operator (dv, du) -> (M dv - B du, B^T dv) with M applied as
    dv -> A(X A*(dv) Z^{-1}).

    This is the map a full step realizes, so its residual is the r_p the
    step leaves behind; the formed M differs from it by rounding of order
    eps * |M|, which late on is larger than ``tol_feas``.
    """
    dv, du = sol[:data.nrows], sol[data.nrows:]
    atdv = _apply_At(data, dv)
    top = _apply_A(data, [xb @ m @ zi for xb, m, zi in zip(it.x, atdv, kkt.z_inv)])
    return np.concatenate([top - data.bmat @ du, data.bmat.T @ dv])


def _kkt_direct(data: _Data, kkt: _Kkt, rhs):
    """(dv, du) from the factors for right-hand side (h1, r_f):
    du = S^{-1}(r_f - B^T K^{-1} g) with g = h1 + rho B r_f, then
    dv = K^{-1}(g + B du), so that B^T dv = r_f.  dv takes a second solve
    with K rather than a product with K^{-1} B, which is then needed only
    to form S and is not kept."""
    h1, rf = rhs[:data.nrows], rhs[data.nrows:]
    if not data.nfree:
        return _k_solve(kkt, h1)
    g = h1 + kkt.rho * (data.bmat @ rf)
    du = dgetrs(*kkt.s_lu, rf - data.bmat.T @ _k_solve(kkt, g))[0]
    return np.concatenate([_k_solve(kkt, g + data.bmat @ du), du])


def _kkt_solve(data: _Data, it: _Iterate, kkt: _Kkt, h1, rf):
    """(dv, du) from the factored KKT system, refined against the operator
    while each round at least halves the residual; a round that makes it
    larger is never kept."""
    rhs = np.concatenate([h1, rf])
    sol = _kkt_direct(data, kkt, rhs)
    res = rhs - _kkt_apply(data, it, kkt, sol)
    res_norm = float(np.linalg.norm(res))
    for _ in range(_MAX_REFINE if res_norm > data.refine_floor else 0):
        cand = sol + _kkt_direct(data, kkt, res)
        cand_res = rhs - _kkt_apply(data, it, kkt, cand)
        cand_norm = float(np.linalg.norm(cand_res))
        if not cand_norm < res_norm:
            break
        halved = cand_norm <= 0.5 * res_norm
        sol, res, res_norm = cand, cand_res, cand_norm
        if not halved:
            break
    return sol[:data.nrows], sol[data.nrows:]


def _newton(data: _Data, it: _Iterate, kkt: _Kkt, k_blocks, label: str):
    """Direction (dv, du, dx, dz) for complementarity target K (None means
    K = 0); a nonfinite one raises ValueError naming ``label``."""
    h1 = -it.r_p - _apply_A(data, it.x)
    adj = []
    for j, (xb, rd, zi) in enumerate(zip(it.x, it.r_d, kkt.z_inv)):
        term = xb @ rd @ zi
        if k_blocks is not None:
            term = term - k_blocks[j] @ zi
        adj.append(term)
    h1 = h1 - _apply_A(data, adj)
    # h1 = A(K Z^{-1}) - A(X) - A(X R_d Z^{-1}) - r_p
    dv, du = _kkt_solve(data, it, kkt, h1, it.r_f)
    atdv = _apply_At(data, dv)
    dz = [at + rd for at, rd in zip(atdv, it.r_d)]
    dx = []
    for j, (xb, dzb, zi) in enumerate(zip(it.x, dz, kkt.z_inv)):
        mat = -xb - xb @ dzb @ zi
        if k_blocks is not None:
            mat = mat + k_blocks[j] @ zi
        dx.append(_sym(mat))
    if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(du))
            and all(np.all(np.isfinite(m)) for m in dx)
            and all(np.all(np.isfinite(m)) for m in dz)):
        raise ValueError(f"nonfinite {label} direction")
    return dv, du, dx, dz


def _centering(data: _Data, it: _Iterate, predictor, opts: SolverOptions, converged: bool):
    """Mehrotra's centering parameter sigma from the affine-scaling
    predictor, with the endgame guards, and the corrector's target K."""
    _, _, dx_a, dz_a = predictor
    alpha_p = min(1.0, min(_max_step(lc, d) for lc, d in zip(it.x_chol, dx_a)))
    alpha_d = min(1.0, min(_max_step(lc, d) for lc, d in zip(it.z_chol, dz_a)))
    mu_aff = sum(float(np.vdot(xb + alpha_p * dx, zb + alpha_d * dz))
                 for xb, dx, zb, dz in zip(it.x, dx_a, it.z, dz_a)) / data.ntotal
    sigma = min(1.0, max((max(mu_aff, 0.0) / it.mu) ** 3, 1e-12))
    # Endgame guard: if mu collapses far below the remaining infeasibility,
    # the iterates pin to the cone boundary and the Newton systems turn too
    # ill-conditioned to repair r_p.  Once the gap meets its tolerance, hold
    # mu (sigma = 1) and spend the steps on feasibility alone; near the
    # target gap, floor the centering parameter by the imbalance; earlier
    # on, plain Mehrotra steps are both safe and much faster.  The objective
    # gap alone is no test: while the iterates are far from feasible it can
    # pass zero by chance.
    gap_rel = it.mu * data.ntotal / (1.0 + abs(it.primal) + abs(it.dual))
    infeas = max(it.err_p, it.err_d)
    if max(it.rel_gap, gap_rel) <= opts.tol_gap and infeas > opts.tol_feas:
        sigma = 1.0
    elif gap_rel <= 1e2 * opts.tol_gap:
        sigma = max(sigma, min(0.9, 0.1 * infeas / max(gap_rel, 1e-300)))
    if not converged:
        # never aim mu below half of what the gap tolerance asks for: each
        # further factor only worsens the conditioning of M (the polish
        # iterations after convergence are exempt)
        mu_goal = (0.5 * opts.tol_gap * (1.0 + (abs(it.primal) + abs(it.dual)) / 2.0)
                   / data.ntotal)
        sigma = max(sigma, min(0.9, mu_goal / it.mu))
    target = [sigma * it.mu * np.eye(s) - dx @ dz for s, dx, dz in zip(data.sizes, dx_a, dz_a)]
    return sigma, target


def _step(it: _Iterate, direction):
    """(alpha_p, alpha_d, next iterate); the iterate is None when no step
    keeps X or Z positive definite."""
    dv, du, dx, dz = direction
    alpha_p, x_next, x_chol = _pd_step(it.x, dx, it.x_chol)
    alpha_d, z_next, z_chol = _pd_step(it.z, dz, it.z_chol)
    if x_next is None or z_next is None:
        return alpha_p, alpha_d, None
    return alpha_p, alpha_d, _Iterate(x_next, z_next, x_chol, z_chol,
                                      it.u + alpha_p * du, it.v + alpha_d * dv)


def _final_status(best: _Iterate, converged: bool, opts: SolverOptions) -> str:
    if converged or best.meets(opts):
        return STATUS_OPTIMAL
    if best.score <= NEAR_TOL:
        return STATUS_NEAR_OPTIMAL
    return STATUS_MAX_ITER


def solve(prob: SdpProblem, opts: SolverOptions | None = None) -> SdpSolution:
    """Run the predictor-corrector iteration until the duality gap and both
    feasibility residuals are below tolerance.

    A problem made by ``SdpProblem.dual()`` is answered from the problem it
    is the dual of (``prob.dual_of``): when the run on that one ends
    ``optimal``, its solution is returned in ``prob``'s terms (``_as_dual``),
    with that run's iterations, trace and notes and one note more.
    Otherwise ``prob`` itself is solved.

    Numerical breakdown (a KKT system that cannot be factored, a nonfinite
    direction, a step that cannot keep X or Z positive definite, or a
    collapsed step length) ends the run with a diagnostic note rather than an
    exception.  Whenever the run ends without a ray, the solution is the best
    iterate seen, with status ``optimal`` when the tolerances were met,
    ``near_optimal`` when all three residuals are within ``NEAR_TOL``, and
    ``max_iter`` otherwise.  Clear certificate-of-infeasibility or
    divergence patterns are reported as ``infeasible`` / ``unbounded``, and
    so is a primal feasible best iterate when B's null space moves c.u.
    Problems and options are checked when they are made, not here.
    """
    opts = opts or SolverOptions()
    if prob.dual_of is not None:
        # the IPM proper is ``_run``: ``solve`` is the entry point that
        # tracers wrap, so it is never called twice for one solve
        sol = _run(prob.dual_of, opts)
        if sol.status == STATUS_OPTIMAL:
            return _as_dual(sol, prob.dual_of)
    return _run(prob, opts)


def _run(prob: SdpProblem, opts: SolverOptions) -> SdpSolution:
    """The interior-point run on ``prob`` (``solve``)."""
    data, it = _start(prob, opts)
    trace, notes = [], []
    status, converged, polish_left, stall_count = STATUS_MAX_ITER, False, POLISH_ITERS, 0
    best = None
    for iteration in range(1, opts.max_iter + 1):
        trace.append({"iteration": iteration - 1, **_measure(data, it)})
        if best is None or it.score < best.score:
            best = it
        if it.meets(opts):
            converged = True
        elif not converged and best.score <= NEAR_TOL and it.score > _DIVERGENCE * best.score:
            # the iterates have left the neighbourhood of a near-optimal best
            # iterate, which is what gets reported; wandering on costs
            # iterations and can end in a spurious ray
            notes.append(f"iterates diverged from the best one at iteration {iteration}")
            break
        if converged:
            # a few bonus iterations push mu further down, which sharpens the
            # dual moments (minimizer coordinates improve like sqrt(gap));
            # they are counted even when they lose the tolerance, since the
            # best iterate is what gets reported
            if polish_left <= 0:
                break
            polish_left -= 1

        ray = _ray(data, it, trace[0]["err_primal"])
        if ray is not None:
            status = ray[0]
            notes.append(ray[1])
            break
        kkt = _factor_kkt(data, it)
        if kkt is None:
            notes.append(f"KKT system factorization failed at iteration {iteration}")
            break
        try:
            predictor = _newton(data, it, kkt, None, "predictor")
            sigma, target = _centering(data, it, predictor, opts, converged)
            direction = _newton(data, it, kkt, target, "corrector")
        except (ValueError, np.linalg.LinAlgError) as exc:
            notes.append(f"numerical breakdown at iteration {iteration}: {exc}")
            break
        alpha_p, alpha_d, it_next = _step(it, direction)
        if it_next is None:
            notes.append(f"iterate lost positive definiteness at iteration {iteration}")
            break
        stall_count = stall_count + 1 if max(alpha_p, alpha_d) < 1e-10 else 0
        if stall_count >= 2:
            notes.append(f"step length collapsed at iteration {iteration}")
            break
        it = it_next
        trace[-1].update({"alpha_p": alpha_p, "alpha_d": alpha_d, "sigma": sigma})

    if status == STATUS_MAX_ITER:
        # no ray: report the best iterate seen, not whatever state a
        # breakdown or the polish phase left behind (a ray's iterate was
        # measured in the iteration that found it)
        status, it = _final_status(best, converged, opts), best
        if data.null_moves_c and best.err_p <= opts.tol_feas:
            status = STATUS_UNBOUNDED
            notes.append("feasible point found and a null direction of B moves the "
                         "objective: objective unbounded above")
    u = it.u
    if data.free_cols is not None:
        u = np.zeros(prob.nfree)
        u[data.free_cols] = it.u
    return SdpSolution(
        status=status, x_blocks=it.x, free_values=u, dual_vector=it.v, z_blocks=it.z,
        primal_objective=it.primal, dual_objective=it.dual, iterations=iteration,
        residuals={"primal": it.err_p, "dual": it.err_d, "gap": it.rel_gap},
        trace=trace, notes=notes)


_SWAPPED = {"primal": "dual", "dual": "primal", "err_primal": "err_dual",
            "err_dual": "err_primal", "alpha_p": "alpha_d", "alpha_d": "alpha_p"}


def _as_dual(sol: SdpSolution, source: SdpProblem) -> SdpSolution:
    """The solution of ``source.dual()`` that ``sol``, a solution of
    ``source``, is: the blocks X and Z trade places, the free values are
    ``sol``'s dual vector, and the dual vector is -u followed by each block's
    upper triangle of X with the off-diagonal entries doubled (the rows of
    ``dual()`` hold Z[p, q] = <E_pq, Z>, E_pq taking half of each
    off-diagonal entry).  Objectives are negated and swap sides, as do the
    residuals, the trace rows' primal and dual fields and the step lengths;
    everything is copied bit for bit or negated."""
    dual_vector = [-sol.free_values]
    for x in sol.x_blocks:
        p, q = np.triu_indices(len(x))
        dual_vector.append(np.where(p == q, 1.0, 2.0) * x[p, q])
    trace = [{_SWAPPED.get(key, key): -val if key in ("primal", "dual") else val
              for key, val in row.items()} for row in sol.trace]
    res = sol.residuals
    return SdpSolution(
        status=sol.status, x_blocks=sol.z_blocks, free_values=sol.dual_vector,
        dual_vector=np.concatenate(dual_vector), z_blocks=sol.x_blocks,
        primal_objective=-sol.dual_objective, dual_objective=-sol.primal_objective,
        iterations=sol.iterations,
        residuals={"primal": res["dual"], "dual": res["primal"], "gap": res["gap"]},
        trace=trace, notes=[f"solved as the dual of {source.name or 'its source problem'}",
                            *sol.notes])


def write_trace_csv(sol: SdpSolution, path) -> None:
    """Per-iteration residual/gap rows as CSV."""
    import csv

    fields = ["iteration", "mu", "primal", "dual", "err_primal", "err_dual",
              "rel_gap", "gap_slack", "alpha_p", "alpha_d", "sigma"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in sol.trace:
            writer.writerow({k: row.get(k, "") for k in fields})
