"""Local optimality audit at a candidate point.

Given an instance and a feasible point u, this module fits Lagrange
multipliers by least squares and decides four conditions:

* CQC  - active constraint gradients linearly independent,
* SCC  - strict complementarity, mu_j + g_j(u) > 0 for every j,
* SONC - Lagrangian Hessian PSD on the null space of the active Jacobian,
* SOSC - same matrix positive definite there.

SONC and SOSC are only meaningful when the multipliers are pinned down, so
when CQC fails those verdicts (and SCC, which also depends on mu) are
reported as None, meaning inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError
from .pop import NOT_FINITE, PopInstance, band

# Default tolerances.  Activity and feasibility share ``pop.band``, relative to
# the magnitude of the polynomial evaluation at the point; rank and eigenvalue
# cutoffs follow the usual relative SVD / Hessian-norm conventions.
ACTIVE_TOL = 1e-6
RANK_REL_TOL = 1e-8
EIG_REL_TOL = 1e-7
SCC_REL_TOL = 1e-7
STATIONARITY_TOL = 1e-6


@dataclass(frozen=True)
class ActiveSet:
    """Indices (0-based, sorted) of inequality constraints active at u."""

    indices: tuple
    tolerance: float

    def __contains__(self, j):
        return j in self.indices

    def __len__(self):
        return len(self.indices)


@dataclass
class LocalReport:
    """Multipliers, condition verdicts, and the numerical evidence behind them.

    Verdicts are True / False / None; None means inconclusive (reported when
    CQC fails, since the multipliers are then not unique).
    """

    point: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    active: ActiveSet
    stationarity_residual: float
    kkt_point: bool
    cqc: bool
    cqc_sigma_min: float | None
    scc: bool | None
    scc_margin: float | None
    sonc: bool | None
    sosc: bool | None
    projected_eigenvalues: np.ndarray
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "point": self.point.tolist(),
            "lambda": self.lam.tolist(),
            "mu": self.mu.tolist(),
            "active_set": list(self.active.indices),
            "active_tolerance": self.active.tolerance,
            "stationarity_residual": self.stationarity_residual,
            "kkt_point": self.kkt_point,
            "cqc": self.cqc,
            "cqc_sigma_min": self.cqc_sigma_min,
            "scc": self.scc,
            "scc_margin": self.scc_margin,
            "sonc": self.sonc,
            "sosc": self.sosc,
            "projected_eigenvalues": self.projected_eigenvalues.tolist(),
            "notes": list(self.notes),
        }


def active_set(inst: PopInstance, point, tol: float = ACTIVE_TOL) -> ActiveSet:
    """Active inequality indices {j : |g_j(u)| <= pop.band(g_j, u, tol)}.

    Raises FeasibilityError when the point is not finite, a constraint's
    value overflows there, or it is infeasible beyond the same band
    (``PopInstance.worst_violation``), and ValueError when ``tol`` is not
    finite and positive.
    """
    u = np.asarray(point, dtype=float)
    worst = inst.worst_violation(u, tol)
    if worst is not None:
        amount, label = worst
        if label == NOT_FINITE:
            raise FeasibilityError(
                f"point is not finite, or a constraint overflows there: {u.tolist()}")
        raise FeasibilityError(
            f"point is infeasible: constraint {label} violated by {amount:.3e}",
            worst_violation=amount, constraint=label)
    indices = tuple(j for j, p in enumerate(inst.g) if abs(p.eval(u)) <= band(p, u, tol))
    return ActiveSet(indices=indices, tolerance=tol)


def _active_jacobian(inst: PopInstance, u, active: ActiveSet) -> np.ndarray:
    """Rows: gradients of all h_i then of the active g_j, evaluated at u."""
    rows = []
    for p in inst.h:
        rows.append([q.eval(u) for q in p.gradient()])
    for j in active.indices:
        rows.append([q.eval(u) for q in inst.g[j].gradient()])
    if not rows:
        return np.zeros((0, inst.nvars))
    return np.asarray(rows, dtype=float)


def fit_multipliers(inst: PopInstance, point, active: ActiveSet):
    """Least-squares multipliers for grad f = sum lam_i grad h_i + sum mu_j grad g_j.

    mu_j is zero off the active set.  Returns (lam, mu, residual) where the
    residual is the Euclidean norm of the stationarity defect.  Signs are
    reported as fitted, never clipped.
    """
    u = np.asarray(point, dtype=float)
    grad_f = np.array([q.eval(u) for q in inst.f.gradient()])
    jac = _active_jacobian(inst, u, active)
    m1 = len(inst.h)
    mu = np.zeros(len(inst.g))
    if jac.shape[0] == 0:
        return np.zeros(0), mu, float(np.linalg.norm(grad_f))
    theta, *_ = np.linalg.lstsq(jac.T, grad_f, rcond=None)
    residual = float(np.linalg.norm(grad_f - jac.T @ theta))
    lam = theta[:m1]
    for pos, j in enumerate(active.indices):
        mu[j] = theta[m1 + pos]
    return lam, mu, residual


def check_cqc(inst: PopInstance, point, active: ActiveSet):
    """(verdict, sigma_min, note) for linear independence of active gradients.

    Vacuously true with no rows; sigma_min is then None.
    """
    u = np.asarray(point, dtype=float)
    jac = _active_jacobian(inst, u, active)
    nrows = jac.shape[0]
    if nrows == 0:
        return True, None, None
    if nrows > inst.nvars:
        svals = np.linalg.svd(jac, compute_uv=False)
        return False, float(svals[-1]), f"{nrows} active rows exceed n={inst.nvars}"
    svals = np.linalg.svd(jac, compute_uv=False)
    smax = float(svals[0])
    smin = float(svals[-1])
    if smax == 0.0:
        return False, 0.0, "all active gradients vanish"
    return bool(smin > RANK_REL_TOL * smax), smin, None


def check_scc(inst: PopInstance, point, mu) -> tuple[bool, float | None]:
    """Strict complementarity: mu_j + g_j(u) above a relative threshold for all j.

    Vacuously true with no inequality constraints (margin None).
    """
    if not inst.g:
        return True, None
    u = np.asarray(point, dtype=float)
    verdict = True
    margin = np.inf
    for j, p in enumerate(inst.g):
        val = p.eval(u)
        quantity = mu[j] + val
        margin = min(margin, quantity)
        threshold = SCC_REL_TOL * (1.0 + abs(mu[j]) + abs(val))
        if quantity <= threshold:
            verdict = False
    return verdict, float(margin)


def lagrangian_hessian(inst: PopInstance, point, lam, mu, active: ActiveSet) -> np.ndarray:
    """Hessian of f - sum lam_i h_i - sum_{j active} mu_j g_j at the point."""
    u = np.asarray(point, dtype=float)
    n = inst.nvars
    hess = np.array([[q.eval(u) for q in row] for row in inst.f.hessian()],
                    dtype=float).reshape(n, n)
    for i, p in enumerate(inst.h):
        hp = np.array([[q.eval(u) for q in row] for row in p.hessian()])
        hess -= lam[i] * hp
    for j in active.indices:
        hp = np.array([[q.eval(u) for q in row] for row in inst.g[j].hessian()])
        hess -= mu[j] * hp
    return hess


def check_second_order(inst: PopInstance, point, lam, mu, active: ActiveSet):
    """(sonc, sosc, eigenvalues) of the Lagrangian Hessian on the active-Jacobian null space.

    Both verdicts hold vacuously when the null space is trivial (empty
    eigenvalue list).
    """
    u = np.asarray(point, dtype=float)
    hess = lagrangian_hessian(inst, u, lam, mu, active)
    jac = _active_jacobian(inst, u, active)
    n = inst.nvars
    if jac.shape[0] == 0:
        nullspace = np.eye(n)
    else:
        _, svals, vt = np.linalg.svd(jac, full_matrices=True)
        smax = svals[0] if len(svals) else 0.0
        rank = int(np.sum(svals > RANK_REL_TOL * smax)) if smax > 0 else 0
        nullspace = vt[rank:].T
    if nullspace.shape[1] == 0:
        return True, True, np.zeros(0)
    projected = nullspace.T @ hess @ nullspace
    eigs = np.linalg.eigvalsh((projected + projected.T) / 2.0)
    tol_eig = EIG_REL_TOL * (1.0 + np.linalg.norm(hess, 2))
    sonc = bool(eigs.min() >= -tol_eig)
    sosc = bool(eigs.min() >= tol_eig)
    return sonc, sosc, eigs


def audit_point(inst: PopInstance, point, tol: float = ACTIVE_TOL) -> LocalReport:
    """Full local audit: multipliers plus CQC/SCC/SONC/SOSC with evidence."""
    u = np.asarray(point, dtype=float)
    act = active_set(inst, u, tol)
    lam, mu, residual = fit_multipliers(inst, u, act)
    cqc, sigma_min, note = check_cqc(inst, u, act)
    notes = [note] if note else []

    grad_scale = 1.0 + float(np.linalg.norm(
        [q.eval_abs(u) for q in inst.f.gradient()])) if inst.nvars else 1.0
    kkt = residual <= STATIONARITY_TOL * grad_scale and bool(
        np.all(mu >= -STATIONARITY_TOL * (1.0 + np.abs(mu).max(initial=0.0))))

    sonc, sosc, eigs = check_second_order(inst, u, lam, mu, act)
    if cqc:
        scc, margin = check_scc(inst, u, mu)
    else:
        # Multipliers are not unique without CQC; the classical conditions
        # are not defined there, so the audit abstains.
        scc, margin = None, None
        sonc, sosc = None, None
        notes.append("CQC fails: SCC/SONC/SOSC reported as inconclusive")

    return LocalReport(
        point=u, lam=np.asarray(lam), mu=np.asarray(mu), active=act,
        stationarity_residual=residual, kkt_point=kkt,
        cqc=cqc, cqc_sigma_min=sigma_min,
        scc=scc, scc_margin=margin,
        sonc=sonc, sosc=sosc,
        projected_eigenvalues=np.asarray(eigs),
        notes=notes)
