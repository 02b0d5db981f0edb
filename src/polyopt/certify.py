"""Global-optimality artifacts: certificates, pseudo-moments, flat truncation.

A certificate realizes the identity

    f(x) - gamma  =  sum_i phi_i(x) h_i(x)  +  sum_j sigma_j(x) g_j(x)

with every sigma_j a sum of squares (g_0 = 1 by convention).  Since the right
side is nonnegative on the feasible set, a verified identity proves that
gamma is a global lower bound.  A certificate holds what its verifier reads:
gamma, the phi_i, the Gram matrix of each sigma_j, the identity residual and
the verdict, so an independent program can re-verify it with polynomial
arithmetic alone.  The squares sigma_j = sum_l p_l^2 are one factorization
of a Gram matrix, not further evidence, so ``gram.squares()`` renders them
from the stored matrix when a certificate is written, and reading a file
does not parse them back.

Everything here that reads a solution reads it through the layout's lift
(``relaxation.SosLayout.lift`` and ``MomentLayout.lift``), which owns the map
from the solved SDP back to the instance.  Pseudo-moments y of a level-k
relaxation are one array indexed by ``basis(n, 2k)``, so the moment matrix
M_t(y) is the leading ``basis_size(n, t)`` block of M_k(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDualError, ParseError, check_tolerance
from .polynomials import Polynomial, basis, basis_size, monomial_mul
from .pop import PopInstance, instance_from_dict, instance_to_dict, read_json, write_json, \
    _poly_from_records, _poly_to_records

# Singular values below RANK_REL_TOL times the largest one count as zero when
# ranking moment matrices; matches solver accuracy 1e-8 with safety margin.
RANK_REL_TOL = 1e-6
CERT_TOL = 1e-6
PSD_CHECK_TOL = 1e-7
POINT_MASS_TOL = 1e-5       # relative moment and f(u) mismatch of an extracted point
MINIMIZER_FEAS_TOL = 1e-6   # constraint violation allowed at an extracted point


# ---------------------------------------------------------------------------
# Pseudo-moment vectors
# ---------------------------------------------------------------------------

@dataclass
class MomentVector:
    """Pseudo-moments of degree <= 2*level, y_0 = 1 once normalized.

    ``values`` is an array indexed by ``basis(nvars, 2*level)``, so the
    moments of degree <= 2t are its first ``basis_size(nvars, 2t)`` entries,
    and M_t(y) is the leading ``basis_size(nvars, t)`` block of M_level(y).
    """

    nvars: int
    level: int
    values: np.ndarray

    def moment_matrix(self, order: int) -> np.ndarray:
        """M_order(y): entry (p, q) is y at the product of basis monomials p, q."""
        if order > self.level:
            raise ValueError(f"order {order} exceeds moment degree window (level {self.level})")
        bas = basis(self.nvars, order)
        position = basis(self.nvars, 2 * order).index
        return self.values[[[position[monomial_mul(p, q)] for q in bas] for p in bas]]

    def truncate(self, order: int) -> "MomentVector":
        return MomentVector(nvars=self.nvars, level=order,
                            values=self.values[:basis_size(self.nvars, 2 * order)])

    @staticmethod
    def from_point_mass(point, level: int) -> "MomentVector":
        """Moments of the Dirac measure at a point."""
        point = np.asarray(point, dtype=float)
        exponents = np.array(basis(len(point), 2 * level).entries)
        return MomentVector(nvars=len(point), level=level,
                            values=np.prod(point ** exponents, axis=1))


def extract_dual_moments(sol, layout) -> MomentVector:
    """Pseudo-moments of a solved relaxation, normalized so that y_0 is exactly 1.

    ``layout`` is the builder metadata of the solved problem; its lift gives
    the raw moments over ``basis(n, 2k)``, which are only divided by y_0.
    Raises ``DegenerateDualError`` when y_0 vanishes.
    """
    raw = layout.lift(sol).moments
    y0 = float(raw[0])
    if abs(y0) < 1e-10:
        raise DegenerateDualError(f"solution has y0 = {y0!r}; cannot normalize into moments")
    return MomentVector(nvars=layout.nvars, level=layout.level, values=raw / y0)


# ---------------------------------------------------------------------------
# Flat truncation
# ---------------------------------------------------------------------------

@dataclass
class FlatTruncationReport:
    """Numerical ranks of the nested moment matrices and the flatness test.

    The rank-stabilization window ``window`` (the largest half-degree of the
    constraints, at least 1) is a convention, not something the mathematics
    pins down uniquely; reports flag it as such.
    """

    window: int
    min_order: int
    max_order: int
    ranks: dict
    singular_values: dict
    threshold: float
    flat_at: int | None
    note: str | None = None

    @property
    def is_flat(self) -> bool:
        return self.flat_at is not None

    def rank_at(self, order: int) -> int:
        return self.ranks[order]

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "window_convention": "max ceil(deg/2) over constraints, min 1 (convention)",
            "min_order": self.min_order,
            "max_order": self.max_order,
            "ranks": {str(t): r for t, r in self.ranks.items()},
            "singular_values": {str(t): list(map(float, sv))
                                for t, sv in self.singular_values.items()},
            "threshold": self.threshold,
            "flat_at": self.flat_at,
            "note": self.note,
        }


def _constraint_half_degree(inst: PopInstance) -> int:
    degs = [1]
    for p in list(inst.h) + list(inst.g):
        if not p.is_zero():
            degs.append(math.ceil(p.degree / 2))
    return max(degs)


def flat_truncation(y: MomentVector, inst: PopInstance) -> FlatTruncationReport:
    """Detect rank stabilization rank M_{t-d}(y) = rank M_t(y) for t <= y.level.

    Ranks are counted with one common singular-value threshold (relative to
    the largest moment matrix), which keeps them nondecreasing in t.  The
    smallest order passing the test is reported; when the level leaves no
    room for the comparison the report says so.
    """
    k = y.level
    d = _constraint_half_degree(inst)   # both the window and the smallest reported order
    full = y.moment_matrix(k)
    svals = {}
    for t in range(k + 1):
        size = basis_size(y.nvars, t)   # M_t(y) is the leading block of M_k(y)
        svals[t] = np.linalg.svd(full[:size, :size], compute_uv=False)
    sigma_max = float(svals[k][0]) if len(svals[k]) else 0.0
    threshold = RANK_REL_TOL * max(sigma_max, 1e-300)
    ranks_all = {t: int(np.sum(svals[t] > threshold)) for t in svals}

    admissible = range(d + 1, k + 1)   # the orders with t - d >= 1
    flat_at = None
    for t in admissible:
        if ranks_all[t - d] == ranks_all[t]:
            flat_at = t
            break
    note = None
    if not admissible:
        note = f"level too low to test (k = {k}, window d = {d})"
    return FlatTruncationReport(
        window=d, min_order=d, max_order=k,
        ranks={t: ranks_all[t] for t in range(d, k + 1)},
        singular_values={t: svals[t] for t in range(d, k + 1)},
        threshold=threshold, flat_at=flat_at, note=note)


def extract_minimizer_rank1(y: MomentVector, inst: PopInstance | None = None,
                            value: float | None = None):
    """Candidate minimizer u_i = y_{e_i} / y_0 from a numerically rank-1 moment matrix.

    The y_{e_i} are ``y.values[1:nvars + 1]``, the degree-1 block of the
    graded-lex order.  Returns (point, None), or (None, reason) if the
    rank-1 precondition fails or if the moments are not consistent with a
    point mass.  Given ``inst``, the point must also meet its constraints at
    ``MINIMIZER_FEAS_TOL`` (``PopInstance.worst_violation``), and given the
    bound ``value`` too, f(u) must match it to ``POINT_MASS_TOL``: this is
    where an extracted minimizer is accepted, and callers do not re-check.
    """
    mat = y.moment_matrix(y.level)
    svals = np.linalg.svd(mat, compute_uv=False)
    rank = int(np.sum(svals > RANK_REL_TOL * max(float(svals[0]), 1e-300)))
    if rank != 1:
        return None, f"moment matrix has numerical rank {rank}, expected 1"

    n = y.nvars
    y0 = float(y.values[0])
    if abs(y0) < 1e-10:
        return None, "y0 vanishes"
    scaled = y.values / y0
    point = scaled[1:n + 1]
    expected = MomentVector.from_point_mass(point, y.level).values
    bad = np.abs(scaled - expected) > POINT_MASS_TOL * (1.0 + np.abs(expected))
    if bad.any():
        i = int(np.argmax(bad))   # the first inconsistent moment in basis order
        return None, (f"moment of {basis(n, 2 * y.level)[i]} inconsistent with point mass "
                      f"({scaled[i]:.6g} vs {expected[i]:.6g})")

    if inst is not None:
        worst = inst.worst_violation(point, MINIMIZER_FEAS_TOL)
        if worst is not None:
            return None, f"extracted point infeasible: {worst[1]} violated by {worst[0]:.2e}"
        if value is not None:
            fu = inst.f.eval(point)
            if abs(fu - value) > POINT_MASS_TOL * (1.0 + abs(value)):
                return None, f"f(u) = {fu:.8g} does not match bound {value:.8g}"
    return point, None


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass
class GramBlock:
    """PSD Gram matrix of one sigma_j together with its monomial basis."""

    basis: tuple           # monomials indexing the matrix
    matrix: np.ndarray

    def to_polynomial(self, nvars: int) -> Polynomial:
        terms = {}
        size = len(self.basis)
        for p in range(size):
            for q in range(size):
                key = monomial_mul(self.basis[p], self.basis[q])
                terms[key] = terms.get(key, 0.0) + self.matrix[p, q]
        return Polynomial(nvars, terms)

    def squares(self) -> list:
        """Polynomials p_l with sum_l p_l^2 = the Gram polynomial, from one
        eigendecomposition of the stored matrix: p_l = sqrt(lambda_l) v_l in
        the monomial basis, over the eigenvalues above 1e-14 * max(lambda_max, 1)."""
        eigvals, eigvecs = np.linalg.eigh(self.matrix)
        cutoff = 1e-14 * max(float(eigvals[-1]), 1.0)
        nvars = len(self.basis[0])
        return [Polynomial(nvars, dict(zip(self.basis, math.sqrt(lam) * vec)))
                for lam, vec in zip(eigvals, eigvecs.T) if lam > cutoff]


@dataclass
class Certificate:
    gamma: float
    phi: list                  # one multiplier polynomial per equality
    sigma_grams: list          # GramBlock per j = 0..m2
    identity_residual: float
    verified: bool
    level: int
    tolerance: float
    nvars: int
    notes: list = field(default_factory=list)


def gram_clip_psd(matrix: np.ndarray):
    """Project a symmetric Gram matrix onto the PSD cone by clipping
    eigenvalues.  Returns (clipped matrix, negative mass removed)."""
    sym = (matrix + matrix.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    neg_mass = float(-eigvals[eigvals < 0].sum())
    clipped = eigvecs @ np.diag(np.clip(eigvals, 0.0, None)) @ eigvecs.T
    return (clipped + clipped.T) / 2.0, neg_mass


def extract_certificate(prob, sol, inst: PopInstance) -> Certificate:
    """Turn a solved SOS relaxation into a checkable certificate.

    Gram blocks are repaired to exact PSD by eigenvalue clipping, one SDP
    block at a time, so they stay zero between blocks; whatever that (and
    solver inaccuracy) costs shows up in ``identity_residual``, which is
    reported, never rounded away.  ``verified`` and ``identity_residual``
    are what ``verify_certificate`` finds at ``CERT_TOL``; a failed check
    marks the certificate UNVERIFIED but it is still returned.
    """
    lift = None if prob.layout is None else prob.layout.lift(sol)
    if lift is None or lift.gamma is None:
        raise ValueError("problem carries no SOS layout; build it with build_sos_relaxation")
    grams = []
    notes = []
    for j, (bas, matrix, parts) in enumerate(lift.grams):
        clipped, neg_mass = np.zeros_like(matrix), 0.0
        for part in parts:
            idx = np.ix_(part, part)
            clipped[idx], mass = gram_clip_psd(matrix[idx])
            neg_mass += mass
        if neg_mass > 0:
            notes.append(f"gram {j}: clipped negative eigenvalue mass {neg_mass:.3e}")
        grams.append(GramBlock(basis=bas, matrix=clipped))

    cert = Certificate(
        gamma=lift.gamma, phi=list(lift.phi), sigma_grams=grams,
        identity_residual=0.0, verified=False,
        level=prob.layout.level, tolerance=CERT_TOL, nvars=inst.nvars, notes=notes)
    cert.verified, cert.identity_residual = verify_certificate(cert, inst)
    if not cert.verified:
        cert.notes.append(
            f"UNVERIFIED: identity residual {cert.identity_residual:.3e} exceeds tolerance")
    return cert


def certificate_defect(cert: Certificate, inst: PopInstance) -> Polynomial:
    """f - gamma - sum phi_i h_i - sum sigma_j g_j as a polynomial."""
    n = inst.nvars
    rhs = Polynomial.zero(n)
    for p, hpoly in zip(cert.phi, inst.h):
        rhs = rhs + p * hpoly
    g_all = [Polynomial.constant(n, 1.0)] + list(inst.g)
    for gram, gpoly in zip(cert.sigma_grams, g_all):
        rhs = rhs + gram.to_polynomial(n) * gpoly
    return inst.f - Polynomial.constant(n, cert.gamma) - rhs


def verify_certificate(cert: Certificate, inst: PopInstance,
                       tol: float = CERT_TOL):
    """Independent re-check: PSD Gram blocks plus the polynomial identity.

    Re-expands sigma_j from the stored Gram matrices, forms the right-hand
    side with polynomial arithmetic, and compares coefficients against
    f - gamma.  Returns (passed, max absolute coefficient defect); the
    defect is inf when the certificate does not match the instance's shape,
    or when gamma, a Gram entry or a coefficient of the identity is not
    finite.  Raises ValueError when ``tol`` is not finite and positive.
    """
    check_tolerance("tol", tol)
    if len(cert.sigma_grams) != len(inst.g) + 1:
        return False, float("inf")
    if len(cert.phi) != len(inst.h) or not math.isfinite(cert.gamma):
        return False, float("inf")
    psd_ok = True
    for gram in cert.sigma_grams:
        mat = np.asarray(gram.matrix)
        if mat.shape != (len(gram.basis), len(gram.basis)) or not np.isfinite(mat).all():
            return False, float("inf")
        eigvals = np.linalg.eigvalsh((mat + mat.T) / 2.0)
        scale = max(abs(float(eigvals[-1])), 1.0)
        if eigvals[0] < -PSD_CHECK_TOL * scale:
            psd_ok = False
    try:
        residual = certificate_defect(cert, inst).coeff_norm()
    except ValueError:   # an overflowing coefficient, as from a huge phi, or other nvars
        return False, float("inf")
    passed = psd_ok and residual <= tol * (1.0 + inst.f.coeff_norm())
    return passed, residual


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------

def certificate_to_dict(cert: Certificate, inst: PopInstance | None = None) -> dict:
    """The file form; the ``squares`` of each block are rendered here from its Gram matrix."""
    doc = {
        "format": "polyopt-certificate v1",
        "nvars": cert.nvars,
        "level": cert.level,
        "gamma": cert.gamma,
        "tolerance": cert.tolerance,
        "identity_residual": cert.identity_residual,
        "verified": cert.verified,
        "phi": [_poly_to_records(p) for p in cert.phi],
        "sigma": [
            {
                "basis": [list(m) for m in gram.basis],
                "gram": [[float(x) for x in row] for row in gram.matrix],
                "squares": [_poly_to_records(p) for p in gram.squares()],
            }
            for gram in cert.sigma_grams
        ],
        "notes": list(cert.notes),
    }
    if inst is not None:
        doc["instance"] = instance_to_dict(inst)
    return doc


def certificate_from_dict(doc: dict) -> tuple:
    """Returns (certificate, embedded instance or None).  The ``squares`` of
    each block are not read: the verifier reads the Gram matrix."""
    if doc.get("format") != "polyopt-certificate v1":
        raise ParseError("not a polyopt certificate (bad or missing format field)")
    try:
        n = int(doc["nvars"])
        grams = []
        for entry in doc["sigma"]:
            bas = tuple(tuple(int(e) for e in m) for m in entry["basis"])
            mat = np.asarray(entry["gram"], dtype=float)
            grams.append(GramBlock(basis=bas, matrix=mat))
        cert = Certificate(
            gamma=float(doc["gamma"]),
            phi=[_poly_from_records(r, n) for r in doc.get("phi", [])],
            sigma_grams=grams,
            identity_residual=float(doc.get("identity_residual", 0.0)),
            verified=bool(doc.get("verified", False)),
            level=int(doc.get("level", 0)),
            tolerance=float(doc.get("tolerance", CERT_TOL)),
            nvars=n,
            notes=list(doc.get("notes", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed certificate document: {exc}") from exc
    inst = instance_from_dict(doc["instance"]) if "instance" in doc else None
    return cert, inst


def write_certificate(cert: Certificate, path, inst: PopInstance | None = None) -> None:
    write_json(certificate_to_dict(cert, inst), path, indent=1)


def read_certificate(path) -> tuple:
    return certificate_from_dict(read_json(path))
