"""Independent oracles used by the tests.

Nothing in here touches the interior-point solver or the relaxation builders;
each oracle recomputes its answer by a different route so the tests have an
independent reference:

* ``admm_sdp_solve``      - alternating projections between the affine constraint
                            subspace and the PSD cone (with dual correction),
                            enough to check objective values of small SDPs.
* ``grid_minimize``       - dense grid scan refined by constrained local descent,
                            for stamping global minima of small instances.
* ``central_difference``  - finite-difference gradients.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize


def _proj_psd(mat):
    sym = (mat + mat.T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    clipped = vecs @ np.diag(np.clip(vals, 0.0, None)) @ vecs.T
    return (clipped + clipped.T) / 2.0


def admm_sdp_solve(c_blocks, a_blocks, rhs, max_iter=20000, rho=None, tol=1e-9):
    """Solve  max sum_j <C_j, X_j>  s.t.  sum_j <A_{j,m}, X_j> = b_m,  X_j PSD.

    Splitting method: one copy of the variable lives in the affine subspace,
    the other in the PSD cone, with a scaled dual variable reconciling them
    (over-relaxed alternating projections).  Returns (objective, X blocks,
    iterations).
    """
    sizes = [a.shape[1] for a in a_blocks]
    nrows = len(rhs)
    a_flat = [a.reshape(nrows, -1) for a in a_blocks]
    a_all = np.hstack(a_flat)                      # nrows x total
    gram = cho_factor(a_all @ a_all.T + 1e-12 * np.eye(nrows))
    c_vec = np.concatenate([c.reshape(-1) for c in c_blocks])

    def proj_affine(w):
        lam = cho_solve(gram, a_all @ w - rhs)
        return w - a_all.T @ lam

    scale = max(1.0, float(np.linalg.norm(c_vec)))
    if rho is None:
        rho = scale / max(1.0, float(np.linalg.norm(rhs)))
    x = np.zeros(a_all.shape[1])
    y = np.zeros_like(x)
    u = np.zeros_like(x)
    alpha = 1.6
    it = 0
    for it in range(1, max_iter + 1):
        x = proj_affine(y - u + c_vec / rho)
        x_rel = alpha * x + (1 - alpha) * y
        offset = 0
        y_new = np.empty_like(y)
        for s in sizes:
            block = (x_rel + u)[offset:offset + s * s].reshape(s, s)
            y_new[offset:offset + s * s] = _proj_psd(block).reshape(-1)
            offset += s * s
        r_primal = float(np.linalg.norm(x - y_new))
        r_dual = rho * float(np.linalg.norm(y_new - y))
        y = y_new
        u = u + x_rel - y
        if max(r_primal, r_dual) < tol * scale and it > 20:
            break
        if it % 100 == 0:
            # residual balancing keeps the splitting well conditioned
            if r_primal > 10 * r_dual:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10 * r_primal:
                rho /= 2.0
                u *= 2.0
    objective = float(c_vec @ y)
    offset = 0
    blocks = []
    for s in sizes:
        blocks.append(y[offset:offset + s * s].reshape(s, s))
        offset += s * s
    return objective, blocks, it


def _violations(inst, u):
    """(worst |h_i(u)|, worst max(0, -g_j(u))), from the raw constraint values;
    (inf, inf) where u or a value is not finite, which no comparison flags."""
    values = [abs(p.eval(u)) for p in inst.h], [-p.eval(u) for p in inst.g]
    if not (np.isfinite(u).all() and np.isfinite(values[0] + values[1]).all()):
        return np.inf, np.inf
    return max(values[0], default=0.0), max([0.0, *values[1]])


def grid_minimize(inst, box_radius=None, grid_points=200000, polish_starts=12):
    """Brute-force global minimum: dense grid scan plus SLSQP polishing.

    Only used to stamp reference values; never part of the library path.
    Returns (value, point).
    """
    n = inst.nvars
    if box_radius is None:
        box_radius = float(np.sqrt(inst.metadata.get("ball_radius_sq", 1.0)))
        for g in inst.g:
            # a ball constraint R - sum x_i^2 stored with leading constant R
            const = g.coefficient((0,) * n)
            if const > 0 and g.degree == 2:
                box_radius = max(box_radius, float(np.sqrt(const)))
    per_axis = max(3, int(round(grid_points ** (1.0 / n))))
    axes = [np.linspace(-box_radius, box_radius, per_axis)] * n
    best = []
    for point in itertools.product(*axes):
        u = np.asarray(point)
        eq, ineq = _violations(inst, u)
        if ineq > 1e-9:
            continue
        if inst.h and eq > 0.3:
            continue
        best.append((inst.f.eval(u), u))
    best.sort(key=lambda t: t[0])
    starts = [u for _, u in best[:polish_starts]] or [np.zeros(n)]

    constraints = []
    for p in inst.h:
        constraints.append({
            "type": "eq",
            "fun": (lambda q: lambda x: q.eval(x))(p),
            "jac": (lambda q: lambda x: np.array([d.eval(x) for d in q.gradient()]))(p),
        })
    for p in inst.g:
        constraints.append({
            "type": "ineq",
            "fun": (lambda q: lambda x: q.eval(x))(p),
            "jac": (lambda q: lambda x: np.array([d.eval(x) for d in q.gradient()]))(p),
        })

    best_val, best_point = np.inf, starts[0]
    for start in starts:
        res = minimize(
            lambda x: inst.f.eval(x), start, jac=lambda x: np.array(
                [d.eval(x) for d in inst.f.gradient()]),
            method="SLSQP", constraints=constraints,
            options={"maxiter": 200, "ftol": 1e-12})
        if res.x is None:
            continue
        u = res.x
        eq, ineq = _violations(inst, u)
        if eq < 1e-7 and ineq < 1e-7:
            val = inst.f.eval(u)
            if val < best_val:
                best_val, best_point = val, u
    return float(best_val), np.asarray(best_point)


def central_difference(p, point, step=1e-5):
    """Finite-difference gradient of a polynomial at a point."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros_like(point)
    for i in range(len(point)):
        e = np.zeros_like(point)
        e[i] = step
        grad[i] = (p.eval(point + e) - p.eval(point - e)) / (2 * step)
    return grad


def sample_feasible_points(inst, count, rng):
    """Draw points of the feasible set (ball scaled, linear equalities projected).

    Supports the corpus used by the tests: inequality constraints containing a
    ball, plus optional LINEAR equalities, onto which ball samples are
    projected exactly.  Points violating any remaining constraint are
    rejected.  Fully vectorized.  Returns an array of shape (found, nvars).
    """
    n = inst.nvars
    radius = 1.0
    for g in inst.g:
        const = g.coefficient((0,) * n)
        if const > 0 and g.degree == 2:
            radius = max(radius, float(np.sqrt(const)))
    rows, offsets = [], []
    for p in inst.h:
        if p.degree > 1:
            raise ValueError("sampler supports linear equalities only")
        rows.append([p.coefficient(tuple(1 if j == i else 0 for j in range(n)))
                     for i in range(n)])
        offsets.append(-p.coefficient((0,) * n))
    found = []
    total = 0
    batches = 0
    while total < count and batches < 200:
        batches += 1
        m = max(count, 1024)
        raw = rng.standard_normal((m, n))
        raw *= (radius * rng.uniform(size=(m, 1)) ** (1.0 / n)
                / np.linalg.norm(raw, axis=1, keepdims=True))
        if rows:
            a = np.asarray(rows, dtype=float)
            b = np.asarray(offsets, dtype=float)
            # orthogonal projection of each sample onto the subspace a x = b
            correction = np.linalg.lstsq(a, (raw @ a.T - b).T, rcond=None)[0].T
            raw = raw - correction
        keep = np.ones(m, dtype=bool)
        for p in inst.g:
            keep &= p.eval_many(raw) >= -1e-9 * (1.0 + abs(p.coeff_norm()))
        for p in inst.h:
            keep &= np.abs(p.eval_many(raw)) <= 1e-9 * (1.0 + abs(p.coeff_norm()))
        good = raw[keep]
        if good.size:
            found.append(good)
            total += good.shape[0]
    if not found:
        return np.zeros((0, n))
    return np.vstack(found)[:count]
