"""Level-by-level driver for the relaxation hierarchy.

Solves the SOS relaxation at increasing levels, emits a certificate per
level, watches the dual pseudo-moments of every ``optimal`` level for flat
truncation, and extracts the minimizer in the rank-1 case.  Stops early on
flat truncation, on stagnation of the bound (two consecutive negligible
increases, which is the signature of an asymptotic-only instance), or at the
level cap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .certify import Certificate, FlatTruncationReport, extract_certificate, \
    extract_dual_moments, extract_minimizer_rank1, flat_truncation, write_certificate
from .errors import LevelError, PolyOptError, check_tolerance
from .pop import PopInstance
from .relaxation import build_sos_relaxation, relaxation_value
from .solver import STATUS_OPTIMAL, SolverOptions, solve

STOP_FLAT = "flat"
STOP_LEVEL_CAP = "level_cap"
STOP_STAGNATION = "stagnation"

STAGNATION_REL = 1e-9


@dataclass
class LevelRecord:
    level: int
    status: str
    value: float | None = None
    wall_time: float = 0.0
    solver_iterations: int = 0
    flat: FlatTruncationReport | None = None
    minimizer: np.ndarray | None = None
    minimizer_note: str | None = None
    certificate: Certificate | None = None
    certificate_path: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "status": self.status,
            "value": self.value,
            "wall_time": self.wall_time,
            "solver_iterations": self.solver_iterations,
            "flat": self.flat.to_dict() if self.flat else None,
            "minimizer": None if self.minimizer is None else list(map(float, self.minimizer)),
            "minimizer_note": self.minimizer_note,
            "certificate_verified": None if self.certificate is None else self.certificate.verified,
            "certificate_path": self.certificate_path,
            "error": self.error,
        }


@dataclass
class HierarchyRun:
    instance: PopInstance
    levels: list = field(default_factory=list)
    stop_reason: str = STOP_LEVEL_CAP

    def values(self) -> list:
        return [rec.value for rec in self.levels if rec.value is not None]

    @property
    def final_value(self) -> float | None:
        vals = self.values()
        return vals[-1] if vals else None

    @property
    def minimizer(self) -> np.ndarray | None:
        for rec in reversed(self.levels):
            if rec.minimizer is not None:
                return rec.minimizer
        return None

    @property
    def flat_level(self) -> int | None:
        for rec in self.levels:
            if rec.flat is not None and rec.flat.is_flat:
                return rec.level
        return None

    def to_dict(self) -> dict:
        return {
            "stop_reason": self.stop_reason,
            "levels": [rec.to_dict() for rec in self.levels],
            "final_value": self.final_value,
            "minimizer": None if self.minimizer is None else list(map(float, self.minimizer)),
        }


def run_hierarchy(inst: PopInstance,
                  k_min: int | None = None,
                  k_max: int | None = None,
                  solver_options: SolverOptions | None = None,
                  certificate_dir=None,
                  stagnation_tol: float = STAGNATION_REL) -> HierarchyRun:
    """Solve levels k_min..k_max in order, stopping early when justified.

    A solver failure at one level is recorded and the loop moves on to the
    next level.  Only ``optimal`` levels are tested for flatness; a
    ``near_optimal`` bound may lie below the previous level's.  When
    ``certificate_dir`` is given, it is made (with its parents) before any
    level is built, and each level's certificate is written there as
    ``certificate_k<level>.json``.  ``stagnation_tol`` is the relative
    increase below which a level counts as stagnant; the default sits under
    the solver tolerance, so stagnation stops are rare unless the caller
    loosens it.  A ``stagnation_tol`` that is not finite and positive raises
    ValueError (the solver options were checked when they were made), and
    a ``k_max`` below ``k_min`` raises LevelError, before any level is built.
    """
    min_k = inst.min_level()
    if k_min is None:
        k_min = min_k
    if k_min < min_k:
        raise LevelError(
            f"requested starting level {k_min} is below the minimum level {min_k} "
            f"for this instance", min_level=min_k)
    if k_max is None:
        k_max = k_min + 3
    if k_max < k_min:
        raise LevelError(f"maximum level {k_max} is below the starting level {k_min}")
    check_tolerance("stagnation_tol", stagnation_tol)
    if certificate_dir is not None:
        import os

        os.makedirs(str(certificate_dir), exist_ok=True)

    run = HierarchyRun(instance=inst)
    stagnant_steps = 0
    for k in range(k_min, k_max + 1):
        rec = LevelRecord(level=k, status="not_solved")
        run.levels.append(rec)
        started = time.perf_counter()
        try:
            prob = build_sos_relaxation(inst, k)
            sol = solve(prob, solver_options)
        except (PolyOptError, ValueError, np.linalg.LinAlgError) as exc:
            rec.status = "error"
            rec.error = str(exc)
            rec.wall_time = time.perf_counter() - started
            continue
        rec.status = sol.status
        rec.solver_iterations = sol.iterations
        rec.wall_time = time.perf_counter() - started
        if not sol.ok:
            rec.error = "; ".join(sol.notes) or f"solver status {sol.status}"
            continue
        rec.value = relaxation_value(prob, sol)

        rec.certificate = extract_certificate(prob, sol, inst)
        if certificate_dir is not None:
            path = os.path.join(str(certificate_dir), f"certificate_k{k}.json")
            write_certificate(rec.certificate, path, inst)
            rec.certificate_path = path

        moments = None
        if sol.status != STATUS_OPTIMAL:
            res = sol.residuals
            rec.minimizer_note = (
                f"flatness not tested: the solve ended {sol.status} (primal "
                f"{res['primal']:.1e}, dual {res['dual']:.1e}, gap {res['gap']:.1e})")
        else:
            try:
                moments = extract_dual_moments(sol, prob.layout)
            except PolyOptError as exc:
                rec.minimizer_note = str(exc)
        if moments is not None:
            rec.flat = flat_truncation(moments, inst)
            if rec.flat.is_flat:
                t = rec.flat.flat_at
                if rec.flat.rank_at(t) == 1:
                    rec.minimizer, rec.minimizer_note = extract_minimizer_rank1(
                        moments.truncate(t), inst, rec.value)
                else:
                    rec.minimizer_note = (
                        f"flat with rank {rec.flat.rank_at(t)}; only rank-1 extraction "
                        "is supported")
                run.stop_reason = STOP_FLAT
                break

        # Stagnating bounds for two consecutive levels suggest an
        # asymptotic-only instance; stop with a warning reason.
        vals = run.values()
        if len(vals) >= 2 and abs(vals[-1] - vals[-2]) < stagnation_tol * (1.0 + abs(vals[-2])):
            stagnant_steps += 1
            if stagnant_steps >= 2:
                run.stop_reason = STOP_STAGNATION
                break
        else:
            stagnant_steps = 0
    else:
        run.stop_reason = STOP_LEVEL_CAP
    return run
