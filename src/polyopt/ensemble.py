"""Randomized experiments over ball-constrained instances.

Draws objectives (and optionally linear equalities) with i.i.d. standard
normal coefficients, runs the hierarchy with a small level budget, audits the
extracted minimizer, and tabulates how often finite convergence and the local
conditions hold.  Everything is reproducible from the seed; instances can be
solved in a process pool and are merged back in index order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import PolyOptError
from .localopt import audit_point
from .polynomials import Polynomial, basis
from .pop import PopInstance, ball_constraint, instance_to_dict, write_json
from .hierarchy import STOP_FLAT, run_hierarchy

AUDIT_TOL = 1e-5

LOCAL_CONDITIONS = ("cqc", "scc", "sosc")

# (name, table label) of each rate the summary reports, in table order.  The
# fractions, the table rows and ``failures()`` all read this tuple; a result
# meets "all_conditions" when it meets each of LOCAL_CONDITIONS.
CONDITIONS = (
    ("flat", "flat truncation attained"),
    ("minimizer_feasible", "minimizer extracted+feasible"),
    ("cqc", "CQC"),
    ("scc", "SCC"),
    ("sosc", "SOSC"),
    ("all_conditions", "all local conditions"),
    ("certificates_verified", "certificates verified"),
)


def random_polynomial(nvars: int, degree: int, rng) -> Polynomial:
    """All monomials of degree <= degree with standard normal coefficients."""
    terms = {}
    for mono in basis(nvars, degree):
        terms[mono] = float(rng.standard_normal())
    return Polynomial(nvars, terms)


def random_instance(nvars: int, degree: int, rng,
                    n_equalities: int = 0) -> PopInstance:
    """Random objective over the unit ball, optionally with linear equalities.

    Equalities are redrawn until the affine subspace actually meets the ball,
    so every returned instance is feasible; conditioning on feasibility keeps
    the coefficient law absolutely continuous.  A negative number of
    equalities, or more equalities than variables, raises ValueError before
    anything is drawn: random linear equalities in that number have no
    common solution.
    """
    if n_equalities < 0:
        raise ValueError(f"n_equalities must be at least 0, got {n_equalities}")
    if n_equalities > nvars:
        raise ValueError(f"{n_equalities} random linear equalities in {nvars} variables "
                         "have no common solution")
    f = random_polynomial(nvars, degree, rng)
    unit = [tuple(1 if i == j else 0 for j in range(nvars)) for i in range(nvars)]
    h = []
    for _ in range(n_equalities):
        for _attempt in range(1000):
            cand = random_polynomial(nvars, 1, rng)
            system = h + [cand]
            rows = np.array([[p.coefficient(e) for e in unit] for p in system])
            rhs = -np.array([p.coefficient((0,) * nvars) for p in system])
            sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
            consistent = np.allclose(rows @ sol, rhs, atol=1e-9)
            if consistent and sol @ sol <= 1.0 - 1e-9:
                h.append(cand)
                break
        else:
            raise RuntimeError("could not draw a feasible equality system")
    return PopInstance(f=f, h=tuple(h), g=(ball_constraint(nvars, 1.0),))


def _run_single(index: int, seed: int, nvars: int, degree: int,
                n_equalities: int, level_budget: int,
                keep_artifacts: bool = False) -> dict:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    inst = random_instance(nvars, degree, rng, n_equalities=n_equalities)
    min_k = inst.min_level()
    result = {
        "index": index,
        "flat": False,
        "flat_level": None,
        "minimizer": None,
        "minimizer_feasible": False,
        "cqc": None, "scc": None, "sosc": None,
        "certificates_verified": True,
        "max_level": None,
        "value": None,
        "error": None,
        "instance": instance_to_dict(inst),
    }
    if keep_artifacts:
        result["_instance"] = inst
    try:
        run = run_hierarchy(inst, k_min=min_k, k_max=min_k + level_budget)
    except PolyOptError as exc:
        result["error"] = str(exc)
        return result
    if keep_artifacts:
        result["_run"] = run
    solved = [rec for rec in run.levels if rec.value is not None]
    result["max_level"] = solved[-1].level if solved else None
    result["value"] = run.final_value
    for rec in run.levels:
        if rec.certificate is not None:
            result["certificates_verified"] &= rec.certificate.verified
    if run.stop_reason == STOP_FLAT:
        result["flat"] = True
        result["flat_level"] = run.flat_level
    u = run.minimizer   # accepted by extract_minimizer_rank1: feasible, f(u) at the bound
    if u is not None:
        result["minimizer"] = [float(x) for x in u]
        result["minimizer_feasible"] = True
        try:
            report = audit_point(inst, u, tol=AUDIT_TOL)
            result["cqc"] = report.cqc
            result["scc"] = report.scc
            result["sosc"] = report.sosc
        except PolyOptError as exc:
            result["error"] = f"audit failed: {exc}"
    return result


@dataclass
class EnsembleSummary:
    count: int
    seed: int
    nvars: int
    degree: int
    n_equalities: int
    level_budget: int
    results: list = field(default_factory=list)

    def fraction(self, key) -> float:
        """Share of the results that meet the condition ``key`` (a CONDITIONS name)."""
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if _meets(r, key)) / len(self.results)

    def failures(self) -> list:
        """The results that miss a condition or carry an error, without live artifacts."""
        return [{k: v for k, v in r.items() if not k.startswith("_")}
                for r in self.results
                if r.get("error") or not all(_meets(r, name) for name, _ in CONDITIONS)]

    def table(self) -> str:
        n = max(len(self.results), 1)
        max_level = max((r["max_level"] or 0 for r in self.results), default=0)
        lines = [
            f"random ensemble: count={self.count} nvars={self.nvars} "
            f"degree={self.degree} equalities={self.n_equalities} seed={self.seed}",
            *(f"  {label:<28} {self.fraction(name):8.3f}" for name, label in CONDITIONS),
            f"  max level used               {max_level:8d}",
            f"  failures                     {len(self.failures()):8d} of {n}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "count": self.count, "seed": self.seed, "nvars": self.nvars,
            "degree": self.degree, "n_equalities": self.n_equalities,
            "level_budget": self.level_budget,
            "fractions": {name: self.fraction(name) for name, _ in CONDITIONS},
            "failures": len(self.failures()),
            "results": [{k: v for k, v in r.items() if not k.startswith("_")}
                        for r in self.results],
        }


def _meets(result: dict, name: str) -> bool:
    if name == "all_conditions":
        return all(result.get(key) is True for key in LOCAL_CONDITIONS)
    return result.get(name) is True


def run_ensemble(nvars: int, degree: int, count: int, seed: int,
                 n_equalities: int = 0, level_budget: int = 2,
                 workers: int = 1, dump_dir=None,
                 keep_artifacts: bool = False) -> EnsembleSummary:
    """Sample and solve ``count`` random instances; fully determined by the seed.

    Failing instances (anything short of flat convergence with a verified
    audit) are dumped as JSON into ``dump_dir`` when given; it is made (with
    its parents) before any instance is drawn.  With
    ``keep_artifacts`` (serial only) each result also carries the live
    instance and hierarchy run under the keys ``_instance`` / ``_run``.
    A ``count``, ``seed`` or ``level_budget`` below 0 or ``workers`` below 1
    raises ValueError before any instance is drawn; ``random_instance``
    checks ``nvars``, ``degree`` and ``n_equalities`` as it draws.
    """
    for name, value, least in (("count", count, 0), ("seed", seed, 0),
                               ("level_budget", level_budget, 0), ("workers", workers, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if dump_dir is not None:
        os.makedirs(str(dump_dir), exist_ok=True)
    summary = EnsembleSummary(count=count, seed=seed, nvars=nvars, degree=degree,
                              n_equalities=n_equalities, level_budget=level_budget)
    args = [(i, seed, nvars, degree, n_equalities, level_budget) for i in range(count)]
    if workers > 1 and count > 1 and not keep_artifacts:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_single, *zip(*args), chunksize=1))
    else:
        results = [_run_single(*a, keep_artifacts=keep_artifacts) for a in args]
    results.sort(key=lambda r: r["index"])
    summary.results = results

    if dump_dir is not None:
        for r in summary.failures():
            write_json(r, os.path.join(str(dump_dir), f"failure_{r['index']:04d}.json"),
                       indent=1)
    return summary
