"""The three benchmark workloads: inputs, operations and their checks.

A workload makes its inputs from a seed, then runs passes over them; a pass
is a fixed list of operations.  The program is called through its module
attributes (``hierarchy.run_hierarchy`` and so on), which is where
``tracing`` installs its spans.

Each operation returns an ``Outcome``: ``failed`` names why the program gave
no answer (an exception or a solve that did not end ``optimal``), ``wrong``
lists checks that an answer did not pass.  An operation with either is a
failed operation; ``wrong`` also makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks
from polyopt import Polynomial, PopInstance, gallery, hierarchy, localopt, relaxation, solver
from polyopt.ensemble import AUDIT_TOL
from polyopt.errors import PolyOptError

OPTIMAL = "optimal"
CORPUS_SEED = 20260810   # acceptance-corpus recipe (tests/corpus.py), spawn key 1
CORPUS_SPAWN_KEY = 1
ENSEMBLE_COUNT = 200


@dataclass
class Outcome:
    failed: list = field(default_factory=list)
    wrong: list = field(default_factory=list)


# The generators below are the benchmark's own, not polyopt's helpers, so that
# a change to the program cannot change the inputs it is measured on.

def ball(nvars: int) -> Polynomial:
    """1 - |x|^2."""
    terms = {(0,) * nvars: 1.0}
    for i in range(nvars):
        terms[tuple(2 if j == i else 0 for j in range(nvars))] = -1.0
    return Polynomial(nvars, terms)


def random_polynomial(nvars: int, deg: int, rng) -> Polynomial:
    return Polynomial(nvars, {m: float(rng.standard_normal())
                              for m in checks.monomials(nvars, deg)})


def ensemble_instances(seed: int, count: int = ENSEMBLE_COUNT) -> list:
    """n = 2, every monomial of degree <= 2 with an N(0, 1) coefficient, unit disk."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    return [PopInstance(f=random_polynomial(2, 2, rng), g=(ball(2),)) for _ in range(count)]


def corpus_instances() -> list:
    """The 30 instances of the acceptance corpus: n = 1 + i % 3, degree
    2 + (i // 3) % 3 over the unit ball, every third with an extra random
    quadratic whose constant term is 0.5 (the origin stays strictly feasible)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=CORPUS_SEED, spawn_key=(CORPUS_SPAWN_KEY,)))
    out = []
    for i in range(30):
        n, deg = 1 + i % 3, 2 + (i // 3) % 3
        f = random_polynomial(n, deg, rng)
        g = ()
        if i % 3 == 2:
            terms = dict(random_polynomial(n, 2, rng).terms)
            terms[(0,) * n] = 0.5
            g = (Polynomial(n, terms),)
        out.append(PopInstance(f=f, g=g + (ball(n),)))
    return out


def _failed_levels(run) -> list:
    return [f"level {rec.level}: {rec.status}" for rec in run.levels if rec.status != OPTIMAL]


class MotzkinLadder:
    """Gallery ``motzkin-ball`` through levels 3..6; one operation is the ladder.

    The instance does not depend on the seed."""

    name = "motzkin-ladder"
    levels = (3, 4, 5, 6)

    def setup(self, seed: int) -> list:
        inst = gallery.gallery_instance("motzkin-ball")
        solver.solve(relaxation.build_sos_relaxation(inst, self.levels[0]))
        return [inst]

    def run(self, inputs, i: int):
        return hierarchy.run_hierarchy(inputs[i], k_min=self.levels[0], k_max=self.levels[-1])

    def check(self, inputs, i: int, run) -> Outcome:
        out = Outcome(failed=_failed_levels(run))
        if [rec.level for rec in run.levels] != list(self.levels):
            out.failed.append(f"levels {[rec.level for rec in run.levels]} solved")
        if out.failed:
            return out
        values = [rec.value for rec in run.levels]
        for lo, hi in zip(values, values[1:]):
            if hi < lo - 1e-7:
                out.wrong.append(f"bounds decrease: {lo!r} -> {hi!r}")
        # 0 is the minimum of the Motzkin polynomial
        out.wrong += [f"level {rec.level}: bound {rec.value!r} is not below 0"
                      for rec in run.levels if not rec.value < 0.0]
        out.wrong += [f"level {rec.level} is flat" for rec in run.levels
                      if rec.flat is not None and rec.flat.is_flat]
        for rec in run.levels:
            out.wrong += checks.check_certificate(rec.certificate, inputs[i])
            if rec.certificate.gamma != rec.value:
                out.wrong.append(f"level {rec.level}: certificate gamma "
                                 f"{rec.certificate.gamma!r} is not the bound {rec.value!r}")
        return out


@dataclass
class EnsembleInput:
    inst: PopInstance
    f_min: float
    x_min: np.ndarray
    mu: float
    hess_norm: float


class EnsembleSmall:
    """200 random quadratics over the unit disk; one operation is one instance:
    the hierarchy over levels 1..3 with certificates, then the local audit at
    the extracted minimizer."""

    name = "ensemble-small"

    def setup(self, seed: int) -> list:
        inputs = []
        for inst in ensemble_instances(seed):
            hess, lin, const = checks.quadratic_parts(inst.f.terms, 2)
            f_min, x_min, mu = checks.trust_region(hess, lin, const)
            inputs.append(EnsembleInput(inst, f_min, x_min, mu, float(np.linalg.norm(hess, 2))))
        solver.solve(relaxation.build_sos_relaxation(inputs[0].inst, 1))
        return inputs

    def run(self, inputs, i: int):
        inst = inputs[i].inst
        k = inst.min_level()
        run = hierarchy.run_hierarchy(inst, k_min=k, k_max=k + 2)
        report = None
        if run.minimizer is not None:
            report = localopt.audit_point(inst, run.minimizer, tol=AUDIT_TOL)
        return run, report

    def check(self, inputs, i: int, result) -> Outcome:
        run, report = result
        ref = inputs[i]
        out = Outcome(failed=_failed_levels(run))
        if run.minimizer is None:
            out.failed.append("no minimizer extracted")
        if out.failed:
            return out
        scale = 1.0 + abs(ref.f_min)
        if abs(run.final_value - ref.f_min) > 1e-6 * scale:
            out.wrong.append(f"bound {run.final_value!r}, minimum {ref.f_min!r}")
        u = np.asarray(run.minimizer, dtype=float)
        if u @ u > 1.0 + 1e-6:
            out.wrong.append(f"minimizer {u.tolist()} is outside the disk")
        f_u = float(checks.evaluate(ref.inst.f.terms, u)[0])
        if abs(f_u - ref.f_min) > 1e-5 * scale:
            out.wrong.append(f"f(minimizer) = {f_u!r}, minimum {ref.f_min!r}")
        # To first order the multiplier fitted at u differs from the one at x*
        # by (mu + |H| / 2) |u - x*|, and extracted minimizers lie up to about
        # 2e-5 from x*; the tolerance allows twice that first-order term.
        mu_tol = 1e-5 + (ref.hess_norm + 2.0 * ref.mu) * float(np.linalg.norm(u - ref.x_min))
        if abs(float(report.mu[0]) - ref.mu) > mu_tol:
            out.wrong.append(f"ball multiplier {float(report.mu[0])!r}, reference {ref.mu!r}")
        for rec in run.levels:
            out.wrong += checks.check_certificate(rec.certificate, ref.inst)
        return out


@dataclass
class CorpusInput:
    inst: PopInstance
    level: int
    sample_min: float


class MomentCorpus:
    """The acceptance corpus in moment form at levels min and min + 1; one
    operation is one level (build, then solve).

    The corpus is fixed: nine of its levels end ``near_optimal`` on a known
    solver fault, and a failure count that moved with the seed could not be
    compared between runs.  The seed draws the feasible points that bound
    each value from above.
    """

    name = "moment-corpus"

    def setup(self, seed: int) -> list:
        inputs = []
        for idx, inst in enumerate(corpus_instances()):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(idx,)))
            sample_min = checks.feasible_sample_min(inst, rng)
            k = inst.min_level()
            inputs += [CorpusInput(inst, k, sample_min), CorpusInput(inst, k + 1, sample_min)]
        solver.solve(relaxation.build_moment_relaxation(inputs[0].inst, inputs[0].level))
        return inputs

    def run(self, inputs, i: int):
        prob = relaxation.build_moment_relaxation(inputs[i].inst, inputs[i].level)
        return prob, solver.solve(prob)

    def check(self, inputs, i: int, result) -> Outcome:
        prob, sol = result
        ref = inputs[i]
        if sol.status != OPTIMAL:
            return Outcome(failed=[f"level {ref.level}: {sol.status}"])
        y = dict(zip(prob.layout.free_monomials, map(float, sol.free_values)))
        value = relaxation.relaxation_value(prob, sol)
        return Outcome(wrong=checks.check_moments(y, ref.inst, ref.level, value, ref.sample_min))


WORKLOADS = {w.name: w for w in (MotzkinLadder(), EnsembleSmall(), MomentCorpus())}


def run_operation(workload, inputs, i: int) -> tuple:
    """(result or None, exception text or None); only program errors are caught."""
    try:
        return workload.run(inputs, i), None
    except (PolyOptError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return None, f"{type(exc).__name__}: {exc}"
