"""Tests of the benchmark itself: every independent check accepts the
program's output and rejects a deliberately wrong one, and the generators
repeat for a repeated seed.

Run from the repository root:  python3 -m pytest bench -q
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polyopt import hierarchy, relaxation, solver  # noqa: E402


def terms_of(inst):
    return (inst.f.terms, [p.terms for p in inst.h], [p.terms for p in inst.g])


# -- generators --------------------------------------------------------------

def test_ensemble_generator_repeats_for_a_seed():
    first = [terms_of(i) for i in workloads.ensemble_instances(5, count=20)]
    assert first == [terms_of(i) for i in workloads.ensemble_instances(5, count=20)]
    assert first != [terms_of(i) for i in workloads.ensemble_instances(6, count=20)]


def test_corpus_generator_repeats_and_matches_the_acceptance_recipe():
    first = [terms_of(i) for i in workloads.corpus_instances()]
    assert first == [terms_of(i) for i in workloads.corpus_instances()]
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        corpus = pytest.importorskip("corpus")
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    recipe = [terms_of(inst) for _, inst in corpus.corpus_instances(workloads.CORPUS_SPAWN_KEY)]
    assert first == recipe


def test_feasible_samples_repeat_for_a_seed():
    inst = workloads.corpus_instances()[2]
    mins = [checks.feasible_sample_min(inst, np.random.default_rng(s)) for s in (3, 3, 4)]
    assert mins[0] == mins[1] != mins[2]


# -- references --------------------------------------------------------------

def grid_min(hess, lin, const, steps=801):
    """min over a grid of the disk and many points of its boundary circle."""
    xs = np.linspace(-1.0, 1.0, steps)
    angles = np.linspace(0.0, 2.0 * np.pi, 100_000)
    pts = np.vstack([[(a, b) for a in xs for b in xs if a * a + b * b <= 1.0],
                     np.column_stack([np.cos(angles), np.sin(angles)])])
    vals = 0.5 * np.einsum("ij,jk,ik->i", pts, hess, pts) + pts @ lin + const
    return float(vals.min())


@pytest.mark.parametrize("seed", range(5))
def test_trust_region_matches_a_grid_search(seed):
    rng = np.random.default_rng(seed)
    hess = rng.standard_normal((2, 2))
    hess = hess + hess.T
    lin, const = rng.standard_normal(2), float(rng.standard_normal())
    f_min, x, mu = checks.trust_region(hess, lin, const)
    assert x @ x <= 1.0 + 1e-12
    assert f_min <= grid_min(hess, lin, const) + 1e-12
    assert grid_min(hess, lin, const) - f_min < 1e-4
    assert np.allclose(hess @ x + lin, -2.0 * mu * x, atol=1e-9)


def test_trust_region_hard_case():
    # f = -x1^2 + x2^2 + x2 / 2: c is orthogonal to the lowest eigenvector
    hess, lin = np.diag([-2.0, 2.0]), np.array([0.0, 0.5])
    f_min, x, mu = checks.trust_region(hess, lin, 0.0)
    assert f_min == pytest.approx(-1.03125, abs=1e-12)
    assert x[1] == pytest.approx(-0.125) and x @ x == pytest.approx(1.0)
    assert mu == pytest.approx(1.0)


# -- checks accept today's output and reject a wrong one ---------------------

@pytest.fixture(scope="module")
def short_ladder():
    ladder = workloads.MotzkinLadder()
    ladder.levels = (3, 4)
    inputs = ladder.setup(0)
    return ladder, inputs, ladder.run(inputs, 0)


def test_ladder_check_accepts_the_program_output(short_ladder):
    ladder, inputs, run = short_ladder
    assert ladder.check(inputs, 0, run) == workloads.Outcome()


def test_ladder_check_rejects_a_raised_gamma(short_ladder):
    ladder, inputs, run = short_ladder
    rec = run.levels[-1]
    cert = dataclasses.replace(rec.certificate, gamma=rec.certificate.gamma + 1e-3)
    assert any("identity residual" in msg for msg in checks.check_certificate(cert, inputs[0]))
    wrong = dataclasses.replace(run, levels=run.levels[:-1] + [
        dataclasses.replace(rec, certificate=cert)])
    assert ladder.check(inputs, 0, wrong).wrong


def test_ladder_check_rejects_a_bound_at_the_minimum(short_ladder):
    ladder, inputs, run = short_ladder
    rec = run.levels[-1]
    wrong = dataclasses.replace(run, levels=run.levels[:-1] + [
        dataclasses.replace(rec, value=0.0)])
    assert any("not below 0" in msg for msg in ladder.check(inputs, 0, wrong).wrong)


def test_certificate_check_rejects_a_negative_gram_eigenvalue(short_ladder):
    _, inputs, run = short_ladder
    cert = run.levels[0].certificate
    block = cert.sigma_grams[0]
    eig, vec = np.linalg.eigh(block.matrix)
    bent = block.matrix - (eig[0] + 1e-3) * np.outer(vec[:, 0], vec[:, 0])
    grams = [dataclasses.replace(block, matrix=bent)] + cert.sigma_grams[1:]
    problems = checks.check_certificate(dataclasses.replace(cert, sigma_grams=grams), inputs[0])
    assert any("eigenvalue" in msg for msg in problems)


@pytest.fixture(scope="module")
def ensemble_op():
    ens = workloads.EnsembleSmall()
    inputs = ens.setup(1)
    return ens, inputs, ens.run(inputs, 0)


def test_ensemble_check_accepts_the_program_output(ensemble_op):
    ens, inputs, result = ensemble_op
    assert ens.check(inputs, 0, result) == workloads.Outcome()


def test_ensemble_check_rejects_a_minimizer_off_the_disk(ensemble_op):
    ens, inputs, (run, report) = ensemble_op
    levels = [dataclasses.replace(rec, minimizer=None if rec.minimizer is None
                                  else rec.minimizer / np.linalg.norm(rec.minimizer) * 1.01)
              for rec in run.levels]
    wrong = ens.check(inputs, 0, (dataclasses.replace(run, levels=levels), report)).wrong
    assert any("outside the disk" in msg for msg in wrong)


def test_ensemble_check_rejects_a_raised_bound_and_gamma(ensemble_op):
    ens, inputs, (run, report) = ensemble_op
    levels = [dataclasses.replace(rec, value=rec.value + 1e-3, certificate=dataclasses.replace(
        rec.certificate, gamma=rec.certificate.gamma + 1e-3)) for rec in run.levels]
    wrong = ens.check(inputs, 0, (dataclasses.replace(run, levels=levels), report)).wrong
    assert any("minimum" in msg for msg in wrong)
    assert any("identity residual" in msg for msg in wrong)


def test_ensemble_check_rejects_a_wrong_multiplier(ensemble_op):
    ens, inputs, (run, report) = ensemble_op
    bad = dataclasses.replace(report, mu=report.mu + 1e-2)
    assert any("multiplier" in msg for msg in ens.check(inputs, 0, (run, bad)).wrong)


@pytest.fixture(scope="module")
def corpus_op():
    corpus = workloads.MomentCorpus()
    inputs = corpus.setup(1)
    return corpus, inputs, corpus.run(inputs, 4)


def test_corpus_check_accepts_the_program_output(corpus_op):
    corpus, inputs, result = corpus_op
    assert result[1].status == workloads.OPTIMAL
    assert corpus.check(inputs, 4, result) == workloads.Outcome()


def test_corpus_check_rejects_a_perturbed_pseudo_moment(corpus_op):
    corpus, inputs, (prob, sol) = corpus_op
    for j, mono in enumerate(prob.layout.free_monomials):
        if inputs[4].inst.f.terms.get(mono) and sum(mono) > 0:
            break
    values = sol.free_values.copy()
    values[j] += 1e-3
    wrong = corpus.check(inputs, 4, (prob, dataclasses.replace(sol, free_values=values))).wrong
    assert any("sum f_alpha y_alpha" in msg for msg in wrong)


def test_corpus_check_rejects_a_bound_above_a_feasible_value(corpus_op):
    corpus, inputs, (prob, sol) = corpus_op
    ref = inputs[4]
    value = relaxation.relaxation_value(prob, sol)
    y = dict(zip(prob.layout.free_monomials, map(float, sol.free_values)))
    assert checks.check_moments(y, ref.inst, ref.level, value, ref.sample_min) == []
    wrong = checks.check_moments(y, ref.inst, ref.level, value, value - 1e-3)
    assert any("exceeds f" in msg for msg in wrong)


def test_moment_check_rejects_a_matrix_that_is_not_psd(corpus_op):
    corpus, inputs, (prob, sol) = corpus_op
    ref = inputs[4]
    y = dict(zip(prob.layout.free_monomials, map(float, sol.free_values)))
    n = ref.inst.nvars
    y[tuple(2 if i == 0 else 0 for i in range(n))] = -0.5   # E[x1^2] < 0
    wrong = checks.check_moments(y, ref.inst, ref.level, float("-inf"), ref.sample_min)
    assert any("moment matrix" in msg for msg in wrong)


# -- tracing and the command -------------------------------------------------

def test_tracer_restores_the_entry_points_and_counts_iterations():
    originals = [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    inst = workloads.ensemble_instances(2, count=1)[0]
    with tracer.installed():
        run = hierarchy.run_hierarchy(inst, k_min=1, k_max=3)
        sol = solver.solve(relaxation.build_moment_relaxation(inst, 1))
    assert [getattr(mod, attr) for mod, attr, _, _ in tracing.TARGETS] == originals
    metrics = tracer.metrics(passes=1)
    assert metrics["solver.iterations"] == (
        sum(rec.solver_iterations for rec in run.levels) + sol.iterations)
    assert metrics["hierarchy.levels"] == len(run.levels)
    names = {s.name for s in tracer.spans}
    assert {"hierarchy.run", "relaxation.build", "solver.solve", "certify.extract",
            "certify.verify", "certify.moments"} <= names
    parents = {tracer.spans[s.parent].name for s in tracer.spans if s.name == "solver.solve"
               and s.parent is not None}
    assert parents == {"hierarchy.run"}


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "motzkin-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
