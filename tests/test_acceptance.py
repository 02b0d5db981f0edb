"""Acceptance suite: one test per criterion, each ending in a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion
lines.  The heavy artifacts (a 30-instance level corpus, a 200-instance random
ensemble, the Motzkin hierarchy run) are session fixtures shared by several
criteria; certificates collected from them all feed the soundness criterion.
"""

import json
import os
import time

import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, ball_constraint, audit_point, \
    build_sos_relaxation, extract_certificate, relaxation_value, run_hierarchy, solve, \
    verify_certificate
from polyopt.ensemble import run_ensemble
from polyopt.gallery import gallery_instance
from polyopt.hierarchy import STOP_FLAT, STOP_LEVEL_CAP
from polyopt.sdp import SdpProblem

from corpus import SEED, corpus_instances
from oracles import admm_sdp_solve, grid_minimize, sample_feasible_points

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "data", "motzkin_baseline.json")


def announce(criterion, verdict, detail):
    print(f"\n[criterion {criterion}] {verdict}: {detail}")


# ---------------------------------------------------------------------------
# Shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def level_corpus():
    """30 random archimedean instances (n <= 3, deg <= 4), three levels each."""
    started = time.perf_counter()
    records = []
    for _, inst in corpus_instances(spawn_key=1):
        oracle_val, _ = grid_minimize(inst, grid_points=30000)
        values, certs, solves = [], [], []
        for k in range(inst.min_level(), inst.min_level() + 3):
            prob = build_sos_relaxation(inst, k)
            sol = solve(prob)
            solves.append({"level": k, "status": sol.status,
                           "residuals": sol.residuals, "notes": sol.notes})
            if sol.status == "optimal":
                values.append(relaxation_value(prob, sol))
                certs.append(extract_certificate(prob, sol, inst))
            else:
                values.append(None)
                certs.append(None)
        records.append({"instance": inst, "oracle": oracle_val, "values": values,
                        "certificates": certs, "solves": solves})
    return {"records": records, "elapsed": time.perf_counter() - started}


@pytest.fixture(scope="session")
def ensemble(tmp_path_factory):
    """200 random degree-2 ball-constrained instances, level budget min_k + 2."""
    dump_dir = tmp_path_factory.mktemp("ensemble_failures")
    summary = run_ensemble(nvars=2, degree=2, count=200, seed=SEED,
                           n_equalities=0, level_budget=2,
                           dump_dir=dump_dir, keep_artifacts=True)
    return {"summary": summary, "dump_dir": dump_dir}


@pytest.fixture(scope="session")
def motzkin_run():
    inst = gallery_instance("motzkin-ball")
    started = time.perf_counter()
    run = run_hierarchy(inst, k_min=3, k_max=6)
    return {"instance": inst, "run": run, "elapsed": time.perf_counter() - started}


def iter_emitted_certificates(level_corpus, ensemble, motzkin_run):
    """(instance, certificate) pairs across the criterion 1-4 artifacts."""
    for rec in level_corpus["records"]:
        for cert in rec["certificates"]:
            if cert is not None:
                yield rec["instance"], cert
    for result in ensemble["summary"].results:
        run = result.get("_run")
        if run is None:
            continue
        for level in run.levels:
            if level.certificate is not None:
                yield result["_instance"], level.certificate
    for level in motzkin_run["run"].levels:
        if level.certificate is not None:
            yield motzkin_run["instance"], level.certificate


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_monotone_lower_bounds(level_corpus):
    records = level_corpus["records"]
    assert len(records) == 30
    for i, rec in enumerate(records):
        values = rec["values"]
        for value, level in zip(values, rec["solves"]):
            assert value is not None, (
                f"corpus instance i={i} level {level['level']} ended {level['status']}: "
                f"residuals {level['residuals']}, notes {level['notes']}")
        for a, b in zip(values, values[1:]):
            assert a <= b + 1e-7
        bound = rec["oracle"] + 1e-6 * (1.0 + abs(rec["oracle"]))
        for v in values:
            assert v <= bound
    assert level_corpus["elapsed"] <= 300.0
    announce(1, "PASS", f"30 instances x 3 levels monotone and below the oracle "
                        f"minimum ({level_corpus['elapsed']:.1f}s)")


def test_criterion_2_generic_finite_convergence(ensemble):
    summary = ensemble["summary"]
    assert summary.count == 200
    flat_ok = 0
    for result in summary.results:
        run = result.get("_run")
        inst = result.get("_instance")
        if run is None or run.stop_reason != STOP_FLAT:
            continue
        u = run.minimizer
        if u is None:
            continue
        if inst.worst_violation(u, 1e-6) is not None:
            continue
        if abs(inst.f.eval(u) - run.final_value) > 1e-5:
            continue
        flat_ok += 1
    fraction = flat_ok / summary.count
    assert fraction >= 0.95
    announce(2, "PASS", f"{flat_ok}/200 instances flat by level min_k+2 with a "
                        f"consistent feasible minimizer (fraction {fraction:.3f})")


def test_criterion_3_generic_local_conditions(ensemble):
    summary = ensemble["summary"]
    clean = 0
    audited = 0
    for result in summary.results:
        run = result.get("_run")
        inst = result.get("_instance")
        if run is None or run.minimizer is None:
            continue
        audited += 1
        report = audit_point(inst, run.minimizer, tol=1e-5)
        if report.cqc is True and report.scc is True and report.sosc is True:
            clean += 1
    fraction = clean / summary.count
    assert fraction >= 0.95
    # every failure is dumped for inspection
    dumped = sorted(ensemble["dump_dir"].glob("failure_*.json"))
    assert len(dumped) == len(summary.failures())
    announce(3, "PASS", f"CQC/SCC/SOSC all true at {clean}/{summary.count} extracted "
                        f"minimizers; {len(dumped)} failures dumped")


def test_criterion_4_motzkin_asymptotic_only(motzkin_run):
    run = motzkin_run["run"]
    values = run.values()
    assert [rec.level for rec in run.levels] == [3, 4, 5, 6]
    assert len(values) == 4
    for v in values:
        assert v < 0.0
    for a, b in zip(values, values[1:]):
        assert a < b
    for rec in run.levels:
        assert rec.flat is not None and not rec.flat.is_flat
    assert run.stop_reason == STOP_LEVEL_CAP
    assert values[-1] >= -1e-2
    assert motzkin_run["elapsed"] <= 120.0

    baseline = {"levels": [3, 4, 5, 6], "values": values}
    if not os.path.exists(BASELINE_PATH):
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w") as fh:
            json.dump(baseline, fh, indent=1)
        note = "baseline recorded on first run"
    else:
        with open(BASELINE_PATH) as fh:
            stored = json.load(fh)
        for have, want in zip(values, stored["values"]):
            assert have == pytest.approx(want, rel=1e-3, abs=1e-6)
        note = "matches recorded baseline"
    announce(4, "PASS", f"bounds {['%.3e' % v for v in values]} strictly increasing, "
                        f"never flat, f_6 >= -1e-2; {note} "
                        f"({motzkin_run['elapsed']:.1f}s)")


def test_criterion_5_certificate_soundness(level_corpus, ensemble, motzkin_run):
    rng = np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(5,)))
    sample_cache = {}
    checked = 0
    for inst, cert in iter_emitted_certificates(level_corpus, ensemble, motzkin_run):
        passed, residual = verify_certificate(cert, inst)
        assert passed, f"certificate with residual {residual:.3e} failed verification"
        assert residual <= 1e-6 * (1.0 + inst.f.coeff_norm())
        key = id(inst)
        if key not in sample_cache:
            pts = sample_feasible_points(inst, 10000, rng)
            assert len(pts) == 10000
            sample_cache[key] = inst.f.eval_many(pts)
        assert float(sample_cache[key].min()) - cert.gamma >= -1e-5
        checked += 1
    assert checked >= 200
    announce(5, "PASS", f"{checked} emitted certificates re-verified at 1e-6 and "
                        f"sound on 10^4-point samples of K")


def test_criterion_6_local_audit_unit_truths():
    # equality-constrained quadratic: SOSC with lambda = 1
    inst = PopInstance(
        f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}),
        h=(Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),))
    report = audit_point(inst, [0.5, 0.5])
    assert report.sosc is True and report.sonc is True and report.cqc is True
    assert abs(report.lam[0] - 1.0) <= 1e-8
    assert abs(report.stationarity_residual) <= 1e-8
    assert np.allclose(report.projected_eigenvalues, [2.0], atol=1e-8)

    # flat quartic: SONC holds, SOSC fails, the projected Hessian is exactly 0
    inst = PopInstance(f=Polynomial(1, {(4,): 1.0}), g=(ball_constraint(1, 1.0),))
    report = audit_point(inst, [0.0])
    assert report.sonc is True and report.sosc is False
    assert np.allclose(report.projected_eigenvalues, [0.0], atol=1e-8)

    # boundary minimizer of a linear objective over the ball: SCC with mu = 1/2
    inst = PopInstance(f=Polynomial(2, {(1, 0): -1.0}), g=(ball_constraint(2, 1.0),))
    report = audit_point(inst, [1.0, 0.0])
    assert report.scc is True and report.cqc is True and report.sosc is True
    assert abs(report.mu[0] - 0.5) <= 1e-8
    assert abs(report.stationarity_residual) <= 1e-8
    announce(6, "PASS", "equality quadratic -> SOSC; x^4 at 0 -> SONC only; "
                        "ball boundary -> SCC with mu = 1/2 (tolerance 1e-8)")


def test_criterion_7_solver_against_projection_oracle():
    rng = np.random.default_rng(np.random.SeedSequence(entropy=SEED, spawn_key=(7,)))
    worst_diff = 0.0
    worst_kkt = 0.0
    for trial in range(50):
        sizes = [int(rng.integers(2, 31))]
        if trial % 3 == 0:
            sizes.append(int(rng.integers(2, 11)))
        # keep the equality rows linearly independent (rows <= PSD dimension)
        nrows = min(int(rng.integers(3, 13)), sum(s * (s + 1) // 2 for s in sizes) - 1)
        a_blocks = []
        x0, z0 = [], []
        for s in sizes:
            a = rng.standard_normal((nrows, s, s))
            a_blocks.append((a + a.transpose(0, 2, 1)) / 2.0)
            q = rng.standard_normal((s, s))
            x0.append(q @ q.T + 0.5 * np.eye(s))
            q = rng.standard_normal((s, s))
            z0.append(q @ q.T + 0.5 * np.eye(s))
        rhs = sum(a.reshape(nrows, -1) @ x.reshape(-1) for a, x in zip(a_blocks, x0))
        v0 = rng.standard_normal(nrows)
        c_blocks = [np.tensordot(v0, a, axes=1) - z for a, z in zip(a_blocks, z0)]
        prob = SdpProblem(block_sizes=sizes, a_blocks=a_blocks,
                          b_free=np.zeros((nrows, 0)), rhs=rhs,
                          c_free=np.zeros(0), c_blocks=c_blocks)
        sol = solve(prob)
        assert sol.status == "optimal"
        kkt = max(sol.residuals.values())
        assert kkt <= 1e-7
        oracle_obj, _, _ = admm_sdp_solve(c_blocks, a_blocks, rhs)
        diff = abs(sol.primal_objective - oracle_obj) / (1.0 + abs(oracle_obj))
        assert diff <= 1e-5
        worst_diff = max(worst_diff, diff)
        worst_kkt = max(worst_kkt, kkt)
    announce(7, "PASS", f"50 random SDPs: worst oracle gap {worst_diff:.2e} "
                        f"(<= 1e-5), worst KKT residual {worst_kkt:.2e} (<= 1e-7)")
