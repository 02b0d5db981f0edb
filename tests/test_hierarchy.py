import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, ball_constraint, ensemble, hierarchy, \
    run_hierarchy
from polyopt.errors import LevelError
from polyopt.gallery import gallery_instance, gallery_names
from polyopt.hierarchy import STOP_FLAT, STOP_LEVEL_CAP, STOP_STAGNATION
from polyopt.solver import SolverOptions
from polyopt.ensemble import random_instance, run_ensemble

from oracles import grid_minimize


def _no_build(*args, **kwargs):
    raise AssertionError("work started before the directory was made")


class TestDriver:
    def test_convex_quadratic_stops_at_first_testable_level(self):
        inst = gallery_instance("quadratic-ball")
        run = run_hierarchy(inst, k_max=5)
        assert run.stop_reason == STOP_FLAT
        # flatness needs one order of room below the level, so the first
        # level the test can certify is min_level + 1
        assert run.levels[-1].level == inst.min_level() + 1
        oracle_val, _ = grid_minimize(inst, grid_points=4000)
        assert run.final_value == pytest.approx(oracle_val, abs=1e-6)
        assert run.minimizer is not None
        assert np.allclose(run.minimizer, [1.0 / 7.0, 3.0 / 7.0], atol=1e-5)

    def test_motzkin_never_flat(self):
        inst = gallery_instance("motzkin-ball")
        run = run_hierarchy(inst, k_min=3, k_max=4)
        assert run.stop_reason == STOP_LEVEL_CAP
        vals = run.values()
        assert len(vals) == 2
        assert vals[0] < vals[1] < 0.0
        assert all(rec.flat is not None and not rec.flat.is_flat for rec in run.levels)

    def test_flatness_tested_only_on_optimal_levels(self):
        # level 2 of this instance ends near_optimal with a bound about 2e-6
        # below level 1's; declaring it flat would stop on that bound
        inst = gallery_instance("equality-quadratic")
        run = run_hierarchy(inst)
        assert run.stop_reason == STOP_FLAT
        for rec in run.levels:
            if rec.flat is not None and rec.flat.is_flat:
                assert rec.status == "optimal", rec.to_dict()
            if rec.status == "near_optimal":
                assert rec.flat is None and "flatness not tested" in rec.minimizer_note
        assert run.final_value == pytest.approx(inst.metadata["f_min"], abs=1e-7)

    def test_level_below_minimum_rejected(self):
        inst = gallery_instance("motzkin-ball")
        with pytest.raises(LevelError) as err:
            run_hierarchy(inst, k_min=1)
        assert err.value.min_level == 3
        assert "3" in str(err.value)

    def test_stagnation_on_continuum_of_minimizers(self):
        # (x1^2 + x2^2 - 1)^2 is minimized on the whole unit circle: the bound
        # is exact from the first level but no finitely-atomic measure shows
        # up, so flatness never fires and the driver stops on stagnation.
        circle = Polynomial(2, {(0, 0): -1.0, (2, 0): 1.0, (0, 2): 1.0})
        inst = PopInstance(f=circle * circle, g=(ball_constraint(2, 4.0),))
        # the bound is exact from level 2 on, moving only by solver noise, so
        # a stagnation band above that noise must trigger the warning stop
        run = run_hierarchy(inst, k_max=6, stagnation_tol=1e-7)
        assert run.stop_reason == STOP_STAGNATION
        for rec in run.levels:
            assert rec.flat is None or not rec.flat.is_flat
        assert run.final_value == pytest.approx(0.0, abs=1e-6)

    def test_max_iter_below_one_raises_before_any_build(self, monkeypatch):
        import polyopt.hierarchy as hierarchy_module

        builds = []
        build = hierarchy_module.build_sos_relaxation
        monkeypatch.setattr(hierarchy_module, "build_sos_relaxation",
                            lambda inst, k: builds.append(k) or build(inst, k))
        inst = gallery_instance("quadratic-ball")
        with pytest.raises(ValueError, match="max_iter"):
            run_hierarchy(inst, solver_options=SolverOptions(max_iter=0))
        # a NaN tolerance is never met: the run would spend every iteration
        for bad in (dict(tol_gap=float("nan")), dict(tol_feas=0.0), dict(tol_gap=-1e-8)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                run_hierarchy(inst, solver_options=SolverOptions(**bad))
        # a NaN stagnation tolerance would never stop a run
        with pytest.raises(ValueError, match="stagnation_tol"):
            run_hierarchy(inst, stagnation_tol=float("nan"))
        with pytest.raises(LevelError, match="below the starting level"):
            run_hierarchy(inst, k_min=3, k_max=2)
        assert builds == []
        run_hierarchy(inst, k_max=1, solver_options=SolverOptions(max_iter=1))
        assert builds == [1]

    def test_solver_failure_recorded_and_continues(self):
        inst = gallery_instance("quadratic-ball")
        run = run_hierarchy(inst, k_max=3,
                            solver_options=SolverOptions(max_iter=1))
        assert all(rec.value is None for rec in run.levels)
        assert all(rec.error for rec in run.levels)
        assert len(run.levels) == 3
        assert run.stop_reason == STOP_LEVEL_CAP

    def test_two_minima_flat_without_extraction(self):
        inst = gallery_instance("two-minima")
        run = run_hierarchy(inst, k_max=4)
        assert run.stop_reason == STOP_FLAT
        last = run.levels[-1]
        assert last.flat.rank_at(last.flat.flat_at) == 2
        assert run.minimizer is None
        assert "rank" in last.minimizer_note

    def test_certificates_written(self, tmp_path):
        inst = gallery_instance("quadratic-ball")
        run = run_hierarchy(inst, k_max=3, certificate_dir=tmp_path)
        from polyopt import read_certificate, verify_certificate

        for rec in run.levels:
            if rec.certificate_path:
                cert, embedded = read_certificate(rec.certificate_path)
                passed, _ = verify_certificate(cert, embedded)
                assert passed

    def test_certificate_dir_is_made_before_any_level(self, tmp_path, monkeypatch):
        # a new nested directory used to fail after the first level was solved
        certs = tmp_path / "new" / "certs"
        run = run_hierarchy(gallery_instance("quadratic-ball"), k_max=3, certificate_dir=certs)
        written = [rec.certificate_path for rec in run.levels if rec.certificate_path]
        assert written and sorted(map(str, certs.iterdir())) == sorted(written)
        monkeypatch.setattr(hierarchy, "build_sos_relaxation", _no_build)
        with pytest.raises(NotADirectoryError):
            run_hierarchy(gallery_instance("quadratic-ball"),
                          certificate_dir=written[0] + "/certs")

    def test_values_monotone(self):
        inst = gallery_instance("motzkin-ball")
        run = run_hierarchy(inst, k_min=3, k_max=5)
        vals = run.values()
        for a, b in zip(vals, vals[1:]):
            assert a <= b + 1e-7


class TestGallery:
    def test_names(self):
        names = gallery_names()
        assert "motzkin-ball" in names
        assert len(names) >= 5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            gallery_instance("nope")

    @pytest.mark.parametrize("name", [n for n in gallery_names() if n != "motzkin-ball"])
    def test_metadata_minimum_matches_oracle(self, name):
        inst = gallery_instance(name)
        oracle_val, _ = grid_minimize(inst, grid_points=8000)
        assert oracle_val == pytest.approx(inst.metadata["f_min"], abs=1e-6)

    def test_motzkin_metadata_minimizers_are_zeros(self):
        inst = gallery_instance("motzkin-ball")
        for point in inst.metadata["minimizers"]:
            assert abs(inst.f.eval(point)) < 1e-12
            assert inst.worst_violation(point, 1e-9) is None

    def test_known_minimum_reached_when_flat(self):
        for name in gallery_names():
            inst = gallery_instance(name)
            if name == "motzkin-ball":
                continue
            run = run_hierarchy(inst, k_max=inst.min_level() + 2)
            if run.stop_reason == STOP_FLAT:
                f_min = inst.metadata["f_min"]
                assert run.final_value == pytest.approx(f_min, abs=1e-5)


class TestEnsemble:
    def test_seed_reproducibility(self):
        s1 = run_ensemble(nvars=2, degree=2, count=4, seed=42, n_equalities=1)
        s2 = run_ensemble(nvars=2, degree=2, count=4, seed=42, n_equalities=1)
        assert s1.table() == s2.table()
        assert s1.to_dict()["results"] == s2.to_dict()["results"]

    def test_empty_run(self):
        summary = run_ensemble(nvars=2, degree=2, count=0, seed=1)
        assert summary.results == []
        assert "count=0" in summary.table()

    @pytest.mark.parametrize("name, value", [
        ("count", -4), ("seed", -1), ("level_budget", -1), ("workers", 0)])
    def test_bad_arguments_raise(self, name, value):
        # a negative level budget used to give failed results, and a negative
        # count an empty summary reading "failures 0 of 1"
        args = dict(nvars=2, degree=2, count=2, seed=1)
        with pytest.raises(ValueError, match=f"{name} must be at least"):
            run_ensemble(**dict(args, **{name: value}))

    def test_negative_equalities_raise(self):
        # they used to draw no equality at all
        with pytest.raises(ValueError, match="n_equalities must be at least 0"):
            random_instance(2, 2, np.random.default_rng(0), n_equalities=-1)

    def test_small_ensemble_mostly_clean(self, tmp_path):
        summary = run_ensemble(nvars=2, degree=2, count=12, seed=7,
                               n_equalities=1, dump_dir=tmp_path)
        assert summary.fraction("flat") >= 0.9
        assert summary.fraction("all_conditions") >= 0.9
        assert summary.fraction("certificates_verified") >= 0.9
        # dumped failures match the summary count
        dumped = list(tmp_path.glob("failure_*.json"))
        assert len(dumped) == len(summary.failures())

    def test_dump_dir_is_made_before_any_instance(self, tmp_path, monkeypatch):
        # it used to be made after the run, and only for failures
        dump = tmp_path / "new" / "failures"
        run_ensemble(nvars=2, degree=2, count=0, seed=1, dump_dir=dump)
        assert dump.is_dir()
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr(ensemble, "_run_single", _no_build)
        with pytest.raises(NotADirectoryError):
            run_ensemble(nvars=2, degree=2, count=2, seed=1, dump_dir=blocker / "failures")

    def test_too_many_equalities_raise_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="no common solution"):
            random_instance(1, 2, rng, n_equalities=2)
        assert rng.bit_generator.state == state
        with pytest.raises(ValueError, match="no common solution"):
            run_ensemble(nvars=1, degree=2, count=1, seed=0, n_equalities=2)

    def test_fractions_rows_and_failures_read_the_same_conditions(self):
        from polyopt.ensemble import CONDITIONS, LOCAL_CONDITIONS, EnsembleSummary

        names = [name for name, _ in CONDITIONS]
        clean = {"index": 0, "flat": True, "minimizer_feasible": True, "cqc": True,
                 "scc": True, "sosc": True, "certificates_verified": True,
                 "max_level": 2, "error": None}
        for name in names:
            broken = dict(clean, index=1)
            for key in (LOCAL_CONDITIONS if name == "all_conditions" else (name,)):
                broken[key] = False
            summary = EnsembleSummary(count=2, seed=0, nvars=2, degree=2, n_equalities=0,
                                      level_budget=2, results=[clean, broken])
            fractions = summary.to_dict()["fractions"]
            assert list(fractions) == names
            assert fractions[name] == 0.5
            rows = summary.table().splitlines()[1:1 + len(CONDITIONS)]
            for (row_name, label), row in zip(CONDITIONS, rows):
                assert row == f"  {label:<28} {fractions[row_name]:8.3f}"
            assert [r["index"] for r in summary.failures()] == [1]

    def test_parallel_matches_serial(self):
        serial = run_ensemble(nvars=2, degree=2, count=4, seed=11)
        parallel = run_ensemble(nvars=2, degree=2, count=4, seed=11, workers=2)
        assert serial.to_dict()["fractions"] == parallel.to_dict()["fractions"]
