import json

import pytest

from polyopt.cli import main
from polyopt.pop import instance_to_dict, read_instance, write_instance
from polyopt.gallery import gallery_instance


@pytest.fixture
def quad_file(tmp_path):
    path = tmp_path / "quad.json"
    write_instance(gallery_instance("quadratic-ball"), path)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestGalleryCommand:
    def test_list(self, capsys):
        assert run_cli("gallery") == 0
        out = capsys.readouterr().out
        assert "motzkin-ball" in out

    def test_emit_and_reparse_idempotent(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run_cli("gallery", "motzkin-ball", "--out", str(path)) == 0
        inst = read_instance(path)
        again = tmp_path / "m2.json"
        write_instance(inst, again)
        assert instance_to_dict(read_instance(again)) == instance_to_dict(inst)

    def test_unknown_name(self, capsys):
        assert run_cli("gallery", "bogus") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown gallery instance 'bogus'")
        assert err.count("\n") == 1


class TestSolveCommand:
    def test_solve_json(self, quad_file, capsys):
        assert run_cli("solve", quad_file, "--level", "2", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(-2.0 / 7.0, abs=1e-6)
        assert doc["status"] == "optimal"

    def test_moment_form(self, quad_file, capsys):
        assert run_cli("solve", quad_file, "--form", "moment", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(-2.0 / 7.0, abs=1e-6)

    def test_trace_and_export(self, quad_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        sdp = tmp_path / "prob.sdp"
        assert run_cli("solve", quad_file, "--solver-trace", str(trace),
                       "--export-sdp", str(sdp)) == 0
        assert trace.read_text().startswith("iteration,")
        from polyopt import read_problem

        prob = read_problem(sdp)
        assert prob.nrows > 0

    @pytest.mark.parametrize("term", [{"coefficient": float("nan"), "exponents": [1, 0]},
                                      {"coefficient": 1.0, "exponents": [-1, 0]}],
                             ids=["nan", "negative-exponent"])
    def test_bad_polynomial_term_is_a_parse_error(self, quad_file, tmp_path, term, capsys):
        # both used to pass the record parser: a NaN emptied the polynomial,
        # a negative exponent raised a bare ValueError with a traceback
        doc = json.loads(open(quad_file).read())
        doc["objective"].append(term)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("solve", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_solver_failure_exit_code(self, quad_file, capsys):
        assert run_cli("solve", quad_file, "--max-iter", "1") == 3

    @pytest.mark.parametrize("command", ["solve", "hierarchy", "certify"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_max_iter_below_one(self, quad_file, tmp_path, monkeypatch, command, value, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, quad_file, "--max-iter", value) == 2
        assert capsys.readouterr().err == f"error: max_iter must be at least 1, got {value}\n"
        assert not (tmp_path / "certificate.json").exists()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("solve", str(bad)) == 2

    def test_missing_file_exit_code(self, capsys):
        assert run_cli("solve", "/does/not/exist.json") == 2

    def test_ball_flag(self, tmp_path, capsys):
        from polyopt import Polynomial, PopInstance

        path = tmp_path / "lin.json"
        write_instance(PopInstance(f=Polynomial(1, {(1,): 1.0})), path)
        assert run_cli("solve", str(path), "--ball", "1.0", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == pytest.approx(-1.0, abs=1e-6)

    def test_level_below_minimum(self, tmp_path, quad_file, capsys):
        path = tmp_path / "m.json"
        write_instance(gallery_instance("motzkin-ball"), path)
        assert run_cli("solve", str(path), "--level", "1") == 2
        # level 0 is below every minimum, not a request for the default
        assert run_cli("solve", quad_file, "--level", "0") == 2
        assert run_cli("certify", quad_file, "--level", "0") == 2
        assert run_cli("hierarchy", quad_file, "--level", "0") == 2


class TestInputErrors:
    """Each bad input exits 2 with one ``error:`` line, not a traceback."""

    @pytest.fixture
    def files(self, tmp_path, quad_file):
        doc = json.loads(open(quad_file).read())
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(dict(doc, equalities=[[]])))
        listed = tmp_path / "list.json"
        listed.write_text("[1, 2]")
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")
        files = {"quad": quad_file, "zero": str(zero), "list": str(listed),
                 "binary": str(binary), "dir": str(tmp_path),
                 "in-file": str(tmp_path / "list.json" / "sub")}
        # fields of the wrong JSON type
        for key, value in [("objective", 5), ("equalities", 5), ("inequalities", [5]),
                           ("metadata", 5)]:
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(dict(doc, **{key: value})))
            files[key] = str(path)
        return files

    @pytest.mark.parametrize("argv, message", [
        (["gallery", "nosuch"], "unknown gallery instance"),
        (["solve", "quad", "--ball", "0"], "--ball: ball bound must be positive"),
        (["certify", "quad", "--ball", "-1"], "--ball: ball bound must be positive"),
        (["hierarchy", "quad", "--ball", "0"], "--ball: ball bound must be positive"),
        (["solve", "quad", "--ball", "nan"], "--ball: "),
        (["hierarchy", "quad", "--level", "3", "--max-level", "2"],
         "maximum level 2 is below the starting level 3"),
        (["solve", "zero"], "h[0] is the zero polynomial"),
        (["certify", "zero"], "h[0] is the zero polynomial"),
        (["verify", "list"], "expected a JSON object at top level"),
        (["solve", "binary"], "not valid JSON"),
        (["solve", "quad", "--tol-gap", "nan"], "tol_gap must be finite and positive"),
        (["certify", "quad", "--tol-feas", "0"], "tol_feas must be finite and positive"),
        (["hierarchy", "quad", "--tol-gap=-1e-8"], "tol_gap must be finite and positive"),
        (["solve", "objective"], "expected a list of polynomial term records, got 5"),
        (["solve", "equalities"], "'equalities' must be a list of polynomials, got 5"),
        (["hierarchy", "inequalities"], "expected a list of polynomial term records, got 5"),
        (["solve", "metadata"], "'metadata' must be an object, got 5"),
        (["check-local", "quad", "--point", "5,5", "--tol-active", "nan"],
         "tol must be finite and positive, got nan"),
        (["hierarchy", "quad", "--tol-stagnation", "nan"],
         "stagnation_tol must be finite and positive, got nan"),
        # a directory given as a file used to end in an IsADirectoryError traceback
        (["solve", "dir"], "Is a directory"),
        (["verify", "dir"], "Is a directory"),
        (["check-local", "dir", "--point", "0,0"], "Is a directory"),
        # a directory option that cannot be made fails before any solve
        (["hierarchy", "quad", "--cert-dir", "in-file"], "Not a directory"),
        (["random-ensemble", "--count", "1", "--dump-dir", "in-file"], "Not a directory"),
    ], ids=["gallery-unknown", "solve-ball-0", "certify-ball-neg", "hierarchy-ball-0",
            "solve-ball-nan", "hierarchy-level-range", "solve-zero-constraint",
            "certify-zero-constraint", "verify-json-list", "solve-binary-file",
            "solve-tol-gap-nan", "certify-tol-feas-0", "hierarchy-tol-gap-neg",
            "solve-objective-int", "solve-equalities-int", "hierarchy-inequality-int",
            "solve-metadata-int", "check-local-tol-active-nan",
            "hierarchy-tol-stagnation-nan", "solve-dir", "verify-dir", "check-local-dir",
            "hierarchy-cert-dir-in-file", "ensemble-dump-dir-in-file"])
    def test_exits_2_with_one_line(self, files, tmp_path, monkeypatch, argv, message, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [files.get(a, a) for a in argv]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not (tmp_path / "certificate.json").exists()


class TestDefaults:
    def test_flag_defaults_are_the_library_constants(self):
        from polyopt.certify import CERT_TOL
        from polyopt.cli import build_parser
        from polyopt.hierarchy import STAGNATION_REL
        from polyopt.localopt import ACTIVE_TOL
        from polyopt.solver import SolverOptions

        parser = build_parser()
        opts = SolverOptions()
        for command in ("solve", "hierarchy", "certify"):
            args = parser.parse_args([command, "x.json"])
            assert (args.tol_gap, args.tol_feas, args.max_iter) == \
                (opts.tol_gap, opts.tol_feas, opts.max_iter)
        assert parser.parse_args(["hierarchy", "x.json"]).tol_stagnation == STAGNATION_REL
        assert parser.parse_args(["check-local", "x.json", "--point", "0"]).tol_active \
            == ACTIVE_TOL
        assert parser.parse_args(["verify", "c.json"]).tol_cert == CERT_TOL


class TestHierarchyCommand:
    def test_run_with_artifacts(self, quad_file, tmp_path, capsys):
        csv = tmp_path / "levels.csv"
        # a new nested directory: it used to fail after level 1 was solved
        certs = tmp_path / "new" / "certs"
        code = run_cli("hierarchy", quad_file, "--max-level", "3",
                       "--csv", str(csv), "--cert-dir", str(certs), "--json")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stop_reason"] == "flat"
        assert csv.read_text().startswith("level,value,")
        written = sorted(certs.glob("certificate_k*.json"))
        assert written
        # every emitted certificate re-verifies from disk
        for path in written:
            assert run_cli("verify", str(path)) == 0


class TestCheckLocalCommand:
    def test_boundary_minimizer_all_true(self, tmp_path, capsys):
        import math

        path = tmp_path / "lin.json"
        write_instance(gallery_instance("linear-ball"), path)
        s = math.sqrt(5.0)
        code = run_cli("check-local", str(path),
                       f"--point={-1.0 / s},{-2.0 / s}", "--json")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cqc"] is True and doc["scc"] is True
        assert doc["sonc"] is True and doc["sosc"] is True
        assert doc["kkt_point"] is True

    def test_non_kkt_point(self, quad_file, capsys):
        assert run_cli("check-local", quad_file, "--point", "0.9,0") == 0
        out = capsys.readouterr().out
        assert "not a KKT point" in out

    def test_motzkin_origin_sosc_false(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        write_instance(gallery_instance("motzkin-ball"), path)
        assert run_cli("check-local", str(path), "--point", "0,0,0", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sosc"] is False
        assert doc["sonc"] is True

    def test_infeasible_point(self, quad_file, capsys):
        assert run_cli("check-local", quad_file, "--point", "5,5") == 2

    def test_bad_point(self, quad_file, capsys):
        assert run_cli("check-local", quad_file, "--point", "abc") == 2

    @pytest.mark.parametrize("point", ["nan,0", "1e200,1e200", "0,0,0", "[[0, 0]]"])
    def test_point_rejected_as_input_error(self, quad_file, point, capsys):
        # no constraint comparison flags a NaN, or a value that overflows; a
        # point of the wrong shape is an input error, not a solver failure
        # (exit 3): no solver runs
        assert run_cli("check-local", quad_file, "--point", point) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: point ")


class TestCertifyVerify:
    def test_certify_then_verify(self, quad_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert run_cli("certify", quad_file, "--level", "2", "--out", str(cert)) == 0
        assert run_cli("verify", str(cert)) == 0
        assert run_cli("verify", str(cert), "--instance", quad_file) == 0

    def test_tampered_certificate_fails(self, quad_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert run_cli("certify", quad_file, "--out", str(cert)) == 0
        doc = json.loads(cert.read_text())
        doc["sigma"][0]["gram"][0][0] += 0.25
        cert.write_text(json.dumps(doc))
        assert run_cli("verify", str(cert)) == 4
        # a Gram entry that is not a finite square matrix over its basis fails,
        # it does not crash the verifier
        gram = doc["sigma"][0]["gram"]
        nan_gram = [row[:] for row in gram]
        nan_gram[1][1] = float("nan")
        for bad in (gram[0], nan_gram):
            doc["sigma"][0]["gram"] = bad
            cert.write_text(json.dumps(doc))
            assert run_cli("verify", str(cert)) == 4

    @pytest.mark.parametrize("tol", ["nan", "0", "-1e-6"])
    def test_verify_tolerance_must_be_finite_and_positive(self, quad_file, tmp_path, tol,
                                                          capsys):
        # a NaN tolerance would fail every certificate (exit 4)
        cert = tmp_path / "cert.json"
        assert run_cli("certify", quad_file, "--out", str(cert)) == 0
        capsys.readouterr()
        assert run_cli("verify", str(cert), f"--tol-cert={tol}") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: tol must be finite and positive")

    def test_verify_bad_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run_cli("verify", str(bad)) == 2

    def test_nonfinite_numbers(self, quad_file, tmp_path, capsys):
        # JSON readers take NaN and Infinity; neither may pass as a number
        cert = tmp_path / "cert.json"
        assert run_cli("certify", quad_file, "--out", str(cert)) == 0
        doc = json.loads(cert.read_text())
        for gamma in (float("nan"), float("inf")):
            cert.write_text(json.dumps(dict(doc, gamma=gamma)))
            assert run_cli("verify", str(cert)) == 4
        assert "certificate FAIL" in capsys.readouterr().out
        # a phi or instance coefficient is read into a polynomial, which
        # cannot hold it: the file is malformed
        doc["phi"] = [[{"coefficient": float("nan"), "exponents": [1, 0]}]]
        cert.write_text(json.dumps(doc))
        assert run_cli("verify", str(cert)) == 2
        assert "not finite" in capsys.readouterr().err


class TestEnsembleCommand:
    def test_zero_count(self, capsys):
        assert run_cli("random-ensemble", "--count", "0") == 0
        assert "count=0" in capsys.readouterr().out

    def test_dump_dir_is_made(self, tmp_path, capsys):
        # before any instance is drawn, failing or not
        dump = tmp_path / "new" / "failures"
        assert run_cli("random-ensemble", "--count", "0", "--dump-dir", str(dump)) == 0
        assert dump.is_dir()

    def test_seed_repeat_identical_table(self, capsys):
        assert run_cli("random-ensemble", "--count", "3", "--seed", "5") == 0
        first = capsys.readouterr().out
        assert run_cli("random-ensemble", "--count", "3", "--seed", "5") == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_output(self, capsys):
        assert run_cli("random-ensemble", "--count", "2", "--seed", "9", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 2
        assert "fractions" in doc

    @pytest.mark.parametrize("argv", [
        ["--nvars", "0"], ["--degree", "-1"], ["--level-budget", "-3"], ["--count", "-1"],
        ["--seed", "-1"], ["--equalities", "-1"], ["--equalities", "2", "--nvars", "1"],
        ["--workers", "0"], ["--workers", "-3"]])
    def test_bad_arguments(self, argv, capsys):
        assert run_cli("random-ensemble", "--count", "1", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestConsoleScript:
    def test_entry_point_installed(self):
        import shutil
        import subprocess

        exe = shutil.which("polyopt")
        if exe is None:
            pytest.skip("console script not on PATH")
        out = subprocess.run([exe, "--version"], capture_output=True, text=True)
        assert out.returncode == 0
        assert "polyopt" in out.stdout
