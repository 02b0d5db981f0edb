"""Command-line entry points.

Subcommands: solve, hierarchy, check-local, certify, verify, random-ensemble,
gallery.  Exit codes: 0 success, 2 parse/input error, 3 solver failure,
4 certificate unverified.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .certify import CERT_TOL, extract_certificate, read_certificate, \
    verify_certificate, write_certificate
from .errors import FeasibilityError, LevelError, ParseError, PolyOptError, ToleranceError
from .gallery import gallery_instance, gallery_names
from .hierarchy import STAGNATION_REL, run_hierarchy
from .localopt import ACTIVE_TOL, audit_point
from .pop import _jsonable, instance_to_dict, read_instance, write_instance
from .relaxation import augment_archimedean, build_moment_relaxation, \
    build_sos_relaxation, relaxation_value
from .ensemble import run_ensemble
from .solver import SolverOptions, solve, write_trace_csv

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_UNVERIFIED = 4


def _solver_options(args) -> SolverOptions:
    try:
        return SolverOptions(tol_gap=args.tol_gap, tol_feas=args.tol_feas,
                             max_iter=args.max_iter)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _load_instance(args):
    inst = read_instance(args.instance)
    if getattr(args, "ball", None) is not None:
        try:
            inst = augment_archimedean(inst, args.ball)
        except ValueError as exc:   # a bound that is not positive, or not finite
            raise ParseError(f"--ball: {exc}") from exc
    return inst


def _parse_point(text: str) -> np.ndarray:
    try:
        if text.strip().startswith("["):
            return np.asarray(json.loads(text), dtype=float)
        return np.asarray([float(t) for t in text.replace(",", " ").split()])
    except (ValueError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse point {text!r}: {exc}") from exc


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(_jsonable(payload), sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        print(text)


def cmd_solve(args) -> int:
    opts = _solver_options(args)
    inst = _load_instance(args)
    level = args.level if args.level is not None else inst.min_level()
    builder = build_moment_relaxation if args.form == "moment" else build_sos_relaxation
    prob = builder(inst, level)
    if args.export_sdp:
        from .sdp import write_problem

        write_problem(prob, args.export_sdp)
    sol = solve(prob, opts)
    if args.solver_trace:
        write_trace_csv(sol, args.solver_trace)
    if not sol.ok:
        _emit(args, {"status": sol.status, "notes": sol.notes},
              f"solver failed: status {sol.status}")
        return EXIT_SOLVER
    value = relaxation_value(prob, sol)
    payload = {
        "form": args.form, "level": level, "value": value,
        "status": sol.status, "iterations": sol.iterations,
        "residuals": sol.residuals,
    }
    _emit(args, payload,
          f"{args.form} relaxation level {level}: bound {value:.10g} "
          f"({sol.status}, {sol.iterations} iterations)")
    return EXIT_OK


def cmd_hierarchy(args) -> int:
    opts = _solver_options(args)
    inst = _load_instance(args)
    run = run_hierarchy(inst, k_min=args.level, k_max=args.max_level,
                        solver_options=opts,
                        certificate_dir=args.cert_dir,
                        stagnation_tol=args.tol_stagnation)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("level,value,status,wall_time,flat\n")
            for rec in run.levels:
                flat = rec.flat.is_flat if rec.flat else False
                fh.write(f"{rec.level},{'' if rec.value is None else repr(rec.value)},"
                         f"{rec.status},{rec.wall_time:.6f},{int(flat)}\n")
    lines = []
    for rec in run.levels:
        val = "-" if rec.value is None else f"{rec.value:.10g}"
        flat = "flat" if (rec.flat and rec.flat.is_flat) else ""
        lines.append(f"  level {rec.level}: value {val} status {rec.status} "
                     f"{flat} ({rec.wall_time:.2f}s)")
    if run.minimizer is not None:
        lines.append(f"  minimizer: {np.array2string(run.minimizer, precision=8)}")
    lines.append(f"  stop reason: {run.stop_reason}")
    _emit(args, run.to_dict(), "hierarchy run:\n" + "\n".join(lines))
    solved_any = any(rec.value is not None for rec in run.levels)
    return EXIT_OK if solved_any else EXIT_SOLVER


def cmd_check_local(args) -> int:
    inst = _load_instance(args)
    point = _parse_point(args.point)
    if point.shape != (inst.nvars,):
        raise ParseError(f"point has shape {point.shape}, expected ({inst.nvars},)")
    report = audit_point(inst, point, tol=args.tol_active)
    verdict = {True: "yes", False: "no", None: "inconclusive"}
    text = [
        f"local audit at {np.array2string(report.point, precision=8)}:",
        f"  active inequalities: {list(report.active.indices)}",
        f"  stationarity residual: {report.stationarity_residual:.3e}"
        + ("" if report.kkt_point else "  (not a KKT point)"),
        f"  multipliers lambda: {np.array2string(report.lam, precision=6)}",
        f"  multipliers mu:     {np.array2string(report.mu, precision=6)}",
        f"  CQC:  {verdict[report.cqc]} (sigma_min {report.cqc_sigma_min})",
        f"  SCC:  {verdict[report.scc]} (margin {report.scc_margin})",
        f"  SONC: {verdict[report.sonc]}",
        f"  SOSC: {verdict[report.sosc]} "
        f"(projected eigenvalues {np.array2string(report.projected_eigenvalues, precision=6)})",
    ]
    for note in report.notes:
        text.append(f"  note: {note}")
    _emit(args, report.to_dict(), "\n".join(text))
    return EXIT_OK


def cmd_certify(args) -> int:
    opts = _solver_options(args)
    inst = _load_instance(args)
    level = args.level if args.level is not None else inst.min_level()
    prob = build_sos_relaxation(inst, level)
    sol = solve(prob, opts)
    if not sol.ok:
        _emit(args, {"status": sol.status, "notes": sol.notes},
              f"solver failed: status {sol.status}")
        return EXIT_SOLVER
    cert = extract_certificate(prob, sol, inst)
    out = args.out or "certificate.json"
    write_certificate(cert, out, inst)
    value = relaxation_value(prob, sol)
    payload = {"level": level, "gamma": cert.gamma, "value": value,
               "identity_residual": cert.identity_residual,
               "verified": cert.verified, "path": out}
    state = "VERIFIED" if cert.verified else "UNVERIFIED"
    _emit(args, payload,
          f"certificate for bound {cert.gamma:.10g} written to {out}: {state} "
          f"(identity residual {cert.identity_residual:.3e})")
    return EXIT_OK if cert.verified else EXIT_UNVERIFIED


def cmd_verify(args) -> int:
    cert, embedded = read_certificate(args.certificate)
    if args.instance:
        inst = read_instance(args.instance)
    elif embedded is not None:
        inst = embedded
    else:
        raise ParseError("certificate has no embedded instance; pass --instance")
    passed, residual = verify_certificate(cert, inst, tol=args.tol_cert)
    payload = {"passed": bool(passed), "residual": residual, "gamma": cert.gamma}
    _emit(args, payload,
          f"certificate {'PASS' if passed else 'FAIL'}: bound {cert.gamma:.10g}, "
          f"identity residual {residual:.3e}")
    return EXIT_OK if passed else EXIT_UNVERIFIED


def cmd_random_ensemble(args) -> int:
    try:
        summary = run_ensemble(nvars=args.nvars, degree=args.degree, count=args.count,
                               seed=args.seed, n_equalities=args.equalities,
                               level_budget=args.level_budget, workers=args.workers,
                               dump_dir=args.dump_dir)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    _emit(args, summary.to_dict(), summary.table())
    return EXIT_OK


def cmd_gallery(args) -> int:
    if not args.name:
        lines = ["bundled instances:"]
        for name in gallery_names():
            inst = gallery_instance(name)
            lines.append(f"  {name}: {inst.metadata.get('description', '')}")
        _emit(args, {"names": gallery_names()}, "\n".join(lines))
        return EXIT_OK
    try:
        inst = gallery_instance(args.name)
    except KeyError as exc:
        raise ParseError(exc.args[0]) from exc
    if args.out:
        write_instance(inst, args.out)
        print(f"wrote {args.name} to {args.out}")
    else:
        _emit(args, instance_to_dict(inst),
              json.dumps(instance_to_dict(inst), indent=1))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyopt",
        description="Polynomial optimization: local audits, SOS/moment "
                    "relaxation hierarchy, and global optimality certificates.")
    parser.add_argument("--version", action="version", version=f"polyopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solver_defaults = SolverOptions()

    def common_solver(p):
        p.add_argument("--tol-gap", type=float, default=solver_defaults.tol_gap)
        p.add_argument("--tol-feas", type=float, default=solver_defaults.tol_feas)
        p.add_argument("--max-iter", type=int, default=solver_defaults.max_iter)

    def common_instance(p):
        p.add_argument("instance", help="instance JSON file")
        p.add_argument("--ball", type=float, default=None, metavar="R",
                       help="append the archimedean ball constraint R - |x|^2 >= 0")

    def common_output(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="solve one relaxation level")
    common_instance(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--form", choices=("sos", "moment"), default="sos")
    p.add_argument("--solver-trace", metavar="CSV",
                   help="write per-iteration residual/gap rows")
    p.add_argument("--export-sdp", metavar="FILE", help="also write the SDP text form")
    common_solver(p)
    common_output(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("hierarchy", help="run increasing levels with early stopping")
    common_instance(p)
    p.add_argument("--level", type=int, default=None, help="starting level")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--cert-dir", default=None, help="write per-level certificates here")
    p.add_argument("--csv", default=None, help="write the level/value table as CSV")
    p.add_argument("--tol-stagnation", type=float, default=STAGNATION_REL,
                   help="relative bound increase treated as stagnant")
    common_solver(p)
    common_output(p)
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("check-local", help="audit optimality conditions at a point")
    common_instance(p)
    p.add_argument("--point", required=True,
                   help="comma/space separated coordinates or a JSON list "
                        "(use --point=-1,0 for negative leading values)")
    p.add_argument("--tol-active", type=float, default=ACTIVE_TOL)
    common_output(p)
    p.set_defaults(func=cmd_check_local)

    p = sub.add_parser("certify", help="solve and emit a certificate file")
    common_instance(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--out", default=None, help="certificate path (default certificate.json)")
    common_solver(p)
    common_output(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("certificate")
    p.add_argument("--instance", default=None)
    p.add_argument("--tol-cert", type=float, default=CERT_TOL)
    common_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random-ensemble", help="measure generic behavior on random instances")
    p.add_argument("--nvars", type=int, default=2)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--equalities", type=int, default=0)
    p.add_argument("--level-budget", type=int, default=2,
                   help="levels beyond the minimum to try")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-dir", default=None, help="dump failing instances here")
    common_output(p)
    p.set_defaults(func=cmd_random_ensemble)

    p = sub.add_parser("gallery", help="list or emit bundled instances")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--out", default=None)
    common_output(p)
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FeasibilityError, LevelError, ToleranceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PolyOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
