"""Spans around the program's layer entry points, and the per-layer metrics.

``Tracer.installed()`` replaces each entry point in ``TARGETS`` with a
wrapper, in the module that calls it (``polyopt.hierarchy`` calls ``solve``
through its own name, so that is where ``solve`` is wrapped for the
hierarchy).  A wrapper records one span: its name, start, end, the span it
ran inside, the operation id, and a few counts read off the arguments and
the result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import csv
import time
from dataclasses import dataclass, field

from polyopt import certify, hierarchy, localopt, relaxation, solver

MIB = 2.0 ** 20


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def problem_counts(args, prob) -> dict:
    """Bytes held by the coefficient arrays A and B of a built problem."""
    return {"coeff_bytes": sum(a.nbytes for a in prob.a_blocks) + prob.b_free.nbytes}


def solve_counts(args, sol) -> dict:
    """Iterations, steps taken, and the flops of the Schur formation and the
    KKT factorization, computed from the sizes as ``solver.solve`` does them.

    Each step forms the Schur complement once, per block of size s with m
    rows: X @ A_m and (X A_m) @ Z^{-1} for every row (4 m s^3) and the
    contraction A_flat @ T^T (2 m^2 s^2).  It then LU-factors the bordered
    KKT matrix of order m + nfree once ((2/3) dim^3).
    """
    prob = args[0]
    m = prob.nrows
    steps = sum(1 for row in sol.trace if "alpha_p" in row)
    schur = sum(4 * m * s ** 3 + 2 * m * m * s * s for s in prob.block_sizes)
    kkt = 2.0 * (m + prob.nfree) ** 3 / 3.0
    return {"iterations": sol.iterations, "non_optimal": int(sol.status != "optimal"),
            "schur_flop": steps * schur, "kkt_flop": steps * kkt}


def hierarchy_counts(args, run) -> dict:
    return {"levels": len(run.levels)}


# (module, attribute, span name, counts read off (args, result))
TARGETS = [
    (hierarchy, "run_hierarchy", "hierarchy.run", hierarchy_counts),
    (hierarchy, "build_sos_relaxation", "relaxation.build", problem_counts),
    (relaxation, "build_moment_relaxation", "relaxation.build", problem_counts),
    (hierarchy, "solve", "solver.solve", solve_counts),
    (solver, "solve", "solver.solve", solve_counts),
    (hierarchy, "extract_certificate", "certify.extract", None),
    (certify, "certificate_defect", "certify.verify", None),
    (hierarchy, "extract_dual_moments", "certify.moments", None),
    (hierarchy, "flat_truncation", "certify.moments", None),
    (hierarchy, "extract_minimizer_rank1", "certify.minimizer", None),
    (localopt, "audit_point", "localopt.audit", None),
]

UNITS = {"sdp.coeff_mb": "MB", "solver.schur_gflop": "GFlop", "solver.kkt_gflop": "GFlop",
         "solver.gflop_per_s": "GFlop/s", "solver.iterations": "count",
         "solver.wasted_iterations": "count", "solver.non_optimal": "count",
         "hierarchy.levels": "count"}   # every other metric is a time in s


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._open: list = []

    def wrap(self, fn, name: str, counts):
        def traced(*args, **kwargs):
            span = Span(name, self.op, self._open[-1] if self._open else None, 0.0)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, counts), (_, _, fn) in zip(TARGETS, saved):
                setattr(mod, attr, self.wrap(fn, name, counts))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics as name -> value; counts and times are per pass
        (totals divided by ``passes``).

        Spans of relaxation, solver and localopt have no children, so their
        times are those layers' self times; ``certify.self_s`` sums the self
        times of the certify spans and ``hierarchy.self_s`` is what
        ``run_hierarchy`` spends outside every other span.
        """
        own = self.self_times()
        time_in, self_in, counts = {}, {}, {}
        for s, t in zip(self.spans, own):
            time_in[s.name] = time_in.get(s.name, 0.0) + s.duration
            self_in[s.name] = self_in.get(s.name, 0.0) + t
            layer = s.name.split(".")[0]
            self_in[layer] = self_in.get(layer, 0.0) + t
            for key, val in s.counts.items():
                counts[key] = counts.get(key, 0) + val
        coeff_bytes = max((s.counts.get("coeff_bytes", 0) for s in self.spans), default=0)
        wasted = sum(s.counts["iterations"] for s in self.spans
                     if s.counts.get("non_optimal"))
        solve_s = time_in.get("solver.solve", 0.0)
        iters = counts.get("iterations", 0)
        flop = counts.get("schur_flop", 0) + counts.get("kkt_flop", 0)
        per_pass = {
            "relaxation.build_s": time_in.get("relaxation.build", 0.0),
            "solver.solve_s": solve_s,
            "solver.schur_gflop": counts.get("schur_flop", 0) / 1e9,
            "solver.kkt_gflop": counts.get("kkt_flop", 0) / 1e9,
            "solver.iterations": iters,
            "solver.wasted_iterations": wasted,
            "solver.non_optimal": counts.get("non_optimal", 0),
            "certify.extract_s": self_in.get("certify.extract", 0.0),
            "certify.verify_s": time_in.get("certify.verify", 0.0),
            "certify.moments_s": time_in.get("certify.moments", 0.0),
            "certify.minimizer_s": time_in.get("certify.minimizer", 0.0),
            "certify.self_s": self_in.get("certify", 0.0),
            "localopt.audit_s": time_in.get("localopt.audit", 0.0),
            "hierarchy.self_s": self_in.get("hierarchy", 0.0),
            "hierarchy.levels": counts.get("levels", 0),
        }
        out = {name: val / passes for name, val in per_pass.items()}
        out["sdp.coeff_mb"] = coeff_bytes / MIB
        out["solver.s_per_iter"] = solve_s / iters if iters else 0.0
        out["solver.gflop_per_s"] = flop / 1e9 / solve_s if solve_s else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "op", "parent", "start", "end", "counts"])
            for idx, s in enumerate(self.spans):
                out.writerow([idx, s.name, s.op, "" if s.parent is None else s.parent,
                              repr(s.start), repr(s.end),
                              " ".join(f"{k}={v}" for k, v in s.counts.items())])
