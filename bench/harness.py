"""Measuring one workload in this process: set-up, passes, checks, result.

Imported by ``run.py`` once BLAS is pinned and ``src`` is on the path.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_REPEATS = 3     # fresh processes whose set-up is timed
MIN_PASSES = 3
P90_MIN_OPS = 100     # ten operations beyond the 90th percentile


def commit() -> str:
    """HEAD of the repository the benchmark sits in, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return out
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    def openblas(config):
        return config(mode="dicts")["Build Dependencies"]["blas"].get("version")

    return {
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__, "numpy_openblas": openblas(np.show_config),
        "scipy": scipy.__version__, "scipy_openblas": openblas(scipy.show_config),
        "commit": commit(),
    }


def run_passes(workload, inputs, seconds, tracer=None) -> dict:
    """Whole passes until ``seconds`` have gone by; every output is checked."""
    op_times, pass_times = [], []
    attempted = failed = 0
    wrong, failures = [], []
    deadline = time.perf_counter() + seconds
    while len(pass_times) < MIN_PASSES or time.perf_counter() < deadline:
        pass_time = 0.0
        for i in range(len(inputs)):
            if tracer is not None:
                tracer.op = attempted
            t0 = time.perf_counter()
            result, error = workloads.run_operation(workload, inputs, i)
            dt = time.perf_counter() - t0
            op_times.append(dt)
            pass_time += dt
            outcome = (workloads.Outcome(failed=[error]) if error
                       else workload.check(inputs, i, result))
            attempted += 1
            if outcome.failed or outcome.wrong:
                failed += 1
                failures += [f"op {i}: {msg}" for msg in outcome.failed]
                wrong += [f"op {i}: {msg}" for msg in outcome.wrong]
        pass_times.append(pass_time)
    return {"op_times": op_times, "pass_times": pass_times, "attempted": attempted,
            "failed": failed, "failures": failures, "wrong": wrong}


def setup_time(name: str, seed: int) -> float:
    """Median over fresh processes of the time from spawning one to the end
    of its set-up (``time.perf_counter`` is one clock for every process)."""
    times = []
    for _ in range(SETUP_REPEATS):
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, text=True, check=True)
        times.append(float(proc.stdout.split()[-1]) - spawned)
    return statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of a workload: end-to-end metrics, or per-layer ones with ``trace``."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed)
    if not trace:
        setup_s = setup_time(name, seed)
        res = run_passes(workload, inputs, seconds)
        ops = res["op_times"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(res["pass_times"]), "s"),
            "op_s_p50": (statistics.median(ops), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extra = {}
        if len(ops) >= P90_MIN_OPS:
            extra["op_s_p90"] = (statistics.quantiles(ops, n=10)[-1], "s")
    else:
        import tracing

        res = run_passes(workload, inputs, seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = run_passes(workload, inputs, seconds / 2, tracer)
        layer = tracer.metrics(len(traced["pass_times"]))
        layer["trace.overhead_s"] = (statistics.median(traced["pass_times"])
                                     - statistics.median(res["pass_times"]))
        metrics = {key: (val, tracing.UNITS.get(key, "s")) for key, val in layer.items()}
        extra = {}
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{name}-seed{seed}.csv"))
        for key in ("attempted", "failed", "failures", "wrong"):
            res[key] += traced[key]
        res["pass_times"] += traced["pass_times"]
    return {"name": name, "seed": seed, "passes": len(res["pass_times"]),
            "attempted": res["attempted"], "failed": res["failed"],
            "failures": res["failures"], "wrong": res["wrong"],
            "metrics": metrics, "extra": extra}


def report(out: dict) -> None:
    print(f"workload {out['name']}  seed {out['seed']}  passes {out['passes']}  "
          f"operations {out['attempted']}  failed {out['failed']}")
    for key, (val, unit) in {**out["metrics"], **out["extra"]}.items():
        print(f"  {key:26s} {val:14.6g} {unit}")
    for msg in sorted(set(out["failures"]))[:20]:
        print(f"  failed: {msg}")
    for msg in sorted(set(out["wrong"]))[:20]:
        print(f"  WRONG: {msg}")
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": not out["wrong"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
