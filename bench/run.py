"""Benchmark of polyopt: one workload per process, BLAS pinned to one thread.

Run from the repository root:

    python3 bench/run.py --workload motzkin-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, each in its own process

A run first times the set-up (process start, imports, inputs and one warm-up
solve) in three fresh processes and keeps the median.  It then sets up itself
and runs whole passes over the inputs until ``--seconds`` have gone by (at
least three passes), checking every output against the references in
``checks``.  With ``--trace 1`` it runs untraced passes for half the time and
traced passes for the other half, and reports the per-layer metrics instead.
The last line of standard output is the result as one JSON object.
"""

import os
import sys
import time

# before numpy loads: more BLAS threads than one make these solves slower on
# small machines and change their iteration paths
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("motzkin-ladder", "ensemble-small", "moment-corpus")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": m for name, r in results.items()
                    for key, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyopt", "__init__.py")):
        print(f"bench: no polyopt sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import harness  # imports numpy and polyopt
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload].setup(args.seed)
        print(repr(time.perf_counter()))
        return 0
    harness.report(harness.measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
