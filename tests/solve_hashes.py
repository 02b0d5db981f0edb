"""One SHA-256 per solve over a fixed set of 794 SDP solves, to check that a
change to the solver or the builders leaves every solve bit-identical.

    PYTHONPATH=src python3 tests/solve_hashes.py --out before.txt
    PYTHONPATH=src python3 tests/solve_hashes.py --compare before.txt

The hash of a solve covers its status, iteration count, notes, every trace
row, the residuals, both objectives, the free values, the dual vector and
every X and Z block, all at full precision.  The solves are:

* gallery ``motzkin-ball``, SOS form, levels 3-6 (4 solves);
* the ``ensemble-small`` benchmark recipe at seed 101 (200 random quadratics
  over the unit disk), SOS form, levels 1 and 2 (400 solves);
* the acceptance corpus (``corpus.py``, spawn key 1) in moment form at
  levels min and min + 1 (60 solves), and in SOS form at levels min to
  min + 2 (90 solves);
* the equality ensemble (``random_instance(2, 2, rng, n_equalities=1)`` at
  entropy 7, spawn keys 0-59: 60 random quadratics over the unit disk with one
  linear equality) in SOS and moment form at levels 1 and 2 (240 solves).

BLAS is pinned to one thread, since the reduction order of more threads
changes the rounding.  ``polyopt`` is imported from ``PYTHONPATH``, so
pointing it at another checkout's ``src`` hashes that checkout's solver with
the same problems.  The file has one ``name hash`` line per solve; with
``--compare FILE`` the script names every solve whose hash differs from (or
is missing in) FILE and exits with status 1 if there is any.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402

from polyopt import PopInstance, ball_constraint, build_moment_relaxation, \
    build_sos_relaxation, solve  # noqa: E402
from polyopt.ensemble import random_instance, random_polynomial  # noqa: E402
from polyopt.gallery import gallery_instance  # noqa: E402

from corpus import corpus_instances  # noqa: E402

ENSEMBLE_SEED = 101
EQUALITY_SEED = 7


def problems():
    """Yield (name, SdpProblem) for the 794 solves, in a fixed order."""
    motzkin = gallery_instance("motzkin-ball")
    for k in range(3, 7):
        yield f"motzkin-sos-{k}", build_sos_relaxation(motzkin, k)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=ENSEMBLE_SEED))
    for i in range(200):
        inst = PopInstance(f=random_polynomial(2, 2, rng), g=(ball_constraint(2, 1.0),))
        for k in (1, 2):
            yield f"ensemble-{i}-sos-{k}", build_sos_relaxation(inst, k)
    corpus = list(corpus_instances(spawn_key=1))
    for i, inst in corpus:
        for k in range(inst.min_level(), inst.min_level() + 2):
            yield f"corpus-{i}-moment-{k}", build_moment_relaxation(inst, k)
    for i, inst in corpus:
        for k in range(inst.min_level(), inst.min_level() + 3):
            yield f"corpus-{i}-sos-{k}", build_sos_relaxation(inst, k)
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=EQUALITY_SEED, spawn_key=(i,)))
        inst = random_instance(2, 2, rng, n_equalities=1)
        for form, builder in (("sos", build_sos_relaxation), ("moment", build_moment_relaxation)):
            for k in (1, 2):
                yield f"equality-{i}-{form}-{k}", builder(inst, k)


def solve_hash(sol) -> str:
    digest = hashlib.sha256()
    head = [sol.status, sol.iterations, sol.notes, sol.trace,
            sorted(sol.residuals.items()), sol.primal_objective, sol.dual_objective]
    digest.update(repr(head).encode())
    for arr in [sol.free_values, sol.dual_vector, *sol.x_blocks, *sol.z_blocks]:
        arr = np.ascontiguousarray(arr, dtype=float)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes to this file")
    parser.add_argument("--compare", help="name the solves whose hashes differ from this file's")
    args = parser.parse_args(argv)
    hashes = {}
    iterations = 0
    for name, prob in problems():
        sol = solve(prob)
        hashes[name] = solve_hash(sol)
        iterations += sol.iterations
    lines = [f"{name} {h}\n" for name, h in hashes.items()]
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    elif not args.compare:
        sys.stdout.writelines(lines)
    print(f"{len(hashes)} solves, {iterations} iterations", file=sys.stderr)
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        want = dict(line.split() for line in fh if line.strip())
    differ = [name for name in hashes if want.get(name) != hashes[name]]
    differ += [name for name in want if name not in hashes]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(hashes)} solves differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
