"""One SHA-256 per solve over a fixed set of 978 SDP solves, to check that a
change to the solver, the builders, the SDP data model or ``certify`` leaves
every built problem, every solve and its post-solve artifacts bit-identical.

    PYTHONPATH=src python3 tests/solve_hashes.py --out before.txt
    PYTHONPATH=src python3 tests/solve_hashes.py --compare before.txt

The hash of a solve covers its status, iteration count, notes, every trace
row, the residuals, both objectives, the free values, the dual vector and
every X and Z block, all at full precision.  Each SOS-form solve also gets a
``<solve>-artifacts`` hash over what ``certify`` makes of it: the moment
matrix M_k(y) of ``extract_dual_moments`` at the solved level k,
``flat_truncation(...).to_dict()`` and ``certificate_to_dict`` of
``extract_certificate`` without the ``squares`` of each block, whose last
bits depend on the eigensolver's order of work.  Each SOS-form solve whose
flat truncation ends flat with rank 1 also gets a ``<solve>-audit`` hash
over the ``(point, reason)`` that ``extract_minimizer_rank1`` returns at the
flat order (given the instance and the level's bound, as ``run_hierarchy``
gives them) and, for an accepted point, ``audit_point(inst, u,
tol=AUDIT_TOL).to_dict()``.  Each moment-form solve gets a
``<solve>-moments`` hash over ``extract_dual_moments(sol, prob.layout).values``,
the moment side of the layout's lift.  Each solved problem also
gets a ``<solve>-problem`` hash of its ``to_text()`` export, so a change to
how the coefficients are stored shows whether the text stays byte-identical.
A step that raises is hashed as its error message.  The solves are:

* gallery ``motzkin-ball``, SOS form, levels 3-6, split by its sign
  symmetries (``motzkin-sos-*``) and whole, as ``unreduced.py`` builds them
  (``motzkin-full-sos-*``; 8 solves);
* the ``ensemble-small`` benchmark recipe at seed 101 (200 random quadratics
  over the unit disk), SOS form, levels 1 and 2 (400 solves);
* the acceptance corpus (``corpus.py``, spawn key 1) in moment form at
  levels min and min + 1 (60 solves), and in SOS form at levels min to
  min + 2 (90 solves);
* the equality ensemble (``random_instance(2, 2, rng, n_equalities=1)`` at
  entropy 7, spawn keys 0-59: 60 random quadratics over the unit disk with one
  linear equality) in SOS and moment form at levels 1 and 2 (240 solves).

``solve`` answers a moment-form problem from the SOS problem it is the dual
of (``SdpProblem.dual_of``).  So each of the 180 moment-form problems is
hashed twice: under ``<name>`` as solved with that link removed (a
``dataclasses.replace`` copy has none), which runs the moment form's own KKT
system, and under ``<name>-routed`` as ``solve`` returns it.  That makes
978 solve, 978 problem, 618 artifact, 338 audit and 360 moments hashes
(3,272 in all).

BLAS is pinned to one thread, since the reduction order of more threads
changes the rounding; ``--threads N`` pins it to N instead, so that a
baseline and a comparison made at the same N check that N.  ``polyopt`` is
imported from ``PYTHONPATH``, so pointing it at another checkout's ``src``
hashes that checkout's solver with the same problems.  The file has one
``name hash status iterations`` line per solve and one ``name hash`` line
per problem, artifact or audit hash.  With
``--compare FILE`` the script names every hash that differs from (or is
missing in) FILE, prints how a differing solve moved (status and
iterations, FILE's then this run's), and exits with status 1 if any hash
differs.
"""

import argparse
import os
import sys

# the thread count must be set before numpy loads BLAS
_pre = argparse.ArgumentParser(add_help=False)
_pre.add_argument("--threads", type=int, default=1)
_threads = str(_pre.parse_known_args()[0].threads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _threads

import dataclasses  # noqa: E402
import hashlib  # noqa: E402

import numpy as np  # noqa: E402

import json  # noqa: E402

from polyopt import PopInstance, audit_point, ball_constraint, build_moment_relaxation, \
    build_sos_relaxation, extract_certificate, extract_dual_moments, \
    extract_minimizer_rank1, flat_truncation, relaxation_value, solve  # noqa: E402
from polyopt.certify import certificate_to_dict  # noqa: E402
from polyopt.errors import PolyOptError  # noqa: E402
from polyopt.ensemble import AUDIT_TOL, random_instance, random_polynomial  # noqa: E402
from polyopt.gallery import gallery_instance  # noqa: E402
from polyopt.relaxation import SosLayout  # noqa: E402

from corpus import corpus_instances  # noqa: E402
from unreduced import unreduced_sos  # noqa: E402

ENSEMBLE_SEED = 101
EQUALITY_SEED = 7


def moment_forms(name, inst, k):
    """The moment form of level k, with and without its link to the SOS form."""
    prob = build_moment_relaxation(inst, k)
    yield name, inst, dataclasses.replace(prob)
    yield f"{name}-routed", inst, prob


def problems():
    """Yield (name, PopInstance, SdpProblem) for the 978 solves, in a fixed order."""
    motzkin = gallery_instance("motzkin-ball")
    for k in range(3, 7):
        yield f"motzkin-sos-{k}", motzkin, build_sos_relaxation(motzkin, k)
    for k in range(3, 7):
        yield f"motzkin-full-sos-{k}", motzkin, unreduced_sos(motzkin, k)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=ENSEMBLE_SEED))
    for i in range(200):
        inst = PopInstance(f=random_polynomial(2, 2, rng), g=(ball_constraint(2, 1.0),))
        for k in (1, 2):
            yield f"ensemble-{i}-sos-{k}", inst, build_sos_relaxation(inst, k)
    corpus = list(corpus_instances(spawn_key=1))
    for i, inst in corpus:
        for k in range(inst.min_level(), inst.min_level() + 2):
            yield from moment_forms(f"corpus-{i}-moment-{k}", inst, k)
    for i, inst in corpus:
        for k in range(inst.min_level(), inst.min_level() + 3):
            yield f"corpus-{i}-sos-{k}", inst, build_sos_relaxation(inst, k)
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=EQUALITY_SEED, spawn_key=(i,)))
        inst = random_instance(2, 2, rng, n_equalities=1)
        for k in (1, 2):
            yield f"equality-{i}-sos-{k}", inst, build_sos_relaxation(inst, k)
        for k in (1, 2):
            yield from moment_forms(f"equality-{i}-moment-{k}", inst, k)


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


def artifacts_hashes(inst, prob, sol):
    """The artifacts hash of an SOS solve, and its audit hash (None unless flat with rank 1)."""
    digest = hashlib.sha256()
    audit = None
    try:
        moments = extract_dual_moments(sol, prob.layout)
        digest.update(np.ascontiguousarray(moments.moment_matrix(prob.layout.level)).tobytes())
        report = flat_truncation(moments, inst)
        flat = report.to_dict()
        if report.is_flat and report.rank_at(report.flat_at) == 1:
            audit = audit_hash(inst, moments.truncate(report.flat_at),
                               relaxation_value(prob, sol))
    except PolyOptError as exc:
        flat = repr(exc)
    cert = certificate_to_dict(extract_certificate(prob, sol, inst))
    for block in cert["sigma"]:
        del block["squares"]
    digest.update(json.dumps([flat, cert], sort_keys=True).encode())
    return digest.hexdigest(), audit


def moments_hash(prob, sol) -> str:
    """The moments hash of a moment-form solve."""
    digest = hashlib.sha256()
    try:
        moments = extract_dual_moments(sol, prob.layout)
        digest.update(np.ascontiguousarray(moments.values).tobytes())
    except PolyOptError as exc:
        digest.update(repr(exc).encode())
    return digest.hexdigest()


def audit_hash(inst, moments, value) -> str:
    digest = hashlib.sha256()
    point, reason = extract_minimizer_rank1(moments, inst, value)
    if point is not None:
        digest.update(np.ascontiguousarray(point, dtype=float).tobytes())
        try:
            reason = audit_point(inst, point, tol=AUDIT_TOL).to_dict()
        except PolyOptError as exc:
            reason = repr(exc)
    digest.update(json.dumps(reason, sort_keys=True).encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the hashes to this file")
    parser.add_argument("--compare", help="name the solves whose hashes differ from this file's")
    parser.add_argument("--threads", type=int, default=1,
                        help="BLAS threads (default 1), read before numpy is imported")
    args = parser.parse_args(argv)
    hashes = {}   # name -> [hash, status, iterations] for a solve, [hash] for the others
    iterations = 0
    for name, inst, prob in problems():
        sol = solve(prob)
        hashes[name] = [solve_hash(sol), sol.status, str(sol.iterations)]
        hashes[f"{name}-problem"] = [hashlib.sha256(prob.to_text().encode()).hexdigest()]
        iterations += sol.iterations
        if isinstance(prob.layout, SosLayout):
            artifacts, audit = artifacts_hashes(inst, prob, sol)
            hashes[f"{name}-artifacts"] = [artifacts]
            if audit is not None:
                hashes[f"{name}-audit"] = [audit]
        else:
            hashes[f"{name}-moments"] = [moments_hash(prob, sol)]
    lines = [" ".join([name, *fields]) + "\n" for name, fields in hashes.items()]
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(lines)
    elif not args.compare:
        sys.stdout.writelines(lines)
    print(f"{len(hashes)} hashes, {iterations} iterations", file=sys.stderr)
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        want = {fields[0]: fields[1:] for fields in map(str.split, fh) if fields}
    differ = [name for name in hashes if want.get(name, [None])[0] != hashes[name][0]]
    differ += [name for name in want if name not in hashes]
    for name in differ:
        before, after = want.get(name, []), hashes.get(name, [])
        moved = ""
        if len(before) == 3 and len(after) == 3:
            moved = f": status {before[1]} -> {after[1]}, iterations {before[2]} -> {after[2]}"
        print(f"differs: {name}{moved}")
    print(f"{len(differ)} of {len(hashes)} hashes differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
