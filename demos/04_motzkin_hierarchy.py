"""The hierarchy on a well-behaved instance versus the Motzkin ball problem.

Generic instances stop early: the moment matrix ranks stabilize (flat
truncation), certifying that the bound equals the minimum, and the minimizer
drops out of the rank-1 moments.  The Motzkin polynomial over the unit ball
is the classic exception: the bounds increase toward 0 forever and the rank
test never fires.

Run with:  python3 demos/04_motzkin_hierarchy.py   (a few seconds)
"""

from polyopt import run_hierarchy
from polyopt.gallery import gallery_instance


def report(run):
    for rec in run.levels:
        flat = "-"
        if rec.flat is not None:
            flat = f"ranks {rec.flat.ranks}" + (" FLAT" if rec.flat.is_flat else "")
        val = "failed" if rec.value is None else f"{rec.value: .10f}"
        print(f"  level {rec.level}: bound {val}  [{rec.status}, "
              f"{rec.wall_time:.2f}s]  {flat}")
    print(f"  stop reason: {run.stop_reason}")
    if run.minimizer is not None:
        print(f"  extracted minimizer: {list(run.minimizer.round(8))}")


quad = gallery_instance("quadratic-ball")
print("convex quadratic over the unit ball (finite convergence expected):")
run = run_hierarchy(quad, k_max=5)
report(run)
print(f"  known minimum: {quad.metadata['f_min']}")

print("\nMotzkin polynomial over the unit ball (asymptotic convergence only):")
motzkin = gallery_instance("motzkin-ball")
run = run_hierarchy(motzkin, k_min=3, k_max=6)
report(run)
print("  known minimum: 0.0; every bound stays strictly below it and the")
print("  moment ranks keep growing, so no level can certify optimality.")
