"""One relaxation level end to end: SDP data, solve, certificate, moments.

The SOS relaxation maximizes gamma subject to f - gamma lying in the
truncated quadratic module; its dual pseudo-moments reveal the minimizer.
The resulting certificate is a polynomial identity anyone can re-expand.

Run with:  python3 demos/03_relaxations_and_certificates.py
"""

import numpy as np

from polyopt import build_moment_relaxation, build_sos_relaxation, \
    extract_certificate, extract_dual_moments, extract_minimizer_rank1, \
    relaxation_value, solve, verify_certificate
from polyopt.gallery import gallery_instance
from polyopt.polynomials import basis

inst = gallery_instance("quadratic-ball")
print("instance:", inst.metadata["description"])
print("known minimum:", inst.metadata["f_min"])

# Build the level-1 SOS relaxation and look at its shape.
prob = build_sos_relaxation(inst, 1)
print(f"\nSOS level 1: Gram blocks {prob.block_sizes}, "
      f"{prob.nrows} coefficient-matching rows, {prob.nfree} free scalars")
print("first lines of the SDP text form:")
print("\n".join(prob.to_text().splitlines()[:8]))

sol = solve(prob)
value = relaxation_value(prob, sol)
print(f"\nsolved: status {sol.status}, {sol.iterations} iterations, bound {value:.10f}")

# The moment form is the dual program, built as the SOS form's dual().  The
# two are one primal-dual pair, so solve answers it from a run on the SOS
# form, transposed: its bound is that run's dual objective, within the gap
# tolerance of the SOS bound.
mom = build_moment_relaxation(inst, 1)
mom_sol = solve(mom)
print(f"moment form bound {relaxation_value(mom, mom_sol):.10f} ({mom_sol.notes[0]})")

# Certificate: gamma, PSD Gram matrices, identity residual.  The squares are
# one factorization of a Gram matrix, rendered from it on demand.
cert = extract_certificate(prob, sol, inst)
print(f"\ncertificate gamma = {cert.gamma:.10f}, "
      f"identity residual {cert.identity_residual:.2e}, verified = {cert.verified}")
sigma0 = cert.sigma_grams[0]
print("sigma_0 Gram basis:", list(sigma0.basis))
print("sigma_0 Gram matrix:\n", np.round(sigma0.matrix, 6))
print("squares:", [str(p) for p in sigma0.squares()])

ok, residual = verify_certificate(cert, inst)
print("independent re-verification:", "PASS" if ok else "FAIL",
      f"(residual {residual:.2e})")

# Dual pseudo-moments: for this instance they are the moments of the point
# mass at the minimizer, so rank-1 extraction reads the minimizer off them.
# y is one array indexed by the graded-lex basis of degree <= 2k, lower
# degrees first, so the moments of degree <= 1 are its first n + 1 entries.
y = extract_dual_moments(sol, prob.layout)
first = basis(inst.nvars, 1)
print("\npseudo-moments of degree <= 1:",
      {m: round(float(v), 6) for m, v in zip(first, y.values[:len(first)])})
u, reason = extract_minimizer_rank1(y, inst, value)
print("extracted minimizer:", np.round(u, 8) if reason is None else reason,
      " (exact: [1/7, 3/7])")
