"""The SOS relaxation of an instance built without its sign-symmetry split.

``build_sos_relaxation`` splits a level by the sign flips that fix f, g and
h.  Adding 1.0 x_i to f for every i whose x_i term f lacks leaves no flip
that fixes f, so that instance's level is built whole: every row of
``basis(n, 2k)`` and one Gram block per g_j.  Its A_{j,m} and B depend only
on g, h and the bases, so with the original f's coefficients as the
right-hand side it is the unsplit level of the original instance.
"""

import dataclasses

import numpy as np

from polyopt import Polynomial, PopInstance, build_sos_relaxation
from polyopt.polynomials import basis


def unreduced_sos(inst: PopInstance, k: int):
    """Level k of ``inst`` in SOS form, with no row dropped and no block split."""
    n = inst.nvars
    terms = dict(inst.f.terms)
    for i in range(n):
        # a term x_i of f already keeps x_i from flipping
        terms.setdefault(tuple(int(v == i) for v in range(n)), 1.0)
    broken = PopInstance(f=Polynomial(n, terms), h=inst.h, g=inst.g, metadata=inst.metadata)
    prob = build_sos_relaxation(broken, k)
    rows = basis(n, 2 * k)
    assert prob.nrows == len(rows)
    assert prob.block_sizes == tuple(len(bas) for bas in prob.layout.block_bases)
    rhs = np.zeros(prob.nrows)
    for mono, coeff in inst.f.terms.items():
        rhs[rows.index[mono]] = coeff
    return dataclasses.replace(prob, rhs=rhs)
