import dataclasses
import math

import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, SolverOptions, augment_archimedean, \
    ball_constraint, build_moment_relaxation, build_sos_relaxation, motzkin, \
    relaxation_value, solve
from polyopt.certify import extract_certificate, extract_dual_moments
from polyopt.errors import LevelError
from polyopt.gallery import gallery_instance
from polyopt.polynomials import basis
from polyopt.solver import NEAR_TOL, STATUS_OPTIMAL

from corpus import corpus_instances
from oracles import grid_minimize


def random_archimedean_instance(rng, nvars, degree):
    from polyopt.ensemble import random_polynomial

    f = random_polynomial(nvars, degree, rng)
    return augment_archimedean(PopInstance(f=f), 1.0)


class TestAugment:
    def test_adds_ball(self):
        inst = PopInstance(f=Polynomial(2, {(1, 0): 1.0}))
        out = augment_archimedean(inst, 1.0)
        assert len(out.g) == 1
        assert out.g[0] == Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
        assert out.f == inst.f and out.h == inst.h

    def test_twice_keeps_feasible_set(self):
        inst = PopInstance(f=Polynomial(2, {(1, 0): 1.0}))
        out = augment_archimedean(augment_archimedean(inst, 1.0), 2.0)
        assert len(out.g) == 2
        # any point of the unit ball satisfies both added constraints
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-1, 1, 2)
            if x @ x <= 1.0:
                assert all(g.eval(x) >= 0 for g in out.g)

    def test_linear_objective_over_unit_ball(self):
        inst = augment_archimedean(PopInstance(f=Polynomial(1, {(1,): 1.0})), 1.0)
        prob = build_sos_relaxation(inst, 1)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert relaxation_value(prob, sol) == pytest.approx(-1.0, abs=1e-7)

    def test_rejects_nonpositive_radius(self):
        inst = PopInstance(f=Polynomial(1, {(1,): 1.0}))
        with pytest.raises(ValueError):
            augment_archimedean(inst, 0.0)


class TestSosBuilder:
    def test_univariate_square(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        prob = build_sos_relaxation(inst, 1)
        assert prob.block_sizes == (2,)
        assert prob.nrows == 3
        sol = solve(prob)
        assert relaxation_value(prob, sol) == pytest.approx(0.0, abs=1e-7)

    def test_motzkin_block_sizes(self):
        inst = PopInstance(f=motzkin(), g=(ball_constraint(3, 1.0),))
        prob = build_sos_relaxation(inst, 3)
        assert prob.block_sizes == (20, 10)

    def test_phi_dimension(self):
        # deg f = 4, deg h = 2, k = 2: the multiplier has degree 2k - 2 = 2
        inst = PopInstance(
            f=Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0}),
            h=(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),))
        prob = build_sos_relaxation(inst, 2)
        lift = prob.layout.lift(solve(prob))
        assert len(lift.phi) == 1
        assert lift.phi[0].degree == 2
        assert [len(bas) for bas, _ in lift.grams] == [6]   # basis(2, 2) for g_0 = 1

    def test_level_error_names_minimum(self):
        inst = PopInstance(f=motzkin(), g=(ball_constraint(3, 1.0),))
        with pytest.raises(LevelError) as err:
            build_sos_relaxation(inst, 2)
        assert err.value.min_level == 3
        assert "3" in str(err.value)

    def test_deterministic_layout(self):
        inst = PopInstance(
            f=Polynomial(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 1): -1.0}),
            h=(Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0}),),
            g=(ball_constraint(2, 1.0),))
        p1 = build_sos_relaxation(inst, 2)
        p2 = build_sos_relaxation(inst, 2)
        assert p1.to_text() == p2.to_text()
        assert p1.layout.row_monomials == p2.layout.row_monomials


class TestMomentBuilder:
    def test_univariate_square(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        prob = build_moment_relaxation(inst, 1)
        sol = solve(prob)
        assert sol.status == "optimal"
        assert relaxation_value(prob, sol) == pytest.approx(0.0, abs=1e-7)

    def test_y0_row_present(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}))
        prob = build_moment_relaxation(inst, 1)
        zero_col = prob.layout.free_monomials.index((0, 0))
        row = None
        for m in range(prob.nrows):
            if prob.rhs[m] == 1.0 and prob.b_free[m, zero_col] == 1.0:
                row = m
        assert row is not None

    def test_moments_recoverable(self):
        inst = PopInstance(
            f=Polynomial(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0}),
            g=(ball_constraint(1, 4.0),))
        prob = build_moment_relaxation(inst, 1)
        sol = solve(prob)
        y = extract_dual_moments(sol, prob.layout)
        index = basis(1, 2).index
        assert y.values[index[(0,)]] == pytest.approx(1.0)
        assert y.values[index[(1,)]] == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("case", ["equality-quadratic", "quadratic-ball", "corpus-5"])
    def test_rows_are_the_moment_conditions(self, case):
        # the moment form is derived from the SOS form, so check it against
        # the moment conditions written out from Polynomial products alone
        if case.startswith("corpus"):
            inst = dict(corpus_instances(spawn_key=1, count=6))[5]
            assert len(inst.g) == 2
        else:
            inst = gallery_instance(case)
        n, k = inst.nvars, 2
        prob = build_moment_relaxation(inst, k)
        monomials = basis(n, 2 * k).entries
        assert prob.layout.free_monomials == monomials
        y = dict(zip(monomials, np.random.default_rng(8).normal(size=len(monomials))))

        def riesz(poly):
            return sum(c * y[m] for m, c in poly.terms.items())

        def mono(m):
            return Polynomial.monomial(n, m)

        blocks = []
        for g in (Polynomial.constant(n, 1.0),) + inst.g:
            bas = basis(n, k - math.ceil(g.degree / 2)).entries
            blocks.append(np.array([[riesz(g * mono(a) * mono(b)) for b in bas] for a in bas]))
        ideal = [riesz(h * mono(beta)) for h in inst.h for beta in basis(n, 2 * k - h.degree)]
        u = np.array([y[m] for m in monomials])
        residual = prob.b_free @ u - prob.rhs
        for a, x in zip(prob.to_dense(), blocks):
            residual += np.tensordot(a, x, axes=([1, 2], [0, 1]))
        expected = np.zeros(prob.nrows)
        expected[0] = y[(0,) * n] - 1.0
        expected[1:1 + len(ideal)] = ideal
        assert np.abs(residual - expected).max() <= 1e-12


class TestLift:
    @pytest.mark.parametrize("case", ["quadratic-ball", "equality-quadratic"])
    def test_sos_and_moment_lifts_agree(self, case):
        inst = gallery_instance(case)
        sos = build_sos_relaxation(inst, 2)
        mom = build_moment_relaxation(inst, 2)
        sos_sol = solve(sos)
        sos_lift = sos.layout.lift(sos_sol)
        routed = mom.layout.lift(solve(mom))
        direct = mom.layout.lift(solve(dataclasses.replace(mom)))
        if sos_sol.status == STATUS_OPTIMAL:
            # the routed solve is the SOS run read as its dual
            assert np.array_equal(routed.moments, sos_lift.moments)
            tol = SolverOptions().tol_gap
        else:
            # equality-quadratic's SOS level 2 ends near_optimal, so the
            # routed solve falls back to the direct run
            assert np.array_equal(routed.moments, direct.moments)
            tol = NEAR_TOL
        assert np.abs(direct.moments - sos_lift.moments).max() <= 1e-6
        assert abs(sos_lift.value - routed.value) <= tol * (1.0 + abs(routed.value))
        assert sos_lift.gamma == sos_lift.value
        assert len(sos_lift.phi) == len(inst.h)
        assert len(sos_lift.grams) == len(inst.g) + 1
        assert (routed.gamma, routed.phi, routed.grams) == (None, None, None)

    def test_certificate_needs_an_sos_lift(self):
        mom = build_moment_relaxation(gallery_instance("quadratic-ball"), 2)
        with pytest.raises(ValueError, match="no SOS layout"):
            extract_certificate(mom, solve(mom), gallery_instance("quadratic-ball"))

    def test_value_needs_a_layout(self):
        sos = build_sos_relaxation(gallery_instance("quadratic-ball"), 2)
        bare = dataclasses.replace(sos, layout=None)
        with pytest.raises(ValueError, match="no relaxation layout"):
            relaxation_value(bare, solve(bare))


class TestDuality:
    def test_sos_below_moment_on_random_instances(self):
        rng = np.random.default_rng(71)
        for trial in range(20):
            nvars = int(rng.integers(1, 3))
            degree = int(rng.integers(2, 4))
            inst = random_archimedean_instance(rng, nvars, degree)
            k = inst.min_level()
            sos_prob = build_sos_relaxation(inst, k)
            mom_prob = build_moment_relaxation(inst, k)
            sos_sol = solve(sos_prob)
            mom_sol = solve(mom_prob)
            assert sos_sol.ok and mom_sol.ok
            sos_val = relaxation_value(sos_prob, sos_sol)
            mom_val = relaxation_value(mom_prob, mom_sol)
            scale = 1.0 + abs(sos_val) + abs(mom_val)
            assert sos_val <= mom_val + 1e-6 * scale
            assert abs(sos_val - mom_val) <= 1e-6 * scale


class TestBounds:
    def test_monotone_and_below_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            inst = random_archimedean_instance(rng, 2, 4)
            oracle_val, _ = grid_minimize(inst, grid_points=10000)
            values = []
            for k in range(inst.min_level(), inst.min_level() + 2):
                prob = build_sos_relaxation(inst, k)
                sol = solve(prob)
                assert sol.ok
                values.append(relaxation_value(prob, sol))
            for a, b in zip(values, values[1:]):
                assert a <= b + 1e-7
            for val in values:
                assert val <= oracle_val + 1e-6 * (1.0 + abs(oracle_val))


class TestScale:
    def test_large_level_stays_sparse(self):
        # n = 6, k = 4: 3003 rows and Gram blocks of 210 and 84, whose dense
        # coefficient cubes alone would take 1.2 GB
        import tracemalloc

        from polyopt.ensemble import random_polynomial
        from polyopt.sdp import SdpProblem

        inst = augment_archimedean(
            PopInstance(f=random_polynomial(6, 4, np.random.default_rng(6))), 1.0)
        tracemalloc.start()
        try:
            prob = build_sos_relaxation(inst, 4)
            back = SdpProblem.from_text(prob.to_text())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (prob.nrows, prob.block_sizes) == (3003, (210, 84))
        assert peak < 64 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
        # both are in canonical triplet form, so equal triplets mean equal
        # dense cubes (to_dense() of these blocks would not fit the budget)
        for a, b in zip(back.a_blocks, prob.a_blocks):
            assert (a.nrows, a.size) == (b.nrows, b.size)
            for field in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.array_equal(back.b_free, prob.b_free)
        assert np.array_equal(back.rhs, prob.rhs)
        assert np.array_equal(back.c_free, prob.c_free)
        for c1, c2 in zip(back.c_blocks, prob.c_blocks):
            assert np.array_equal(c1, c2)
