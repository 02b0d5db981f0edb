import dataclasses
import math

import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, SolverOptions, augment_archimedean, \
    ball_constraint, build_moment_relaxation, build_sos_relaxation, motzkin, \
    relaxation_value, solve
from polyopt.certify import extract_certificate, extract_dual_moments
from polyopt.errors import LevelError
from polyopt.gallery import gallery_instance, gallery_names
from polyopt import hierarchy as hierarchy_module
from polyopt.hierarchy import run_hierarchy
from polyopt.polynomials import basis
from polyopt.relaxation import _classes, _sign_group
from polyopt.solver import NEAR_TOL, STATUS_OPTIMAL

from corpus import corpus_instances
from oracles import grid_minimize
from ratpoly import ratpoly_defect
from unreduced import unreduced_sos


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
        # x -> -x fixes x^2: the rows are 1 and x^2, and the Gram block over
        # (1, x) splits into (1) and (x)
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        prob = build_sos_relaxation(inst, 1)
        assert prob.block_sizes == (1, 1)
        assert prob.nrows == 2
        full = unreduced_sos(inst, 1)
        assert (full.block_sizes, full.nrows) == ((2,), 3)
        for p in (prob, full):
            sol = solve(p)
            assert relaxation_value(p, sol) == pytest.approx(0.0, abs=1e-7)

    def test_motzkin_block_sizes(self):
        # all 8 flips fix the instance: 20 invariant rows of degree <= 6, and
        # the Gram blocks of g_0 = 1 (20) and of the ball (10) split by class
        inst = PopInstance(f=motzkin(), g=(ball_constraint(3, 1.0),))
        prob = build_sos_relaxation(inst, 3)
        assert prob.nrows == 20
        assert prob.block_sizes == (4, 4, 4, 4, 1, 1, 1, 1, 4, 1, 1, 1, 1, 1, 1)
        assert [j for j, _ in prob.layout.blocks] == [0] * 8 + [1] * 7
        full = unreduced_sos(inst, 3)
        assert (full.block_sizes, full.nrows) == ((20, 10), 84)

    def test_phi_dimension(self):
        # deg f = 4, deg h = 2, k = 2: the multiplier has degree 2k - 2 = 2
        inst = PopInstance(
            f=Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0}),
            h=(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0}),))
        prob = build_sos_relaxation(inst, 2)
        lift = prob.layout.lift(solve(prob))
        assert len(lift.phi) == 1
        assert lift.phi[0].degree == 2
        assert [len(bas) for bas, *_ in lift.grams] == [6]   # basis(2, 2) for g_0 = 1

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
        assert p1.layout == p2.layout


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
        for a, x in zip([blk.to_dense() for blk in prob.a_blocks], blocks):
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


GROUP_ORDERS = {"motzkin-ball": 8, "quartic-flat": 2, "two-minima": 2}


class TestSignSplit:
    """The split by sign symmetries keeps each level's bound, and the lift
    reads it back in the instance's own shape."""

    @pytest.mark.parametrize("name", gallery_names())
    def test_group_order(self, name):
        inst = gallery_instance(name)
        group = _sign_group(inst)
        assert 2 ** len(group) == GROUP_ORDERS.get(name, 1)
        if name == "two-minima":
            # h = x2 changes sign under the x2 flip, so only x1 may flip
            assert group == ((1, 0),)
        if not group:
            for k in (inst.min_level(), inst.min_level() + 1):
                prob, full = build_sos_relaxation(inst, k), unreduced_sos(inst, k)
                assert prob.to_text() == full.to_text()
                assert prob.layout == full.layout
        else:
            # the moment form's free columns are the SOS form's rows: the
            # invariant monomials, taken from the SOS layout
            for k in (inst.min_level(), inst.min_level() + 1):
                sos, mom = build_sos_relaxation(inst, k), build_moment_relaxation(inst, k)
                assert mom.layout.rows == sos.layout.rows
                assert len(sos.layout.rows) < len(basis(inst.nvars, 2 * k))
                assert (mom.layout.rows, mom.layout.free_monomials) == \
                    _classes(inst.nvars, 2 * k, group)[0]

    def test_random_instances_have_no_symmetry(self):
        rng = np.random.default_rng(5)
        insts = [inst for _, inst in corpus_instances(spawn_key=1)]
        insts += [random_archimedean_instance(rng, 2, 2) for _ in range(10)]
        assert all(_sign_group(inst) == () for inst in insts)

    @pytest.mark.parametrize("k", [3, 4])
    def test_motzkin_bound_matches_the_unsplit_level(self, k):
        inst = gallery_instance("motzkin-ball")
        prob, full = build_sos_relaxation(inst, k), unreduced_sos(inst, k)
        sol, full_sol = solve(prob), solve(full)
        assert sol.status == full_sol.status == STATUS_OPTIMAL
        value, full_value = relaxation_value(prob, sol), relaxation_value(full, full_sol)
        assert abs(value - full_value) <= 1e-8 * (1.0 + abs(full_value))
        # the unsplit central path is already symmetric
        dropped = np.setdiff1d(np.arange(full.nrows), prob.layout.rows)
        assert np.abs(full_sol.dual_vector[dropped]).max() <= 1e-12
        assert np.abs(full_sol.dual_vector[list(prob.layout.rows)]).max() > 1e-3

    def test_lift_scatters_the_split_solution(self):
        inst = gallery_instance("motzkin-ball")
        prob = build_sos_relaxation(inst, 4)
        sol = solve(prob)
        lift = prob.layout.lift(sol)
        rows = list(prob.layout.rows)
        assert len(lift.moments) == len(basis(3, 8))
        assert np.array_equal(lift.moments[rows], sol.dual_vector)
        assert not np.delete(lift.moments, rows).any()
        assert [len(bas) for bas, *_ in lift.grams] == [35, 20]
        for (j, part), x in zip(prob.layout.blocks, sol.x_blocks):
            bas, gram, parts = lift.grams[j]
            assert part in parts
            assert np.array_equal(gram[np.ix_(part, part)], x)
            # zero between this class and every other of the same basis
            others = np.setdiff1d(np.arange(len(bas)), part)
            assert not gram[np.ix_(part, others)].any()
        assert [len(parts) for parts in (_classes(3, 4, _sign_group(inst)),
                                         _classes(3, 3, _sign_group(inst)))] == [8, 8]

    @pytest.mark.parametrize("name, k", [("motzkin-ball", 3), ("motzkin-ball", 4),
                                         ("motzkin-ball", 6), ("quartic-flat", 3),
                                         ("two-minima", 2)])
    def test_lifted_certificate_reverifies(self, name, k):
        inst = gallery_instance(name)
        prob = build_sos_relaxation(inst, k)
        cert = extract_certificate(prob, solve(prob), inst)
        assert cert.verified, cert.notes
        assert [len(gram.basis) for gram in cert.sigma_grams] == \
            [len(bas) for bas in prob.layout.block_bases]
        defect = ratpoly_defect(cert, inst)
        assert max(map(abs, defect.terms.values()), default=0) <= \
            1e-6 * (1.0 + inst.f.coeff_norm())
        assert all(np.linalg.eigvalsh(gram.matrix).min() >= -1e-12 for gram in cert.sigma_grams)
        # each SDP block is repaired on its own, so the entries between two
        # classes of a basis stay exactly 0.0
        for j, part in prob.layout.blocks:
            gram = cert.sigma_grams[j].matrix
            others = np.setdiff1d(np.arange(len(gram)), part)
            assert np.array_equal(gram[np.ix_(part, others)], np.zeros((len(part), len(others))))

    @pytest.mark.parametrize("name, levels, rank", [
        ("quartic-flat", [2], 2), ("two-minima", [1, 2], 2), ("motzkin-ball", [3, 4], None)])
    def test_flat_truncation_verdicts(self, name, levels, rank, monkeypatch):
        # the same verdicts and ranks as the unsplit levels give; x^4 on
        # [-1, 1] has one minimizer, but its level-2 moments rank 2 either way
        inst = gallery_instance(name)
        runs = [run_hierarchy(inst, k_min=levels[0], k_max=levels[-1])]
        monkeypatch.setattr(hierarchy_module, "build_sos_relaxation", unreduced_sos)
        runs.append(run_hierarchy(inst, k_min=levels[0], k_max=levels[-1]))
        for run in runs:
            assert [rec.level for rec in run.levels] == levels
            final = run.levels[-1].flat
            if rank is None:
                assert all(rec.flat is not None and not rec.flat.is_flat for rec in run.levels)
            else:
                assert final.is_flat and final.rank_at(final.flat_at) == rank
        assert [rec.flat.ranks for rec in runs[0].levels] == \
            [rec.flat.ranks for rec in runs[1].levels]


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
