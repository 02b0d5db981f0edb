import math

import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, active_set, audit_point, ball_constraint, \
    check_cqc, check_scc, check_second_order, fit_multipliers
from polyopt.errors import FeasibilityError
from polyopt.pop import NOT_FINITE


def poly(nvars, terms):
    return Polynomial(nvars, terms)


UNIT_BALL_2 = ball_constraint(2, 1.0)


class TestActiveSet:
    def test_boundary_of_ball(self):
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        act = active_set(inst, [1.0, 0.0], tol=1e-8)
        assert act.indices == (0,)

    def test_interior(self):
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        act = active_set(inst, [0.0, 0.0], tol=1e-8)
        assert act.indices == ()

    def test_box_corner(self):
        g = (poly(2, {(1, 0): 1.0}), poly(2, {(0, 0): 1.0, (1, 0): -1.0}))
        inst = PopInstance(f=poly(2, {(0, 1): 1.0}), g=g)
        act = active_set(inst, [0.0, 0.0], tol=1e-8)
        assert act.indices == (0,)

    def test_infeasible_point_reports_worst(self):
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        with pytest.raises(FeasibilityError) as err:
            active_set(inst, [2.0, 0.0], tol=1e-8)
        assert err.value.constraint == "g[0]"
        assert err.value.worst_violation == pytest.approx(3.0)

    @pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, math.inf]])
    def test_nonfinite_point_rejected(self, point):
        # every comparison with NaN is false, so no constraint would flag it
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        assert inst.worst_violation(point) is not None
        with pytest.raises(FeasibilityError, match="not finite"):
            active_set(inst, point)
        with pytest.raises(FeasibilityError):
            audit_point(inst, point)


class TestFeasibility:
    """``PopInstance.worst_violation`` is the one feasibility test: ``active_set``
    and the minimizer check read it."""

    def test_worst_violation_names_the_worst_constraint(self):
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}),
                           h=(poly(2, {(1, 0): 1.0, (0, 0): -0.5}),), g=(UNIT_BALL_2,))
        assert inst.worst_violation([0.5, 0.0]) is None
        assert inst.worst_violation([2.5, 0.0]) == (pytest.approx(5.25), "g[0]")
        assert inst.worst_violation([1.0, 0.0]) == (pytest.approx(0.5), "h[0]")
        # inside the band tol * (1 + sum |c| |u^a|) = 1e-6 * 3 of g at (1, 0)
        amount, label = inst.worst_violation([1.0 + 1e-6, 0.0], tol=1e-6)
        assert label == "h[0]" and amount == pytest.approx(0.5, abs=1e-5)
        assert inst.worst_violation([0.5, 1.0]) is not None

    @pytest.mark.parametrize("point", [[math.nan, 0.0], [0.0, -math.inf]])
    def test_nonfinite_point_is_never_feasible(self, point):
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}),
                           h=(poly(2, {(1, 0): 1.0}),), g=(UNIT_BALL_2,))
        assert inst.worst_violation(point) == (math.inf, NOT_FINITE)

    def test_overflowing_point_is_never_feasible(self):
        # a finite point whose constraint value leaves the float range reads
        # like one that is not finite; evaluation gives inf, not OverflowError
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        point = [1e200, 1e200]
        assert UNIT_BALL_2.eval(point) == -math.inf
        assert UNIT_BALL_2.eval_abs(point) == math.inf
        assert inst.worst_violation(point) == (math.inf, NOT_FINITE)
        with pytest.raises(FeasibilityError, match="overflows"):
            active_set(inst, point)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
    def test_feasibility_tolerance_must_be_finite_and_positive(self, tol):
        # a NaN band flags no constraint: (5, 5) would pass as feasible
        inst = PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2,))
        for check in (inst.worst_violation,
                      lambda point, tol: active_set(inst, point, tol),
                      lambda point, tol: audit_point(inst, point, tol)):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                check([5.0, 5.0], tol)

    def test_zero_constraint_rejected(self):
        with pytest.raises(ValueError, match=r"g\[1\] is the zero polynomial"):
            PopInstance(f=poly(2, {(1, 0): 1.0}), g=(UNIT_BALL_2, Polynomial.zero(2)))


class TestMultipliers:
    def test_equality_quadratic(self):
        inst = PopInstance(
            f=poly(2, {(2, 0): 1.0, (0, 2): 1.0}),
            h=(poly(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),))
        act = active_set(inst, [0.5, 0.5])
        lam, mu, residual = fit_multipliers(inst, [0.5, 0.5], act)
        assert lam == pytest.approx([1.0], abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_ball_boundary_linear(self):
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        act = active_set(inst, [1.0, 0.0])
        lam, mu, residual = fit_multipliers(inst, [1.0, 0.0], act)
        assert mu[0] == pytest.approx(0.5, abs=1e-12)
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_non_kkt_point_residual_one(self):
        # At (0, 1) the objective gradient (-1, 0) is orthogonal to the ball
        # gradient (0, -2); the least-squares fit leaves the whole gradient.
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        act = active_set(inst, [0.0, 1.0])
        _, mu, residual = fit_multipliers(inst, [0.0, 1.0], act)
        assert residual == pytest.approx(1.0, abs=1e-12)
        assert mu[0] == pytest.approx(0.0, abs=1e-12)


class TestCqc:
    def test_single_linear_row(self):
        inst = PopInstance(
            f=poly(2, {(2, 0): 1.0, (0, 2): 1.0}),
            h=(poly(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),))
        verdict, sigma_min, note = check_cqc(inst, [0.5, 0.5], active_set(inst, [0.5, 0.5]))
        assert verdict is True
        assert sigma_min == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_vanishing_gradient(self):
        inst = PopInstance(f=poly(1, {(1,): 1.0}), h=(poly(1, {(2,): 1.0}),))
        verdict, sigma_min, _ = check_cqc(inst, [0.0], active_set(inst, [0.0]))
        assert verdict is False
        assert sigma_min == pytest.approx(0.0, abs=1e-15)

    def test_duplicate_rows(self):
        g = (poly(2, {(1, 0): 1.0}), poly(2, {(1, 0): 1.0}))
        inst = PopInstance(f=poly(2, {(0, 1): 1.0}), g=g)
        verdict, _, _ = check_cqc(inst, [0.0, 0.0], active_set(inst, [0.0, 0.0]))
        assert verdict is False

    def test_more_rows_than_vars(self):
        g = (poly(1, {(1,): 1.0}), poly(1, {(2,): 1.0}))
        inst = PopInstance(f=poly(1, {(1,): 1.0}), g=g)
        verdict, _, note = check_cqc(inst, [0.0], active_set(inst, [0.0]))
        assert verdict is False
        assert "exceed" in note


class TestScc:
    def test_positive_multiplier(self):
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        verdict, margin = check_scc(inst, [1.0, 0.0], np.array([0.5]))
        assert verdict is True
        assert margin == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_active_constraint(self):
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        verdict, margin = check_scc(inst, [1.0, 0.0], np.array([0.0]))
        assert verdict is False

    def test_vacuous_without_inequalities(self):
        inst = PopInstance(f=poly(2, {(2, 0): 1.0}))
        verdict, margin = check_scc(inst, [0.0, 0.0], np.zeros(0))
        assert verdict is True
        assert margin is None


class TestSecondOrder:
    def test_equality_quadratic_sosc(self):
        inst = PopInstance(
            f=poly(2, {(2, 0): 1.0, (0, 2): 1.0}),
            h=(poly(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),))
        act = active_set(inst, [0.5, 0.5])
        sonc, sosc, eigs = check_second_order(inst, [0.5, 0.5], np.array([1.0]),
                                              np.zeros(0), act)
        assert sonc is True and sosc is True
        assert eigs == pytest.approx([2.0], abs=1e-12)

    def test_flat_quartic_sonc_only(self):
        inst = PopInstance(f=poly(1, {(4,): 1.0}))
        act = active_set(inst, [0.0])
        sonc, sosc, eigs = check_second_order(inst, [0.0], np.zeros(0), np.zeros(0), act)
        assert sonc is True and sosc is False
        assert eigs == pytest.approx([0.0], abs=1e-15)

    def test_saddle_direction_fails_sonc(self):
        inst = PopInstance(
            f=poly(2, {(2, 0): -1.0, (0, 2): 1.0}),
            h=(poly(2, {(0, 1): 1.0}),))
        act = active_set(inst, [0.0, 0.0])
        sonc, sosc, eigs = check_second_order(inst, [0.0, 0.0], np.array([0.0]),
                                              np.zeros(0), act)
        assert sonc is False and sosc is False
        assert eigs == pytest.approx([-2.0], abs=1e-12)

    def test_trivial_null_space_vacuous(self):
        inst = PopInstance(
            f=poly(1, {(2,): 1.0}),
            h=(poly(1, {(1,): 1.0}),))
        act = active_set(inst, [0.0])
        sonc, sosc, eigs = check_second_order(inst, [0.0], np.array([0.0]), np.zeros(0), act)
        assert sonc is True and sosc is True
        assert len(eigs) == 0


class TestAuditInvariants:
    def test_complementarity(self):
        rng = np.random.default_rng(2)
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        for point in ([1.0, 0.0], [0.0, 0.0], [0.3, 0.4], [0.6, -0.8]):
            report = audit_point(inst, point)
            for j, g in enumerate(inst.g):
                scale = 1e-8 * (1.0 + abs(report.mu[j]) + g.eval_abs(point))
                assert abs(report.mu[j] * g.eval(point)) <= scale

    def test_sosc_implies_sonc(self):
        inst = PopInstance(
            f=poly(2, {(2, 0): 1.0, (0, 2): 1.0}),
            h=(poly(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),))
        report = audit_point(inst, [0.5, 0.5])
        assert report.sosc is True
        assert report.sonc is True

    def test_scc_vacuous_when_inactive(self):
        inst = PopInstance(f=poly(2, {(2, 0): 1.0, (0, 2): 1.0}), g=(UNIT_BALL_2,))
        report = audit_point(inst, [0.0, 0.0])
        assert report.active.indices == ()
        assert report.scc is True

    def test_verdicts_stable_under_positive_scaling(self):
        base = PopInstance(
            f=poly(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -0.4}),
            h=(poly(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): -1.0}),),
            g=(UNIT_BALL_2,))
        u = [0.7, 0.3]
        reports = []
        for c in (1.0, 37.5, 4096.0):
            inst = PopInstance(f=base.f * c, h=tuple(p * c for p in base.h),
                               g=tuple(p * c for p in base.g))
            reports.append(audit_point(inst, u))
        first = reports[0]
        for rep in reports[1:]:
            assert rep.cqc == first.cqc
            assert rep.scc == first.scc
            assert rep.sonc == first.sonc
            assert rep.sosc == first.sosc

    def test_random_convex_quadratics_generically_clean(self):
        # Strictly convex random quadratic over a random nondegenerate linear
        # equality: the KKT solve gives the minimizer in closed form and the
        # audit should report CQC/SCC/SOSC true essentially always.
        rng = np.random.default_rng(123)
        hits = 0
        trials = 40
        for _ in range(trials):
            n = 3
            a = rng.standard_normal((n, n))
            q = a @ a.T + n * np.eye(n)
            b = rng.standard_normal(n)
            c_row = rng.standard_normal(n)
            c_rhs = rng.standard_normal()
            # minimize x'Qx + b'x subject to c.x = c_rhs
            kkt = np.block([[2 * q, c_row[:, None]], [c_row[None, :], np.zeros((1, 1))]])
            sol = np.linalg.solve(kkt, np.concatenate([-b, [c_rhs]]))
            u = sol[:n]
            terms = {}
            for i in range(n):
                for j in range(n):
                    mono = tuple((1 if k == i else 0) + (1 if k == j else 0) for k in range(n))
                    terms[mono] = terms.get(mono, 0.0) + q[i, j]
            for i in range(n):
                mono = tuple(1 if k == i else 0 for k in range(n))
                terms[mono] = terms.get(mono, 0.0) + b[i]
            f = Polynomial(n, terms)
            h = Polynomial(n, {tuple(1 if k == i else 0 for k in range(n)): c_row[i]
                               for i in range(n)} | {(0,) * n: -c_rhs})
            inst = PopInstance(f=f, h=(h,))
            report = audit_point(inst, u)
            if report.cqc and report.scc and report.sosc and report.kkt_point:
                hits += 1
        assert hits / trials >= 0.95

    def test_inconclusive_when_cqc_fails(self):
        inst = PopInstance(f=poly(1, {(1,): 1.0}), h=(poly(1, {(2,): 1.0}),))
        report = audit_point(inst, [0.0])
        assert report.cqc is False
        assert report.scc is None
        assert report.sonc is None
        assert report.sosc is None
        assert any("inconclusive" in note for note in report.notes)

    def test_interior_non_critical_point_not_kkt(self):
        inst = PopInstance(f=poly(2, {(1, 0): -1.0}), g=(UNIT_BALL_2,))
        report = audit_point(inst, [0.0, 0.5])
        assert report.stationarity_residual > 0.5
        assert report.kkt_point is False
