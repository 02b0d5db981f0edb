import json

import numpy as np
import pytest

from polyopt import MomentVector,extract_certificate, extract_minimizer_rank1, \
    flat_truncation, read_certificate, solve, verify_certificate, write_certificate, \
    PopInstance, Polynomial, ball_constraint, build_sos_relaxation, motzkin
from polyopt.certify import Certificate, GramBlock, gram_clip_psd
from polyopt.polynomials import basis


def mixture(components, weights, level):
    """Moments of the finite atomic measure sum_i w_i * delta(points_i)."""
    parts = [MomentVector.from_point_mass(p, level) for p in components]
    values = sum(w * part.values for w, part in zip(weights, parts))
    return MomentVector(nvars=parts[0].nvars, level=level, values=values)


def solve_sos(inst, k):
    prob = build_sos_relaxation(inst, k)
    sol = solve(prob)
    assert sol.ok
    return prob, sol


class TestExtract:
    def test_perfect_square(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0, (1,): 2.0, (0,): 1.0}))
        prob, sol = solve_sos(inst, 1)
        cert = extract_certificate(prob, sol, inst)
        assert cert.gamma == pytest.approx(0.0, abs=1e-7)
        gram = cert.sigma_grams[0]
        assert gram.basis == ((0,), (1,))
        assert np.allclose(gram.matrix, [[1.0, 1.0], [1.0, 1.0]], atol=1e-6)
        assert cert.identity_residual <= 1e-7
        assert cert.verified
        # single square close to (x + 1)^2
        squares = gram.squares()
        big = max(squares, key=lambda p: p.coeff_norm())
        vals = np.array([big.eval([t]) for t in (-1.0, 0.0, 2.0)])
        target = np.array([0.0, 1.0, 3.0])
        sign = np.sign(big.eval([0.0])) or 1.0
        assert np.allclose(sign * vals, target, atol=1e-5)

    def test_shifted_quadratic(self):
        f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0, (0, 1): 4.0, (0, 0): 5.0})
        inst = PopInstance(f=f)
        prob, sol = solve_sos(inst, 1)
        cert = extract_certificate(prob, sol, inst)
        assert cert.gamma == pytest.approx(0.0, abs=1e-7)
        assert cert.identity_residual <= 1e-7
        # sigma_0 must re-expand to f - gamma
        sigma0 = cert.sigma_grams[0].to_polynomial(2)
        defect = f - sigma0 - Polynomial.constant(2, cert.gamma)
        assert defect.coeff_norm() <= 1e-7

    def test_motzkin_lower_bound_certificate(self):
        inst = PopInstance(f=motzkin(), g=(ball_constraint(3, 1.0),))
        prob, sol = solve_sos(inst, 3)
        cert = extract_certificate(prob, sol, inst)
        assert cert.gamma < 0.0
        assert cert.identity_residual <= 1e-6 * (1.0 + motzkin().coeff_norm())
        assert cert.verified

    def test_squares_reexpand_to_sigma(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}),
                           g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 2)
        cert = extract_certificate(prob, sol, inst)
        for gram in cert.sigma_grams:
            sigma = gram.to_polynomial(2)
            rebuilt = Polynomial.zero(2)
            for s in gram.squares():
                rebuilt = rebuilt + s * s
            assert (sigma - rebuilt).coeff_norm() <= 1e-7 * (1.0 + sigma.coeff_norm())


class TestVerify:
    def test_hand_built_exact(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        cert = Certificate(
            gamma=0.0, phi=[],
            sigma_grams=[GramBlock(basis=((0,), (1,)),
                                   matrix=np.array([[0.0, 0.0], [0.0, 1.0]]))],
            identity_residual=0.0, verified=True, level=1, tolerance=1e-6, nvars=1)
        passed, residual = verify_certificate(cert, inst)
        assert passed
        assert residual == 0.0

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_nonfinite_gamma_fails(self, gamma):
        # f = x^2 with Gram diag(0, 1): a NaN gamma once dropped out of
        # f - gamma and the certificate passed with residual 0
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        cert = Certificate(
            gamma=gamma, phi=[],
            sigma_grams=[GramBlock(basis=((0,), (1,)),
                                   matrix=np.array([[0.0, 0.0], [0.0, 1.0]]))],
            identity_residual=0.0, verified=True, level=1, tolerance=1e-6, nvars=1)
        assert verify_certificate(cert, inst) == (False, float("inf"))

    def test_overflowing_phi_fails(self):
        # phi_1 h_1 is not finite, so the identity cannot be formed
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}), h=(Polynomial(1, {(1,): 1e10}),))
        cert = Certificate(
            gamma=0.0, phi=[Polynomial(1, {(1,): 1e300})],
            sigma_grams=[GramBlock(basis=((0,), (1,)),
                                   matrix=np.array([[0.0, 0.0], [0.0, 1.0]]))],
            identity_residual=0.0, verified=True, level=1, tolerance=1e-6, nvars=1)
        assert verify_certificate(cert, inst) == (False, float("inf"))

    def test_tampered_gram_fails(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}),
                           g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 1)
        cert = extract_certificate(prob, sol, inst)
        assert verify_certificate(cert, inst)[0]
        cert.sigma_grams[0].matrix[0, 1] += 0.1
        cert.sigma_grams[0].matrix[1, 0] += 0.1
        passed, residual = verify_certificate(cert, inst)
        assert not passed
        assert residual == pytest.approx(0.2, abs=0.05)

    def test_wrong_instance_shape_fails(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        other = PopInstance(f=Polynomial(1, {(2,): 1.0}), g=(ball_constraint(1, 1.0),))
        prob, sol = solve_sos(inst, 1)
        cert = extract_certificate(prob, sol, inst)
        passed, _ = verify_certificate(cert, other)
        assert not passed


class TestGramRepair:
    def test_clip_changes_bounded_by_negative_mass(self):
        rng = np.random.default_rng(3)
        bas = tuple(map(tuple, [(0, 0), (1, 0), (0, 1)]))
        for _ in range(20):
            sym = rng.standard_normal((3, 3))
            sym = (sym + sym.T) / 2.0
            clipped, neg_mass = gram_clip_psd(sym)
            assert np.linalg.eigvalsh(clipped).min() >= -1e-12
            before = GramBlock(bas, sym).to_polynomial(2)
            after = GramBlock(bas, clipped).to_polynomial(2)
            diff = (before - after).coeff_norm()
            multiplicity = 3  # worst monomial collision count for this basis
            assert diff <= neg_mass * multiplicity + 1e-12

    def test_squares_from_psd_gram(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        bas = ((0,), (1,))
        clipped, neg_mass = gram_clip_psd(mat)
        assert neg_mass == 0.0 and np.allclose(clipped, mat, rtol=0.0, atol=1e-15)
        rebuilt = Polynomial.zero(1)
        for s in GramBlock(bas, clipped).squares():
            rebuilt = rebuilt + s * s
        assert (rebuilt - GramBlock(bas, mat).to_polynomial(1)).coeff_norm() <= 1e-12

    def test_squares_keep_small_eigenvalues(self):
        # eigenvalues -1e-9, 1e-6 and 2: the clipped matrix keeps the 1e-6
        # direction, and so must its squares
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        mat = q @ np.diag([-1e-9, 1e-6, 2.0]) @ q.T
        bas = ((0,), (1,), (2,))
        clipped, neg_mass = gram_clip_psd(mat)
        assert neg_mass == pytest.approx(1e-9, rel=1e-6)
        squares = GramBlock(bas, clipped).squares()
        assert len(squares) == 2
        rebuilt = Polynomial.zero(1)
        for s in squares:
            rebuilt = rebuilt + s * s
        assert (rebuilt - GramBlock(bas, clipped).to_polynomial(1)).coeff_norm() <= 1e-14


class TestFlatTruncation:
    def test_point_mass_rank_one(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0}))
        y = MomentVector.from_point_mass([1.0, -2.0], 2)
        report = flat_truncation(y, inst)
        assert all(r == 1 for r in report.ranks.values())
        assert report.flat_at == 2  # smallest admissible order for window 1
        assert report.note is None

    def test_two_atoms_rank_two(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0}))
        y = mixture([[0.5, 0.0], [-0.5, 0.3]], [0.5, 0.5], 2)
        report = flat_truncation(y, inst)
        assert report.ranks[1] == 2
        assert report.ranks[2] == 2
        assert report.flat_at == 2

    def test_level_too_low(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0}))
        y = MomentVector.from_point_mass([0.3, 0.7], 1)
        report = flat_truncation(y, inst)
        assert report.flat_at is None
        assert "level too low" in report.note

    def test_ranks_nondecreasing(self):
        rng = np.random.default_rng(9)
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0}))
        pts = rng.uniform(-1, 1, size=(3, 2))
        y = mixture(list(pts), [0.2, 0.5, 0.3], 3)
        report = flat_truncation(y, inst)
        ordered = [report.ranks[t] for t in sorted(report.ranks)]
        assert all(a <= b for a, b in zip(ordered, ordered[1:]))


class TestMinimizerExtraction:
    def test_point_mass(self):
        y = MomentVector.from_point_mass([1.0, -2.0], 2)
        u, reason = extract_minimizer_rank1(y)
        assert np.allclose(u, [1.0, -2.0], atol=1e-12)
        assert reason is None

    def test_rank_two_rejected(self):
        y = mixture([[0.5, 0.0], [-0.5, 0.3]], [0.5, 0.5], 2)
        u, reason = extract_minimizer_rank1(y)
        assert u is None
        assert "rank" in reason

    def test_quadratic_instance_matches_closed_form(self):
        # minimizer of 2x1^2 + x2^2 + x1 x2 - x1 - x2 is (1/7, 3/7)
        from polyopt import extract_dual_moments
        from polyopt.gallery import gallery_instance

        inst = gallery_instance("quadratic-ball")
        prob = build_sos_relaxation(inst, 1)
        sol = solve(prob)
        y = extract_dual_moments(sol, prob.layout)
        u, reason = extract_minimizer_rank1(y, inst, sol.primal_objective)
        assert u is not None and reason is None
        assert np.allclose(u, [1.0 / 7.0, 3.0 / 7.0], atol=1e-5)

    def test_inconsistent_moment_named(self):
        # numerically rank 1 (the perturbation is below 1e-6 of sigma_max =
        # 651), but y_{x2^2} is off by more than the point-mass tolerance
        y = MomentVector.from_point_mass([5.0, 0.0], 2)
        y.values[basis(2, 4).index[(0, 2)]] += 1e-4
        u, reason = extract_minimizer_rank1(y)
        assert u is None
        assert reason.startswith("moment of (0, 2) inconsistent")

    def test_infeasible_point_rejected(self):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0}),
                           g=(ball_constraint(2, 1.0),))
        y = MomentVector.from_point_mass([2.0, 0.0], 2)
        u, reason = extract_minimizer_rank1(y, inst)
        assert u is None
        # the worst constraint and its violation, as PopInstance.worst_violation finds them
        assert reason == "extracted point infeasible: g[0] violated by 3.00e+00"


class TestCertificateFiles:
    def test_round_trip(self, tmp_path):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 2.0}),
                           g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 1)
        cert = extract_certificate(prob, sol, inst)
        path = tmp_path / "cert.json"
        write_certificate(cert, path, inst)
        loaded, embedded = read_certificate(path)
        assert embedded is not None
        passed, residual = verify_certificate(loaded, embedded)
        assert passed
        assert residual == pytest.approx(cert.identity_residual, rel=1e-9, abs=1e-12)
        doc = json.loads(path.read_text())
        assert doc["format"] == "polyopt-certificate v1"

    def test_written_squares_reexpand_to_written_gram(self, tmp_path):
        inst = PopInstance(
            f=Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (1, 1): -1.0, (0, 0): 0.5}),
            g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 2)
        path = tmp_path / "cert.json"
        write_certificate(extract_certificate(prob, sol, inst), path, inst)
        doc = json.loads(path.read_text())
        assert len(doc["sigma"]) == 2
        for entry in doc["sigma"]:
            assert entry["squares"]
            bas = tuple(tuple(m) for m in entry["basis"])
            sigma = GramBlock(bas, np.array(entry["gram"])).to_polynomial(2)
            rebuilt = Polynomial.zero(2)
            for records in entry["squares"]:
                square = Polynomial(2, {tuple(r["exponents"]): r["coefficient"]
                                        for r in records})
                rebuilt = rebuilt + square * square
            assert (sigma - rebuilt).coeff_norm() <= 1e-12 * sigma.coeff_norm()

    def test_squares_are_not_read_back(self, tmp_path):
        inst = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 2.0}),
                           g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 1)
        path = tmp_path / "cert.json"
        write_certificate(extract_certificate(prob, sol, inst), path, inst)
        garbage = json.loads(path.read_text())
        for entry in garbage["sigma"]:
            entry["squares"] = [[{"coefficient": 1e300, "exponents": [7, 7]}], "not a square"]
        bad = tmp_path / "garbage.json"
        bad.write_text(json.dumps(garbage))
        cert, embedded = read_certificate(path)
        again, _ = read_certificate(bad)
        assert verify_certificate(again, embedded) == verify_certificate(cert, embedded)
        for ours, theirs in zip(again.sigma_grams, cert.sigma_grams):
            assert ours.basis == theirs.basis
            assert np.array_equal(ours.matrix, theirs.matrix)
        assert (again.gamma, again.identity_residual, again.verified) == \
            (cert.gamma, cert.identity_residual, cert.verified)

    def test_soundness_on_samples(self):
        from oracles import sample_feasible_points

        inst = PopInstance(
            f=Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0, (1, 1): -1.0, (0, 0): 0.5}),
            g=(ball_constraint(2, 1.0),))
        prob, sol = solve_sos(inst, 2)
        cert = extract_certificate(prob, sol, inst)
        passed, _ = verify_certificate(cert, inst)
        assert passed
        rng = np.random.default_rng(17)
        pts = sample_feasible_points(inst, 2000, rng)
        vals = inst.f.eval_many(pts) - cert.gamma
        assert vals.min() >= -1e-5
