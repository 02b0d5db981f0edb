import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import polyopt
from polyopt import PopInstance, Polynomial, ball_constraint, build_moment_relaxation, \
    build_sos_relaxation
from polyopt import solver as solver_module
from polyopt.certify import extract_certificate, extract_dual_moments, verify_certificate
from polyopt.ensemble import random_instance
from polyopt.errors import DegenerateDualError
from polyopt.gallery import gallery_instance
from polyopt.polynomials import basis
from polyopt.sdp import CoeffBlock, SdpProblem
from polyopt.solver import SolverOptions, _apply_A, _apply_At, _factor_kkt, _Iterate, \
    _k_solve, _kkt_apply, _kkt_direct, _lower_solve, _max_step, _measure, _ray, _schur, \
    _start, _sym, solve, write_trace_csv

from corpus import corpus_instances
from oracles import admm_sdp_solve
from ratpoly import ratpoly_defect
from unreduced import unreduced_sos


def scalar_bound_problem():
    """max gamma s.t. X11 + gamma = 1, X PSD (optimum gamma = 1)."""
    return SdpProblem(
        block_sizes=[1],
        a_blocks=[np.array([[[1.0]]])],
        b_free=np.array([[1.0]]),
        rhs=np.array([1.0]),
        c_free=np.array([1.0]))


def parabola_problem():
    """min y2 s.t. [[1, y1], [y1, y2]] PSD, as max -y2 (optimum 0)."""
    a = np.zeros((3, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 0, 1] = a[1, 1, 0] = 0.5
    a[2, 1, 1] = 1.0
    b = np.zeros((3, 2))
    b[1, 0] = -1.0
    b[2, 1] = -1.0
    return SdpProblem(block_sizes=[2], a_blocks=[a], b_free=b,
                      rhs=np.array([1.0, 0.0, 0.0]),
                      c_free=np.array([0.0, -1.0]))


def random_strictly_feasible(rng, sizes, nrows, with_c=True):
    """Both sides strictly feasible, so the optimum exists and is attained."""
    a_blocks = []
    x0 = []
    z0 = []
    for s in sizes:
        a = rng.standard_normal((nrows, s, s))
        a = (a + a.transpose(0, 2, 1)) / 2.0
        a_blocks.append(a)
        q = rng.standard_normal((s, s))
        x0.append(q @ q.T + 0.5 * np.eye(s))
        q = rng.standard_normal((s, s))
        z0.append(q @ q.T + 0.5 * np.eye(s))
    rhs = sum(a.reshape(nrows, -1) @ x.reshape(-1) for a, x in zip(a_blocks, x0))
    v0 = rng.standard_normal(nrows)
    c_blocks = None
    if with_c:
        c_blocks = [np.tensordot(v0, a, axes=1) - z for a, z in zip(a_blocks, z0)]
    return SdpProblem(block_sizes=list(sizes), a_blocks=a_blocks,
                      b_free=np.zeros((nrows, 0)), rhs=rhs,
                      c_free=np.zeros(0), c_blocks=c_blocks)


def unbounded_problem():
    """max gamma s.t. X11 - gamma = 1: gamma can grow without bound."""
    return SdpProblem(block_sizes=[1], a_blocks=[np.array([[[1.0]]])],
                      b_free=np.array([[-1.0]]), rhs=np.array([1.0]),
                      c_free=np.array([1.0]))


def with_row_repeated(prob, row):
    """``prob`` with equality row ``row`` repeated as a last row: the same
    feasible set and optimum, and a singular Schur complement M."""
    blocks = []
    for blk in prob.a_blocks:
        pick = blk.rows == row
        blocks.append(CoeffBlock(prob.nrows + 1, blk.size,
                                 np.concatenate([blk.rows, np.full(pick.sum(), prob.nrows)]),
                                 np.concatenate([blk.cols, blk.cols[pick]]),
                                 np.concatenate([blk.vals, blk.vals[pick]])))
    return SdpProblem(block_sizes=list(prob.block_sizes), a_blocks=blocks,
                      b_free=np.vstack([prob.b_free, prob.b_free[row]]),
                      rhs=np.append(prob.rhs, prob.rhs[row]), c_free=prob.c_free,
                      c_blocks=prob.c_blocks, layout=prob.layout)


class TestBasics:
    def test_scalar_bound(self):
        sol = solve(scalar_bound_problem())
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)

    def test_parabola(self):
        sol = solve(parabola_problem())
        assert sol.status == "optimal"
        assert -sol.primal_objective == pytest.approx(0.0, abs=1e-7)
        assert np.allclose(sol.free_values, [0.0, 0.0], atol=1e-6)

    def test_optimal_status_means_tight_residuals(self):
        sol = solve(parabola_problem())
        assert max(sol.residuals.values()) <= 1e-7

    def test_psd_blocks_at_solution(self):
        opts = SolverOptions()
        for prob in (scalar_bound_problem(), parabola_problem()):
            sol = solve(prob, opts)
            for xb in sol.x_blocks:
                assert np.linalg.eigvalsh(xb).min() >= -10 * opts.tol_feas

    def test_invalid_problem_raises(self):
        # where it is made: ``solve`` never sees it
        with pytest.raises(ValueError, match="at least one equality row"):
            dataclasses.replace(scalar_bound_problem(), rhs=np.array([]))

    @pytest.mark.parametrize("max_iter", [0, -3])
    def test_max_iter_below_one_raises(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve(scalar_bound_problem(), SolverOptions(max_iter=max_iter))

    @pytest.mark.parametrize("name", ["tol_gap", "tol_feas"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_tolerance_not_finite_and_positive_raises(self, name, value):
        # a NaN gap tolerance is never met: the run used to spend all 200
        # iterations and end near_optimal
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SolverOptions(**{name: value})


class TestAgainstProjectionOracle:
    def test_random_instances_match(self):
        rng = np.random.default_rng(99)
        for trial in range(6):
            sizes = [int(rng.integers(2, 8))]
            if trial % 2:
                sizes.append(int(rng.integers(1, 5)))
            nrows = int(rng.integers(2, 6))
            prob = random_strictly_feasible(rng, sizes, nrows)
            sol = solve(prob)
            assert sol.status == "optimal"
            dense = [blk.to_dense() for blk in prob.a_blocks]
            oracle_obj, _, _ = admm_sdp_solve(prob.c_blocks, dense, prob.rhs)
            scale = 1.0 + abs(oracle_obj)
            assert abs(sol.primal_objective - oracle_obj) <= 1e-5 * scale


class TestInvariants:
    def test_determinism(self):
        rng = np.random.default_rng(5)
        prob = random_strictly_feasible(rng, [4], 3)
        sol1 = solve(prob)
        sol2 = solve(prob)
        assert sol1.iterations == sol2.iterations
        for r1, r2 in zip(sol1.trace, sol2.trace):
            assert r1 == r2
        assert np.array_equal(sol1.dual_vector, sol2.dual_vector)

    def test_weak_duality_along_path(self):
        # In the max form, primal <= dual up to the infeasibility slack of the
        # current iterates.
        rng = np.random.default_rng(8)
        prob = random_strictly_feasible(rng, [5], 4)
        sol = solve(prob)
        for row in sol.trace:
            scale = 1.0 + abs(row["primal"]) + abs(row["dual"])
            assert row["dual"] - row["primal"] >= -row["gap_slack"] - 1e-9 * scale

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(13)
        prob = random_strictly_feasible(rng, [4], 3)
        sol1 = solve(prob)
        scaled = SdpProblem(
            block_sizes=list(prob.block_sizes),
            a_blocks=[blk.to_dense() for blk in prob.a_blocks],
            b_free=prob.b_free.copy(), rhs=prob.rhs.copy(),
            c_free=prob.c_free.copy(),
            c_blocks=[3.0 * c for c in prob.c_blocks])
        sol2 = solve(scaled)
        assert sol2.primal_objective == pytest.approx(3.0 * sol1.primal_objective,
                                                      rel=1e-6, abs=1e-6)
        for x1, x2 in zip(sol1.x_blocks, sol2.x_blocks):
            assert np.allclose(x1, x2, atol=1e-6 * (1.0 + np.abs(x1).max()))

    def test_trace_csv(self, tmp_path):
        sol = solve(parabola_problem())
        path = tmp_path / "trace.csv"
        write_trace_csv(sol, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("iteration,")
        assert len(lines) == len(sol.trace) + 1


class TestDegenerate:
    def test_infeasible(self):
        # X11 = -1 with X PSD is infeasible.
        prob = SdpProblem(block_sizes=[1], a_blocks=[np.array([[[1.0]]])],
                          b_free=np.zeros((1, 0)), rhs=np.array([-1.0]),
                          c_free=np.zeros(0))
        sol = solve(prob)
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve(unbounded_problem())
        assert sol.status == "unbounded"

    def test_primal_ray_needs_a_bounded_residual(self):
        # X11 and gamma near 1e12 with X11 - gamma = 1e5: a direction of
        # unbounded objective to 5e-8, but r_p = 1 - 1e5 is far larger than
        # at the cold start, which path following cannot produce
        data, start = _start(unbounded_problem(), SolverOptions())
        _measure(data, start)
        big = np.array([[1e12 + 1e5]])
        it = _Iterate([big], [np.eye(1)], [np.sqrt(big)], [np.eye(1)],
                      np.array([1e12]), np.zeros(1))
        _measure(data, it)
        assert it.err_p > 1e3 * start.err_p
        assert _ray(data, it, np.inf)[0] == "unbounded"
        assert _ray(data, it, start.err_p) is None


QUADRATIC = PopInstance(f=Polynomial(2, {(2, 0): 1.0, (1, 1): -0.4, (0, 1): 0.3}),
                       g=(ball_constraint(2, 1.0),))

# (builder, whether the solver holds its blocks as CSR)
KERNEL_CASES = {
    "motzkin-sos-4": (lambda: unreduced_sos(gallery_instance("motzkin-ball"), 4), True),
    "corpus-5-moment-3": (lambda: build_moment_relaxation(
        dict(corpus_instances(spawn_key=1, count=6))[5], 3), True),
    "quadratic-sos-1": (lambda: build_sos_relaxation(QUADRATIC, 1), False),
    "quadratic-sos-2": (lambda: build_sos_relaxation(QUADRATIC, 2), False),
}


def random_iterate(prob, rng):
    """An iterate with random positive definite X and Z and their factors."""
    blocks = {"x": [], "z": []}
    for s in prob.block_sizes:
        for side in blocks.values():
            q = rng.standard_normal((s, s))
            side.append(q @ q.T + s * np.eye(s))
    return _Iterate(blocks["x"], blocks["z"], [np.linalg.cholesky(x) for x in blocks["x"]],
                    [np.linalg.cholesky(z) for z in blocks["z"]],
                    np.zeros(prob.nfree), np.zeros(prob.nrows))


class TestKernels:
    """The sparse kernels against the dense formulas on the cubes of
    ``CoeffBlock.to_dense()``, at a fixed positive definite X and Z^{-1}."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_match_dense_formulas(self, case):
        build, sparse = KERNEL_CASES[case]
        prob = build()
        data, _ = _start(prob, SolverOptions())
        assert all(scipy.sparse.issparse(a) == sparse for a in data.a_ops)
        # A^T is a view over A's arrays, not a second copy
        for a, a_t in zip(data.a_ops, data.a_ts):
            assert np.shares_memory(a.data if sparse else a, a_t.data if sparse else a_t)
        dense = [blk.to_dense() for blk in prob.a_blocks]
        rng = np.random.default_rng(17)
        x_blocks, z_inv = [], []
        for s in prob.block_sizes:
            for out in (x_blocks, z_inv):
                q = rng.standard_normal((s, s))
                out.append(q @ q.T + s * np.eye(s))
        v = rng.standard_normal(prob.nrows)

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        want = sum(a.reshape(prob.nrows, -1) @ x.reshape(-1) for a, x in zip(dense, x_blocks))
        assert close(_apply_A(data, x_blocks), want)
        for got, a in zip(_apply_At(data, v), dense):
            assert close(got, np.tensordot(v, a, axes=1))
        want = np.zeros((prob.nrows, prob.nrows))
        for a, x, zi in zip(dense, x_blocks, z_inv):
            t = np.matmul(np.matmul(x, a), zi)
            want += a.reshape(prob.nrows, -1) @ t.reshape(prob.nrows, -1).T
        assert close(_schur(data, x_blocks, z_inv), (want + want.T) / 2.0)

    def test_chunks_match_one_chunk(self, monkeypatch):
        # unsplit Motzkin level 6: 455 rows and CSR blocks 84/56, formed 18
        # and 41 rows at a time in the order of r_n with a partial last
        # chunk; M is the same to the bit as from one chunk per block in place
        prob = unreduced_sos(gallery_instance("motzkin-ball"), 6)
        data, _ = _start(prob, SolverOptions())
        assert data.position is not None
        for chunks in data.a_chunks:
            widths = [hi - lo for lo, hi, _, _ in chunks]
            assert len(widths) > 2 and widths[-1] < widths[0]
        monkeypatch.setattr(solver_module, "_CHUNK_BYTES",
                            8 * prob.nrows * max(prob.block_sizes) ** 2)
        whole, _ = _start(prob, SolverOptions())
        assert [len(chunks) for chunks in whole.a_chunks] == [1, 1] and whole.position is None
        it = random_iterate(prob, np.random.default_rng(37))
        assert np.array_equal(_schur(data, it.x, it.z), _schur(whole, it.x, it.z))

    def test_schur_memory_is_bounded_by_the_chunks(self, monkeypatch):
        # unsplit Motzkin level 6: whole-block U, T and the copy of T^T
        # would take 25.7 MB each at the 84 block; M itself is 1.6 MB
        import tracemalloc

        prob = unreduced_sos(gallery_instance("motzkin-ball"), 6)
        it = random_iterate(prob, np.random.default_rng(41))
        mbytes = 8 * prob.nrows ** 2

        def traced_peak():
            data, _ = _start(prob, SolverOptions())
            tracemalloc.start()
            try:
                _schur(data, it.x, it.z)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak = traced_peak()
        assert peak < 10 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MB"
        # at 64 KiB chunks, M is 24 chunk budgets: a second M, as the
        # symmetrization (M + M^T) / 2 makes, would not fit
        monkeypatch.setattr(solver_module, "_CHUNK_BYTES", 1 << 16)
        peak = traced_peak()
        assert peak < mbytes + 12 * (1 << 16), f"traced peak {peak / 2 ** 20:.2f} MB"

    @pytest.mark.parametrize("case", ["motzkin-sos-4", "corpus-5-moment-3"])
    def test_factored_solve_meets_free_rows(self, case):
        # the free columns are eliminated exactly: B^T dv = r_f holds to
        # rounding from the factors alone, before any refinement
        prob = KERNEL_CASES[case][0]()
        data, _ = _start(prob, SolverOptions())
        rng = np.random.default_rng(23)
        it = random_iterate(prob, rng)
        kkt = _factor_kkt(data, it)
        rhs = rng.standard_normal(prob.nrows + prob.nfree)
        sol = _kkt_direct(data, kkt, rhs)
        rf = rhs[prob.nrows:]
        assert np.linalg.norm(prob.b_free.T @ sol[:prob.nrows] - rf) <= 1e-12 * np.linalg.norm(rf)
        res = rhs - _kkt_apply(data, it, kkt, sol)
        assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("case", ["quadratic-sos-1", "quadratic-sos-2", "corpus-5-moment-3"])
    def test_lapack_calls_match_scipy_wrappers(self, case):
        # block sizes 3/1, 6/3 and 20/10/10 (84 free columns): the direct
        # LAPACK calls give bit for bit what the checking wrappers gave
        prob = KERNEL_CASES[case][0]()
        data, _ = _start(prob, SolverOptions())
        rng = np.random.default_rng(29)
        it = random_iterate(prob, rng)
        kkt = _factor_kkt(data, it)
        for lc, zi in zip(it.z_chol, kkt.z_inv):
            w = scipy.linalg.solve_triangular(lc, np.eye(len(lc)), lower=True)
            assert np.array_equal(zi, _sym(w.T @ w))
        for lc in it.x_chol + it.z_chol:
            s = len(lc)
            delta = _sym(rng.standard_normal((s, s)))
            w = scipy.linalg.solve_triangular(lc, delta, lower=True)
            w = scipy.linalg.solve_triangular(lc, w.T, lower=True).T
            assert np.array_equal(_lower_solve(lc, delta), scipy.linalg.solve_triangular(
                lc, delta, lower=True))
            lam_min = np.linalg.eigvalsh(_sym(w)).min()
            assert _max_step(lc, delta) == (np.inf if lam_min >= -1e-14 else -1.0 / lam_min)
        s_lu = scipy.linalg.lu_factor(data.bmat.T @ _k_solve(kkt, data.bmat))
        assert all(np.array_equal(got, want) for got, want in zip(kkt.s_lu, s_lu))
        rhs = rng.standard_normal(prob.nrows + prob.nfree)
        h1, rf = rhs[:prob.nrows], rhs[prob.nrows:]
        g = h1 + kkt.rho * (data.bmat @ rf)
        du = scipy.linalg.lu_solve(s_lu, rf - data.bmat.T @ _k_solve(kkt, g))
        assert np.array_equal(_kkt_direct(data, kkt, rhs)[prob.nrows:], du)

    def test_nonfinite_schur_complement_fails_the_factorization(self, monkeypatch):
        prob = KERNEL_CASES["corpus-5-moment-3"][0]()
        data, _ = _start(prob, SolverOptions())
        it = random_iterate(prob, np.random.default_rng(31))
        assert _factor_kkt(data, it) is not None
        # K factors, but K^{-1} B, and with it S = B^T K^{-1} B, is nonfinite
        monkeypatch.setattr(solver_module, "_k_solve",
                            lambda kkt, rhs: np.full(rhs.shape, np.nan))
        assert _factor_kkt(data, it) is None

    def test_singular_triangular_factor_raises(self):
        lower = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 3.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _lower_solve(lower, np.eye(3))
        with pytest.raises(np.linalg.LinAlgError):
            _max_step(lower, np.eye(3))

# SOS level 4 of corpus instance i=8 and of three stress-class draws:
# endgames in which the Gram blocks grow large and the primal residual a step
# leaves is limited by the accuracy of the KKT solve.  Also two moment-form
# levels of ``FREE_COLUMN_LEVELS``, whose KKT solves carry 84 and 35 free
# columns.  Which of them lands just above the feasibility tolerance depends
# on the BLAS reduction order, so each is solved under both 1 and 2 OpenBLAS
# threads.
def eighth_power_ball_problem():
    """SOS level 4 of a quadratic over 1 - x1^8 - x2^8 >= 0: 45 rows, a
    15-block held as CSR and the constraint's 1-block held dense."""
    g = Polynomial(2, {(0, 0): 1.0, (8, 0): -1.0, (0, 8): -1.0})
    return build_sos_relaxation(PopInstance(f=QUADRATIC.f, g=(g,)), 4)


# (builder, chunk budget in bytes or None for ``_CHUNK_BYTES``)
SCHUR_CASES = {
    "one-chunk-csr": (lambda: unreduced_sos(gallery_instance("motzkin-ball"), 3), None),
    "permuted-csr": (lambda: unreduced_sos(gallery_instance("motzkin-ball"), 5), None),
    "moment-linkless": (lambda: dataclasses.replace(
        unreduced_sos(gallery_instance("motzkin-ball"), 4).dual()), None),
    "dense": (lambda: build_sos_relaxation(
        random_instance(2, 2, np.random.default_rng(101)), 1), None),
    "permuted-with-dense": (eighth_power_ball_problem, 1 << 14),
    # 16 blocks: the 20-block and ten 10-blocks held as CSR, five 4-blocks dense
    "split-motzkin-6": (lambda: build_sos_relaxation(gallery_instance("motzkin-ball"), 6), None),
}


class TestSchur:
    """``_schur`` over the nonzero rows of each A_n against the dense sum
    M_mn = sum_j tr(A_{j,m} X_j A_{j,n} Z_j^{-1}) from ``CoeffBlock.to_dense()``."""

    @staticmethod
    def formed(case, monkeypatch):
        build, budget = SCHUR_CASES[case]
        prob = build()
        if budget is not None:
            monkeypatch.setattr(solver_module, "_CHUNK_BYTES", budget)
        data, _ = _start(prob, SolverOptions())
        it = random_iterate(prob, np.random.default_rng(43))
        return prob, data, it, _schur(data, it.x, it.z)

    @pytest.mark.parametrize("case", SCHUR_CASES)
    def test_matches_the_dense_sum(self, case, monkeypatch):
        prob, data, it, got = self.formed(case, monkeypatch)
        want = np.zeros((prob.nrows, prob.nrows))
        for blk, x, zi in zip(prob.a_blocks, it.x, it.z):
            a = blk.to_dense()
            t = np.matmul(np.matmul(x, a), zi)
            want += np.einsum("mpq,nqp->mn", a, t)
        want = (want + want.T) / 2.0
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("case", SCHUR_CASES)
    def test_plan(self, case, monkeypatch):
        prob, data, _, _ = self.formed(case, monkeypatch)
        nonzero_rows = [(blk.to_dense() != 0).any(axis=2).sum(axis=1) for blk in prob.a_blocks]
        order = np.arange(prob.nrows)
        if data.position is not None:
            order = np.argsort(data.position)
        for a, chunks, s, counts in zip(data.a_ops, data.a_chunks, data.sizes, nonzero_rows):
            # the chunks cover every row once, in the order M is formed in
            assert [lo for lo, _, _, _ in chunks] == [0] + [hi for _, hi, _, _ in chunks[:-1]]
            assert chunks[-1][1] == prob.nrows
            for lo, hi, stack, gather in chunks:
                if isinstance(a, np.ndarray):
                    # a dense block stacks all s rows of each A_n
                    assert gather is None and stack.shape == ((hi - lo) * s, s)
                else:
                    # a CSR block gathers its nonzero rows, padded to the
                    # chunk's largest r_n, and only to it
                    assert gather.shape == (hi - lo, counts[order[lo:hi]].max())
                    assert stack.shape == (gather.size, s)
        if case == "one-chunk-csr":
            assert data.position is None and [len(c) for c in data.a_chunks] == [1, 1]
            assert all(scipy.sparse.issparse(a) for a in data.a_ops)
        elif case.startswith("permuted"):
            assert data.position is not None
            assert any(len(c) > 1 for c in data.a_chunks)
        elif case == "moment-linkless":
            assert max(counts.max() for counts in nonzero_rows) == 2
            assert all(g.shape[1] <= 2 for c in data.a_chunks for _, _, _, g in c)
        elif case == "split-motzkin-6":
            assert data.position is None and len(data.a_ops) == 16
            assert [scipy.sparse.issparse(a) for a in data.a_ops].count(True) == 11
        if case in ("dense", "permuted-with-dense", "split-motzkin-6"):
            assert any(isinstance(a, np.ndarray) for a in data.a_ops)
        # rows with no entries in a block: the moment form's y_0 row has
        # none in any, and the 1-block has entries only in g's three rows
        if case == "moment-linkless":
            assert sum(nonzero_rows)[0] == 0
        if case == "permuted-with-dense":
            assert np.count_nonzero(nonzero_rows[1]) == 3

    def test_permuted_formation_is_bit_identical(self, monkeypatch):
        # against one chunk per block in the natural order, the permuted
        # chunks of the CSR block (each gathering its rows, padded to its own
        # largest r_n), the dense block's reordered stack and the
        # symmetrization that restores the order change no bit of M
        prob = eighth_power_ball_problem()
        data, _ = _start(prob, SolverOptions())
        it = random_iterate(prob, np.random.default_rng(47))
        assert data.position is None
        monkeypatch.setattr(solver_module, "_CHUNK_BYTES", 1 << 14)
        permuted, _ = _start(prob, SolverOptions())
        assert permuted.position is not None
        assert np.array_equal(_schur(permuted, it.x, it.z), _schur(data, it.x, it.z))


HARD_LEVELS_SCRIPT = """
import dataclasses
import json
from polyopt import build_moment_relaxation, build_sos_relaxation, solve
from corpus import corpus_instances, stress_instance

corpus = dict(corpus_instances(spawn_key=1))
cases = [("corpus i=8", build_sos_relaxation(corpus[8], 4))]
cases += [(f"stress key={key}", build_sos_relaxation(stress_instance(key), 4))
          for key in (105, 109, 115)]
# without the link to their SOS source, so that the moment form's own KKT
# solves run
cases += [(f"corpus i={i} moment", dataclasses.replace(
    build_moment_relaxation(corpus[i], corpus[i].min_level() + 1)))
          for i in (5, 29)]
out = []
for name, prob in cases:
    sol = solve(prob)
    out.append({"case": name, "status": sol.status, "residuals": sol.residuals,
                "notes": sol.notes})
print(json.dumps(out))
"""


# Moment form, spawn key 1, level min_level() + 1 of these corpus instances:
# under a regularized, bordered LU of the KKT system each ran to max_iter and
# ended near_optimal, with the primal residual drifting up once mu stalled.
FREE_COLUMN_LEVELS = (4, 5, 7, 8, 16, 26, 29)


class TestFreeColumns:
    """The moment form's own free-column KKT path: each problem is solved
    with its link to the SOS source removed, which ``solve`` would
    otherwise answer from."""

    @pytest.mark.parametrize("index", FREE_COLUMN_LEVELS)
    def test_moment_corpus_level_optimal(self, index):
        inst = dict(corpus_instances(spawn_key=1, count=index + 1))[index]
        prob = build_moment_relaxation(inst, inst.min_level() + 1)
        sol = solve(dataclasses.replace(prob))
        assert sol.status == "optimal", (sol.residuals, sol.notes)
        assert max(sol.residuals.values()) <= 1e-8, sol.residuals

    @pytest.mark.parametrize("form", ["sos", "moment"])
    def test_repeated_row_keeps_the_bound(self, form):
        # a repeated row leaves M (and K = M + rho B B^T) singular, which the
        # Cholesky of K meets only through its shifted retry; in the moment
        # form the repeated row is y_0 = 1, which has no block entries at all
        if form == "sos":
            prob = build_sos_relaxation(gallery_instance("motzkin-ball"), 3)
            row = 0
        else:
            prob = build_moment_relaxation(gallery_instance("quadratic-ball"), 2)
            row = int(np.flatnonzero(~np.isin(np.arange(prob.nrows),
                                              np.concatenate([b.rows for b in prob.a_blocks])))[0])
        base = solve(dataclasses.replace(prob))
        sol = solve(with_row_repeated(prob, row))
        assert base.status == sol.status == "optimal", (sol.residuals, sol.notes)
        assert abs(sol.primal_objective - base.primal_objective) <= \
            1e-8 * (1.0 + abs(base.primal_objective))


def assert_identical(got, want):
    """Two solutions agree in every field, the arrays bit for bit."""
    assert (got.status, got.iterations, got.notes) == (want.status, want.iterations, want.notes)
    assert (got.residuals, got.trace) == (want.residuals, want.trace)
    assert (got.primal_objective, got.dual_objective) == \
        (want.primal_objective, want.dual_objective)
    for name in ("x_blocks", "z_blocks"):
        assert len(getattr(got, name)) == len(getattr(want, name))
    for a, b in zip([got.free_values, got.dual_vector, *got.x_blocks, *got.z_blocks],
                    [want.free_values, want.dual_vector, *want.x_blocks, *want.z_blocks]):
        assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
            np.ascontiguousarray(b).tobytes()


def moment_levels():
    """(name, problem) for the moment form of Motzkin levels 3-5, the corpus
    (spawn key 1) at levels min and min + 1, and the equality ensemble of
    ``tests/solve_hashes.py`` at levels 1 and 2."""
    motzkin = gallery_instance("motzkin-ball")
    for k in (3, 4, 5):
        yield f"motzkin-{k}", build_moment_relaxation(motzkin, k)
    for i, inst in corpus_instances(spawn_key=1):
        for k in (inst.min_level(), inst.min_level() + 1):
            yield f"corpus-{i}-{k}", build_moment_relaxation(inst, k)
    for i in range(60):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,)))
        inst = random_instance(2, 2, rng, n_equalities=1)
        for k in (1, 2):
            yield f"equality-{i}-{k}", build_moment_relaxation(inst, k)


class TestAnsweredFromTheSource:
    """``solve`` answers a ``dual()``-built problem from the problem it is
    the dual of when that run ends ``optimal``, and runs it directly
    otherwise."""

    @pytest.mark.parametrize("case", ["quadratic-ball-2", "corpus-5-3"])
    def test_moment_solve_is_the_sos_solve_transposed(self, case):
        inst, k = {"quadratic-ball-2": (gallery_instance("quadratic-ball"), 2),
                   "corpus-5-3": (dict(corpus_instances(spawn_key=1, count=6))[5], 3)}[case]
        src = solve(build_sos_relaxation(inst, k))
        sol = solve(build_moment_relaxation(inst, k))
        assert src.status == "optimal"
        # the rows of dual() hold Z[p, q] = <E_pq, Z> with E_pq half of each
        # off-diagonal entry, so X's off-diagonal multipliers are doubled
        upper = []
        for x in src.x_blocks:
            p, q = np.triu_indices(len(x))
            upper.append(np.where(p == q, 1.0, 2.0) * x[p, q])
        swap = {"primal": "dual", "dual": "primal", "err_primal": "err_dual",
                "err_dual": "err_primal", "alpha_p": "alpha_d", "alpha_d": "alpha_p"}
        trace = [{swap.get(key, key): -val if key in ("primal", "dual") else val
                  for key, val in row.items()} for row in src.trace]
        want = dataclasses.replace(
            src, x_blocks=src.z_blocks, z_blocks=src.x_blocks, free_values=src.dual_vector,
            dual_vector=np.concatenate([-src.free_values, *upper]),
            primal_objective=-src.dual_objective, dual_objective=-src.primal_objective,
            residuals={"primal": src.residuals["dual"], "dual": src.residuals["primal"],
                       "gap": src.residuals["gap"]},
            trace=trace, notes=[f"solved as the dual of sos-level-{k}", *src.notes])
        assert_identical(sol, want)

    def test_answers_meet_the_tolerances_on_the_moment_problem(self):
        # re-measured with the moment problem's own residuals and scales;
        # every free column is kept, the dependent ones included
        opts = SolverOptions()
        routed = 0
        for name, prob in moment_levels():
            sol = solve(prob)
            if sol.notes[:1] != [f"solved as the dual of {prob.dual_of.name}"]:
                continue
            routed += 1
            data, _ = _start(prob, opts)
            data = dataclasses.replace(data, bmat=prob.b_free, c_free=prob.c_free)
            it = _Iterate(sol.x_blocks, sol.z_blocks, None, None, sol.free_values,
                          sol.dual_vector)
            _measure(data, it)
            assert sol.status == "optimal" and it.meets(opts), \
                (name, it.err_p, it.err_d, it.rel_gap)
        assert routed > 0

    def test_non_optimal_source_falls_back_to_the_direct_run(self):
        prob = build_moment_relaxation(gallery_instance("equality-quadratic"), 2)
        assert solve(prob.dual_of).status == "near_optimal"
        sol = solve(prob)
        assert sol.status == "optimal"
        assert_identical(sol, solve(dataclasses.replace(prob)))

    def test_motzkin_moment_level_5_ends_within_40_iterations(self):
        # the unsplit level's moment form, run on its own KKT system (2,227
        # rows, 286 free columns), stalls near_optimal for all 200 iterations
        sol = solve(build_moment_relaxation(gallery_instance("motzkin-ball"), 5))
        assert sol.status == "optimal" and sol.iterations <= 40, (sol.iterations, sol.notes)


class TestDependentFreeColumns:
    def test_repeated_equality_keeps_the_bound(self):
        # h repeated gives B two equal sets of columns, so S = B^T K^{-1} B is
        # exactly singular unless a column-independent subset is kept
        f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): 0.3})
        h = Polynomial(2, {(1, 0): 1.0, (0, 1): -1.0})
        single = PopInstance(f=f, h=(h,), g=(ball_constraint(2, 1.0),))
        repeated = PopInstance(f=f, h=(h, h), g=(ball_constraint(2, 1.0),))
        base_prob = build_sos_relaxation(single, 2)
        prob = build_sos_relaxation(repeated, 2)
        assert _start(base_prob, SolverOptions())[0].free_cols is None
        assert len(_start(prob, SolverOptions())[0].free_cols) == base_prob.nfree
        base = solve(base_prob)
        sol = solve(prob)
        assert base.status == sol.status == "optimal", (sol.notes, sol.residuals)
        assert abs(sol.primal_objective - base.primal_objective) <= \
            1e-8 * abs(base.primal_objective)
        cert = extract_certificate(prob, sol, repeated)
        assert verify_certificate(cert, repeated)[0]
        defect = ratpoly_defect(cert, repeated)
        assert max(abs(c) for c in defect.terms.values()) <= 1e-6 * (1.0 + f.coeff_norm())
        assert all(np.linalg.eigvalsh(gram.matrix).min() >= -1e-12 for gram in cert.sigma_grams)

    def test_dropped_free_values_are_zero(self):
        # max u1 + 2 u2 s.t. X11 + u1 + 2 u2 = 1 (optimum 1): pivoted QR keeps
        # the larger column, u2, and u1 is reported as 0
        prob = SdpProblem(block_sizes=[1], a_blocks=[np.array([[[1.0]]])],
                          b_free=np.array([[1.0, 2.0]]), rhs=np.array([1.0]),
                          c_free=np.array([1.0, 2.0]))
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_objective == pytest.approx(1.0, abs=1e-7)
        assert sol.free_values[0] == 0.0
        assert sol.free_values[1] == pytest.approx(0.5, abs=1e-7)
        # with c = (1, 1) the objective grows along u = (2, -1), a null
        # direction of B: the kept column alone bounds the problem, so a
        # primal feasible point ends the run unbounded
        prob = dataclasses.replace(prob, c_free=np.array([1.0, 1.0]))
        data = _start(prob, SolverOptions())[0]
        assert list(data.free_cols) == [1] and data.null_moves_c
        sol = solve(prob)
        assert sol.status == "unbounded", sol.notes
        assert sol.iterations < 20


class TestEndgame:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_hard_levels_optimal_at_each_thread_count(self, threads):
        # OpenBLAS reads its thread count only when it loads, hence a subprocess
        paths = [os.path.dirname(os.path.dirname(polyopt.__file__)), os.path.dirname(__file__)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", HARD_LEVELS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)
        assert len(results) == 6
        for res in results:
            assert res["status"] == "optimal", res
            assert max(res["residuals"].values()) <= 1e-8, res


class TestDualMoments:
    def test_shifted_square_gives_point_mass(self):
        f = Polynomial(1, {(2,): 1.0, (1,): -2.0, (0,): 1.0})
        inst = PopInstance(f=f)
        prob = build_sos_relaxation(inst, 1)
        sol = solve(prob)
        y = extract_dual_moments(sol, prob.layout)
        index = basis(1, 2).index
        assert y.values[index[(0,)]] == 1.0
        assert y.values[index[(1,)]] == pytest.approx(1.0, abs=1e-5)
        assert y.values[index[(2,)]] == pytest.approx(1.0, abs=1e-5)

    def test_y0_normalized_exactly(self):
        inst = PopInstance(f=Polynomial(1, {(2,): 1.0}))
        prob = build_sos_relaxation(inst, 1)
        sol = solve(prob)
        y = extract_dual_moments(sol, prob.layout)
        assert y.values[basis(1, 2).index[(0,)]] == 1.0

    def test_moment_matrix_psd(self):
        f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -0.6})
        inst = PopInstance(f=f)
        prob = build_sos_relaxation(inst, 1)
        sol = solve(prob)
        y = extract_dual_moments(sol, prob.layout)
        mat = y.moment_matrix(1)
        assert np.linalg.eigvalsh(mat).min() >= -1e-7 * (1.0 + np.abs(mat).max())

    @pytest.mark.parametrize("build", [build_sos_relaxation, build_moment_relaxation],
                             ids=["sos", "moment"])
    def test_first_moments_at_minimizer(self, build):
        # both forms within 5e-6 of the minimizer (1/7, 3/7): their first
        # moments agree within 1e-5
        inst = gallery_instance("quadratic-ball")
        prob = build(inst, 2)
        sol = solve(prob)
        assert sol.status == "optimal"
        y = extract_dual_moments(sol, prob.layout)
        index = basis(2, 4).index
        assert y.values[index[(0, 0)]] == 1.0
        first = [y.values[index[(1, 0)]], y.values[index[(0, 1)]]]
        assert np.allclose(first, [1.0 / 7.0, 3.0 / 7.0], rtol=0.0, atol=5e-6)

    def test_moment_form_vanishing_y0_raises(self):
        inst = gallery_instance("quadratic-ball")
        prob = build_moment_relaxation(inst, 1)
        sol = solve(prob)
        u = sol.free_values.copy()
        u[prob.layout.free_monomials.index((0, 0))] = 0.0
        with pytest.raises(DegenerateDualError):
            extract_dual_moments(dataclasses.replace(sol, free_values=u), prob.layout)
