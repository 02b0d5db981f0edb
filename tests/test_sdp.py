import copy
import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, ball_constraint, build_moment_relaxation, \
    build_sos_relaxation
from polyopt.errors import ParseError
from polyopt.gallery import gallery_instance
from polyopt.sdp import CoeffBlock, SdpProblem
from polyopt.solver import solve

from corpus import corpus_instances
from unreduced import unreduced_sos


def tiny_problem():
    a = np.zeros((2, 2, 2))
    a[0, 0, 0] = 1.0
    a[1, 0, 1] = a[1, 1, 0] = 0.5
    return SdpProblem(
        block_sizes=[2],
        a_blocks=[a],
        b_free=np.array([[1.0], [0.0]]),
        rhs=np.array([1.0, 0.25]),
        c_free=np.array([1.0]),
        name="tiny")


class TestValidation:
    def test_valid(self):
        prob = tiny_problem()
        assert (prob.block_sizes, prob.nrows, prob.nfree) == ((2,), 2, 1)

    def test_asymmetric_rejected(self):
        # A_1[0, 1] = 0.7 but A_1[1, 0] = 0.5: a dense cube fails where it
        # enters, and triplets cannot hold the (1, 0) entry at all
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1.0
        a[1, 0, 1], a[1, 1, 0] = 0.7, 0.5
        with pytest.raises(ValueError, match="asymmetric"):
            SdpProblem(block_sizes=[2], a_blocks=[a], b_free=np.array([[1.0], [0.0]]),
                       rhs=np.array([1.0, 0.25]), c_free=np.array([1.0]))
        with pytest.raises(ValueError, match="below the diagonal"):
            CoeffBlock(2, 2, rows=[0, 1, 1], cols=[0, 1, 2], vals=[1.0, 0.7, 0.5])
        with pytest.raises(ValueError, match="below the diagonal"):
            CoeffBlock(2, 2, rows=[1], cols=[2], vals=[0.5])   # already sorted

    def test_upper_entry_is_the_symmetric_pair(self):
        # the lone (0, 1) entry of A_1 stands for (1, 0) too
        block = CoeffBlock(2, 2, rows=[0, 1], cols=[0, 1], vals=[1.0, 0.5])
        assert np.array_equal(block.to_dense(), [[[1.0, 0.0], [0.0, 0.0]],
                                                 [[0.0, 0.5], [0.5, 0.0]]])
        prob = SdpProblem(block_sizes=[2], a_blocks=[block], b_free=np.array([[1.0], [0.0]]),
                          rhs=np.array([1.0, 0.25]), c_free=np.array([1.0]))
        assert np.array_equal(prob.a_blocks[0].to_dense(), tiny_problem().a_blocks[0].to_dense())

    def test_block_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(tiny_problem(),
                                a_blocks=[CoeffBlock(3, 2, rows=[0], cols=[0], vals=[1.0])])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="c_free has 2"):
            dataclasses.replace(tiny_problem(), c_free=np.array([1.0, 2.0]))

    @pytest.mark.parametrize("rows, cols, match", [
        ([2], [0], "row outside 0..1"), ([-1], [0], "row outside"),
        ([0], [4], "column outside 0..3"), ([0], [-1], "column outside")])
    def test_triplet_range_checked(self, rows, cols, match):
        # checked on every construction, sorted triplets or not
        with pytest.raises(ValueError, match=match):
            CoeffBlock(2, 2, rows=rows, cols=cols, vals=[1.0])
        with pytest.raises(ValueError, match=match):
            CoeffBlock(2, 2, rows=[0, *rows], cols=[0, *cols], vals=[1.0, 1.0])


class TestFrozen:
    """A problem is checked once, when it is made, and cannot change after."""

    @staticmethod
    def held_arrays(prob):
        yield from (prob.rhs, prob.c_free, prob.b_free, *prob.c_blocks)
        for blk in prob.a_blocks:
            yield from (blk.rows, blk.cols, blk.vals)

    @pytest.mark.parametrize("make", ["sos", "moment", "dual", "text", "dense"])
    def test_every_maker_holds_read_only_arrays(self, make):
        inst = gallery_instance("equality-quadratic")
        prob = {"sos": lambda: build_sos_relaxation(inst, 2),
                "moment": lambda: build_moment_relaxation(inst, 2),
                "dual": lambda: build_sos_relaxation(inst, 2).dual(),
                "text": lambda: SdpProblem.from_text(build_sos_relaxation(inst, 2).to_text()),
                "dense": tiny_problem}[make]()
        assert isinstance(prob.block_sizes, tuple)
        assert isinstance(prob.a_blocks, tuple) and isinstance(prob.c_blocks, tuple)
        for arr in self.held_arrays(prob):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_caller_arrays_are_copied(self):
        rhs, b_free, c_block = np.array([1.0, 0.25]), np.array([[1.0], [0.0]]), np.eye(2)
        rows, cols, vals = np.array([0, 1]), np.array([0, 1]), np.array([1.0, 0.5])
        prob = SdpProblem(block_sizes=[2], a_blocks=[CoeffBlock(2, 2, rows, cols, vals)],
                          b_free=b_free, rhs=rhs, c_free=[1.0], c_blocks=[c_block])
        for arr in (rhs, b_free, c_block, rows, cols, vals):
            assert arr.flags.writeable
        rhs[0] = b_free[0, 0] = c_block[0, 0] = vals[0] = 9.0
        assert prob.rhs[0] == prob.b_free[0, 0] == prob.c_blocks[0][0, 0] == 1.0
        assert prob.a_blocks[0].vals[0] == 1.0

    def test_fields_cannot_be_rebound(self):
        prob = tiny_problem()
        for name, value in [("rhs", np.zeros(2)), ("dual_of", None), ("name", "x")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(prob, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.a_blocks[0].vals = np.zeros(2)

    def test_edits_that_staled_the_dual_link_raise(self):
        # both edits used to be answered from the unedited problem: the first
        # gave the bound -0.2857 where a direct run gives -0.5714, the second
        # 0.0 where it gives -0.2857
        inst = gallery_instance("quadratic-ball")
        mom = build_moment_relaxation(inst, 2)
        with pytest.raises(ValueError, match="read-only"):
            mom.c_free[:] *= 2.0
        sos = build_sos_relaxation(inst, 2)
        m2 = sos.dual()
        with pytest.raises(ValueError, match="read-only"):
            sos.rhs[:] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            mom.c_free = 2.0 * mom.c_free
        # what was built still solves the same, routed or direct
        value = -solve(dataclasses.replace(m2)).primal_objective
        assert value == pytest.approx(-0.2857142857, abs=1e-7)
        assert -solve(mom).primal_objective == pytest.approx(value, abs=1e-7)
        assert -solve(m2).primal_objective == pytest.approx(value, abs=1e-7)

    def test_replace_without_the_link_runs_directly(self):
        mom = build_moment_relaxation(gallery_instance("quadratic-ball"), 2)
        direct = dataclasses.replace(mom)
        assert direct.dual_of is None and mom.dual_of is not None
        assert direct.name == mom.name and direct.layout is mom.layout
        assert not direct.b_free.flags.writeable
        sol = solve(direct)
        assert sol.status == "optimal"
        assert all("solved as the dual" not in note for note in sol.notes)


def _pickled(prob):
    return pickle.loads(pickle.dumps(prob))


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": _pickled}


class TestDualLink:
    """``dual()`` is the only maker of a ``dual_of`` link, on every path."""

    def test_replace_drops_the_link(self):
        # a replace that changes the data used to keep the link and was
        # answered from the unedited source: -0.2857 instead of -0.5714
        mom = build_moment_relaxation(gallery_instance("quadratic-ball"), 2)
        edited = dataclasses.replace(mom, c_free=2.0 * mom.c_free)
        assert edited.dual_of is None and dataclasses.replace(mom).dual_of is None
        assert -solve(edited).primal_objective == pytest.approx(-0.5714285714, abs=1e-7)

    def test_link_cannot_be_passed(self):
        sos = build_sos_relaxation(gallery_instance("quadratic-ball"), 2)
        mom = sos.dual()
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mom, dual_of=sos)
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(mom, dual_of=None)
        fields = dict(block_sizes=mom.block_sizes, a_blocks=mom.a_blocks, b_free=mom.b_free,
                      rhs=mom.rhs, c_free=mom.c_free)
        with pytest.raises(TypeError, match="dual_of"):
            SdpProblem(**fields, dual_of=sos)
        assert SdpProblem(**fields).dual_of is None

    def test_dual_defaults(self):
        dual = build_sos_relaxation(gallery_instance("quadratic-ball"), 2).dual()
        assert dual.name == "" and dual.layout is None

    @pytest.mark.parametrize("how", list(COPIES))
    def test_copy_of_a_linked_problem(self, how):
        # deepcopy and pickle used to give writable arrays with the link kept,
        # so an edit of the copy was answered from the unedited source
        mom = build_moment_relaxation(gallery_instance("quadratic-ball"), 2)
        dup = COPIES[how](mom)
        assert dup.to_text() == mom.to_text()
        assert (dup.name, dup.layout) == (mom.name, mom.layout)
        for arr in TestFrozen.held_arrays(dup):
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            dup.c_free[:] *= 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dup.c_free = 2.0 * mom.c_free
        if how == "copy":
            assert dup.dual_of is mom.dual_of
        else:
            assert dup.dual_of is not mom.dual_of
            assert dup.dual_of.to_text() == mom.dual_of.to_text()
        sol = solve(dup)
        assert sol.notes[:1] == ["solved as the dual of sos-level-2"]
        assert sol.primal_objective == solve(mom).primal_objective

    @pytest.mark.parametrize("how", list(COPIES))
    def test_copy_of_a_problem_with_an_equality(self, how):
        # its layout holds a monomial basis, which could not be pickled
        sos = build_sos_relaxation(gallery_instance("equality-quadratic"), 2)
        dup = COPIES[how](sos)
        assert dup.to_text() == sos.to_text() and dup.dual_of is None
        for arr in TestFrozen.held_arrays(dup):
            assert not arr.flags.writeable
        sol = solve(sos)
        lift, lift0 = dup.layout.lift(sol), sos.layout.lift(sol)
        assert len(lift.phi) == 1 and lift.phi == lift0.phi
        assert [bas for bas, *_ in lift.grams] == [bas for bas, *_ in lift0.grams]


class TestTextFormat:
    def test_round_trip_tiny(self):
        prob = tiny_problem()
        back = SdpProblem.from_text(prob.to_text())
        assert back.block_sizes == prob.block_sizes
        assert np.array_equal(back.rhs, prob.rhs)
        assert np.array_equal(back.b_free, prob.b_free)
        assert np.array_equal(back.c_free, prob.c_free)
        for a, b in zip(back.a_blocks, prob.a_blocks):
            assert np.array_equal(a.to_dense(), b.to_dense())
        assert back.name == "tiny"

    def test_round_trip_relaxation(self):
        inst = PopInstance(
            f=Polynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 0): 0.25}),
            g=(ball_constraint(2, 1.0),))
        prob = build_sos_relaxation(inst, 2)
        back = SdpProblem.from_text(prob.to_text())
        assert back.block_sizes == prob.block_sizes
        assert np.array_equal(back.rhs, prob.rhs)
        for a, b in zip(back.a_blocks, prob.a_blocks):
            assert np.array_equal(a.to_dense(), b.to_dense())

    def test_file_round_trip(self, tmp_path):
        from polyopt import read_problem, write_problem

        prob = tiny_problem()
        path = tmp_path / "prob.sdp"
        write_problem(prob, path)
        back = read_problem(path)
        assert np.array_equal(back.rhs, prob.rhs)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            SdpProblem.from_text("not an sdp\n")
        # negative or non-integer counts used to raise a bare ValueError
        text = tiny_problem().to_text()
        for line, bad in [("rows 2", "rows -1"), ("free 1", "free -1"),
                          ("sizes 2", "sizes -2"), ("rows 2", "rows two")]:
            with pytest.raises(ParseError):
                SdpProblem.from_text(text.replace(line, bad))

    def test_no_rows(self):
        # it used to read as a problem with no rows
        text = "SDPPROBLEM v1\nblocks 1\nsizes 1\nfree 0\nrows 0\nEND\n"
        with pytest.raises(ParseError, match="at least one equality row"):
            SdpProblem.from_text(text)

    def test_bad_record(self):
        text = tiny_problem().to_text().replace("END", "bogus 1 2\nEND")
        with pytest.raises(ParseError):
            SdpProblem.from_text(text)

    def test_out_of_range_record(self):
        for record in [
            "A 0 0 0 2 1.0",
            # negative indices would wrap to the last entry
            "objf -1 5.0", "objb -1 0 0 5.0", "objb 0 -1 -1 5.0", "rhs -1 5.0",
            "B -1 0 5.0", "B 0 -1 5.0", "A 0 -1 0 0 9.0", "A -1 0 0 0 9.0", "A 0 0 0 -1 9.0",
            # and past the end
            "objf 1 5.0", "objb 1 0 0 5.0", "objb 0 0 2 5.0", "rhs 2 5.0", "B 2 0 5.0",
            "B 0 1 5.0", "A 0 1 0 0 9.0", "A 2 0 0 0 9.0",
        ]:
            text = tiny_problem().to_text().replace("END", record + "\nEND")
            with pytest.raises(ParseError, match="outside"):
                SdpProblem.from_text(text)

    def test_lower_record_reads_as_its_transpose(self):
        text = tiny_problem().to_text()
        assert "A 1 0 0 1 0.5\n" in text
        lower = SdpProblem.from_text(text.replace("A 1 0 0 1 0.5", "A 1 0 1 0 0.5"))
        assert np.array_equal(lower.a_blocks[0].to_dense(), tiny_problem().a_blocks[0].to_dense())
        both = SdpProblem.from_text(text.replace("A 1 0 0 1 0.5", "A 1 0 0 1 0.5\nA 1 0 1 0 0.25"))
        assert both.a_blocks[0].vals.tolist() == [1.0, 0.75]
        assert np.array_equal(both.a_blocks[0].to_dense()[1], [[0.0, 0.75], [0.75, 0.0]])

    @pytest.mark.parametrize("case, digest", [
        ("motzkin-sos-4", "d213b919b6f77ae30e652a42e83b2bab6434805a8cb9d2380d1713b4ae0a4105"),
        ("corpus-5-moment-3", "29c5e6573b0c5c5fb08ae7c4e2dc7b29b14e10323a58d32234cb9dd3a062916a"),
        ("equality-quadratic-moment-2",
         "f8d7895303a4d964f379ba0dda2b42226f09a5f9b15c41095d3caad7f310f228"),
    ])
    def test_text_is_pinned(self, case, digest):
        # the first two are digests of the text written when A was stored as
        # dense cubes: the sparse storage writes the same records in the same order
        if case == "motzkin-sos-4":
            # the level without its sign-symmetry split
            prob = unreduced_sos(gallery_instance("motzkin-ball"), 4)
        elif case == "equality-quadratic-moment-2":
            # the ideal rows come right after y_0 = 1, ahead of the Gram-entry rows
            prob = build_moment_relaxation(gallery_instance("equality-quadratic"), 2)
        else:
            prob = build_moment_relaxation(dict(corpus_instances(spawn_key=1, count=6))[5], 3)
        assert hashlib.sha256(prob.to_text().encode()).hexdigest() == digest


class TestDual:
    def test_dual_has_the_negated_optimum(self):
        # max 0.5 u + <C, X> + <D, Y>  s.t.  X00 + X11 + Y + u = 2,  X01 - u = 0:
        # a nonzero C_j, a free column and two blocks
        a = np.zeros((2, 2, 2))
        a[0, 0, 0] = a[0, 1, 1] = 1.0
        a[1, 0, 1] = a[1, 1, 0] = 0.5
        prob = SdpProblem(
            block_sizes=[2, 1], a_blocks=[a, np.array([[[1.0]], [[0.0]]])],
            b_free=np.array([[1.0], [-1.0]]), rhs=np.array([2.0, 0.0]),
            c_free=np.array([0.5]),
            c_blocks=[np.array([[1.0, 0.3], [0.3, -0.5]]), np.array([[-0.2]])])
        dual = prob.dual()
        assert (dual.nrows, dual.nfree, dual.block_sizes) == (5, 2, (2, 1))
        assert dual.dual_of is prob
        primal_sol = solve(prob)
        scale = abs(primal_sol.primal_objective)
        # answered from prob, and solved on its own with the link dropped
        routed, direct = solve(dual), solve(dataclasses.replace(dual))
        assert routed.notes[:1] == ["solved as the dual of its source problem"]
        assert routed.iterations == primal_sol.iterations
        assert all("solved as the dual" not in note for note in direct.notes)
        for dual_sol in (routed, direct):
            assert primal_sol.status == dual_sol.status == "optimal"
            assert abs(primal_sol.primal_objective + dual_sol.primal_objective) <= 1e-7 * scale


class TestCoeffBlock:
    def test_dense_and_triplets_agree(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 3, 3)) * (rng.random((4, 3, 3)) < 0.4)
        a = a + a.transpose(0, 2, 1)
        blk = CoeffBlock.from_dense(a)
        assert np.array_equal(blk.to_dense(), a)
        assert len(blk.vals) == np.count_nonzero(np.triu(a))
        order = rng.permutation(len(blk.vals))
        shuffled = CoeffBlock(4, 3, blk.rows[order], blk.cols[order], blk.vals[order])
        for field in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(shuffled, field), getattr(blk, field))

    def test_repeated_entries_add_up(self):
        blk = CoeffBlock(2, 2, rows=[1, 0, 1], cols=[3, 0, 3], vals=[0.25, 1.0, 0.5])
        assert blk.rows.tolist() == [0, 1]
        assert blk.cols.tolist() == [0, 3]
        assert blk.vals.tolist() == [1.0, 0.75]

    def test_nbytes_is_what_is_held(self):
        blk = CoeffBlock(2, 2, rows=[0, 1], cols=[0, 3], vals=[1.0, 2.0])
        assert blk.nbytes == blk.rows.nbytes + blk.cols.nbytes + blk.vals.nbytes

    def test_motzkin_level_6_is_small(self):
        # the dense cubes of the unsplit level hold 35.4 MB, the triplets of
        # both triangles 470,400 bytes, those of the upper triangle 238,896
        prob = unreduced_sos(gallery_instance("motzkin-ball"), 6)
        assert sum(a.nbytes for a in prob.a_blocks) <= 2 ** 18

    @pytest.mark.parametrize("build", ["sos", "dual", "text"])
    def test_builders_hold_the_upper_triangle(self, build):
        inst = gallery_instance("equality-quadratic")
        prob = build_sos_relaxation(inst, 2)
        if build == "dual":
            prob = prob.dual()
        elif build == "text":
            prob = SdpProblem.from_text(prob.to_text())
        for blk in prob.a_blocks:
            p, q = np.divmod(blk.cols, blk.size)
            assert (p <= q).all() and (p < q).any()
            # the mirrored triplets are sorted by (m, p, q) and hold every
            # off-diagonal entry twice
            rows, cols, vals = blk.both_triangles()
            assert len(vals) == 2 * len(blk.vals) - np.count_nonzero(p == q)
            assert (np.diff(rows * blk.size ** 2 + cols) > 0).all()
