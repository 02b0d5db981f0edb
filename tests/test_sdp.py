import numpy as np
import pytest

from polyopt import PopInstance, Polynomial, ball_constraint, build_sos_relaxation
from polyopt.errors import ParseError
from polyopt.sdp import SdpProblem


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
        tiny_problem().validate()

    def test_asymmetric_rejected(self):
        prob = tiny_problem()
        prob.a_blocks[0][1, 0, 1] = 0.7
        with pytest.raises(ValueError, match="asymmetric"):
            prob.validate()

    def test_shape_mismatch(self):
        prob = tiny_problem()
        prob.c_free = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            prob.validate()


class TestTextFormat:
    def test_round_trip_tiny(self):
        prob = tiny_problem()
        back = SdpProblem.from_text(prob.to_text())
        assert back.block_sizes == prob.block_sizes
        assert np.array_equal(back.rhs, prob.rhs)
        assert np.array_equal(back.b_free, prob.b_free)
        assert np.array_equal(back.c_free, prob.c_free)
        for a, b in zip(back.a_blocks, prob.a_blocks):
            assert np.array_equal(a, b)
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
            assert np.array_equal(a, b)

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

    def test_bad_record(self):
        text = tiny_problem().to_text().replace("END", "bogus 1 2\nEND")
        with pytest.raises(ParseError):
            SdpProblem.from_text(text)
