import math

import numpy as np
import pytest

from metricmesh import autodiff as ad
from metricmesh.autodiff import (
    Tape,
    TracedScalar,
    evaluate_with_gradient,
    finite_difference_gradient,
)
from metricmesh.errors import TapeDomainError, TapeNonFiniteError

from conftest import feasible_jittered
from traced_geometry import interior_angles, triangle_area


def grad_check(program, inputs, rel=1e-5, abs_tol=1e-8):
    res = evaluate_with_gradient(program, inputs)
    fd = finite_difference_gradient(
        lambda x: evaluate_with_gradient(program, x).value, inputs
    )
    np.testing.assert_allclose(res.gradient, fd, rtol=rel, atol=abs_tol)
    return res


def record_curvature_energy(mesh, lengths):
    """Tape whose output is a p=2 defect-style energy of the edge lengths."""
    tape = Tape()
    traced = [tape.input(v) for v in lengths]
    energy = tape.const(0.0)
    for e_ij, e_jk, e_ki in mesh.face_edges:
        l_ij, l_jk, l_ki = traced[e_ij], traced[e_jk], traced[e_ki]
        alpha, beta, gamma = interior_angles(l_jk, l_ki, l_ij)
        area = triangle_area(l_ij, l_jk, l_ki)
        energy = energy + (alpha * alpha + beta * beta + gamma * gamma) / area
    return tape.program(energy)


class TestOperatorGradients:
    def test_arithmetic_mix(self):
        def f(v):
            x, y = v
            return x * y + x / y - 3.0 * x + y**2 + 2.5 - (1.0 - x)

        res = grad_check(f, [1.7, 0.9])
        x, y = 1.7, 0.9
        assert res.value == pytest.approx(x * y + x / y - 3 * x + y * y + 2.5 - (1 - x))

    def test_reflected_operators(self):
        def f(v):
            (x,) = v
            return 3.0 - x + (2.0 + x) + 5.0 * x + 6.0 / x

        res = grad_check(f, [1.3])
        assert res.value == pytest.approx(3 - 1.3 + 2 + 1.3 + 5 * 1.3 + 6 / 1.3)

    def test_transcendental_chain(self):
        def f(v):
            x, y = v
            return ad.sqrt(x) * 0.3 + ad.log(y) * ad.sqrt(y)

        grad_check(f, [2.0, 1.5])

    def test_arccos(self):
        def f(v):
            return ad.arccos(v[0])

        res = grad_check(f, [0.3])
        assert res.value == pytest.approx(math.acos(0.3))
        assert res.gradient[0] == pytest.approx(-1.0 / math.sqrt(1 - 0.09), rel=1e-12)

    def test_negative_base_integer_pow(self):
        def f(v):
            return v[0] ** 3

        res = grad_check(f, [-2.0])
        assert res.value == -8.0
        assert res.gradient[0] == pytest.approx(12.0, rel=1e-9)

    def test_neg(self):
        res = grad_check(lambda v: -v[0] * 2.0, [0.7])
        assert res.gradient[0] == -2.0

    def test_absolute(self):
        res = evaluate_with_gradient(lambda v: ad.absolute(v[0]), [-3.0])
        assert (res.value, res.gradient[0]) == (3.0, -1.0)
        res = evaluate_with_gradient(lambda v: ad.absolute(v[0]), [5.0])
        assert (res.value, res.gradient[0]) == (5.0, 1.0)
        # subgradient at the kink is fixed to +1
        res = evaluate_with_gradient(lambda v: ad.absolute(v[0]), [0.0])
        assert (res.value, res.gradient[0]) == (0.0, 1.0)

    def test_plain_float_output_gives_zero_gradient(self):
        res = evaluate_with_gradient(lambda v: 7.0, [1.0, 2.0])
        assert res.value == 7.0
        np.testing.assert_array_equal(res.gradient, [0.0, 0.0])

    def test_plain_numbers_pass_through_helpers(self):
        assert ad.sqrt(4.0) == 2.0
        assert ad.log(math.e) == pytest.approx(1.0)
        assert ad.arccos(1.0 + 1e-12) == 0.0  # clamped
        assert ad.absolute(-2.0) == 2.0
        assert ad.value_of(1.5) == 1.5


class TestProgramReplay:
    """value_and_grad replays the frozen record backwards at the recorded point."""

    @staticmethod
    def _record(inputs):
        tape = Tape()
        xs = [tape.input(v) for v in inputs]
        out = ad.sqrt(xs[0] * xs[1] + 1.0) + ad.log(xs[1]) / 3.0 - ad.arccos(xs[0] / 4.0)
        return tape.program(out), out.value

    def test_replay_matches_record(self):
        prog, recorded = self._record([1.2, 2.5])
        value, _ = prog.value_and_grad()
        assert value == recorded

    def test_replay_bitwise_deterministic(self):
        prog, _ = self._record([0.9, 3.2])
        v1, g1 = prog.value_and_grad()
        v2, g2 = prog.value_and_grad()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)

    def test_unused_input_gets_zero_gradient(self):
        tape = Tape()
        x = tape.input(3.0)
        tape.input(5.0)  # never used
        prog = tape.program(x * x)
        value, grad = prog.value_and_grad()
        assert value == 9.0
        np.testing.assert_array_equal(grad, [6.0, 0.0])

    def test_root_from_other_tape(self):
        t1, t2 = Tape(), Tape()
        t1.input(1.0)
        y = t2.input(2.0)
        with pytest.raises(ValueError):
            t1.program(y)


class TestDomainAndFiniteness:
    def test_record_domain_errors(self):
        tape = Tape()
        x = tape.input(-1.0)
        with pytest.raises(TapeDomainError):
            ad.sqrt(x)
        with pytest.raises(TapeDomainError):
            ad.log(x)

        tape = Tape()
        zero = tape.input(0.0)
        one = tape.input(1.0)
        with pytest.raises(TapeDomainError):
            one / zero
        with pytest.raises(TapeDomainError):
            2.0 / zero
        with pytest.raises(TapeDomainError):
            ad.log(zero)
        with pytest.raises(TapeDomainError):
            zero**-1.0
        with pytest.raises(TapeDomainError):
            tape.input(-2.0) ** 0.5

    def test_arccos_slack(self):
        tape = Tape()
        x = tape.input(1.0 + 1e-9)  # rounding overshoot: clamped, not fatal
        y = ad.arccos(x)
        assert y.value == 0.0
        prog = tape.program(y)
        _, grad = prog.value_and_grad()
        assert math.isfinite(grad[0])
        assert grad[0] < -1e5  # one-sided derivative near the clamp is steep

        tape = Tape()
        with pytest.raises(TapeDomainError):
            ad.arccos(tape.input(1.0 + 1e-7))

    def test_record_overflow(self):
        tape = Tape()
        x = tape.input(1e308)
        with pytest.raises(TapeNonFiniteError):
            x + x

    def test_record_division_by_constant_zero(self):
        tape = Tape()
        with pytest.raises(TapeDomainError, match="division by zero"):
            tape.input(1.0) / 0.0

    def test_record_pow_overflow(self):
        tape = Tape()
        with pytest.raises(TapeNonFiniteError, match="pow overflowed"):
            tape.input(1e200) ** 2.0

    @pytest.mark.parametrize(
        "f",
        [ad.sqrt, lambda x: x**0.5, lambda x: x**0.25],
        ids=["sqrt", "pow_half", "pow_quarter"],
    )
    def test_pole_of_partial_at_record(self, f):
        # Python raises 0.5 / 0.0 and 0.0 ** -0.5; recording at the pole
        # must not, and the sweep reports the infinite partial it reaches
        tape = Tape()
        y = f(tape.input(0.0))
        assert y.value == 0.0
        with pytest.raises(TapeNonFiniteError, match="input slot 0"):
            tape.program(y).value_and_grad()

    @pytest.mark.parametrize(
        "bad, error",
        [(1e308, TapeNonFiniteError), (0.0, TapeDomainError)],
        ids=["1e+308", "0.0"],
    )
    def test_replay_nonfinite_curvature_energy(self, icosphere1, bad, error):
        # overflow and division by zero deep in a real tape must surface at
        # record as the tape's own error, not as a Python arithmetic error
        mesh, emb = icosphere1
        x = feasible_jittered(mesh, emb, seed=7, amount=0.1).lengths.copy()
        x[0] = bad
        with pytest.raises(error):
            record_curvature_energy(mesh, x)

    def test_replay_nonfinite_gradient(self):
        # every partial is finite; their product in the sweep overflows
        tape = Tape()
        y = ad.sqrt(tape.input(1e-300)) * 1e200
        assert y.value == pytest.approx(1e50)
        with pytest.raises(TapeNonFiniteError, match="input slot 0"):
            tape.program(y).value_and_grad()

    def test_pow_traced_exponent_rejected(self):
        tape = Tape()
        x = tape.input(2.0)
        y = tape.input(3.0)
        with pytest.raises(TypeError):
            x**y

    def test_fd_nonfinite_reported(self):
        def f(x):
            return math.nan if x[0] > 2.0 else float(x[0])

        with pytest.raises(ValueError, match="coordinate 0"):
            finite_difference_gradient(f, [2.0])

    def test_fd_custom_step(self):
        fd = finite_difference_gradient(lambda x: x[0] ** 2, [3.0], step=1e-5)
        assert fd[0] == pytest.approx(6.0, rel=1e-9)


class TestTapeMechanics:
    def test_tape_growth_and_values(self):
        tape = Tape()
        x = tape.input(2.0)
        c = tape.const(10.0)
        y = x * c
        assert len(tape) == 3
        assert y.value == 20.0
        assert float(y) == 20.0
        assert "TracedScalar" in repr(y)

    def test_program_length_and_root(self):
        tape = Tape()
        x = tape.input(1.0)
        out = (x + 1.0) * 2.0
        prog = tape.program(out)
        assert len(prog) == 3
        assert prog.root == out.index
        assert prog.n_inputs == 1
