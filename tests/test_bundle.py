import numpy as np
import pytest

from holosynth import (
    DimensionError,
    InvalidFrame,
    TooFewSamples,
    curve_samples,
    horizontality_defect,
    length_analytic,
    loop_length_numeric,
    project,
    standard_base_frame,
    synthesize,
)
from holosynth.linalg import expm_skew
from helpers import random_haar, random_skew

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class TestStandardBaseFrame:
    def test_shapes(self):
        np.testing.assert_array_equal(standard_base_frame(2, 1), [[1], [0]])
        v = standard_base_frame(4, 2)
        np.testing.assert_array_equal(v[:2], np.eye(2))
        np.testing.assert_array_equal(v[2:], np.zeros((2, 2)))
        v = standard_base_frame(3, 2)
        np.testing.assert_array_equal(v[:2], np.eye(2))
        np.testing.assert_array_equal(v[2:], np.zeros((1, 2)))

    def test_rejects_bad_dims(self):
        with pytest.raises(DimensionError):
            standard_base_frame(2, 2)
        with pytest.raises(DimensionError):
            standard_base_frame(2, 3)


class TestProject:
    def test_base_point(self):
        p = project(standard_base_frame(2, 1))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)

    def test_rank_one_superposition(self):
        v = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(project(v), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_fiber_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = np.linalg.qr(
                rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
            )[0]
            h = random_haar(rng, 2)
            assert np.linalg.norm(project(v @ h) - project(v)) < 1e-12

    def test_projector_invariants(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = np.linalg.qr(
                rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
            )[0]
            p = project(v)
            assert np.linalg.norm(p @ p - p) < 1e-12
            assert np.linalg.norm(p.conj().T - p) < 1e-12
            assert abs(np.trace(p) - 3) < 1e-12

    def test_rejects_non_frame(self):
        with pytest.raises(InvalidFrame):
            project(np.array([[1.0], [1.0]], dtype=complex))


class TestHorizontalityDefect:
    def test_constant_curve(self):
        v = standard_base_frame(4, 2)
        assert horizontality_defect([v] * 11) < 1e-14

    def test_vertical_curve_measures_rotation_speed(self):
        rng = np.random.default_rng(6)
        omega = random_skew(rng, 2)
        v0 = standard_base_frame(5, 2)
        times = np.linspace(0.0, 1.0, 2001)
        frames = np.stack([v0 @ expm_skew(omega, t) for t in times])
        defect = horizontality_defect(frames)
        assert abs(defect - np.linalg.norm(omega)) < 1e-3

    def test_synthesized_curve_is_horizontal(self):
        ctrl = synthesize(HADAMARD).controller
        frames = curve_samples(ctrl, np.linspace(0.0, 1.0, 1001))
        assert horizontality_defect(frames) < 1e-5

    def test_too_few_samples(self):
        v = standard_base_frame(3, 1)
        with pytest.raises(TooFewSamples):
            horizontality_defect([v, v])


def _loop_projectors(ctrl, samples):
    frames = curve_samples(ctrl, np.linspace(0.0, 1.0, samples))
    return np.einsum("mik,mjk->mij", frames, frames.conj())


class TestLoopLengthNumeric:
    def test_constant_curve(self):
        p = project(standard_base_frame(3, 1))
        assert loop_length_numeric([p] * 21) == pytest.approx(0.0, abs=1e-15)

    def test_single_channel_half_turn_loop(self):
        phase_gate = np.array([[np.exp(1j * np.pi)]], dtype=complex)
        ctrl = synthesize(phase_gate).controller
        s = loop_length_numeric(_loop_projectors(ctrl, 20001))
        assert abs(s - np.pi**2) < 5e-7

    def test_matches_analytic_length(self):
        ctrl = synthesize(HADAMARD).controller
        s = loop_length_numeric(_loop_projectors(ctrl, 20001))
        assert abs(s - length_analytic(ctrl)) < 1e-6

    def test_quadratic_convergence(self):
        phase_gate = np.array([[np.exp(1j * np.pi)]], dtype=complex)
        ctrl = synthesize(phase_gate).controller
        exact = np.pi**2
        coarse = abs(loop_length_numeric(_loop_projectors(ctrl, 501)) - exact)
        fine = abs(loop_length_numeric(_loop_projectors(ctrl, 1001)) - exact)
        assert coarse / fine >= 3.5

    def test_even_sample_count_uses_trapezoid(self):
        phase_gate = np.array([[np.exp(1j * np.pi)]], dtype=complex)
        ctrl = synthesize(phase_gate).controller
        s = loop_length_numeric(_loop_projectors(ctrl, 5000))
        assert abs(s - np.pi**2) < 1e-4

    def test_too_few_samples(self):
        p = project(standard_base_frame(3, 1))
        with pytest.raises(TooFewSamples):
            loop_length_numeric([p])
