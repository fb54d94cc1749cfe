import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosynth import (
    DimensionError,
    OpenLoop,
    ParamShapeMismatch,
    berry_controller,
    berry_holonomy,
    bloch_curve,
    curve_samples,
    holonomy_analytic,
    small_circle_params,
    synthesize,
)
from holosynth.abelian import BerryController
from helpers import berry_controller_reference

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


class TestBerryController:
    def test_identity_channel(self):
        c = berry_controller(0.0, 0.0, 1)
        np.testing.assert_allclose(c.w, (0.0, 0.0, np.pi), atol=1e-15)

    def test_half_turn_channel(self):
        c = berry_controller(np.pi, 0.0, 1)
        np.testing.assert_allclose(c.w, (np.pi, 0.0, 0.0), atol=1e-12)

    def test_quarter_turn_channel(self):
        c = berry_controller(np.pi / 2, 0.0, 1)
        np.testing.assert_allclose(
            c.w, (np.pi * np.sqrt(3) / 2, 0.0, np.pi / 2), atol=1e-12
        )

    def test_norm_is_winding_times_pi(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            gamma = rng.uniform(0.0, 2 * np.pi)
            phi = rng.uniform(0.0, 2 * np.pi)
            n = int(rng.integers(1, 4))
            assert berry_controller(gamma, phi, n).rho == pytest.approx(
                n * np.pi, rel=1e-12
            )

    def test_matrix_is_pauli_combination(self):
        c = berry_controller(1.3, 0.4, 1)
        w1, w2, w3 = c.w
        expected = 1j * (
            w3 * np.eye(2) + w1 * SIGMA[0] + w2 * SIGMA[1] + w3 * SIGMA[2]
        )
        np.testing.assert_allclose(c.matrix, expected, atol=1e-14)
        assert np.linalg.norm(c.matrix + c.matrix.conj().T) < 1e-14


class TestOneChannelRule:
    """`berry_controller` is the channel of `small_circle_params`: equal to
    the formula it kept before, and refusing what that function refuses."""

    @staticmethod
    def assert_matches_reference(gamma, phi, n):
        got, want = berry_controller(gamma, phi, n), berry_controller_reference(gamma, phi, n)
        assert np.array_equal(got.w, want.w)
        assert np.array(berry_holonomy(got)).tobytes() == np.array(berry_holonomy(want)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("phi", [0.0, 0.3, np.pi, -np.pi, 2 * np.pi])
    def test_matches_the_reference_on_a_grid(self, phi, n):
        for gamma in np.linspace(0.0, 2 * np.pi, 33):
            self.assert_matches_reference(gamma, phi, n)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(n=st.integers(1, 99), fraction=st.floats(0.0, 1.0), phi=st.floats(-20.0, 20.0))
    def test_matches_the_reference_on_a_sample(self, n, fraction, phi):
        self.assert_matches_reference(fraction * 2 * n * np.pi, phi, n)

    @pytest.mark.parametrize("args", [
        (0.5, 0.0, 0), (0.5, 0.0, 1.5), (0.5, 0.0, True), (0.5, 0.0, 2**53 + 1),
        (0.5, 0.0, 2**60), (7.0, 0.0, 1), (-0.5, 0.0, 1),
        (np.nan, 0.0, 1), (np.inf, 0.0, 1), (-np.inf, 0.0, 1),
        (0.5, np.nan, 1), (0.5, np.inf, 1), (0.5, -np.inf, 1),
    ], ids=str)
    def test_refuses_what_small_circle_params_refuses(self, args):
        with pytest.raises(ParamShapeMismatch) as refused:
            small_circle_params(*args)
        with pytest.raises(ParamShapeMismatch, match=f"^{re.escape(str(refused.value))}$"):
            berry_controller(*args)

    @pytest.mark.parametrize("w", [
        (np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), (0.0, 0.0, -np.inf), ("1", 0.0, 0.0),
        (True, 0.0, 0.0),
    ], ids=str)
    def test_control_vector_refuses_a_non_finite_or_non_number(self, w):
        with pytest.raises(ParamShapeMismatch, match="control vector"):
            BerryController(w=w)


class TestNormBound:
    """||w|| is at most that of winding 2**53, the bound of `synth._winding`,
    so the closed forms never overflow to a bare error, a warning or NaN."""

    @pytest.mark.parametrize("w", [(1e200, 0.0, 0.0), (1e308, 1e308, 0.0), (0.0, 0.0, -1e17)],
                             ids=str)
    def test_a_norm_beyond_winding_2_pow_53_is_refused(self, w):
        with pytest.raises(ParamShapeMismatch, match="passes 2\\*\\*53 pi"):
            BerryController(w)

    @pytest.mark.parametrize("phi", [0.0, 0.3, -2.5])
    def test_winding_2_pow_53_is_accepted(self, phi):
        n = 2**53
        for gamma in np.linspace(0.0, 2 * n * np.pi, 257):
            ctrl = berry_controller(gamma, phi, n)
            assert ctrl.rho == pytest.approx(n * np.pi, rel=1e-15)
            assert np.isfinite(bloch_curve(ctrl, 0.5)).all()

    def test_the_stationary_vector_has_the_pole_axis(self):
        np.testing.assert_array_equal(BerryController((0, 0, 0)).axis, [0.0, 0.0, 1.0])


class TestBlochCurve:
    def test_starts_at_north_pole(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c = berry_controller(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
            np.testing.assert_allclose(bloch_curve(c, 0.0), [0, 0, 1], atol=1e-14)

    def test_polar_axis_is_stationary(self):
        c = BerryController(w=(0.0, 0.0, np.pi))
        for t in np.linspace(0.0, 1.0, 7):
            np.testing.assert_allclose(bloch_curve(c, t), [0, 0, 1], atol=1e-14)

    def test_equator_crossing_for_half_turn_gate(self):
        c = berry_controller(np.pi, 0.0, 1)
        np.testing.assert_allclose(bloch_curve(c, 0.25), [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(bloch_curve(c, 0.5), [0, 0, -1], atol=1e-12)

    def test_unit_norm_and_cone_angle_conserved(self):
        rng = np.random.default_rng(2)
        c = berry_controller(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi), 2)
        cone = float(c.axis @ np.array([0.0, 0.0, 1.0]))
        for t in np.linspace(0.0, 1.0, 13):
            r = bloch_curve(c, t)
            assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
            assert float(c.axis @ r) == pytest.approx(cone, abs=1e-12)

    def test_loop_closes_when_norm_is_integer_pi(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3):
            c = berry_controller(rng.uniform(0, 2 * np.pi), 0.0, n)
            assert np.linalg.norm(bloch_curve(c, 1.0) - [0, 0, 1]) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_winding_counts_pole_visits(self, n):
        c = berry_controller(2.1, 0.7, n)
        pole = np.array([0.0, 0.0, 1.0])
        # the pole is visited exactly at t = m/n, n + 1 times on [0, 1] ...
        for m in range(n + 1):
            assert np.linalg.norm(bloch_curve(c, m / n) - pole) < 1e-10
        # ... and nowhere else: count near-pole dips of the sampled distance
        ts = np.linspace(0.0, 1.0, 4001)
        dist = np.array([np.linalg.norm(bloch_curve(c, t) - pole) for t in ts])
        near = dist < 1e-2
        visits = int(np.sum(near[1:] & ~near[:-1])) + int(near[0])
        assert visits == n + 1


    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_a_non_finite_time_is_refused(self, t):
        with pytest.raises(DimensionError, match="time must be finite"):
            bloch_curve(berry_controller(2.1, 0.7), t)

    @pytest.mark.parametrize("t", ["0.5", None, [0.1, 0.2], True],
                             ids=["string", "none", "list", "bool"])
    def test_a_time_that_is_not_a_number_is_refused(self, t):
        with pytest.raises(DimensionError, match="^time: expected a number"):
            bloch_curve(berry_controller(2.1, 0.7), t)

    @pytest.mark.parametrize("t", [0.3, np.float64(0.3), 1, np.int64(2), 0.0, -0.25])
    def test_a_finite_time_keeps_its_bits(self, t):
        # the formula as it read t before t was checked
        c = berry_controller(2.1, 0.7, 2)
        e3 = np.array([0.0, 0.0, 1.0])
        axial = c.axis * float(c.axis @ e3)
        angle = 2.0 * c.rho * t
        want = axial + (e3 - axial) * np.cos(angle) - np.cross(c.axis, e3) * np.sin(angle)
        np.testing.assert_array_equal(bloch_curve(c, t), want)


class TestBerryHolonomy:
    def test_identity_gate(self):
        assert berry_holonomy(BerryController(w=(0, 0, np.pi))) == pytest.approx(1.0)

    def test_half_turn_gate(self):
        got = berry_holonomy(BerryController(w=(np.pi, 0, 0)))
        assert got == pytest.approx(-1.0, abs=1e-15)

    def test_quarter_turn_gate(self):
        c = BerryController(w=(np.pi * np.sqrt(3) / 2, 0.0, np.pi / 2))
        assert berry_holonomy(c) == pytest.approx(1j, abs=1e-12)

    def test_round_trip_grid(self):
        for gamma in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
            for n in (1, 2):
                got = berry_holonomy(berry_controller(gamma, 0.3, n))
                assert abs(got - np.exp(1j * gamma)) < 1e-12

    def test_open_loop_rejected(self):
        with pytest.raises(OpenLoop):
            berry_holonomy(BerryController(w=(0.9 * np.pi, 0.0, 0.0)))


class TestEmbeddingConsistency:
    @pytest.mark.parametrize("phi", [0.0, 1.1])
    def test_matches_general_synthesis_at_one_channel(self, phi):
        from holosynth import SynthesisParams

        for gamma in np.arange(0.0, 2 * np.pi, np.pi / 4):
            c = berry_controller(gamma, phi, 1)
            gate = np.array([[np.exp(1j * gamma)]], dtype=complex)
            result = synthesize(gate, SynthesisParams(phases=(phi,), windings=(1,)))
            np.testing.assert_allclose(
                c.to_controller().matrix, result.controller.matrix, atol=1e-12
            )
            general = holonomy_analytic(result.controller)[0, 0]
            assert abs(general - berry_holonomy(c)) < 1e-12

    def test_projected_curve_matches_bundle_projection(self):
        c = berry_controller(1.9, 0.6, 1)
        ctrl = c.to_controller()
        for t in np.linspace(0.0, 1.0, 9):
            r = bloch_curve(c, t)
            p_from_sphere = 0.5 * (np.eye(2) + sum(r[j] * SIGMA[j] for j in range(3)))
            v = curve_samples(ctrl, [t])[0]
            p_from_frame = v @ v.conj().T
            np.testing.assert_allclose(p_from_sphere, p_from_frame, atol=1e-10)
