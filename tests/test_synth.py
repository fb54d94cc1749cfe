import re

import numpy as np
import pytest

from holosynth import linalg
from holosynth import (
    NonUnitaryInput,
    ParamShapeMismatch,
    SynthesisParams,
    catalog_get,
    channel_length,
    evaluate_controller,
    holonomy_analytic,
    length_analytic,
    loop_closure_defect,
    small_circle_params,
    synthesize,
)
from helpers import random_haar

HADAMARD = catalog_get("hadamard").matrix
CNOT = catalog_get("cnot").matrix
DFT2 = catalog_get("dft2").matrix


def synth_tabulated(name, **kwargs):
    entry = catalog_get(name)
    return synthesize(
        entry.matrix,
        channel_order=entry.paper_order,
        channel_signs=entry.paper_signs,
        **kwargs,
    )


class TestSmallCircleParams:
    def test_trivial_channel(self):
        omega, tau = small_circle_params(0.0, 0.0, 1)
        assert omega == pytest.approx(2 * np.pi)
        assert tau == 0.0

    def test_half_turn_channel(self):
        omega, tau = small_circle_params(np.pi, 0.0, 1)
        assert omega == pytest.approx(0.0)
        assert tau == pytest.approx(np.pi)

    def test_quarter_turn_channel(self):
        omega, tau = small_circle_params(np.pi / 2, 0.0, 1)
        assert omega == pytest.approx(np.pi)
        assert tau == pytest.approx(np.pi * np.sqrt(3) / 2)

    def test_closure_radius_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gamma = rng.uniform(0.0, 2 * np.pi)
            phi = rng.uniform(0.0, 2 * np.pi)
            n = int(rng.integers(1, 4))
            omega, tau = small_circle_params(gamma, phi, n)
            radius_sq = abs(tau) ** 2 + (omega / 2.0) ** 2
            assert radius_sq == pytest.approx((n * np.pi) ** 2, rel=1e-12)

    def test_phase_multiplies_amplitude(self):
        _, tau0 = small_circle_params(1.0, 0.0, 1)
        _, tau1 = small_circle_params(1.0, 0.9, 1)
        assert tau1 == pytest.approx(tau0 * np.exp(0.9j))

    def test_rejects_zero_winding(self):
        with pytest.raises(ParamShapeMismatch):
            small_circle_params(1.0, 0.0, 0)


class TestChannelLength:
    def test_zero_phase_has_zero_length(self):
        assert channel_length(0.0, 1) == 0.0
        assert channel_length(0.0, 3) == 0.0

    def test_half_turn(self):
        assert channel_length(np.pi, 1) == pytest.approx(np.pi**2)

    def test_double_winding_is_longer(self):
        assert channel_length(np.pi, 2) == pytest.approx(3 * np.pi**2)

    def test_minimal_winding_is_one(self):
        for gamma in np.linspace(0.1, 2 * np.pi - 0.1, 9):
            lengths = [channel_length(gamma, n) for n in (1, 2, 3, 4)]
            assert all(a < b for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("call", [
        lambda: channel_length(7.0, 1),
        lambda: small_circle_params(7.0, 0.0, 1),
    ], ids=["channel_length", "small_circle_params"])
    def test_a_phase_beyond_the_circle_raises(self, call):
        # gamma > 2 n pi: (n pi)^2 - (n pi - gamma)^2 < 0, no circle of winding n closes
        with pytest.raises(ParamShapeMismatch, match="negative circle radicand -5.0"):
            call()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("call", [
        lambda x: small_circle_params(x, 0.0, 1),
        lambda x: small_circle_params(0.5, x, 1),
        lambda x: channel_length(x, 1),
    ], ids=["small_circle_params gamma", "small_circle_params phi", "channel_length"])
    def test_a_non_finite_angle_raises(self, call, value):
        # NaN passes the radicand comparison, so the channel checks finiteness first
        with pytest.raises(ParamShapeMismatch, match="non-finite circle channel"):
            call(value)


class TestWindingBound:
    """A winding is a whole number 1 <= n <= 2**53: above it the float64
    angles n pi of neighbouring windings coincide."""

    HUGE = [2**53 + 1, 10**20, 10**400, 1e300]

    @pytest.mark.parametrize("n", HUGE, ids=str)
    @pytest.mark.parametrize("call", [
        lambda n: small_circle_params(0.3, 0.0, n),
        lambda n: channel_length(0.3, n),
        lambda n: SynthesisParams(phases=(0.0, 0.0), windings=(1, n)),
    ], ids=["small_circle_params", "channel_length", "SynthesisParams"])
    def test_a_winding_above_2_pow_53_raises_naming_it(self, call, n):
        with pytest.raises(ParamShapeMismatch, match=rf"<= 2\*\*53, got {int(n)}$"):
            call(n)

    def test_2_pow_53_is_a_winding(self):
        assert SynthesisParams(phases=(0.0,), windings=(2**53,)).windings == (2**53,)
        assert channel_length(0.0, 2**53) == 0.0


class TestChannelBitIdentity:
    """`synthesize` builds each channel from the same floating-point
    operations as `small_circle_params` and `channel_length`."""

    GATES = ([catalog_get(name).matrix for name in ("hadamard", "pauli-x", "pauli-z", "cnot", "dft2")]
             + [random_haar(np.random.default_rng(40 + k), k) for k in range(1, 17)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_channels_match_the_public_circle_functions(self, n):
        for gate in self.GATES:
            k = len(gate)
            params = SynthesisParams(phases=(0.3,) * k, windings=(n,) * k)
            result = synthesize(gate, params)
            gammas = result.eigenphases
            assert result.length == sum(channel_length(g, n) for g in gammas)
            for j, gamma in enumerate(gammas):
                omega, tau = small_circle_params(gamma, 0.3, n)
                assert result.omega_diag[j, j] == 1j * omega
                assert result.w_diag[j, j] == 1j * tau


class TestSynthesizeExamples:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_identity_gate(self, k):
        result = synthesize(np.eye(k, dtype=complex))
        np.testing.assert_allclose(result.w_diag, np.zeros((k, k)), atol=1e-15)
        np.testing.assert_allclose(
            result.omega_diag, 2j * np.pi * np.eye(k), atol=1e-12
        )
        np.testing.assert_allclose(
            holonomy_analytic(result.controller), np.eye(k), atol=1e-12
        )
        assert result.length == pytest.approx(0.0, abs=1e-12)

    def test_hadamard_controller_blocks(self):
        result = synth_tabulated("hadamard")
        ipi = 1j * np.pi
        omega_block = (ipi / np.sqrt(2)) * np.array(
            [[np.sqrt(2) + 1, 1], [1, np.sqrt(2) - 1]]
        )
        coupling_block = (ipi / 2) * np.array(
            [[0.0, -np.sqrt(2 - np.sqrt(2))], [0.0, np.sqrt(2 + np.sqrt(2))]]
        )
        np.testing.assert_allclose(result.controller.omega, omega_block, atol=1e-12)
        np.testing.assert_allclose(
            result.controller.coupling, coupling_block, atol=1e-12
        )
        np.testing.assert_allclose(
            result.omega_diag, np.diag([2j * np.pi, 0.0]), atol=1e-12
        )
        np.testing.assert_allclose(
            result.w_diag, np.diag([0.0, 1j * np.pi]), atol=1e-12
        )

    def test_cnot_controller_blocks(self):
        result = synth_tabulated("cnot")
        ipi = 1j * np.pi
        omega_block = ipi * np.array(
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=complex
        )
        coupling_block = np.zeros((4, 4), dtype=complex)
        coupling_block[:, 3] = (ipi / np.sqrt(2)) * np.array([0, 0, -1, 1])
        np.testing.assert_allclose(result.controller.omega, omega_block, atol=1e-12)
        np.testing.assert_allclose(
            result.controller.coupling, coupling_block, atol=1e-12
        )
        np.testing.assert_allclose(result.eigenphases, [0, 0, 0, np.pi], atol=1e-12)

    def test_dft2_controller_blocks(self):
        result = synth_tabulated("dft2")
        ipi = 1j * np.pi
        np.testing.assert_allclose(
            result.eigenphases, [0.0, 0.0, np.pi, np.pi / 2], atol=1e-12
        )
        np.testing.assert_allclose(
            result.w_diag,
            np.diag([0.0, 0.0, ipi, ipi * np.sqrt(3) / 2]),
            atol=1e-12,
        )
        omega_block = (ipi / 2) * np.array(
            [[3, 1, 1, 1], [1, 2, -1, 0], [1, -1, 3, -1], [1, 0, -1, 2]],
            dtype=complex,
        )
        coupling_block = (ipi / 2) * np.array(
            [
                [0, 0, -1, 0],
                [0, 0, 1, -np.sqrt(1.5)],
                [0, 0, 1, 0],
                [0, 0, 1, np.sqrt(1.5)],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(result.controller.omega, omega_block, atol=1e-12)
        np.testing.assert_allclose(
            result.controller.coupling, coupling_block, atol=1e-12
        )

    def test_dft2_default_order_is_ascending(self):
        result = synthesize(DFT2)
        np.testing.assert_allclose(
            result.eigenphases, [0.0, 0.0, np.pi / 2, np.pi], atol=1e-12
        )

    @pytest.mark.parametrize("name", ["hadamard", "cnot", "dft2"])
    def test_reordered_diagonalizer_still_diagonalizes(self, name):
        result = synth_tabulated(name)
        recon = (
            result.diagonalizer.conj().T
            @ result.gate
            @ result.diagonalizer
        )
        np.testing.assert_allclose(
            recon, np.diag(np.exp(1j * result.eigenphases)), atol=1e-10
        )


class TestSynthesizeProperties:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_trip_random_gates(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(20):
            gate = random_haar(rng, k)
            ctrl = synthesize(gate).controller
            assert np.linalg.norm(holonomy_analytic(ctrl) - gate) < 1e-9
            assert loop_closure_defect(ctrl) < 1e-9

    def test_length_consistency(self):
        rng = np.random.default_rng(200)
        for k in (1, 2, 3):
            result = synthesize(random_haar(rng, k))
            assert result.length == pytest.approx(
                length_analytic(result.controller), abs=1e-10
            )

    def test_phase_freedom_leaves_holonomy_and_length(self):
        rng = np.random.default_rng(300)
        gate = random_haar(rng, 3)
        base = synthesize(gate)
        for _ in range(5):
            params = SynthesisParams(
                phases=tuple(rng.uniform(0, 2 * np.pi, 3)), windings=(1, 1, 1)
            )
            moved = synthesize(gate, params)
            assert (
                np.linalg.norm(
                    holonomy_analytic(moved.controller)
                    - holonomy_analytic(base.controller)
                )
                < 1e-10
            )
            assert moved.length == pytest.approx(base.length, abs=1e-10)

    def test_winding_increases_length(self):
        gate = np.diag([np.exp(0.9j), np.exp(2.2j)]).astype(complex)
        short = synthesize(gate)
        for j in range(2):
            windings = [1, 1]
            windings[j] = 2
            longer = synthesize(
                gate, SynthesisParams(phases=(0.0, 0.0), windings=tuple(windings))
            )
            assert longer.length > short.length + 1.0

    def test_higher_windings_still_hit_gate(self):
        rng = np.random.default_rng(400)
        gate = random_haar(rng, 2)
        params = SynthesisParams(phases=(0.0, 0.0), windings=(2, 3))
        ctrl = synthesize(gate, params).controller
        assert np.linalg.norm(holonomy_analytic(ctrl) - gate) < 1e-9
        assert loop_closure_defect(ctrl) < 1e-9

    @pytest.mark.parametrize(
        "gate",
        [
            np.eye(3, dtype=complex),
            CNOT,
            np.diag([1.0, 1.0, np.exp(0.77j)]).astype(complex),
        ],
        ids=["identity", "cnot", "partly-degenerate"],
    )
    def test_degenerate_spectra(self, gate):
        result = synthesize(gate)
        assert np.linalg.norm(holonomy_analytic(result.controller) - gate) < 1e-9

    def test_controller_dimension_doubles_channels(self):
        result = synthesize(random_haar(np.random.default_rng(1), 3))
        assert result.controller.n == 6
        assert result.controller.k == 3


class TestSynthesizeErrors:
    def test_rejects_non_unitary(self):
        with pytest.raises(NonUnitaryInput):
            synthesize(np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex))

    def test_rejects_mismatched_params(self):
        with pytest.raises(ParamShapeMismatch):
            synthesize(HADAMARD, SynthesisParams(phases=(0.0,), windings=(1,)))

    def test_a_channel_count_mismatch_names_the_gate_and_both_counts(self):
        # phases and windings of different lengths are checked against the gate
        with pytest.raises(ParamShapeMismatch,
                           match=r"^gate has 2 channels but got 1 phases and 2 windings$"):
            synthesize(HADAMARD, SynthesisParams(phases=(0.0,), windings=(1, 1)))

    def test_rejects_bad_windings(self):
        with pytest.raises(ParamShapeMismatch):
            SynthesisParams(phases=(0.0,), windings=(0,))

    @pytest.mark.parametrize("phase", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_phase(self, phase):
        with pytest.raises(ParamShapeMismatch, match="phases"):
            SynthesisParams(phases=(phase, 0.0), windings=(1, 1))

    def test_rejects_bad_channel_order(self):
        with pytest.raises(ParamShapeMismatch):
            synthesize(HADAMARD, channel_order=(0, 0))

    def test_rejects_bad_channel_signs(self):
        with pytest.raises(ParamShapeMismatch):
            synthesize(HADAMARD, channel_signs=(2, 1))

    def test_a_non_unitary_gate_is_named_before_any_param_mismatch(self):
        bad = np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex)
        with pytest.raises(NonUnitaryInput, match=r"^target gate fails unitarity: \|\|U\^H U - I"):
            synthesize(bad, SynthesisParams(phases=(0.0,), windings=(1,)))


class TestParamValues:
    """Public parameters are whole or real numbers; a value that int() or
    float() would truncate or reinterpret raises, naming the value."""

    @pytest.mark.parametrize("kwargs, shown", [
        (dict(phases=(0.0,), windings=(1.9,)), "1.9"),
        (dict(phases=(0.0,), windings=(True,)), "True"),
        (dict(phases=("0.5",), windings=(1,)), "'0.5'"),
        (dict(phases=(None,), windings=(1,)), "None"),
    ])
    def test_params_reject_a_value_they_would_truncate(self, kwargs, shown):
        with pytest.raises(ParamShapeMismatch, match=re.escape(shown)):
            SynthesisParams(**kwargs)

    def test_params_take_numpy_integers_integral_floats_and_numpy_floats(self):
        params = SynthesisParams(phases=(np.float32(0.5), np.float64(0.25), 1),
                                 windings=(np.int64(2), 2.0, np.int32(1)))
        assert params.windings == (2, 2, 1)
        assert params.phases == (0.5, 0.25, 1.0)
        assert {type(v) for v in params.windings + params.phases} == {int, float}

    def test_channel_order_rejects_a_fraction(self):
        with pytest.raises(ParamShapeMismatch, match="1.7"):
            synthesize(HADAMARD, channel_order=(0, 1.7))

    def test_channel_order_takes_numpy_integers_and_integral_floats(self):
        want = synthesize(HADAMARD, channel_order=(1, 0))
        got = synthesize(HADAMARD, channel_order=(np.int64(1), 0.0))
        assert np.array_equal(got.controller.matrix, want.controller.matrix)

    @pytest.mark.parametrize("call", [
        lambda: small_circle_params(0.3, 0.0, 1.5),
        lambda: channel_length(0.3, 1.5),
        lambda: small_circle_params(0.3, 0.0, True),
    ])
    def test_circle_functions_reject_a_fractional_winding(self, call):
        with pytest.raises(ParamShapeMismatch, match="winding"):
            call()

    def test_circle_functions_take_integral_floats(self):
        assert small_circle_params(0.3, 0.0, 2.0) == small_circle_params(0.3, 0.0, 2)
        assert channel_length(0.3, np.int64(2)) == channel_length(0.3, 2)


@pytest.fixture
def unitarity_checks(monkeypatch):
    """Counts calls of `linalg.unitarity_defect`, the one unitarity test."""
    calls = []
    original = linalg.unitarity_defect

    def counting(u):
        calls.append(np.shape(u))
        return original(u)

    monkeypatch.setattr(linalg, "unitarity_defect", counting)
    return calls


class TestOneUnitarityCheckPerCall:
    def test_synthesize_checks_the_gate_once(self, unitarity_checks):
        synth_tabulated("cnot")
        synthesize(random_haar(np.random.default_rng(3), 4))
        assert unitarity_checks == [(4, 4), (4, 4)]

    def test_evaluate_controller_checks_the_target_once(self, unitarity_checks):
        gate = random_haar(np.random.default_rng(3), 4)
        result = synthesize(gate)
        unitarity_checks.clear()
        evaluate_controller(result.controller, gate)
        assert unitarity_checks == [(4, 4)]

    def test_eig_unitary_checks_its_input_once(self, unitarity_checks):
        linalg.eig_unitary(HADAMARD)
        assert unitarity_checks == [(2, 2)]

    def test_eig_unitary_names_its_input(self):
        with pytest.raises(NonUnitaryInput, match=r"^eig_unitary input fails unitarity: "):
            linalg.eig_unitary(np.array([[1.0, 0.2], [0.0, 1.0]], dtype=complex))
