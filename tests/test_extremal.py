import numpy as np
import pytest

from holosynth import extremal
from holosynth import (
    Controller,
    DimensionError,
    NonUnitaryInput,
    OpenLoop,
    SynthesisParams,
    catalog_get,
    cross_validate,
    curve_samples,
    evaluate_controller,
    gate_commutes,
    holonomy_analytic,
    length_analytic,
    loop_closure_defect,
    loop_length_numeric,
    sample_loop,
    standard_base_frame,
    synthesize,
    transform_controller,
)
from holosynth.linalg import unitarity_defect
from helpers import curve_samples_reference, expm_eigen, random_haar

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _random_controller(rng, k, phases=True):
    gate = random_haar(rng, k)
    phi = tuple(rng.uniform(0.0, 2 * np.pi, k)) if phases else (0.0,) * k
    params = SynthesisParams(phases=phi, windings=(1,) * k)
    return synthesize(gate, params).controller


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


class TestControllerType:
    def test_assembled_generator_structure(self):
        rng = np.random.default_rng(0)
        ctrl = _random_controller(rng, 3)
        x = ctrl.matrix
        k = ctrl.k
        assert np.linalg.norm(x + x.conj().T) < 1e-12
        np.testing.assert_array_equal(x[k:, k:], np.zeros((k, k)))
        v0 = ctrl.base_frame()
        np.testing.assert_array_equal(v0.conj().T @ x @ v0, ctrl.omega)

    def test_blocks_are_immutable(self):
        ctrl = _random_controller(np.random.default_rng(1), 2)
        with pytest.raises(ValueError):
            ctrl.omega[0, 0] = 0.0

    def test_rejects_mismatched_blocks(self):
        with pytest.raises(DimensionError):
            Controller(
                omega=np.zeros((2, 2), dtype=complex),
                coupling=np.zeros((3, 2), dtype=complex),
            )


class TestArraysCannotBeMadeWriteableAgain:
    """Every array a record holds is a read-only view of a read-only copy,
    whose writeable flag numpy refuses to set again."""

    @staticmethod
    def _held():
        gate = np.array(CNOT)
        gate.setflags(write=False)  # a read-only array of the caller's is copied too
        result = synthesize(gate)
        ctrl = Controller(omega=np.array(result.controller.omega),
                          coupling=np.array(result.controller.coupling))
        oracle = cross_validate(ctrl, gate, (100, 1000))
        return gate, {
            "Controller.omega": ctrl.omega,
            "Controller.coupling": ctrl.coupling,
            "GateCatalogEntry.matrix": catalog_get("cnot").matrix,
            "SynthesisResult.gate": result.gate,
            "HolonomyReport.target": evaluate_controller(ctrl, gate).target,
            "OracleReport.target": oracle.target,
        }

    def test_setting_the_flag_raises(self):
        gate, held = self._held()
        for name, array in held.items():
            with pytest.raises(ValueError):
                array.setflags(write=True)
            assert not np.shares_memory(array, gate), name

    def test_the_frozen_form_is_kept_and_anything_else_copied(self):
        frozen = extremal._frozen(CNOT)
        assert extremal._frozen(frozen) is frozen
        owner = np.array(CNOT)
        owner.setflags(write=False)
        assert not np.shares_memory(extremal._frozen(owner), owner)
        # a view taken while its stack was writeable stays writeable
        writeable = np.array(CNOT)
        view = writeable[:]
        writeable.setflags(write=False)
        assert not np.shares_memory(extremal._frozen(view), writeable)


class TestCurvePoint:
    def test_starts_at_base_frame(self):
        ctrl = _random_controller(np.random.default_rng(2), 2)
        np.testing.assert_allclose(
            curve_samples(ctrl, [0.0])[0], standard_base_frame(4, 2), atol=1e-14
        )

    def test_zero_generator_stays_put(self):
        ctrl = Controller(
            omega=np.zeros((2, 2), dtype=complex),
            coupling=np.zeros((2, 2), dtype=complex),
        )
        np.testing.assert_allclose(
            curve_samples(ctrl, [0.7])[0], standard_base_frame(4, 2), atol=1e-14
        )

    def test_endpoint_realizes_gate(self):
        ctrl = synthesize(HADAMARD).controller
        v1 = curve_samples(ctrl, [1.0])[0]
        np.testing.assert_allclose(
            standard_base_frame(4, 2).conj().T @ v1, HADAMARD, atol=1e-12
        )

    def test_frames_stay_orthonormal(self):
        rng = np.random.default_rng(3)
        ctrl = _random_controller(rng, 3)
        for t in rng.uniform(0.0, 1.0, 10):
            assert unitarity_defect(curve_samples(ctrl, [t])[0]) < 1e-12

    def test_batched_matches_pointwise(self):
        ctrl = _random_controller(np.random.default_rng(4), 2)
        times = np.linspace(0.0, 1.0, 7)
        batch = curve_samples(ctrl, times)
        for i, t in enumerate(times):
            np.testing.assert_allclose(batch[i], curve_samples(ctrl, [t])[0], atol=1e-13)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_a_per_sample_reference_at_every_length(self, k):
        # exp(tX) V0 exp(-t Omega) one time at a time, from eigendecompositions
        # made here, against the batched sample-axis-innermost evaluation
        ctrl = synthesize(random_haar(np.random.default_rng(50 + k), k)).controller
        w_x, q_x = np.linalg.eigh(-1j * ctrl.matrix)
        w_o, q_o = np.linalg.eigh(-1j * ctrl.omega)
        v0 = ctrl.base_frame()
        rng = np.random.default_rng(k)
        for length in (1, 2, 3, 511, 512, 513):
            times = rng.uniform(0.0, 1.0, length)
            frames = curve_samples(ctrl, times)
            assert frames.shape == (length, ctrl.n, k)
            assert frames.flags.c_contiguous
            reference = np.array([
                expm_eigen(w_x, q_x, t) @ v0 @ expm_eigen(w_o, q_o, -t) for t in times
            ])
            assert np.abs(frames - reference).max() <= 1e-14, length

    @pytest.mark.parametrize("k", [*range(1, 9), 16])
    def test_bit_equal_to_the_broadcast_product_reference(self, k):
        # the C-ordered stack changes memory layout only: every frame keeps
        # its floating-point operations, the lone k = 1 sample included
        ctrl = synthesize(random_haar(np.random.default_rng(70 + k), k)).controller
        rng = np.random.default_rng(k)
        for length in (1, 2, 3, 511, 512, 513):
            times = rng.uniform(0.0, 1.0, length)
            frames = curve_samples(ctrl, times)
            assert frames.flags.c_contiguous
            assert frames.tobytes() == curve_samples_reference(ctrl, times).tobytes(), length

    @pytest.mark.parametrize("times, message", [
        (0.5, r"^times must be a 1-D sequence, got shape \(\)$"),
        ([[0.1, 0.2]], r"^times must be a 1-D sequence, got shape \(1, 2\)$"),
        ([0.0, np.inf], "^times must be finite$"),
        ([np.nan], "^times must be finite$"),
        (["t"], "^times must be a 1-D sequence of numbers: "),
    ], ids=["scalar", "2-D", "infinite", "nan", "text"])
    def test_malformed_times_are_refused_with_a_typed_error(self, times, message):
        # warnings are errors here, so a NaN frame's RuntimeWarning fails too
        ctrl = _random_controller(np.random.default_rng(5), 2)
        with pytest.raises(DimensionError, match=message):
            curve_samples(ctrl, times)


class TestHolonomy:
    def test_stationary_full_turn_gives_identity(self):
        ctrl = Controller(
            omega=np.array([[2j * np.pi]], dtype=complex),
            coupling=np.array([[0.0]], dtype=complex),
        )
        gamma = holonomy_analytic(ctrl)
        np.testing.assert_allclose(gamma, [[1.0]], atol=1e-12)

    @pytest.mark.parametrize("gamma_angle", [np.pi / 3, np.pi / 2, np.pi, 5.1])
    def test_single_channel_phase(self, gamma_angle):
        gate = np.array([[np.exp(1j * gamma_angle)]], dtype=complex)
        ctrl = synthesize(gate).controller
        got = holonomy_analytic(ctrl)[0, 0]
        assert abs(got - np.exp(1j * gamma_angle)) < 1e-12

    def test_hadamard(self):
        ctrl = synthesize(HADAMARD).controller
        assert np.linalg.norm(holonomy_analytic(ctrl) - HADAMARD) < 1e-10

    def test_open_loop_raises(self):
        good = synthesize(np.array([[np.exp(1j * np.pi)]], dtype=complex)).controller
        bad = Controller(omega=good.omega, coupling=0.9 * good.coupling)
        assert loop_closure_defect(bad) > 0.1
        with pytest.raises(OpenLoop):
            holonomy_analytic(bad)


class TestEndFrameAgainstTheExponentials:
    """Gamma and the closure defect read off V(1) = curve_samples(ctrl, [1.0])
    against the closed forms built here from exp(X) and exp(-Omega)."""

    def _exponentials(self, ctrl):
        g = expm_eigen(*np.linalg.eigh(-1j * ctrl.matrix))
        unwind = expm_eigen(*np.linalg.eigh(-1j * ctrl.omega), -1.0)
        return g, unwind

    @pytest.mark.parametrize("k", range(1, 17))
    def test_holonomy_is_v0h_exp_x_v0_exp_minus_omega(self, k):
        ctrl = _random_controller(np.random.default_rng(90 + k), k)
        g, unwind = self._exponentials(ctrl)
        v0 = ctrl.base_frame()
        want = v0.conj().T @ g @ v0 @ unwind
        assert np.abs(holonomy_analytic(ctrl) - want).max() <= 1e-13

    def _projector_defect(self, ctrl):
        g, _ = self._exponentials(ctrl)
        v0 = ctrl.base_frame()
        p0 = v0 @ v0.conj().T
        return float(np.linalg.norm(g @ p0 @ g.conj().T - p0))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 16])
    def test_closure_of_a_closed_loop(self, k):
        ctrl = _random_controller(np.random.default_rng(110 + k), k)
        assert abs(loop_closure_defect(ctrl) - self._projector_defect(ctrl)) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("eps", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
    def test_closure_of_an_open_loop(self, k, eps):
        base = _random_controller(np.random.default_rng(130 + k), k)
        ctrl = Controller(omega=base.omega, coupling=base.coupling * (1 + eps))
        want = self._projector_defect(ctrl)
        assert abs(loop_closure_defect(ctrl) - want) <= 1e-9 * want

    def test_a_sampler_without_the_fiber_factor_is_caught(self, monkeypatch):
        # curve_samples with exp(-t Omega) dropped: V(t) = exp(tX) V0 spans
        # the same subspaces, so the closure and the oracle's projector chain
        # do not change, but Gamma = V0^H V(1) is off by exp(-Omega)
        gate = catalog_get("random-4").matrix
        ctrl = synthesize(gate).controller
        unit_phases = extremal._unit_phases

        def without_fiber(theta, out):
            if len(theta) != ctrl.k:
                return unit_phases(theta, out)
            out[...] = 1.0
            return out

        monkeypatch.setattr(extremal, "_unit_phases", without_fiber)
        report = evaluate_controller(ctrl, gate)
        assert report.loop_defect < 1e-12
        assert report.holonomy_error > 1e-3


class TestClosureDefect:
    def test_block_diagonal_commutes(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        omega = 0.5 * (z - z.conj().T)
        ctrl = Controller(omega=omega, coupling=np.zeros((3, 3), dtype=complex))
        assert loop_closure_defect(ctrl) < 1e-13

    def test_closed_single_channel(self):
        ctrl = synthesize(np.array([[1j]], dtype=complex)).controller
        assert loop_closure_defect(ctrl) < 1e-12

    def test_detuned_channel_is_open(self):
        good = synthesize(np.array([[np.exp(1j * np.pi)]], dtype=complex)).controller
        bad = Controller(omega=good.omega, coupling=0.9 * good.coupling)
        assert loop_closure_defect(bad) > 0.1


class TestLengthAnalytic:
    def test_zero_coupling(self):
        ctrl = Controller(
            omega=np.array([[1j]], dtype=complex),
            coupling=np.array([[0.0]], dtype=complex),
        )
        assert length_analytic(ctrl) == 0.0

    def test_quarter_phase_channel(self):
        gate = np.array([[np.exp(1j * np.pi / 2)]], dtype=complex)
        ctrl = synthesize(gate).controller
        assert length_analytic(ctrl) == pytest.approx(0.75 * np.pi**2, abs=1e-12)

    def test_hadamard_length(self):
        ctrl = synthesize(HADAMARD).controller
        assert length_analytic(ctrl) == pytest.approx(np.pi**2, abs=1e-12)


class TestTransformController:
    def test_identity_transform(self):
        ctrl = _random_controller(np.random.default_rng(6), 2)
        same = transform_controller(ctrl, np.eye(2), np.eye(2))
        np.testing.assert_allclose(same.matrix, ctrl.matrix, atol=1e-14)

    def test_phase_freedom_single_channel(self):
        ctrl = synthesize(np.array([[1j]], dtype=complex)).controller
        h2 = np.array([[np.exp(0.37j)]], dtype=complex)
        moved = transform_controller(ctrl, np.eye(1), h2)
        g0 = holonomy_analytic(ctrl)
        g1 = holonomy_analytic(moved)
        assert np.linalg.norm(g0 - g1) < 1e-12
        assert abs(moved.coupling[0, 0] - ctrl.coupling[0, 0] * np.exp(-0.37j)) < 1e-14

    def test_commuting_conjugation_preserves_holonomy(self):
        rng = np.random.default_rng(7)
        ctrl = synthesize(HADAMARD).controller
        assert gate_commutes(HADAMARD, HADAMARD) < 1e-14
        moved = transform_controller(ctrl, HADAMARD, random_haar(rng, 2))
        assert np.linalg.norm(holonomy_analytic(moved) - HADAMARD) < 1e-10

    def test_length_preserved_exactly(self):
        rng = np.random.default_rng(8)
        ctrl = _random_controller(rng, 3)
        moved = transform_controller(ctrl, random_haar(rng, 3), random_haar(rng, 3))
        assert abs(length_analytic(moved) - length_analytic(ctrl)) < 1e-12

    def test_rejects_non_unitary(self):
        ctrl = _random_controller(np.random.default_rng(9), 2)
        with pytest.raises(NonUnitaryInput):
            transform_controller(ctrl, 1.1 * np.eye(2), np.eye(2))

    def test_tolerance_reaches_the_result(self):
        # omega's Hermitian part has norm 1.4e-9: within 1e-8, beyond the default 1e-10
        omega = np.array([[1j, 0.5e-9], [0.5e-9, 2j]])
        ctrl = Controller(omega=omega, coupling=np.eye(2), tol=1e-8)
        moved = transform_controller(ctrl, np.eye(2), np.eye(2), tol=1e-8)
        assert moved.tol == 1e-8
        assert np.array_equal(moved.matrix, ctrl.matrix)


class TestRejections:
    @pytest.mark.parametrize("h1, h2, message", [
        (np.eye(3), np.eye(2), r"h1 must be 2 x 2, got \(3, 3\)"),
        (np.eye(2), np.eye(3), r"h2 must be 2 x 2, got \(3, 3\)"),
    ], ids=["h1", "h2"])
    def test_transform_controller_refuses_a_block_of_the_wrong_size(self, h1, h2, message):
        ctrl = _random_controller(np.random.default_rng(6), 2)
        with pytest.raises(DimensionError, match=f"^{message}$"):
            transform_controller(ctrl, h1, h2)

    @pytest.mark.parametrize("coupling", [np.ones((1, 2)), np.ones((3, 2))], ids=["1", "3"])
    def test_controller_refuses_coupling_rows_other_than_omega_dim(self, coupling):
        with pytest.raises(DimensionError, match=rf"^coupling rows {len(coupling)} != omega dim 2$"):
            Controller(omega=np.diag([1j, 2j]), coupling=coupling)

    def test_controller_refuses_no_channels(self):
        with pytest.raises(DimensionError, match=r"^need 0 < k < n, got n=3, k=0$"):
            Controller(omega=np.zeros((0, 0)), coupling=np.zeros((0, 3)))

    def test_controller_refuses_no_coupling_column(self):
        with pytest.raises(DimensionError,
                           match=r"^coupling block needs at least one column \(n > k\)$"):
            Controller(omega=np.diag([1j, 2j]), coupling=np.zeros((2, 0)))


class TestGateCommutes:
    def test_identity_commutes(self):
        rng = np.random.default_rng(10)
        gate = random_haar(rng, 3)
        assert gate_commutes(np.eye(3), gate) < 1e-14

    def test_diagonals_commute(self):
        gate = np.diag([1.0, 1j, -1.0]).astype(complex)
        h1 = np.diag(np.exp(1j * np.array([0.3, 1.1, 2.9])))
        assert gate_commutes(h1, gate) < 1e-14

    def test_swap_does_not_commute_with_cnot(self):
        assert gate_commutes(SWAP, CNOT) > 1.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            gate_commutes(np.eye(2), np.eye(3))


class TestExtremalInvariants:
    def test_fiber_rotation_constant_along_curve(self):
        rng = np.random.default_rng(11)
        for k in (1, 2, 3):
            ctrl = _random_controller(rng, k)
            x = ctrl.matrix
            for t in rng.uniform(0.0, 1.0, 5):
                v = curve_samples(ctrl, [t])[0]
                np.testing.assert_allclose(
                    v.conj().T @ x @ v, ctrl.omega, atol=1e-10
                )

    def test_conserved_combination_equals_generator(self):
        rng = np.random.default_rng(12)
        h = 1e-3
        for k in (1, 2):
            ctrl = _random_controller(rng, k)
            x = ctrl.matrix
            for t in rng.uniform(0.1, 0.9, 3):
                vm, v, vp = curve_samples(ctrl, [t - h, t, t + h])
                v_dot = (vp - vm) / (2.0 * h)
                combo = (
                    v_dot @ v.conj().T
                    - v @ v_dot.conj().T
                    + v @ ctrl.omega @ v.conj().T
                )
                assert np.linalg.norm(combo - x) < 5e-5

    def test_conserved_combination_is_static(self):
        rng = np.random.default_rng(13)
        h = 1e-3

        def combo(ctrl, s):
            vm, v, vp = curve_samples(ctrl, [s - h, s, s + h])
            v_dot = (vp - vm) / (2.0 * h)
            return (
                v_dot @ v.conj().T
                - v @ v_dot.conj().T
                + v @ ctrl.omega @ v.conj().T
            )

        for k in (1, 2):
            ctrl = _random_controller(rng, k)
            for t in rng.uniform(0.1, 0.9, 3):
                rate = (combo(ctrl, t + h) - combo(ctrl, t - h)) / (2.0 * h)
                assert np.linalg.norm(rate) < 1e-4

    def test_horizontality_via_finite_differences(self):
        rng = np.random.default_rng(14)
        h = 1e-4
        for k in (1, 2, 3):
            ctrl = _random_controller(rng, k)
            t = rng.uniform(0.05, 0.95)
            vm, v, vp = curve_samples(ctrl, [t - h, t, t + h])
            v_dot = (vp - vm) / (2.0 * h)
            assert np.linalg.norm(v.conj().T @ v_dot) < 1e-6

    def test_numeric_length_matches_analytic(self):
        rng = np.random.default_rng(15)
        ctrl = _random_controller(rng, 2)
        loop = sample_loop(ctrl, 20000)
        assert abs(loop_length_numeric(loop) - length_analytic(ctrl)) < 1e-6


class TestWideAmbientSpace:
    def test_controller_with_extra_auxiliary_directions(self):
        # one channel, two auxiliary directions: the circle only uses the
        # first, the second just enlarges the ambient space
        gamma_angle = 2.2
        base = synthesize(
            np.array([[np.exp(1j * gamma_angle)]], dtype=complex)
        ).controller
        wide = Controller(
            omega=base.omega,
            coupling=np.array([[base.coupling[0, 0], 0.0]], dtype=complex),
        )
        assert wide.n == 3 and wide.k == 1
        assert loop_closure_defect(wide) < 1e-12
        gamma = holonomy_analytic(wide)
        assert abs(gamma[0, 0] - np.exp(1j * gamma_angle)) < 1e-12
        assert length_analytic(wide) == pytest.approx(
            length_analytic(base), abs=1e-12
        )
        assert unitarity_defect(curve_samples(wide, [0.62])[0]) < 1e-13


class TestEvaluateController:
    def test_report_fields(self):
        result = synthesize(HADAMARD)
        report = evaluate_controller(result.controller, HADAMARD)
        assert report.holonomy_error < 1e-12
        assert report.loop_defect < 1e-12
        assert report.length_analytic == pytest.approx(np.pi**2, abs=1e-12)
        np.testing.assert_allclose(report.target, HADAMARD)

    def test_one_end_frame_from_the_cached_spectra(self, monkeypatch):
        # a fresh controller, so that its eigendecompositions of X and Omega
        # are made here, once, and read by the one end-frame sample
        base = _random_controller(np.random.default_rng(16), 4)
        ctrl = Controller(omega=base.omega, coupling=base.coupling)
        sampled, eighs = [], []
        sample, eigh = extremal.curve_samples, np.linalg.eigh

        def sampling(c, times):
            sampled.append(np.asarray(times).tolist())
            return sample(c, times)

        def decomposing(a, *args, **kwargs):
            eighs.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(extremal, "curve_samples", sampling)
        monkeypatch.setattr(np.linalg, "eigh", decomposing)
        evaluate_controller(ctrl, np.eye(4))
        assert sampled == [[1.0]]
        assert eighs == [(8, 8), (4, 4)]
        evaluate_controller(ctrl, np.eye(4))
        assert sampled == [[1.0], [1.0]]
        assert eighs == [(8, 8), (4, 4)]

    def test_holonomy_error_is_read_off_gamma_and_the_target(self):
        assert list(extremal.HolonomyReport.__dataclass_fields__) == [
            "gamma_matrix", "target", "loop_defect", "length_analytic"]
        report = extremal.HolonomyReport(
            gamma_matrix=np.eye(2), target=np.diag([1.0, -1.0]), loop_defect=0.0,
            length_analytic=0.0)
        assert report.holonomy_error == 2.0

    def test_holonomy_error_is_computed_once_per_report(self, monkeypatch):
        report = evaluate_controller(synthesize(CNOT).controller, CNOT)
        norms = []
        norm = np.linalg.norm

        def counting(*args, **kwargs):
            norms.append(args[0].shape)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        first, second = report.holonomy_error, report.holonomy_error
        assert norms == [(4, 4)]
        assert first is second
        assert first == float(norm(report.gamma_matrix - report.target))

    def test_the_target_is_a_read_only_copy(self):
        gate = CNOT.copy()
        report = evaluate_controller(synthesize(CNOT).controller, gate)
        error = report.holonomy_error
        gate[:] = np.eye(4)
        assert not report.target.flags.writeable
        assert report.holonomy_error == error
        np.testing.assert_array_equal(report.target, CNOT)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_a_target_of_the_wrong_shape(self, dim):
        ctrl = synthesize(CNOT).controller
        with pytest.raises(DimensionError, match=rf"shape \({dim}, {dim}\)"):
            evaluate_controller(ctrl, np.eye(dim))

    def test_same_bits_as_the_separate_functions(self):
        ctrl = _random_controller(np.random.default_rng(17), 4)
        report = evaluate_controller(ctrl, np.eye(4))
        np.testing.assert_array_equal(report.gamma_matrix, holonomy_analytic(ctrl))
        assert report.loop_defect == loop_closure_defect(ctrl)


class TestHolonomyUnitarityFollowsClosure:
    """||Gamma^H Gamma - I||_F <= ||(I - P0) g V0||_F^2 = closure^2 / 2 for
    g = exp(X), so once the loop closes Gamma is unitary to roundoff."""

    @pytest.mark.parametrize(
        "gate", ["hadamard", "cnot", "dft2", "random-4", "random-8", "random-16"]
    )
    def test_defect_is_bounded_by_half_the_squared_closure(self, gate, monkeypatch):
        base = synthesize(catalog_get(gate).matrix).controller
        monkeypatch.setattr(extremal, "CLOSURE_TOL", 1.0)
        for eps in (1e-12, 1e-10, 1e-8, 1e-6):
            ctrl = Controller(omega=base.omega, coupling=base.coupling * (1 + eps))
            closure = loop_closure_defect(ctrl)
            defect = unitarity_defect(holonomy_analytic(ctrl))
            assert defect <= closure**2 / 2 + 1e-13
