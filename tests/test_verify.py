import sys
import threading
from contextlib import closing

import numpy as np
import pytest

from holosynth import verify
from holosynth import (
    Controller,
    DimensionError,
    InvalidFrame,
    NonUnitaryInput,
    OpenLoop,
    SampledLoop,
    SingularInput,
    TooFewSamples,
    catalog_get,
    catalog_names,
    cross_validate,
    curve_samples,
    evaluate_controller,
    gauge_invariance_check,
    holonomy_analytic,
    length_analytic,
    loop_closure_defect,
    loop_length_numeric,
    numeric_holonomy,
    sample_loop,
    standard_base_frame,
    synthesize,
)
from helpers import cross_validate_serial, curve_samples_reference, random_haar, traced_peak

HADAMARD = catalog_get("hadamard").matrix
HALF_TURN = np.array([[np.exp(1j * np.pi)]], dtype=complex)


def _warped_loop(ctrl, steps, strength=0.15):
    """Same geometric loop, resampled along a smooth monotone time warp."""
    times = np.linspace(0.0, 1.0, steps + 1)
    warped = times - strength * np.sin(2 * np.pi * times) / (2 * np.pi)
    return SampledLoop(curve_samples(ctrl, warped))


def _projectors(frames):
    """The stack P = V V^H of a frame stack, formed here as the reference."""
    return np.einsum("mik,mjk->mij", frames, frames.conj())


class TestSampleLoop:
    def test_zero_coupling_gives_constant_loop(self):
        ctrl = Controller(
            omega=np.array([[2j * np.pi]], dtype=complex),
            coupling=np.array([[0.0]], dtype=complex),
        )
        loop = sample_loop(ctrl, 10)
        p0 = np.diag([1.0, 0.0]).astype(complex)
        for p in _projectors(loop.frames):
            np.testing.assert_allclose(p, p0, atol=1e-12)

    def test_hadamard_endpoints(self):
        ctrl = synthesize(HADAMARD).controller
        loop = sample_loop(ctrl, 4)
        assert loop.frames.shape == (5, 4, 2)
        p = _projectors(loop.frames)
        p0 = np.zeros((4, 4), dtype=complex)
        p0[:2, :2] = np.eye(2)
        np.testing.assert_allclose(p[0], p0, atol=1e-12)
        np.testing.assert_allclose(p[-1], p0, atol=1e-10)

    def test_half_turn_midpoint_reaches_antipode(self):
        ctrl = synthesize(HALF_TURN).controller
        loop = sample_loop(ctrl, 2)
        np.testing.assert_allclose(
            _projectors(loop.frames)[1], np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_open_controller_rejected(self):
        good = synthesize(HALF_TURN).controller
        bad = Controller(omega=good.omega, coupling=0.9 * good.coupling)
        with pytest.raises(OpenLoop):
            sample_loop(bad, 100)

    def test_too_few_steps(self):
        ctrl = synthesize(HALF_TURN).controller
        with pytest.raises(TooFewSamples):
            sample_loop(ctrl, 1)


class TestLoopValidationTolerance:
    def _rough_frames(self):
        # scaling by 1 + 1e-9 leaves a Gram defect ||V^H V - I||_F near 3e-9
        loop = sample_loop(synthesize(HADAMARD).controller, 100)
        return loop.frames * (1.0 + 1e-9)

    def test_default_tolerance_rejects_rough_projectors(self):
        with pytest.raises(InvalidFrame):
            SampledLoop(self._rough_frames())

    def test_validation_override_admits_rough_projectors(self):
        tol = 1e-8
        loop = SampledLoop(self._rough_frames(), tol)
        assert loop.tol is tol

    def test_sample_loop_passes_its_tolerance_on(self):
        tol = 1e-8
        loop = sample_loop(synthesize(HADAMARD).controller, 10, tol)
        assert loop.tol is tol


class TestSpectralReuse:
    @pytest.fixture
    def eigh_calls(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return calls

    # The counter is requested after `synthesize`, whose own gate
    # decomposition is one `eigh` call, so each test counts only the
    # function it names.
    def test_synthesize_decomposes_the_gate_once(self, eigh_calls):
        synthesize(random_haar(np.random.default_rng(11), 4))
        assert eigh_calls == [(4, 4)]

    def test_evaluate_controller_decomposes_x_and_omega_once(self, request):
        result = synthesize(random_haar(np.random.default_rng(12), 4))
        eigh_calls = request.getfixturevalue("eigh_calls")
        evaluate_controller(result.controller, result.gate)
        assert len(eigh_calls) <= 2

    def test_cross_validate_decomposes_x_and_omega_once(self, request):
        result = synthesize(random_haar(np.random.default_rng(13), 4))
        eigh_calls = request.getfixturevalue("eigh_calls")
        cross_validate(result.controller, result.gate, (100, 200, 400))
        assert len(eigh_calls) <= 2


class TestNumericHolonomy:
    def test_constant_loop_is_identity(self):
        ctrl = Controller(
            omega=np.array([[2j * np.pi]], dtype=complex),
            coupling=np.array([[0.0]], dtype=complex),
        )
        gamma = numeric_holonomy(sample_loop(ctrl, 50))
        np.testing.assert_allclose(gamma, [[1.0]], atol=1e-12)

    def test_half_turn_phase(self):
        ctrl = synthesize(HALF_TURN).controller
        gamma = numeric_holonomy(sample_loop(ctrl, 1000))
        assert abs(gamma[0, 0] + 1.0) < 1e-3

    def test_hadamard(self):
        ctrl = synthesize(HADAMARD).controller
        gamma = numeric_holonomy(sample_loop(ctrl, 1000))
        assert np.linalg.norm(gamma - HADAMARD) < 1e-3

    def test_random_gate_agrees_with_analytic(self):
        rng = np.random.default_rng(7)
        gate = random_haar(rng, 2)
        ctrl = synthesize(gate).controller
        gamma = numeric_holonomy(sample_loop(ctrl, 2000))
        assert np.linalg.norm(gamma - holonomy_analytic(ctrl)) < 1e-4

    def test_output_is_unitary(self):
        rng = np.random.default_rng(8)
        gate = random_haar(rng, 3)
        ctrl = synthesize(gate).controller
        gamma = numeric_holonomy(sample_loop(ctrl, 500))
        assert np.linalg.norm(gamma.conj().T @ gamma - np.eye(3)) < 1e-12

    def test_too_coarse_sampling_is_singular(self):
        # two steps put a single orthogonal projector in the chain
        ctrl = synthesize(HALF_TURN).controller
        with pytest.raises(SingularInput):
            numeric_holonomy(sample_loop(ctrl, 2))


class TestCrossValidate:
    def test_identity_gate_sits_at_roundoff(self):
        gate = np.eye(2, dtype=complex)
        report = cross_validate(synthesize(gate).controller, gate, (100, 1000))
        assert all(d < 1e-12 for d in report.deviations)
        assert np.isnan(report.convergence_order_estimate)
        assert not report.anomalous
        assert report.target_error < 1e-12

    def test_generic_gate_converges_quadratically(self):
        rng = np.random.default_rng(9)
        gate = random_haar(rng, 2)
        report = cross_validate(synthesize(gate).controller, gate, (200, 2000))
        assert report.deviations[0] > report.deviations[1]
        assert report.deviation < 1e-4
        # polar unitarization cancels the first-order error term, so the
        # chain converges at second order, inside the expected window
        assert report.convergence_order_estimate == pytest.approx(-2.0, abs=0.2)
        assert not report.anomalous
        assert report.steps == 2000

    def test_chain_without_polar_step_is_anomalous(self, monkeypatch):
        # the bare compressed chain keeps its O(1/M) contraction
        monkeypatch.setattr(verify, "polar_unitary", lambda m, tol=None: m)
        rng = np.random.default_rng(9)
        gate = random_haar(rng, 2)
        report = cross_validate(synthesize(gate).controller, gate, (200, 2000))
        assert report.convergence_order_estimate == pytest.approx(-1.0, abs=0.2)
        assert report.anomalous

    def test_schedule_recorded(self):
        gate = np.eye(1, dtype=complex)
        report = cross_validate(synthesize(gate).controller, gate, (10, 20, 40))
        assert report.schedule == (10, 20, 40)
        assert len(report.deviations) == 3


def _plain_chain(frames, v0):
    """Polar factor of V0^H V_{M-1} ... V_1^H V0, multiplied one complex
    overlap at a time in time order, without the library's fold."""
    chain, prev = np.eye(v0.shape[1], dtype=complex), v0
    for frame in frames[1:-1]:
        chain = (frame.conj().T @ prev) @ chain
        prev = frame
    u, _, vh = np.linalg.svd(v0.conj().T @ prev @ chain)
    return u @ vh


class TestRealFormFold:
    """The oracle folds its overlaps in the real 2k x 2k embedding; it must
    agree with the complex chain written out above."""

    @staticmethod
    def _case(k):
        gate = random_haar(np.random.default_rng(40 + k), k)
        return synthesize(gate).controller, gate

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
    def test_matches_the_plain_complex_chain(self, k):
        ctrl, gate = self._case(k)
        loop = sample_loop(ctrl, 700)
        plain = _plain_chain(loop.frames, ctrl.base_frame())
        assert np.linalg.norm(numeric_holonomy(loop) - plain) <= 1e-13
        streamed = cross_validate(ctrl, gate, (700,)).gamma_numeric
        assert np.linalg.norm(streamed - plain) <= 1e-13

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_matches_the_plain_chain_on_a_regauged_loop(self, k):
        ctrl, _ = self._case(k)
        loop = sample_loop(ctrl, 300)
        rng = np.random.default_rng(60 + k)
        gauges = np.array([random_haar(rng, k) for _ in loop.frames])
        regauged = SampledLoop(loop.frames @ gauges)
        plain = _plain_chain(regauged.frames, ctrl.base_frame())
        assert np.linalg.norm(numeric_holonomy(regauged) - plain) <= 1e-13
        assert np.linalg.norm(numeric_holonomy(regauged) - numeric_holonomy(loop)) <= 1e-12


class TestBaseFrameStart:
    def test_a_loop_rotated_off_the_base_projector_is_rejected(self):
        # Q V_i is closed and orthonormal, but a chain from V0 would read a
        # gate 0.7-1.9 away from the true one without complaint
        gate = catalog_get("random-2", seed=3).matrix
        loop = sample_loop(synthesize(gate).controller, 2000)
        assert np.linalg.norm(numeric_holonomy(loop) - gate) < 1e-5
        rotated = SampledLoop(random_haar(np.random.default_rng(1), 4) @ loop.frames)
        with pytest.raises(InvalidFrame, match=r"\|\|V_0 V_0\^H - P0\|\|_F = \d"):
            numeric_holonomy(rotated)


class TestGaugeInvariance:
    def test_constant_loop(self):
        ctrl = Controller(
            omega=np.array([[2j * np.pi]], dtype=complex),
            coupling=np.array([[0.0]], dtype=complex),
        )
        assert gauge_invariance_check(sample_loop(ctrl, 40), 3, seed=0) < 1e-12

    def test_hadamard_loop(self):
        ctrl = synthesize(HADAMARD).controller
        loop = sample_loop(ctrl, 200)
        assert gauge_invariance_check(loop, 5, seed=1) < 1e-12

    def test_half_turn_loop(self):
        ctrl = synthesize(HALF_TURN).controller
        loop = sample_loop(ctrl, 200)
        assert gauge_invariance_check(loop, 5, seed=2) < 1e-12

    @pytest.mark.parametrize(
        "gate",
        [catalog_get("dft2").matrix, random_haar(np.random.default_rng(5), 4)],
        ids=["dft2", "haar-4"],
    )
    def test_fine_k4_loops_gain_nothing_from_the_sampled_gauge(self, gate):
        # every one of the 10^4 frames gets its own Haar gauge
        loop = sample_loop(synthesize(gate).controller, 10_000)
        assert gauge_invariance_check(loop, 1, seed=3) <= 1e-12


class TestOracleMemory:
    def test_peak_stays_within_four_frame_stacks(self):
        gate = random_haar(np.random.default_rng(5), 4)
        ctrl = synthesize(gate).controller
        steps = 10_000
        peak = traced_peak(cross_validate, ctrl, gate, (steps,))
        frame_stack = (steps + 1) * ctrl.n * ctrl.k * 16
        assert peak <= 4 * frame_stack, peak / frame_stack

    def test_peak_does_not_grow_with_steps(self):
        gate = random_haar(np.random.default_rng(5), 4)
        ctrl = synthesize(gate).controller
        coarse = traced_peak(cross_validate, ctrl, gate, (10_000,))
        fine = traced_peak(cross_validate, ctrl, gate, (100_000,))
        assert fine <= 1.2 * coarse, (fine, coarse)


class TestStreamedOracle:
    @staticmethod
    def _controller(k):
        return synthesize(random_haar(np.random.default_rng(30 + k), k)).controller

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_the_whole_loop_oracle_across_chunk_edges(self, k):
        ctrl = self._controller(k)
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        for steps in (2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            whole = numeric_holonomy(sample_loop(ctrl, steps))
            streamed = cross_validate(ctrl, np.eye(k), (steps,)).gamma_numeric
            assert np.linalg.norm(streamed - whole) <= 1e-13, steps

    @pytest.mark.parametrize("k", [1, 4])
    def test_sample_loop_frames_are_the_grid_chunks_frames(self, k):
        # one grid definition: the whole loop and the streamed chunks agree bit
        # for bit, also where a chunk holds a lone frame (steps = chunk)
        ctrl = self._controller(k)
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        for steps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            chunks = list(verify._grid_chunks(ctrl, steps, 0, steps + 1, verify.VALIDATION_TOL))
            streamed = np.concatenate([frames for _, frames, _ in chunks])
            times = np.concatenate([t for t, _, _ in chunks])
            assert times[-1] == 1.0 and len(times) == steps + 1
            np.testing.assert_array_equal(sample_loop(ctrl, steps).frames, streamed)

    def test_frame_tolerance_reaches_both_paths(self):
        ctrl = self._controller(4)
        tol = 0.0
        with pytest.raises(InvalidFrame):
            sample_loop(ctrl, 1000, tol)
        with pytest.raises(InvalidFrame):
            cross_validate(ctrl, np.eye(4), (1000,), tol)

    def test_a_rough_frame_inside_a_later_chunk_is_rejected(self, monkeypatch):
        self._reject_a_later_frame(monkeypatch, 1.0 + 1e-9)

    def test_a_nan_frame_inside_a_later_chunk_is_rejected(self, monkeypatch):
        self._reject_a_later_frame(monkeypatch, np.nan)

    def _reject_a_later_frame(self, monkeypatch, factor):
        # 2000 steps put t = 0.5 in the second chunk of interior frames
        sample = verify.curve_samples

        def rough(ctrl, times):
            frames = sample(ctrl, times)
            frames[np.asarray(times) == 0.5] *= factor
            return frames

        monkeypatch.setattr(verify, "curve_samples", rough)
        ctrl = self._controller(4)
        threads = threading.active_count()
        with pytest.raises(InvalidFrame):
            sample_loop(ctrl, 2000)
        with pytest.raises(InvalidFrame):
            cross_validate(ctrl, np.eye(4), (2000,))
        assert threading.active_count() == threads

    def test_one_step_is_too_few(self):
        with pytest.raises(TooFewSamples):
            cross_validate(self._controller(2), np.eye(2), (1,))

    def test_each_check_is_decided_once_per_call(self, monkeypatch):
        calls = {"holonomy_analytic": 0, "loop_closure_defect": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(verify, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(verify, name, counting)
        sampled = []
        sample = verify.curve_samples

        def recording(ctrl, times):
            sampled.append(np.asarray(times).tolist())
            return sample(ctrl, times)

        monkeypatch.setattr(verify, "curve_samples", recording)
        cross_validate(self._controller(2), np.eye(2), (10, 20, 40))
        assert calls == {"holonomy_analytic": 1, "loop_closure_defect": 0}
        # the oracle reads only the interior of each grid: no probe of V(0), V(1)
        times = [t for chunk in sampled for t in chunk]
        assert len(times) == 9 + 19 + 39
        assert all(0.0 < t < 1.0 for t in times)

    def test_a_short_schedule_entry_is_rejected_before_sampling(self, monkeypatch):
        sampled = []
        monkeypatch.setattr(
            verify, "curve_samples", lambda ctrl, times: sampled.append(times)
        )
        with pytest.raises(TooFewSamples):
            cross_validate(self._controller(2), np.eye(2), (1000, 1))
        assert sampled == []

    @pytest.mark.parametrize("schedule", [(1000, 1000), (100, 1000, 100)])
    def test_a_schedule_that_does_not_increase_is_rejected_before_sampling(
        self, schedule, monkeypatch
    ):
        sampled = []
        sample = verify.curve_samples

        def recording(ctrl, times):
            sampled.append(np.asarray(times).tolist())
            return sample(ctrl, times)

        monkeypatch.setattr(verify, "curve_samples", recording)
        with pytest.raises(DimensionError, match="strictly increasing"):
            cross_validate(self._controller(2), np.eye(2), schedule)
        assert sampled == []

    def test_a_count_above_2_pow_53_is_rejected_before_sampling(self, monkeypatch):
        # the float64 grid t_i = i / steps has coinciding times there
        sampled = []
        monkeypatch.setattr(
            verify, "curve_samples", lambda ctrl, times: sampled.append(times)
        )
        ctrl = self._controller(2)
        with pytest.raises(DimensionError, match=rf"got {2**53 + 1}$"):
            cross_validate(ctrl, np.eye(2), (1000, 2**53 + 1))
        with pytest.raises(DimensionError, match=rf"got {2**53 + 1}$"):
            sample_loop(ctrl, 2**53 + 1)
        assert sampled == []
        # 2**53 itself passes the preamble; nothing is sampled at that size
        np.testing.assert_array_equal(verify._closed_loop(ctrl, 2**53), holonomy_analytic(ctrl))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_rejects_a_target_of_the_wrong_shape(self, dim):
        with pytest.raises(DimensionError, match=rf"shape \({dim}, {dim}\)"):
            cross_validate(self._controller(2), np.eye(dim), (10,))

    def test_rejects_a_non_unitary_target(self):
        with pytest.raises(NonUnitaryInput, match="target gate fails unitarity"):
            cross_validate(self._controller(2), 2.0 * np.eye(2), (10,))


class TestOneClosureBound:
    """Couplings scaled by 1 + eps open the loop by about 4.4-5.7 eps; every
    closure check admits eps = 1e-9 and rejects eps = 3e-9."""

    GATES = ["hadamard", "cnot", "random-4"]

    @staticmethod
    def _scaled(gate, eps):
        base = synthesize(catalog_get(gate).matrix).controller
        return Controller(omega=base.omega, coupling=base.coupling * (1 + eps))

    @pytest.mark.parametrize("gate", GATES)
    def test_a_defect_below_the_bound_is_closed(self, gate):
        ctrl = self._scaled(gate, 1e-9)
        assert 4e-9 < loop_closure_defect(ctrl) < 6e-9
        holonomy_analytic(ctrl)
        sample_loop(ctrl, 100)
        cross_validate(ctrl, catalog_get(gate).matrix, (1000,))

    @pytest.mark.parametrize("gate", GATES)
    def test_a_defect_above_the_bound_is_open(self, gate):
        ctrl = self._scaled(gate, 3e-9)
        assert 1.3e-8 < loop_closure_defect(ctrl) < 1.8e-8
        with pytest.raises(OpenLoop, match="exceeds 1.0e-08$"):
            holonomy_analytic(ctrl)
        with pytest.raises(OpenLoop, match="exceeds 1.0e-08$"):
            sample_loop(ctrl, 100)
        with pytest.raises(OpenLoop):
            cross_validate(ctrl, catalog_get(gate).matrix, (1000,))
        with pytest.raises(OpenLoop, match="endpoint projectors"):
            SampledLoop(curve_samples(ctrl, [0.0, 0.5, 1.0]))


MULTI_CHANNEL_GATES = [
    name for name in catalog_names() if "<" not in name and catalog_get(name).dim >= 2
] + ["random-4"]


# every catalog gate, the templates at one size each, and Haar gates of growing rank
PIPELINE_GATES = [
    (name, catalog_get(name).matrix)
    for name in (n.replace("<k>", "3").replace("<gamma>", "0.7") for n in catalog_names())
] + [(f"haar-{k}", random_haar(np.random.default_rng(40 + k), k)) for k in (1, 2, 3, 4, 8, 16)]


class TestPipelinedOracle:
    """The helper thread that samples the next chunk and the reused fold
    arrays change no bit of the oracle, and every stream joins its helper
    however it ends."""

    @pytest.mark.parametrize("gate", [g for _, g in PIPELINE_GATES],
                             ids=[name for name, _ in PIPELINE_GATES])
    def test_equals_the_serial_reference_across_chunk_edges(self, gate):
        ctrl = synthesize(gate).controller
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        schedule = (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)
        report = cross_validate(ctrl, gate, schedule)
        deviations, gamma_numeric = cross_validate_serial(ctrl, schedule)
        assert report.deviations == deviations
        assert report.gamma_numeric.tobytes() == gamma_numeric.tobytes()

    @staticmethod
    def _controller():
        return synthesize(random_haar(np.random.default_rng(34), 4)).controller

    def test_a_run_leaves_no_thread_behind(self):
        threads = threading.active_count()
        cross_validate(self._controller(), np.eye(4), (1000, 3000))
        assert threading.active_count() == threads

    def test_a_reader_that_stops_after_the_first_chunk_joins_the_helper(self):
        ctrl, threads = self._controller(), threading.active_count()
        try:
            with closing(verify._grid_chunks(ctrl, 5000, 0, 5001, verify.VALIDATION_TOL)) as chunks:
                next(chunks)
                raise RuntimeError("the reader stops")
        except RuntimeError as exc:
            held = exc  # its traceback holds the frame that holds the stream
        assert held.__traceback__ is not None
        assert threading.active_count() == threads

    def test_a_sampler_error_in_a_later_chunk_reaches_the_caller_with_its_type(self, monkeypatch):
        # 2000 steps put t = 0.5 in the second chunk of interior frames
        class SamplerFault(Exception):
            pass

        sample = verify.curve_samples

        def failing(ctrl, times):
            if 0.5 in times:
                raise SamplerFault("t = 0.5")
            return sample(ctrl, times)

        monkeypatch.setattr(verify, "curve_samples", failing)
        threads = threading.active_count()
        with pytest.raises(SamplerFault, match="t = 0.5"):
            cross_validate(self._controller(), np.eye(4), (2000,))
        assert threading.active_count() == threads

    def test_a_rough_chunk_is_rejected_before_the_next_chunk_fails_to_sample(self, monkeypatch):
        # t = 0.5 lies in the second chunk of 2000 steps, t = 0.75 in the third,
        # which the helper samples while the caller checks the second
        sample = verify.curve_samples

        def rough_then_failing(ctrl, times):
            if 0.75 in times:
                raise MemoryError("third chunk")
            frames = sample(ctrl, times)
            frames[times == 0.5] *= 2.0
            return frames

        monkeypatch.setattr(verify, "curve_samples", rough_then_failing)
        with pytest.raises(InvalidFrame):
            cross_validate(self._controller(), np.eye(4), (2000,))

    def test_concurrent_streams_keep_their_bits(self):
        # more callers than cores, each with its own helper and work arrays
        ctrl, schedule = self._controller(), (1000, 3000)
        deviations, gamma_numeric = cross_validate_serial(ctrl, schedule)
        results = []

        def run():
            report = cross_validate(ctrl, np.eye(4), schedule)
            results.append((report.deviations, report.gamma_numeric.tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run) for _ in range(3)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [(deviations, gamma_numeric.tobytes())] * 3


class TestOracleBitIdentity:
    @pytest.mark.parametrize("name", MULTI_CHANNEL_GATES)
    def test_cross_validate_equals_the_broadcast_product_reference(self, name, monkeypatch):
        gate = catalog_get(name).matrix
        ctrl = synthesize(gate).controller
        report = cross_validate(ctrl, gate, (1000, 10000))
        monkeypatch.setattr(verify, "curve_samples", curve_samples_reference)
        reference = cross_validate(ctrl, gate, (1000, 10000))
        assert report.deviations == reference.deviations
        assert report.gamma_numeric.tobytes() == reference.gamma_numeric.tobytes()


class TestOracleAgreementEnsemble:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_gates_converge_along_schedule(self, k):
        rng = np.random.default_rng(20 + k)
        floor = 1e-12
        for _ in range(6):
            gate = random_haar(rng, k)
            report = cross_validate(
                synthesize(gate).controller, gate, (500, 2000, 8000)
            )
            assert report.deviation < 2e-3
            above_floor = [d for d in report.deviations if d > floor]
            assert all(
                a > b for a, b in zip(above_floor, above_floor[1:])
            ), report.deviations


class TestReparametrizationInvariance:
    def test_time_warp_changes_little(self):
        rng = np.random.default_rng(10)
        gate = random_haar(rng, 2)
        ctrl = synthesize(gate).controller
        straight = numeric_holonomy(sample_loop(ctrl, 2000))
        warped = numeric_holonomy(_warped_loop(ctrl, 2000))
        assert np.linalg.norm(straight - warped) < 5e-3


class TestLengthOracle:
    def test_sampled_loop_length_matches_analytic(self):
        rng = np.random.default_rng(11)
        gate = random_haar(rng, 2)
        ctrl = synthesize(gate).controller
        loop = sample_loop(ctrl, 20000)
        got = loop_length_numeric(loop)
        assert abs(got - length_analytic(ctrl)) < 1e-6


def _loop(ctrl, samples):
    return SampledLoop(curve_samples(ctrl, np.linspace(0.0, 1.0, samples)))


def _projector_stack_length(frames):
    """The periodic rule summed over a whole projector stack, the form the
    frame rule replaces: sum ||P_{i+1} - P_{i-1}||_F^2 * M / 8."""
    p = _projectors(frames)
    diffs = p[1:] - np.roll(p[:-1], 1, axis=0)
    return float(np.vdot(diffs, diffs).real) * (len(p) - 1) / 8.0


def _base_frames(n, k, samples):
    return np.repeat(standard_base_frame(n, k)[None], samples, axis=0)


class TestLoopLengthNumeric:
    def test_constant_curve(self):
        loop = SampledLoop(_base_frames(3, 1, 21))
        assert loop_length_numeric(loop) == pytest.approx(0.0, abs=1e-15)

    def test_single_channel_half_turn_loop(self):
        ctrl = synthesize(HALF_TURN).controller
        s = loop_length_numeric(_loop(ctrl, 20001))
        assert abs(s - np.pi**2) < 5e-7

    def test_matches_analytic_length(self):
        ctrl = synthesize(HADAMARD).controller
        s = loop_length_numeric(_loop(ctrl, 20001))
        assert abs(s - length_analytic(ctrl)) < 1e-6

    def test_quadratic_convergence(self):
        ctrl = synthesize(HALF_TURN).controller
        exact = np.pi**2
        coarse = abs(loop_length_numeric(_loop(ctrl, 501)) - exact)
        fine = abs(loop_length_numeric(_loop(ctrl, 1001)) - exact)
        assert coarse / fine >= 3.5

    def test_even_sample_count(self):
        ctrl = synthesize(HALF_TURN).controller
        s = loop_length_numeric(_loop(ctrl, 5000))
        assert abs(s - np.pi**2) < 1e-4

    @pytest.mark.parametrize("gate", ["hadamard", "dft2", "phase-1.5"])
    def test_richardson_extrapolation_cancels_the_stencil_error(self, gate):
        # the periodic rule's error is c dt^2 + O(dt^4); one-sided endpoint
        # stencils would leave an O(dt^3) term that this cannot cancel
        ctrl = synthesize(catalog_get(gate).matrix).controller
        coarse = loop_length_numeric(_loop(ctrl, 1001))
        fine = loop_length_numeric(_loop(ctrl, 2001))
        exact = length_analytic(ctrl)
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("k", [1, 2, 4, 16])
    def test_matches_the_projector_stack_rule(self, k):
        gate = random_haar(np.random.default_rng(70 + k), k)
        loop = sample_loop(synthesize(gate).controller, 1000)
        reference = _projector_stack_length(loop.frames)
        assert loop_length_numeric(loop) == pytest.approx(reference, rel=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_is_gauge_invariant(self, k):
        gate = random_haar(np.random.default_rng(80 + k), k)
        loop = sample_loop(synthesize(gate).controller, 500)
        rng = np.random.default_rng(90 + k)
        gauges = np.array([random_haar(rng, k) for _ in loop.frames])
        regauged = SampledLoop(loop.frames @ gauges)
        assert loop_length_numeric(regauged) == pytest.approx(
            loop_length_numeric(loop), rel=1e-12)

    def test_forms_no_projector_stack(self):
        # a (M+1, n, n) stack alone would take 2 x frames.nbytes at n = 2k
        gate = random_haar(np.random.default_rng(8), 8)
        loop = sample_loop(synthesize(gate).controller, 10**4)
        assert traced_peak(loop_length_numeric, loop) <= 4 * loop.frames.nbytes

    def test_open_stack_is_rejected(self):
        good = synthesize(HADAMARD).controller
        bad = Controller(omega=good.omega, coupling=0.9 * good.coupling)
        with pytest.raises(OpenLoop, match="endpoint projectors"):
            _loop(bad, 101)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SampledLoop(_base_frames(3, 1, 2))

    def test_a_single_frame_is_rejected(self):
        with pytest.raises(DimensionError):
            SampledLoop(standard_base_frame(3, 1))
