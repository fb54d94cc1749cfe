import sys
import threading
import tracemalloc

import numpy as np
import pytest

from holosynth import cli, verify
from holosynth.document import canonical_dumps, encode_matrix
from holosynth.linalg import unitarity_defect
from holosynth import (
    Controller,
    DimensionError,
    InvalidFrame,
    NonUnitaryInput,
    OpenLoop,
    OracleReport,
    SampledLoop,
    SingularInput,
    SynthesisParams,
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
from helpers import (
    chain_holonomy_per_chunk, cross_validate_serial, frame_sampler_reference, oracle_fit_reference,
    random_haar, traced_peak,
)

HADAMARD = catalog_get("hadamard").matrix
HALF_TURN = np.array([[np.exp(1j * np.pi)]], dtype=complex)


def _warped_loop(ctrl, steps, strength=0.15):
    """Same geometric loop, resampled along a smooth monotone time warp."""
    times = np.linspace(0.0, 1.0, steps + 1)
    warped = times - strength * np.sin(2 * np.pi * times) / (2 * np.pi)
    return SampledLoop(curve_samples(ctrl, warped))


def _timed_batches(ctrl, steps, out=None, batches=None):
    """(times, frames) of each batch of `batches`, `verify._grid_batches`
    by default, with the times rebuilt from `_grid_times` and the count of
    frames each batch holds, as the readers that need times build them."""
    start = 0
    for frames in (batches or verify._grid_batches)(ctrl, steps, out):
        yield verify._grid_times(steps, start, start + len(frames)), frames
        start += len(frames)


def _route_samples(monkeypatch, each):
    """Pass every grid batch through each(times, frames), which may record,
    alter or raise, on the grid's batcher, `_grid_batches`, which the
    oracle's stream, `sample_loop` and the `sample` CSV read. The reader
    gets the frames as `each` leaves them."""
    batches = verify._grid_batches

    def streaming(ctrl, steps, out=None):
        for times, frames in _timed_batches(ctrl, steps, out, batches):
            each(times, frames)
            yield frames

    monkeypatch.setattr(verify, "_grid_batches", streaming)
    monkeypatch.setattr(cli, "_grid_batches", streaming)


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


class TestOracleCounts:
    def test_a_bare_step_count_is_not_a_schedule(self):
        ctrl = synthesize(HADAMARD).controller
        with pytest.raises(DimensionError, match="expected a schedule of step counts, got 1000$"):
            cross_validate(ctrl, HADAMARD, 1000)

    @pytest.mark.parametrize("trials", [-1, 0, 1.5, True, "2"])
    def test_trials_read_as_a_whole_number_of_at_least_one(self, trials):
        loop = sample_loop(synthesize(HADAMARD).controller, 20)
        with pytest.raises(DimensionError, match="trials"):
            gauge_invariance_check(loop, trials, seed=0)

    def test_trials_read_as_a_step_count_does(self):
        loop = sample_loop(synthesize(HADAMARD).controller, 20)
        assert gauge_invariance_check(loop, 2.0, seed=0) < 1e-12

    @pytest.mark.parametrize("seed", [-1, "x", 1.5, True])
    def test_a_seed_reads_as_the_seed_flag_does(self, seed):
        # a whole number >= 0 (synth._whole), where numpy would raise its own
        # ValueError or TypeError
        loop = sample_loop(synthesize(HADAMARD).controller, 20)
        with pytest.raises(DimensionError, match="^seed"):
            gauge_invariance_check(loop, 1, seed)

    def test_a_whole_float_seed_reads_as_its_integer(self):
        loop = sample_loop(synthesize(HADAMARD).controller, 20)
        assert gauge_invariance_check(loop, 2, 3.0) == gauge_invariance_check(loop, 2, 3)


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


class TestOracleReportReadsItsVerdict:
    """The report holds Gamma, the target and the deviations; its slope,
    verdict and target error are read off them."""

    _SCHEDULE = (10**3, 10**4, 10**5)

    def _report(self, deviations, target=np.eye(2)):
        return OracleReport(gamma_numeric=np.eye(2), gamma_analytic=np.eye(2), target=target,
                            schedule=self._SCHEDULE, deviations=deviations)

    @pytest.mark.parametrize("deviations, slope, anomalous", [
        ((6e-3, 6e-4, 6e-5), -1.0, True),
        ((4e-6, 4e-8, 4e-10), -2.0, False),
        ((3e-15, 4e-15, 5e-15), None, False),
        ((1e-3, 1e-13, 1e-14), None, False),
    ], ids=["first-order", "second-order", "roundoff", "one-above-the-floor"])
    def test_slope_and_verdict_of_synthetic_deviations(self, deviations, slope, anomalous):
        report = self._report(deviations)
        if slope is None:
            assert np.isnan(report.convergence_order_estimate)
        else:
            assert report.convergence_order_estimate == pytest.approx(slope, abs=1e-9)
        assert report.anomalous is anomalous
        assert (report.deviation, report.steps) == (deviations[-1], self._SCHEDULE[-1])

    def test_target_error_is_the_distance_to_the_target(self):
        flip = np.array([[0, 1], [1, 0]], dtype=complex)
        assert self._report((1e-3, 1e-5, 1e-7), flip).target_error == 2.0

    @pytest.mark.parametrize("schedule, deviations", [
        ((10, 20, 40), (1e-3,)), ((10,), (1e-3, 1e-4)), ((), ()),
    ], ids=["fewer-deviations", "more-deviations", "empty"])
    def test_a_schedule_without_one_deviation_per_point_is_refused(self, schedule, deviations):
        with pytest.raises(DimensionError, match="one deviation per schedule point"):
            OracleReport(np.eye(2), np.eye(2), np.eye(2), schedule, deviations)

    def test_the_record_holds_only_its_inputs(self):
        assert list(OracleReport.__dataclass_fields__) == [
            "gamma_numeric", "gamma_analytic", "target", "schedule", "deviations"]
        with pytest.raises(TypeError):
            OracleReport(np.eye(2), np.eye(2), np.eye(2), (10, 20), (1e-3, 1e-4),
                         convergence_order_estimate=-2.0)

    @pytest.mark.parametrize("gate", [
        *(name for name in catalog_names() if "<" not in name),
        "identity-2", "phase-0.7", "random-3",
        *(f"haar-{k}" for k in range(1, 9)),
    ])
    def test_the_fit_of_cross_validate_is_the_old_fit_bit_for_bit(self, gate):
        if gate.startswith("haar-"):
            k = int(gate[5:])
            matrix = random_haar(np.random.default_rng(40 + k), k)
        else:
            matrix = catalog_get(gate).matrix
        ctrl = synthesize(matrix).controller
        report = cross_validate(ctrl, matrix, (1000, 10000))
        slope, anomalous = oracle_fit_reference(report.schedule, report.deviations)
        np.testing.assert_array_equal(report.convergence_order_estimate, slope)
        assert report.anomalous is anomalous
        assert report.target_error == float(np.linalg.norm(holonomy_analytic(ctrl) - matrix))

    def test_the_target_is_a_read_only_copy(self):
        gate = np.array(catalog_get("cnot").matrix)
        report = cross_validate(synthesize(gate).controller, gate, (100, 1000))
        error = report.target_error
        gate[:] = np.eye(4)
        assert not report.target.flags.writeable
        assert report.target_error == error
        np.testing.assert_array_equal(report.target, catalog_get("cnot").matrix)


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
        # from a grid of two chunks to one of 196, the stream's buffers and the
        # fold's work arrays are the same: allocated once per stream
        gate = random_haar(np.random.default_rng(5), 4)
        ctrl = synthesize(gate).controller
        coarse = traced_peak(cross_validate, ctrl, gate, (1_000,))
        fine = traced_peak(cross_validate, ctrl, gate, (100_000,))
        assert fine <= 1.05 * coarse, (fine, coarse)

    def test_numeric_holonomy_peak_does_not_grow_with_steps(self):
        ctrl = synthesize(random_haar(np.random.default_rng(5), 4)).controller
        coarse = traced_peak(numeric_holonomy, sample_loop(ctrl, 10_000))
        fine = traced_peak(numeric_holonomy, sample_loop(ctrl, 100_000))
        assert fine <= 1.2 * coarse, (fine, coarse)

    def test_a_sampled_loop_holds_its_frames_once(self):
        ctrl = synthesize(random_haar(np.random.default_rng(5), 4)).controller
        assert list(SampledLoop.__dataclass_fields__) == ["frames", "tol"]
        tracemalloc.start()
        try:
            loop = sample_loop(ctrl, 100_000)
            resident, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resident <= 1.1 * loop.frames.nbytes, resident / loop.frames.nbytes
        # each chunk is written into the one stack as it arrives, so no
        # second copy of the frames is held on the way either
        assert peak <= 1.1 * loop.frames.nbytes, peak / loop.frames.nbytes


class TestSampledLoopOwnsItsFrames:
    @staticmethod
    def _frames():
        return np.array(sample_loop(synthesize(catalog_get("hadamard").matrix).controller,
                                    100).frames)

    def test_its_frames_are_read_only(self):
        ctrl = synthesize(catalog_get("hadamard").matrix).controller
        for loop in (SampledLoop(self._frames()), sample_loop(ctrl, 10)):
            with pytest.raises(ValueError, match="read-only"):
                loop.frames[1] *= 3

    def test_the_callers_array_does_not_reach_its_readers(self):
        frames = self._frames()
        loop = SampledLoop(frames)
        length, gamma = loop_length_numeric(loop), numeric_holonomy(loop)
        frames[50] *= 3
        frames[1:] = frames[0]
        assert loop_length_numeric(loop) == length
        np.testing.assert_array_equal(numeric_holonomy(loop), gamma)

    def test_its_frames_cannot_be_made_writeable_again(self):
        # a stack that owns its data could be: the loop holds a read-only
        # view of a read-only stack, whose flag numpy refuses to set
        ctrl = synthesize(catalog_get("hadamard").matrix).controller
        for loop in (SampledLoop(self._frames()), sample_loop(ctrl, 100)):
            length = loop_length_numeric(loop)
            with pytest.raises(ValueError):
                loop.frames.setflags(write=True)
            assert loop_length_numeric(loop) == length

    def test_a_frozen_view_is_kept_and_any_other_stack_copied(self):
        # whoever holds a read-only stack may make it writeable again, so
        # it is copied, and so is any view of it, as a writeable stack is;
        # the loop's own frames, whose stack no caller holds, are kept
        frames = self._frames()
        frames.setflags(write=False)
        loop = SampledLoop(frames)
        assert not np.shares_memory(loop.frames, frames)
        assert SampledLoop(loop.frames).frames is loop.frames
        assert not np.shares_memory(SampledLoop(frames[:]).frames, frames)
        writeable = self._frames()
        assert not np.shares_memory(SampledLoop(writeable[:]).frames, writeable)

    def test_a_stack_made_writeable_again_does_not_reach_its_readers(self):
        frames = self._frames()
        length = loop_length_numeric(SampledLoop(frames))
        assert length == pytest.approx(9.866, abs=1e-3)
        frames.setflags(write=False)
        loop = SampledLoop(frames[:])
        frames.setflags(write=True)
        frames[50] *= 3
        assert loop_length_numeric(loop) == length


class TestStreamedOracle:
    @staticmethod
    def _controller(k):
        return synthesize(random_haar(np.random.default_rng(30 + k), k)).controller

    @pytest.mark.parametrize("budget", [verify._CHUNK_BYTES, 2**13], ids=["default", "8KiB"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_cross_validate_is_the_whole_loop_oracle_bit_for_bit(self, k, budget, monkeypatch):
        # both routes fold the frames V_0 ... V_M of one grid stream in the
        # same chunks, also where a chunk holds a lone frame (steps = chunk):
        # the stream's strided frames and the loop's contiguous slices give
        # the fused product the same bits
        monkeypatch.setattr(verify, "_CHUNK_BYTES", budget)
        ctrl = self._controller(k)
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        for steps in sorted({2, 3, 100, chunk - 1, chunk, chunk + 1, 2 * chunk + 1} - {0, 1}):
            whole = numeric_holonomy(sample_loop(ctrl, steps))
            streamed = cross_validate(ctrl, np.eye(k), (steps,)).gamma_numeric
            np.testing.assert_array_equal(streamed, whole, err_msg=str(steps))

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_budget_below_two_frames_still_streams_two(self, k, monkeypatch):
        # a one-frame chunk at k = 1 would meet the sampler's lone-offset
        # rule, whose buffer the fold's rows cannot hold
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 16)
        ctrl = self._controller(k)
        assert verify._chunk_frames(ctrl.n, ctrl.k) == 2
        for steps in (2, 3, 10):
            whole = numeric_holonomy(sample_loop(ctrl, steps))
            streamed = cross_validate(ctrl, np.eye(k), (steps,)).gamma_numeric
            np.testing.assert_array_equal(streamed, whole, err_msg=str(steps))

    @staticmethod
    def _referenced(ctrl, steps, monkeypatch):
        """The grid's frames with `_frame_sampler` replaced by the shifted-table
        reference of `helpers`, which samples into fresh arrays."""
        with monkeypatch.context() as patched:
            patched.setattr(verify, "_frame_sampler", frame_sampler_reference)
            return np.concatenate(list(verify._grid_batches(ctrl, steps)))

    @pytest.mark.parametrize("k", range(1, 17))
    def test_sample_loop_frames_are_the_streams_frames(self, k, monkeypatch):
        # one grid definition: the whole loop, read in place from the stream's
        # buffers, and the shifted-table reference of the same stream agree bit
        # for bit, also where a chunk holds a lone frame (steps = chunk)
        ctrl = self._controller(k)
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        for steps in (chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 100):
            times = np.concatenate([t for t, _ in _timed_batches(ctrl, steps)])
            assert times[-1] == 1.0 and len(times) == steps + 1
            np.testing.assert_array_equal(sample_loop(ctrl, steps).frames,
                                          self._referenced(ctrl, steps, monkeypatch))

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_sample_loop_frames_are_the_streams_frames_at_a_small_budget(self, k, monkeypatch):
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**10)  # 2 frames at k = 4
        ctrl = self._controller(k)
        assert len(list(verify._grid_batches(ctrl, 1001))) > 2
        np.testing.assert_array_equal(sample_loop(ctrl, 1001).frames,
                                      self._referenced(ctrl, 1001, monkeypatch))

    @pytest.mark.parametrize("k", [1, 4])
    def test_sample_loop_checks_each_frame_once(self, k, monkeypatch):
        ctrl = self._controller(k)
        steps = 3 * verify._chunk_frames(ctrl.n, ctrl.k) + 5
        checked = []
        check = verify._check_frames

        def counting(frames, tol):
            checked.append(len(frames))
            return check(frames, tol)

        monkeypatch.setattr(verify, "_check_frames", counting)
        sample_loop(ctrl, steps)
        assert len(checked) > 3 and sum(checked) == steps + 1

    def test_no_grid_reader_starts_a_thread(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a thread was started")

        ctrl = self._controller(4)
        monkeypatch.setattr(threading, "Thread", refused)
        assert len(sample_loop(ctrl, 2000).frames) == 2001
        assert cross_validate(ctrl, np.eye(4), (2000,)).steps == 2000
        assert not {"threading", "queue"} & set(vars(verify))

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
        # 2000 steps put t = 0.5 in the second chunk of the grid
        def rough(times, frames):
            frames[times == 0.5] *= factor

        _route_samples(monkeypatch, rough)
        ctrl = self._controller(4)
        threads = threading.active_count()
        with pytest.raises(InvalidFrame):
            sample_loop(ctrl, 2000)
        with pytest.raises(InvalidFrame):
            cross_validate(ctrl, np.eye(4), (2000,))
        assert threading.active_count() == threads

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, np.nan], ids=["rough", "nan"])
    @pytest.mark.parametrize("index", [0, 512, 2000],
                             ids=["t=0", "a-later-chunks-first-frame", "the-last-frame"])
    def test_the_fused_check_rejects_a_bad_frame(self, index, factor, monkeypatch):
        # at k = 4 a chunk holds 512 frames: 2000 steps make four chunks, and
        # frame 512 opens the second, whose window reaches back into the first
        ctrl = self._controller(4)
        assert verify._chunk_frames(ctrl.n, ctrl.k) == 512
        at = verify._grid_times(2000, index, index + 1)[0]

        def bad(times, frames):
            frames[times == at] *= factor

        _route_samples(monkeypatch, bad)
        with pytest.raises(InvalidFrame, match="worst per-sample frame defect"):
            cross_validate(ctrl, np.eye(4), (2000,))
        # the whole-loop route folds its slices through the same check
        frames = np.array(curve_samples(ctrl, verify._grid_times(2000, 0, 2001)))
        frames[index] *= factor
        with pytest.raises(InvalidFrame, match="worst per-sample frame defect"):
            verify._chain_holonomy(lambda rows: verify._slices(frames), 512,
                                   ctrl.base_frame(), verify.VALIDATION_TOL)

    @pytest.mark.parametrize("k, error", [
        (1, "diagonal"),
        *((k, error) for k in (2, 4, 16) for error in ("off-diagonal", "diagonal")),
    ])
    def test_a_gram_error_on_either_side_of_the_diagonal_is_rejected(
            self, k, error, capsys, monkeypatch, tmp_path):
        # two unit columns 1e-8 from orthogonal, or one column 1e-8 too
        # long, in frame 700 of 2000 steps: every check route rejects it,
        # the fold's embedded rule and the stored frames' unitarity_defect
        gate = random_haar(np.random.default_rng(30 + k), k)
        ctrl = synthesize(gate).controller
        tilt = np.eye(k, dtype=complex)
        if error == "off-diagonal":
            tilt[0, 1], tilt[1, 1] = 1e-8, np.sqrt(1.0 - 1e-16)
        else:
            tilt[0, 0] = 1.0 + 1e-8
        at = verify._grid_times(2000, 700, 701)[0]

        def bad(times, frames):
            frames[times == at] = frames[times == at] @ tilt

        _route_samples(monkeypatch, bad)
        with pytest.raises(InvalidFrame, match="worst per-sample frame defect"):
            cross_validate(ctrl, np.eye(k), (2000,))
        with pytest.raises(InvalidFrame, match="worst per-sample frame defect"):
            sample_loop(ctrl, 2000)
        matrix = tmp_path / "gate.json"
        matrix.write_text(canonical_dumps(encode_matrix(gate)))
        out = tmp_path / "loop.csv"
        assert cli.main(["sample", "--matrix", str(matrix), "--steps", "2000",
                         "--out", str(out)]) == 4
        assert "worst per-sample frame defect" in capsys.readouterr().err
        assert not out.exists()
        frames = np.array(curve_samples(ctrl, verify._grid_times(2000, 0, 2001)))
        frames[700] = frames[700] @ tilt
        with pytest.raises(InvalidFrame, match="worst per-sample frame defect"):
            verify._chain_holonomy(lambda rows: verify._slices(frames),
                                   min(verify._chunk_frames(ctrl.n, k), 2001),
                                   ctrl.base_frame(), verify.VALIDATION_TOL)

    def test_one_step_is_too_few(self):
        with pytest.raises(TooFewSamples):
            cross_validate(self._controller(2), np.eye(2), (1,))

    @pytest.mark.parametrize("count", [100.0, 100.7, True, "100"])
    @pytest.mark.parametrize("reader", ["sample_loop", "cross_validate"])
    def test_every_reader_reads_a_step_count_as_a_config_does(self, reader, count, monkeypatch):
        # synth._whole's rule: 100.0 reads as 100; 100.7, true and "100" are
        # refused, naming the value, before anything is sampled
        ctrl = self._controller(2)
        read = {
            "sample_loop": lambda: len(sample_loop(ctrl, count).frames) - 1,
            "cross_validate": lambda: cross_validate(ctrl, np.eye(2), (count, 1000)).schedule[0],
        }[reader]
        if count == 100.0:
            steps = read()
            assert type(steps) is int and steps == 100
            return
        sampled = []
        _route_samples(monkeypatch, lambda times, frames: sampled.append(times))
        with pytest.raises(DimensionError, match=f"got {count!r}$"):
            read()
        assert sampled == []

    def test_each_check_is_decided_once_per_call(self, monkeypatch):
        calls = {"holonomy_analytic": 0, "loop_closure_defect": 0}
        for name in calls:
            def counting(*args, _name=name, _original=getattr(verify, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(verify, name, counting)
        sampled = []
        _route_samples(monkeypatch, lambda times, frames: sampled.append(times.tolist()))
        cross_validate(self._controller(2), np.eye(2), (10, 20, 40))
        assert calls == {"holonomy_analytic": 1, "loop_closure_defect": 0}
        # the oracle reads each grid point t_i = i * (1 / M), i = 0 ... M, with
        # t_M = 1.0, once, and nothing else
        times = [t for chunk in sampled for t in chunk]
        assert len(times) == 11 + 21 + 41
        assert times == [t for m in (10, 20, 40) for t in [i * (1 / m) for i in range(m)] + [1.0]]

    def test_a_short_schedule_entry_is_rejected_before_sampling(self, monkeypatch):
        sampled = []
        _route_samples(monkeypatch, lambda times, frames: sampled.append(times))
        with pytest.raises(TooFewSamples):
            cross_validate(self._controller(2), np.eye(2), (1000, 1))
        assert sampled == []

    @pytest.mark.parametrize("schedule", [(1000, 1000), (100, 1000, 100)])
    def test_a_schedule_that_does_not_increase_is_rejected_before_sampling(
        self, schedule, monkeypatch
    ):
        sampled = []
        _route_samples(monkeypatch, lambda times, frames: sampled.append(times))
        with pytest.raises(DimensionError, match="strictly increasing"):
            cross_validate(self._controller(2), np.eye(2), schedule)
        assert sampled == []

    def test_a_count_above_2_pow_53_is_rejected_before_sampling(self, monkeypatch):
        # the float64 grid t_i = i / steps has coinciding times there
        sampled = []
        _route_samples(monkeypatch, lambda times, frames: sampled.append(times))
        ctrl = self._controller(2)
        with pytest.raises(DimensionError, match=rf"got {2**53 + 1}$"):
            cross_validate(ctrl, np.eye(2), (1000, 2**53 + 1))
        with pytest.raises(DimensionError, match=rf"got {2**53 + 1}$"):
            sample_loop(ctrl, 2**53 + 1)
        assert sampled == []
        # 2**53 itself passes the preamble; nothing is sampled at that size
        gamma, steps = verify._closed_loop(ctrl, 2**53)
        np.testing.assert_array_equal(gamma, holonomy_analytic(ctrl))
        assert steps == (2**53,)

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


# every catalog gate, the templates at one size each, and Haar gates of every rank to 16
STREAM_GATES = [
    (name, catalog_get(name).matrix)
    for name in (n.replace("<k>", "3").replace("<gamma>", "0.7") for n in catalog_names())
] + [(f"haar-{k}", random_haar(np.random.default_rng(40 + k), k)) for k in range(1, 17)]


class TestInPlaceStream:
    """The stream's frames, read in place from buffers reused from chunk
    to chunk, and the fused Gram and overlap product change the oracle only
    at roundoff, on the caller's thread, and each stream owns its buffers."""

    @pytest.mark.parametrize("gate", [g for _, g in STREAM_GATES],
                             ids=[name for name, _ in STREAM_GATES])
    def test_is_the_two_product_fold_to_roundoff_across_chunk_edges(self, gate):
        ctrl = synthesize(gate).controller
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        schedule = (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)
        report = cross_validate(ctrl, gate, schedule)
        deviations, gamma_numeric = cross_validate_serial(ctrl, schedule)
        assert np.abs(np.subtract(report.deviations, deviations)).max() <= 1e-14
        assert np.abs(report.gamma_numeric - gamma_numeric).max() <= 1e-14

    @staticmethod
    def _controller():
        return synthesize(random_haar(np.random.default_rng(34), 4)).controller

    def test_two_chunk_budgets_agree_to_roundoff_at_1e5_steps(self, monkeypatch):
        # the fold's factors hold the embedding's form only to roundoff; K is
        # read as the mean of the chain's even rows and i times its odd ones,
        # which cancels what breaks the form, so a budget that only
        # reassociates the chain and resamples the frames to roundoff moves
        # Gamma by about 5e-15 (3e-14 with the even rows alone)
        gate = catalog_get("dft2").matrix
        ctrl = synthesize(gate).controller
        default = cross_validate(ctrl, gate).gamma_numeric
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**13)
        assert np.abs(cross_validate(ctrl, gate).gamma_numeric - default).max() <= 1e-14

    def test_a_run_leaves_no_thread_behind(self):
        threads = threading.active_count()
        cross_validate(self._controller(), np.eye(4), (1000, 3000))
        assert threading.active_count() == threads

    def test_a_sampler_error_in_a_later_chunk_reaches_the_caller_with_its_type(self, monkeypatch):
        # 2000 steps put t = 0.5 in the second chunk of the grid
        class SamplerFault(Exception):
            pass

        def failing(times, frames):
            if 0.5 in times:
                raise SamplerFault("t = 0.5")

        _route_samples(monkeypatch, failing)
        threads = threading.active_count()
        with pytest.raises(SamplerFault, match="t = 0.5"):
            cross_validate(self._controller(), np.eye(4), (2000,))
        assert threading.active_count() == threads

    def test_a_rough_chunk_is_rejected_before_the_next_chunk_fails_to_sample(self, monkeypatch):
        # t = 0.5 lies in the second chunk of 2000 steps, t = 0.75 in the third
        def rough_then_failing(times, frames):
            if 0.75 in times:
                raise MemoryError("third chunk")
            frames[times == 0.5] *= 2.0

        _route_samples(monkeypatch, rough_then_failing)
        with pytest.raises(InvalidFrame):
            cross_validate(self._controller(), np.eye(4), (2000,))

    def test_concurrent_streams_keep_their_bits(self):
        # more callers than cores, each stream with its own buffers and work arrays
        ctrl, schedule = self._controller(), (1000, 3000)
        report = cross_validate(ctrl, np.eye(4), schedule)
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
        assert results == [(report.deviations, report.gamma_numeric.tobytes())] * 3


class TestEvenRowFold:
    """The fold's Gram check on the even rows of its product's Gram half,
    G = V^H V in complex view, and the chain's passes planned once per
    stream: each chunk's check is `unitarity_defect` to roundoff, and
    Gamma and the deviations keep the bits of the fold before them."""

    @pytest.mark.parametrize("gate", [g for _, g in STREAM_GATES],
                             ids=[name for name, _ in STREAM_GATES])
    def test_is_the_per_chunk_fold_bit_for_bit(self, gate, monkeypatch):
        # chunk edges: a short last chunk, a lone last frame, a full one
        ctrl = synthesize(gate).controller
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        schedule = (chunk - 1, chunk, chunk + 1, 2 * chunk + 1)
        report = cross_validate(ctrl, gate, schedule)
        whole = numeric_holonomy(sample_loop(ctrl, schedule[-1]))
        monkeypatch.setattr(verify, "_chain_holonomy", chain_holonomy_per_chunk)
        reference = cross_validate(ctrl, gate, schedule)
        assert report.deviations == reference.deviations
        assert report.gamma_numeric.tobytes() == reference.gamma_numeric.tobytes()
        assert whole.tobytes() == numeric_holonomy(sample_loop(ctrl, schedule[-1])).tobytes()

    @pytest.mark.parametrize("error", ["none", "imaginary-part", "a-later-chunks-first-frame"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_each_chunks_check_is_unitarity_defect(self, k, error, monkeypatch):
        ctrl = synthesize(random_haar(np.random.default_rng(60 + k), k)).controller
        chunk = verify._chunk_frames(ctrl.n, k)
        steps = 2 * chunk + 1
        frames = np.array(curve_samples(ctrl, verify._grid_times(steps, 0, steps + 1)))
        rng = np.random.default_rng(k)
        if error == "imaginary-part":  # the real parts stay as sampled
            frames[chunk // 2] += 1e-7j * rng.standard_normal((ctrl.n, k))
        elif error == "a-later-chunks-first-frame":
            frames[chunk] = frames[chunk] @ (np.eye(k) + 1e-7 * rng.standard_normal((k, k)))
        recorded, reduction = [], verify._squared_gram_defect

        def recording(gram):
            recorded.append(reduction(gram))
            return recorded[-1]

        monkeypatch.setattr(verify, "_squared_gram_defect", recording)
        verify._chain_holonomy(lambda rows: verify._slices(frames), chunk, ctrl.base_frame(),
                               np.inf)
        expected = [unitarity_defect(part) for part in verify._slices(frames)]
        assert len(recorded) == 3
        np.testing.assert_allclose(np.sqrt(recorded), expected, rtol=0, atol=1e-15)
        if error != "none":
            worst = 0 if error == "imaginary-part" else 1
            assert int(np.argmax(recorded)) == worst and expected[worst] > 1e-8


class TestOracleBitIdentity:
    @pytest.mark.parametrize("name", MULTI_CHANNEL_GATES)
    def test_cross_validate_equals_the_broadcast_product_reference(self, name, monkeypatch):
        # the stream's in-place frames against fresh reference arrays per chunk
        gate = catalog_get(name).matrix
        ctrl = synthesize(gate).controller
        report = cross_validate(ctrl, gate, (1000, 10000))
        monkeypatch.setattr(verify, "_frame_sampler", frame_sampler_reference)
        reference = cross_validate(ctrl, gate, (1000, 10000))
        assert report.deviations == reference.deviations
        assert report.gamma_numeric.tobytes() == reference.gamma_numeric.tobytes()


class TestShiftedGrid:
    """Every grid frame, the stream's one table shifted to its chunk's first
    grid point, against `curve_samples` at its `_grid_times` time."""

    @staticmethod
    def _controller(k, winding=1):
        params = SynthesisParams(phases=(0.0,) * k, windings=(winding,) + (1,) * (k - 1))
        return synthesize(random_haar(np.random.default_rng(150 + k), k), params).controller

    @staticmethod
    def _assert_near_the_curve(ctrl, steps, bound):
        # entrywise, one batch at a time
        for times, frames in _timed_batches(ctrl, steps):
            gap = np.abs(frames - curve_samples(ctrl, times)).max()
            assert gap <= bound, (steps, times[0], gap)

    @pytest.mark.parametrize("winding", [1, 3], ids=["windings-1", "windings-3-1"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_every_grid_frame_is_the_curve_to_roundoff(self, k, winding):
        # chunk starts, the lone-frame last chunk (steps = chunk) and t = 1; an
        # angle's roundoff grows with the rotation rates, which a winding of 3
        # about triples
        ctrl = self._controller(k, winding)
        chunk = verify._chunk_frames(ctrl.n, ctrl.k)
        *_, (times, frames) = _timed_batches(ctrl, chunk)
        assert times.tolist() == [1.0] and len(frames) == 1
        for steps in (2, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 10000):
            self._assert_near_the_curve(ctrl, steps, 2e-15 * winding)

    def _faulty(self, monkeypatch, **times):
        monkeypatch.setattr(verify, "_frame_sampler", lambda ctrl, offsets, out=None: (
            frame_sampler_reference(ctrl, offsets, **times)))

    def test_a_sampler_without_the_fiber_shift_is_caught_here_not_by_the_oracle(
        self, monkeypatch
    ):
        # dropping e^{-t0 Omega} from the right factor right-multiplies each
        # chunk's frames by the k x k unitary e^{t0 Omega}, a gauge, which the
        # oracle's projector chain does not see
        ctrl, schedule = self._controller(4), (1000, 2000)
        healthy = cross_validate(ctrl, np.eye(4), schedule).deviations
        self._faulty(monkeypatch, right_time=lambda t0: 0.0)
        faulty = cross_validate(ctrl, np.eye(4), schedule).deviations
        np.testing.assert_allclose(faulty, healthy, rtol=1e-6)
        with pytest.raises(AssertionError):
            self._assert_near_the_curve(ctrl, 2000, 2e-15)

    def test_a_sampler_with_a_stale_shift_is_caught_by_the_oracle(self, monkeypatch):
        # the left factor scaled to the previous chunk's t0: each later chunk
        # retraces the span of the one before it
        ctrl, steps = self._controller(4), 2000
        lag = verify._chunk_frames(ctrl.n, ctrl.k) * (1 / steps)
        healthy = cross_validate(ctrl, np.eye(4), (steps,)).deviation
        self._faulty(monkeypatch, left_time=lambda t0: max(t0 - lag, 0.0))
        faulty = cross_validate(ctrl, np.eye(4), (steps,)).deviation
        assert faulty > 100 * healthy, (healthy, faulty)


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
    """The chord rule summed over a whole projector stack, the form the
    frame rule replaces: sum ||P_{i+1} - P_i||_F^2 * M / 2."""
    p = _projectors(frames)
    diffs = p[1:] - p[:-1]
    return float(np.vdot(diffs, diffs).real) * (len(p) - 1) / 2.0


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
        # the chord rule is the midpoint rule of a chord symmetric about its
        # midpoint, so its error is even in dt, c dt^2 + O(dt^4); a rule with
        # an O(dt^3) term would leave it after this extrapolation
        ctrl = synthesize(catalog_get(gate).matrix).controller
        coarse = loop_length_numeric(_loop(ctrl, 1001))
        fine = loop_length_numeric(_loop(ctrl, 2001))
        exact = length_analytic(ctrl)
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("gate", ["hadamard", "dft2", "phase-1.5"])
    def test_richardson_extrapolation_of_the_chord_rule_reaches_1e_11(self, gate):
        ctrl = synthesize(catalog_get(gate).matrix).controller
        coarse, fine = (loop_length_numeric(sample_loop(ctrl, m)) for m in (1000, 2000))
        exact = length_analytic(ctrl)
        assert abs((4.0 * fine - coarse) / 3.0 - exact) <= 1e-11 * exact

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

    def test_peak_does_not_grow_with_steps(self):
        # the chord rule reads views of the loop, chunk by chunk
        ctrl = synthesize(random_haar(np.random.default_rng(5), 4)).controller
        coarse = traced_peak(loop_length_numeric, sample_loop(ctrl, 1000))
        fine = traced_peak(loop_length_numeric, sample_loop(ctrl, 10_000))
        assert fine <= 1.2 * coarse, (fine, coarse)

    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_slice_edges_mid_loop_change_only_roundoff(self, k, monkeypatch):
        gate = random_haar(np.random.default_rng(100 + k), k)
        loop = sample_loop(synthesize(gate).controller, 1000)
        default = loop_length_numeric(loop)
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**10)  # 2 frames at k = 4
        assert loop_length_numeric(loop) == pytest.approx(default, rel=1e-14)

    def test_open_stack_is_rejected(self):
        good = synthesize(HADAMARD).controller
        bad = Controller(omega=good.omega, coupling=0.9 * good.coupling)
        with pytest.raises(OpenLoop, match="endpoint projectors"):
            _loop(bad, 101)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            SampledLoop(_base_frames(3, 1, 2))

    @pytest.mark.parametrize("position", [1, 2], ids=["interior", "last"])
    @pytest.mark.parametrize("entry", [1e200, np.inf, np.nan])
    def test_a_non_finite_or_overflowing_frame_is_invalid(self, entry, position):
        # the Gram check runs before the endpoint check, so the last frame
        # fails as an interior one does, without a numpy warning
        frames = _base_frames(2, 1, 3)
        frames[position, 0, 0] = entry
        with pytest.raises(InvalidFrame):
            SampledLoop(frames)

    def test_a_single_frame_is_rejected(self):
        with pytest.raises(DimensionError):
            SampledLoop(standard_base_frame(3, 1))

    @pytest.mark.parametrize("frames", [
        np.zeros((3, 2, 0), dtype=complex),
        np.repeat(np.eye(2, dtype=complex)[None], 3, axis=0),
    ], ids=["k=0", "k=n"])
    def test_a_stack_outside_0_lt_k_lt_n_is_rejected(self, frames):
        # the base frame's rule, before the stack is sliced into chunks
        with pytest.raises(DimensionError, match=r"need 0 < k < n, got n=2, k="):
            SampledLoop(frames)
