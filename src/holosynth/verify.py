"""Independent numerical holonomy oracle.

The oracle never touches the closed-form solution: it consumes only the
sampled loop of orthonormal k-frames V_i = V(t_i) on the fixed grid
t_i = i/M, i = 0 ... M, and the base frame V0.
The discrete transporter is the ordered overlap (Wilson-loop) chain

    K = V0^H V_M . V_M^H V_{M-1} ... V_1^H V_0 . V_0^H V0

of k x k matrices over the whole loop, followed by polar unitarization,
which extracts the closest unitary and discards the contraction the
finite product accumulates. Each factor V_i V_i^H is the sample's
projector, so K equals the projector chain V0^H P_M P_{M-1} ... P_1 P_0 V0
term for term, and any frame choice at the samples gives the same answer
up to roundoff, which `gauge_invariance_check` verifies literally. The
loop starts and closes at the base projector, P_0 = P_M = P0, and
P0 V0 = V0, so the two end factors drop out: K is the interior chain
V0^H P_{M-1} ... P_1 V0 up to roundoff. No n x n matrix is formed per
sample.

`cross_validate`, the CLI's `sample` and `sample_loop` read the whole loop
V_0 ... V_M in the batches of one grid batcher, `_grid_batches`, sized to
a fixed byte budget (512 frames at n = 8, k = 4), on the caller's thread,
once `_closed_loop` has checked the step count and let `holonomy_analytic`
decide closure; every frame is Gram-checked once. The oracle folds a
chunk's overlaps into a running product and carries its last frame into
the next, and `sample` checks a chunk and writes its CSV rows, so memory
does not grow with the step count; `sample_loop` writes the chunks into
one frame stack, which `SampledLoop` checks, and `numeric_holonomy` and
`loop_length_numeric` read, as views in the same chunks, so the two oracle
routes give the same bits. The controller is constant, so its curve obeys
the group law V(t0 + s) = e^{t0 X} V(s) e^{-t0 Omega}: each stream builds
one table of the curve's core at the offsets s_j = j / M of one chunk
(`extremal._frame_sampler`), and samples every chunk as that table shifted
to the chunk's first grid point, with n + k phases and two matrix products
per chunk. A grid frame is thus `curve_samples`' frame at its time to
roundoff, not bit for bit; the grid readers agree bit for bit because they
read one stream. Every grid reader reads each chunk in place, as the
strided view of the sampler's buffer or the fold's, and the table, the
buffers and the fold's work arrays are allocated once per stream.

The per-sample k x k products run in real arithmetic, which numpy's
batched matmul does several times faster than complex for small k. The
fold alone holds each frame in its real embedding e(V), the 2n x 2k real
view of [[V], [iV]], for which e(A)^T e(B) = E(A^H B) exactly, with

    E(Z) = Re Z (x) I_2 + Im Z (x) [[0, 1], [-1, 0]],

each entry x + iy of Z becoming the block [[x, y], [-y, x]], and
E(Y Z) = E(Y) E(Z). E(Z)'s complex view holds Z in the even rows and iZ
in the odd ones, up to roundoff, as each entry pair sums the same terms
in another order. The fold's buffer's column blocks of k hold
[[V_j], [iV_j]], block 0 the previous chunk's last frame: the oracle's
sampler writes each chunk into the rows :n, and one multiply by 1j fills
the rows below. One batched matmul of the blocks e(V_i)^T with the
windows [e(V_{i-1}) | e(V_i)], both strided views, gives
[E(V_i^H V_{i-1}) | E(V_i^H V_i)]: the chain's factor and the embedded
Gram matrix. The Gram check reads G = V_i^H V_i off the even rows of the
Gram half, in complex view, and sums ||G - I||_F^2 by the reduction of
`linalg.unitarity_defect`, which checks stored frames (`_check_frames`);
the odd rows, iG to roundoff, add nothing. The chain's pairwise passes
are planned once per stream, as views of the fold's work arrays
(`_chain_passes`), and K is read as the mean (even - i odd) / 2, which
cancels the roundoff between the rows, before the polar step. The Gram
half repeats G: 16 n k^2 multiply-adds per frame, twice the complex
products', which dominate at k = 64.

`loop_length_numeric` is the length oracle: the chord rule over the
consecutive frames (V_i, V_{i+1}) of the loop, no wrap-around, no copy of
the loop, from the chordal distance ||P_{i+1} - P_i||_F^2 = 2 ||R_i||_F^2:

    E = M sum_{i=0}^{M-1} ||R_i||_F^2,  R_i = V_{i+1} - V_i (V_i^H V_{i+1}).

Convention note: the holonomy compared against is Gamma = V(0)^H V(T) of
the horizontal lift (the composition matching a unitary gate acting on
the retained subspace); conventions differing by an overall transpose or
inverse exist in the literature and are not reconciled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DimensionError, InvalidFrame, OpenLoop, TooFewSamples
# curve_samples and loop_closure_defect are not called here; perfbench's tracing wraps
# them by this module's name.
from .extremal import (
    CLOSURE_TOL, Controller, _frame_sampler, _frozen, _sealed, check_target, curve_samples,
    holonomy_analytic, loop_closure_defect, standard_base_frame,
)
from .linalg import (
    _MAX_WHOLE, VALIDATION_TOL, _haar_stack, _squared_gram_defect, polar_unitary, unitarity_defect,
)
from .synth import _param, _whole

_SLOPE_WINDOW = (-2.5, -1.5)
_ROUNDOFF_FLOOR = 1e-12
# Byte budget of one streamed chunk's (c, n, k) frame stack: 512 frames at
# n = 8, k = 4, which was the fastest budget measured there.
_CHUNK_BYTES = 2**18
DEFAULT_SCHEDULE = (10**3, 10**4, 10**5)


@dataclass(frozen=True)
class SampledLoop:
    """A closed curve of orthonormal k-frames V_i = V(i/M), i = 0 ... M.

    `frames` has shape (M+1, n, k) with 0 < k < n, the rule of
    `extremal.standard_base_frame`. Validation confirms the first and last
    frames span the same subspace (their projectors agree within
    `extremal.CLOSURE_TOL`) and every frame is orthonormal,
    ||V^H V - I||_F within `tol`. The loop holds its frames as the
    read-only view of a stack no caller holds (`extremal._frozen`): such a
    view is kept, any other array copied, so no caller can change a frame.
    """

    frames: np.ndarray
    tol: float = VALIDATION_TOL

    def __post_init__(self):
        frames = _frozen(self.frames)
        if frames.ndim != 3:
            raise DimensionError(f"frames must have shape (M+1, n, k), got ndim={frames.ndim}")
        standard_base_frame(*frames.shape[1:])
        if len(frames) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(frames)}")
        for chunk in _slices(frames):
            _check_frames(chunk, self.tol)
        closure = _span_distance(frames[-1], frames[0])
        if not closure <= CLOSURE_TOL:
            raise OpenLoop(f"endpoint projectors differ by {closure:.3e}")
        object.__setattr__(self, "frames", frames)

    @property
    def rank(self) -> int:
        return self.frames.shape[2]


def loop_length_numeric(loop: SampledLoop) -> float:
    """Curve energy integral(0.5 * tr(Pdot^2)) dt over [0, 1] of a sampled loop.

    Summed by the chord rule of the module docstring over the consecutive
    frames (V_i, V_{i+1}), read as views of the loop in `_slices` batches:
    no copy of the loop and no n x n matrix, so memory does not grow with
    M. The rule is the midpoint rule of a chord symmetric about its
    midpoint, so its error is even in dt, c dt^2 + O(dt^4), and Richardson
    extrapolation of two grids cancels the leading term.
    """
    frames, energy = loop.frames, 0.0
    for before, after in zip(_slices(frames[:-1]), _slices(frames[1:])):
        residual = after - before @ (np.swapaxes(before, 1, 2).conj() @ after)
        energy += float(np.vdot(residual, residual).real)
    return energy * (len(frames) - 1)


@dataclass(frozen=True)
class OracleReport:
    """Cross-validation record of numeric versus analytic holonomy.

    It holds what the oracle run was given and measured: the finest-grid
    numeric holonomy `gamma_numeric`, the analytic `gamma_analytic`, the
    checked target gate `target` (`cross_validate` stores a read-only
    copy), the step `schedule` and the Frobenius distance between the two
    holonomies at each of its points, `deviations`. Everything else is
    read off those fields:

    - `deviation` and `steps`: the finest grid's deviation and step count;
    - `target_error`: ||gamma_analytic - target||_F;
    - `convergence_order_estimate`: the least-squares slope of
      log(deviation) against log(steps) over the points whose deviation
      exceeds the roundoff floor, NaN when fewer than two do (the oracle
      already agrees with the analytic answer to roundoff, so no order
      can be estimated);
    - `anomalous`: whether the slope leaves the second-order window
      [-2.5, -1.5]; a NaN slope does not.

    The polar-unitarized chain converges at order 2: each compressed step
    is I - (dt^2/2) V'^H V' + O(dt^3), the O(dt^2) terms add up to a
    Hermitian O(1/M) contraction that the polar step removes, and O(1/M^2)
    remains. A healthy measurable slope therefore lies near -2; without
    the polar step it lies near -1 and reads `anomalous`.

    Raises:
        DimensionError: the schedule is empty, or its length differs from
            the deviations'.
    """

    gamma_numeric: np.ndarray
    gamma_analytic: np.ndarray
    target: np.ndarray
    schedule: tuple[int, ...]
    deviations: tuple[float, ...]

    def __post_init__(self):
        if not self.schedule or len(self.schedule) != len(self.deviations):
            raise DimensionError(f"need one deviation per schedule point, got schedule "
                                 f"{self.schedule} and deviations {self.deviations}")

    @property
    def deviation(self) -> float:
        return self.deviations[-1]

    @property
    def steps(self) -> int:
        return self.schedule[-1]

    @property
    def target_error(self) -> float:
        return float(np.linalg.norm(self.gamma_analytic - self.target))

    @cached_property
    def convergence_order_estimate(self) -> float:
        usable = [(np.log(s), np.log(d)) for s, d in zip(self.schedule, self.deviations)
                  if d > _ROUNDOFF_FLOOR]
        if len(usable) < 2:
            return float("nan")
        xs, ys = zip(*usable)
        return float(np.polyfit(xs, ys, 1)[0])

    @property
    def anomalous(self) -> bool:
        slope = self.convergence_order_estimate
        return not np.isnan(slope) and not (_SLOPE_WINDOW[0] <= slope <= _SLOPE_WINDOW[1])


def _span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||A A^H - B B^H||_F: how far apart the spans of two n x k frames are."""
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T))


def _grid_times(steps: int, start: int, stop: int) -> np.ndarray:
    """Times t_i = i * (1 / steps) of the grid points start, ..., stop-1,
    with t_steps exactly 1.0: the one definition of the uniform grid."""
    index = np.arange(start, stop)
    return np.where(index == steps, 1.0, index * (1.0 / steps))


def _check_frames(frames: np.ndarray, tol: float) -> None:
    """Gram-check a stored (c, n, k) frame stack, as `SampledLoop` and the
    `sample` CSV hold them: InvalidFrame unless every ||V^H V - I||_F,
    `linalg.unitarity_defect`, is within `tol`."""
    worst = unitarity_defect(frames)
    if not worst <= tol:
        raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")


def sample_loop(ctrl: Controller, steps: int, tol: float = VALIDATION_TOL) -> SampledLoop:
    """Sample the controller's projected loop at t_i = i / steps, i = 0 ... steps,
    in the batches of `_grid_batches`, written into one frame stack, which
    `SampledLoop` Gram-checks and keeps, as a read-only view, without a
    copy, so the frames are the oracle's and the `sample` CSV's bit for bit.

    Raises:
        OpenLoop: the controller does not close its loop at t = 1.
        TooFewSamples: steps < 2.
        DimensionError: steps is not a whole number (`synth._whole`) or
            exceeds 2**53.
    """
    _, (steps,) = _closed_loop(ctrl, steps)
    frames = np.empty((steps + 1, ctrl.n, ctrl.k), dtype=complex)
    for out, batch in zip(_slices(frames), _grid_batches(ctrl, steps)):
        out[...] = batch
    return SampledLoop(_sealed(frames), tol)


def _chain_passes(factors: np.ndarray, work: np.ndarray):
    """(passes, result): the pairwise reduction of the product factors[0] @
    factors[1] @ ... @ factors[-1], planned as views, to be run in order.

    Associativity keeps the operand order intact while each pass halves
    the count with one batched matmul, so long chains stay cheap. Pass
    (left, right, out, tail, slot) runs np.matmul(left, right, out=out)
    and, for an odd count, copies the unpaired last factor, `tail`, into
    `slot`; `result` then holds the product. The passes alternate between
    the two halves of `work`, each holding at least (len(factors) + 1) // 2
    matrices. A plan depends only on the count of factors, so a stream
    builds it once per chunk size, not once per chunk.
    """
    passes, chain, halves = [], factors, work.reshape(2, -1, *work.shape[1:])
    while chain.shape[0] > 1:
        pairs, odd = divmod(chain.shape[0], 2)
        paired, halves = halves[0][:pairs + odd], halves[::-1]
        tail = (chain[-1:], paired[pairs:]) if odd else (None, None)
        passes.append((chain[0:2 * pairs:2], chain[1:2 * pairs:2], paired[:pairs], *tail))
        chain = paired
    return passes, chain[0]


def _chain_holonomy(stream, count: int, v0: np.ndarray, tol: float) -> np.ndarray:
    """Polar factor of V0^H V_M . V_M^H V_{M-1} ... V_1^H V_0 . V_0^H V0.

    `stream(rows)` yields the frames V_0, ..., V_M in ascending time
    order, as (c, n, k) stacks of at most `count` frames, each read before
    the next is asked for; `rows` are the fold buffer's rows :n past block
    0, where a stream may write them in place (see the module docstring).
    Each chunk is copied there, at no cost when it is there already, and
    one batched matmul gives its chain factors and, in its even rows, the
    frames' Gram matrices. Every frame is checked against `tol`
    (InvalidFrame), and the factors are reduced pairwise into a running
    2k x 2k product. The buffer, the work arrays and the views of the
    chain's passes are built once, for `count` frames; a shorter last
    chunk plans its own passes.
    """
    n, k = v0.shape
    buffer = np.empty((2 * n, (count + 1) * k), dtype=complex)
    frames, real = np.swapaxes(buffer[:n, k:].reshape(n, count, k), 0, 1), buffer.view(float)
    step, row, column = 2 * k * real.itemsize, *real.strides
    windows = as_strided(real, (count, 2 * n, 4 * k), (step, row, column), writeable=False)
    blocks = np.swapaxes(windows[:, :, 2 * k:], 1, 2)
    products = np.empty((count, 2 * k, 4 * k))
    grams = products[:, 0::2, 2 * k:].view(complex)  # G = V_i^H V_i; the odd rows hold iG
    halves = np.empty((2 * ((count + 1) // 2), 2 * k, 2 * k))
    full = _chain_passes(products[::-1, :, :2 * k], halves)
    buffer[:n, :k], chain = v0, np.eye(2 * k)
    for chunk in stream(buffer[:n, k:]):
        c = len(chunk)
        frames[:c] = chunk
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(buffer[:n, :(c + 1) * k], 1j, out=buffer[n:, :(c + 1) * k])
            np.matmul(blocks[:c], windows[:c], out=products[:c])
        worst = _squared_gram_defect(grams[:c]) ** 0.5
        if not worst <= tol:
            raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")
        passes, folded = full if c == count else _chain_passes(
            products[c - 1::-1, :, :2 * k], halves)
        for left, right, out, tail, slot in passes:
            np.matmul(left, right, out=out)
            if tail is not None:
                slot[...] = tail
        chain = folded @ chain
        buffer[:n, :k] = buffer[:n, c * k:(c + 1) * k]
    embedded = chain.view(complex)  # K in the even rows, iK in the odd ones, to roundoff
    product = (embedded[0::2] - 1j * embedded[1::2]) / 2
    return polar_unitary(v0.conj().T @ buffer[:n, :k] @ product)


def numeric_holonomy(loop: SampledLoop) -> np.ndarray:
    """Discrete parallel-transport holonomy of a sampled frame loop.

    Multiplies the k x k overlaps of the base frame and the frames
    V_0 ... V_M in descending time order, in the chunks that `SampledLoop`
    checks and `_grid_batches` samples, and unitarizes the product by polar
    decomposition; on `sample_loop`'s frames it gives `cross_validate`'s
    bits. Converges to the holonomy of the canonical connection as the
    grid refines; the polar step guarantees a unitary result at any
    resolution. The chain starts from the standard base frame V0, so the
    loop's first frame must span the same subspace: ||V_0 V_0^H - P0||_F
    within `extremal.CLOSURE_TOL`, with P0 = V0 V0^H.

    Raises:
        InvalidFrame: the loop does not start in the span of V0.
        SingularInput: the chain is numerically singular, which signals the
            loop was sampled too coarsely for transport.
    """
    v0 = standard_base_frame(*loop.frames.shape[1:])
    offset = _span_distance(loop.frames[0], v0)
    if not offset <= CLOSURE_TOL:
        raise InvalidFrame(
            f"loop does not start at the base projector: ||V_0 V_0^H - P0||_F = "
            f"{offset:.3e} exceeds {CLOSURE_TOL:.1e}")
    count = min(_chunk_frames(*v0.shape), len(loop.frames))
    return _chain_holonomy(lambda rows: _slices(loop.frames), count, v0, loop.tol)


def _chunk_frames(n: int, k: int) -> int:
    """Frames per streamed chunk: a fixed budget of frame-stack bytes, and
    at least two, so that no stream meets the sampler's lone-offset rule
    (`extremal._frame_sampler`)."""
    return max(2, _CHUNK_BYTES // (16 * n * k))


def _slices(frames: np.ndarray):
    """Views of a (c, n, k) frame stack in `_chunk_frames` batches, in time
    order: the one slicing of a whole loop."""
    chunk = _chunk_frames(*frames.shape[1:])
    return (frames[start:start + chunk] for start in range(0, len(frames), chunk))


def _grid_batches(ctrl: Controller, steps: int, out: np.ndarray | None = None):
    """The frames of the grid points 0, ..., steps of `_grid_times`, in
    `_chunk_frames` batches, sampled on the caller's thread and not checked:
    the one sampling of the grid, so every reader that must agree bit for
    bit reads the same frames. A batch starting at grid point `start` holds
    the frames of `_grid_times(steps, start, start + len(batch))`, which a
    reader that needs the times builds from its own count. One
    `extremal._frame_sampler` per stream holds the table of the offsets
    s_j = j * (1 / steps) of one batch, and each batch is that table
    shifted to t0 = start * (1 / steps), its first grid point; the frames
    are the view of the sampler's buffer, allocated once per stream, or of
    `out`, an (n, c k) array for the batch's c = min(chunk, steps + 1)
    frames, when one is given, and are valid until the next batch is asked
    for."""
    chunk, dt = _chunk_frames(ctrl.n, ctrl.k), 1.0 / steps
    sample = _frame_sampler(ctrl, np.arange(min(chunk, steps + 1)) * dt, out=out)
    for start in range(0, steps + 1, chunk):
        yield sample(start * dt)[:min(chunk, steps + 1 - start)]


def _closed_loop(ctrl: Controller, *steps) -> tuple[np.ndarray, tuple[int, ...]]:
    """(Gamma, the step counts), once every count reads as an integer by
    `synth._whole` and passes, and `holonomy_analytic` decides the loop is
    closed; the one preamble of every grid reader."""
    steps = tuple(_param(_whole, s, "step count", DimensionError) for s in steps)
    if min(steps) < 2:
        raise TooFewSamples(f"steps must be >= 2, got {min(steps)}")
    if max(steps) > _MAX_WHOLE:
        raise DimensionError(f"steps must be <= 2**53, got {max(steps)}")
    return holonomy_analytic(ctrl), steps


def cross_validate(
    ctrl: Controller,
    gate,
    steps_schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
    tol: float = VALIDATION_TOL,
) -> OracleReport:
    """Run the oracle over a refinement schedule and record its transport.

    Each schedule point is sampled and transported in fixed-size chunks
    (see the module docstring), so memory does not grow with the steps;
    it gives `numeric_holonomy(sample_loop(ctrl, steps, tol))` bit for bit.
    The step-count, closure and target-gate checks are decided once per
    call, before any frame is sampled and Gram-checked; a step count reads
    as `synth._whole` reads it. The schedule is a non-empty sequence of
    step counts that increases strictly: its last point is the finest grid.

    The report holds the finest grid's Gamma, the analytic Gamma, a
    read-only copy of the checked target and the deviation at each
    schedule point. Nothing is fitted here: the report reads its slope
    and verdict off those deviations (see `OracleReport`).
    """
    schedule = tuple(steps_schedule) if np.iterable(steps_schedule) else None
    if not schedule:
        raise DimensionError(f"expected a schedule of step counts, got {steps_schedule!r}")
    analytic, schedule = _closed_loop(ctrl, *schedule)
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise DimensionError(f"steps_schedule must be strictly increasing, got {schedule}")
    gate = _frozen(check_target(ctrl, gate, tol))
    v0 = ctrl.base_frame()
    deviations = []
    for steps in schedule:
        gamma_numeric = _chain_holonomy(
            lambda rows: _grid_batches(ctrl, steps, rows),
            min(_chunk_frames(ctrl.n, ctrl.k), steps + 1), v0, tol)
        deviations.append(float(np.linalg.norm(gamma_numeric - analytic)))
    return OracleReport(
        gamma_numeric=gamma_numeric,
        gamma_analytic=analytic,
        target=gate,
        schedule=schedule,
        deviations=tuple(deviations),
    )


def gauge_invariance_check(loop: SampledLoop, trials: int, seed: int) -> float:
    """Max oracle shift under random re-gauging of the sampled frames.

    For each trial, every frame is right-multiplied by a fresh Haar
    unitary, which leaves its projector unchanged, and the oracle is rerun
    on the re-gauged loop. Since the overlap chain telescopes to the
    projector chain in any gauge, the shift is pure roundoff. `trials`
    reads as a step count does (`synth._whole`) and must be at least 1;
    `seed` reads as `--seed` does, a whole number >= 0.

    Raises:
        DimensionError: `trials` is not a whole number >= 1, or `seed` not
            one >= 0.
    """
    trials = _param(_whole, trials, "trials", DimensionError)
    if trials < 1:
        raise DimensionError(f"trials must be >= 1, got {trials}")
    seed = _param(_whole, seed, "seed", DimensionError)
    if seed < 0:
        raise DimensionError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    baseline = numeric_holonomy(loop)
    worst = 0.0
    for _ in range(trials):
        gauges = _haar_stack(loop.rank, rng, loop.frames.shape[:1])
        gamma = numeric_holonomy(SampledLoop(_sealed(loop.frames @ gauges), loop.tol))
        worst = max(worst, float(np.linalg.norm(gamma - baseline)))
    return worst
