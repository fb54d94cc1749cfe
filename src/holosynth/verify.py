"""Independent numerical holonomy oracle.

The oracle never touches the closed-form solution: it consumes only the
sampled loop of orthonormal k-frames V_i = V(t_i) on the fixed grid
t_i = i/M, i = 0 ... M, and the base frame V0.
The discrete transporter is the ordered overlap (Wilson-loop) chain

    K = V0^H V_{M-1} . V_{M-1}^H V_{M-2} ... V_2^H V_1 . V_1^H V0

of k x k matrices, followed by polar unitarization, which extracts the
closest unitary and discards the contraction the finite product
accumulates. Each factor V_i V_i^H is the sample's projector, so K equals
the projector chain V0^H P(t_{M-1}) ... P(t_1) V0 term for term, and any
frame choice at the interior samples gives the same answer up to
roundoff, which `gauge_invariance_check` verifies literally. No n x n
matrix is formed per sample.

`cross_validate` and the CLI's `sample` read a loop through one grid
sampler, in chunks sized to a fixed byte budget (512 frames at n = 8,
k = 4), each chunk Gram-checked. The oracle folds a chunk's overlaps into
a running product and carries its last frame into the next; `sample`
writes a chunk's CSV rows, so memory does not grow with the step count.
Every grid reader, `sample_loop` too, takes its times from `_grid_times`
after `_closed_loop` checks the step count and lets `holonomy_analytic`
decide closure, once per call; whole loops share the Gram check and fold.

The two halves of a chunk's work overlap: one helper thread per stream
samples the next chunk (`curve_samples`, whose numpy calls release the
GIL) while the caller's thread Gram-checks and folds this one, a lookahead
of one chunk, so one extra chunk is in flight and memory still does not
grow with the step count. The checks run in chunk order, and the fold's
chunk-sized work arrays are allocated once per stream and reused.

The per-sample k x k products run in real arithmetic, which numpy's
batched matmul does several times faster than complex for small k. A
chunk's frames are copied once into their real transposed form
(`linalg._adjoint`); one real batched matmul then gives the Gram matrices
V^H V for the check and one more the overlaps, each recombined as
V_i^H B = Re(V_i)^T B - i Im(V_i)^T B. The chain multiplies the real
2k x 2k embeddings

    E(Z) = Re Z (x) I_2 + Im Z (x) [[0, 1], [-1, 0]],

each entry x + iy of Z becoming the block [[x, y], [-y, x]]. E is exact
for products, E(Y Z) = E(Y) E(Z), its complex view holds Z in the even
rows and iZ in the odd ones, so each overlap is written straight into it,
and K is read back from the even rows before the polar step.

`loop_length_numeric` is the length oracle: the periodic trapezoid rule
on central differences that wrap around the closed loop, V_{-1} = V_{M-1},
of the chordal distance ||P_b - P_a||_F^2 = 2 ||V_b - V_a V_a^H V_b||_F^2:

    E = sum_{i=0}^{M-1} ||R_i||_F^2 * M / 4,  R_i = V_{i+1} - V_{i-1} (V_{i-1}^H V_{i+1}).

Convention note: the holonomy compared against is Gamma = V(0)^H V(T) of
the horizontal lift (the composition matching a unitary gate acting on
the retained subspace); conventions differing by an overall transpose or
inverse exist in the literature and are not reconciled here.
"""

from __future__ import annotations

import queue
import threading
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, InvalidFrame, OpenLoop, TooFewSamples
# loop_closure_defect is not called here; perfbench's tracing wraps it by this module's name.
from .extremal import (
    CLOSURE_TOL, Controller, check_target, curve_samples, holonomy_analytic,
    loop_closure_defect, standard_base_frame,
)
from .linalg import (
    _MAX_WHOLE, VALIDATION_TOL, _adjoint, _adjoint_product, _gram_defect, _haar_stack,
    polar_unitary,
)

_SLOPE_WINDOW = (-2.5, -1.5)
_ROUNDOFF_FLOOR = 1e-12
# Byte budget of one streamed chunk's (c, n, k) frame stack: 512 frames at
# n = 8, k = 4, which was the fastest budget measured there.
_CHUNK_BYTES = 2**18
DEFAULT_SCHEDULE = (10**3, 10**4, 10**5)


@dataclass(frozen=True)
class SampledLoop:
    """A closed curve of orthonormal k-frames V_i = V(i/M), i = 0 ... M.

    `frames` has shape (M+1, n, k). Validation confirms the first and last
    frames span the same subspace (their projectors agree within
    `extremal.CLOSURE_TOL`) and every frame is orthonormal,
    ||V^H V - I||_F within `tol`.
    """

    frames: np.ndarray
    tol: float = VALIDATION_TOL
    # the Gram check's `linalg._adjoint` of the frames, which the fold reuses
    _checked_adjoint: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames, dtype=complex)
        if frames.ndim != 3:
            raise DimensionError(f"frames must have shape (M+1, n, k), got ndim={frames.ndim}")
        if len(frames) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(frames)}")
        closure = _span_distance(frames[-1], frames[0])
        if not closure <= CLOSURE_TOL:
            raise OpenLoop(f"endpoint projectors differ by {closure:.3e}")
        object.__setattr__(self, "_checked_adjoint", _check_frames(frames, self.tol))
        object.__setattr__(self, "frames", frames)

    @property
    def rank(self) -> int:
        return self.frames.shape[2]


def loop_length_numeric(loop: SampledLoop) -> float:
    """Curve energy integral(0.5 * tr(Pdot^2)) dt over [0, 1] of a sampled loop.

    Summed from the loop's frames by the periodic rule of the module
    docstring, which holds no n x n matrix. Its O(dt^2) error is the
    stencil's alone, so Richardson extrapolation of two grids cancels it.
    """
    frames = loop.frames
    m = len(frames) - 1
    before, after = np.roll(frames[:-1], 1, axis=0), frames[1:]
    residual = before @ (np.swapaxes(before, 1, 2).conj() @ after)
    np.subtract(after, residual, out=residual)
    return float(np.vdot(residual, residual).real) * m / 4.0


@dataclass(frozen=True)
class OracleReport:
    """Cross-validation record of numeric versus analytic holonomy.

    `deviation` is the finest-grid Frobenius distance between the two,
    reached at `steps`. `convergence_order_estimate` is the least-squares
    slope of log(deviation) against log(steps); it is NaN when the
    deviations sit at the roundoff floor, where no order can be estimated.
    The polar-unitarized chain converges at order 2, so a slope outside
    the second-order window [-2.5, -1.5] sets `anomalous` instead of
    raising; it is False when the slope is NaN.
    """

    gamma_numeric: np.ndarray
    gamma_analytic: np.ndarray
    convergence_order_estimate: float
    anomalous: bool
    schedule: tuple[int, ...]
    deviations: tuple[float, ...]
    target_error: float

    @property
    def deviation(self) -> float:
        return self.deviations[-1]

    @property
    def steps(self) -> int:
        return self.schedule[-1]


def _span_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||A A^H - B B^H||_F: how far apart the spans of two n x k frames are."""
    return float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T))


def _grid_times(steps: int, lo: int, hi: int) -> np.ndarray:
    """Times t_i = i * (1 / steps) of the grid points lo, ..., hi-1, with
    t_steps exactly 1.0: the one definition of the uniform grid."""
    index = np.arange(lo, hi)
    return np.where(index == steps, 1.0, index * (1.0 / steps))


def _check_frames(frames: np.ndarray, tol: float, out: np.ndarray | None = None) -> np.ndarray:
    """Gram-check a contiguous (c, n, k) frame stack and return its
    `linalg._adjoint`, written into `out` if given, for the overlap fold."""
    adjoint = _adjoint(frames, out)
    worst = _gram_defect(adjoint, frames)
    if not worst <= tol:
        raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")
    return adjoint


def sample_loop(ctrl: Controller, steps: int, tol: float = VALIDATION_TOL) -> SampledLoop:
    """Sample the controller's projected loop at t_i = i / steps, i = 0 ... steps.

    Raises:
        OpenLoop: the controller does not close its loop at t = 1.
        TooFewSamples: steps < 2.
        DimensionError: steps > 2**53.
    """
    _closed_loop(ctrl, steps)
    return SampledLoop(curve_samples(ctrl, _grid_times(steps, 0, steps + 1)), tol)


def _ordered_chain(factors: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Product factors[0] @ factors[1] @ ... @ factors[-1] by pairwise reduction.

    Associativity keeps the operand order intact while each pass halves
    the count with one batched matmul, so long chains stay cheap. The
    passes alternate between the two halves of `work`, each holding at
    least (len(factors) + 1) // 2 matrices.
    """
    chain, halves = factors, np.split(work, 2)
    while chain.shape[0] > 1:
        pairs, odd = divmod(chain.shape[0], 2)
        paired, halves = halves[0][:pairs + odd], halves[::-1]
        np.matmul(chain[0:2 * pairs:2], chain[1:2 * pairs:2], out=paired[:pairs])
        if odd:
            paired[pairs] = chain[-1]
        chain = paired
    return chain[0]


def _chain_holonomy(chunks, v0: np.ndarray) -> np.ndarray:
    """Polar factor of V0^H V_{M-1} . V_{M-1}^H V_{M-2} ... V_1^H V0.

    `chunks` yields the interior frames V_1, ..., V_{M-1} as (frames,
    adjoint) pairs in ascending time order: a contiguous (c, n, k) stack
    and its `linalg._adjoint`. Each chunk's overlaps come from one batched
    matmul and are written straight into their real embeddings (see the
    module docstring), which are reduced pairwise and left-multiplied
    into a running 2k x 2k product; the chunk's last frame is carried into
    the next, so one chunk is held at a time. The chunk-sized work arrays
    are allocated at the first chunk, which no later chunk outgrows, and
    reused for every chunk.
    """
    k = v0.shape[1]
    chain, prev, work = np.eye(2 * k), v0, None
    for frames, adjoint in chunks:
        c = len(frames)
        if work is None:
            work = np.empty((2 * (c + (c + 1) // 2), 2 * k, 2 * k))
            embedded = work[:c].view(complex).reshape(c, k, 2, k)
            product, halves = work[c:2 * c], work[2 * c:]
        overlaps = embedded[:c, :, 0, :]
        _adjoint_product(adjoint[:1], prev[None], overlaps[:1])
        _adjoint_product(adjoint[1:], frames[:-1], overlaps[1:], product[:c - 1])
        np.multiply(overlaps, 1j, out=embedded[:c, :, 1, :])
        factors = embedded[:c].view(float).reshape(c, 2 * k, 2 * k)
        chain = _ordered_chain(factors[::-1], halves) @ chain
        prev = frames[-1]
    return polar_unitary(v0.conj().T @ prev @ chain.view(complex)[0::2])


def numeric_holonomy(loop: SampledLoop) -> np.ndarray:
    """Discrete parallel-transport holonomy of a sampled frame loop.

    Multiplies the k x k overlaps of the base frame and the interior frames
    in descending time order and unitarizes the product by polar
    decomposition. Converges to the holonomy of the canonical connection
    as the grid refines; the polar step guarantees a unitary result at any
    resolution. The chain starts from the standard base frame V0, so the
    loop's first frame must span the same subspace: ||V_0 V_0^H - P0||_F
    within `extremal.CLOSURE_TOL`, with P0 = V0 V0^H.

    Raises:
        InvalidFrame: the loop does not start in the span of V0.
        SingularInput: the chain is numerically singular, which signals the
            loop was sampled too coarsely for transport.
    """
    first = loop.frames[0]
    v0 = standard_base_frame(first.shape[0], loop.rank)
    offset = _span_distance(first, v0)
    if not offset <= CLOSURE_TOL:
        raise InvalidFrame(
            f"loop does not start at the base projector: ||V_0 V_0^H - P0||_F = "
            f"{offset:.3e} exceeds {CLOSURE_TOL:.1e}")
    return _chain_holonomy([(loop.frames[1:-1], loop._checked_adjoint[1:-1])], v0)


def _chunk_frames(n: int, k: int) -> int:
    """Frames per streamed chunk: a fixed budget of frame-stack bytes."""
    return max(1, _CHUNK_BYTES // (16 * n * k))


def _grid_chunks(ctrl: Controller, steps: int, lo: int, hi: int, tol: float):
    """(times, frames, adjoint) of the grid points lo, ..., hi-1 of
    `_grid_times`, one chunk at a time, Gram-checked in order on the
    caller's thread while a helper thread samples the next chunk; an
    exception of the helper is raised here, at its chunk. Each frame equals
    its `sample_loop` counterpart. `frames` is a fresh array per chunk;
    `adjoint`, the check's `linalg._adjoint`, is valid only until the next.
    The helper is joined when the stream ends, raises or is closed, so a
    reader that may stop early closes it (`contextlib.closing`)."""
    chunk = _chunk_frames(ctrl.n, ctrl.k)
    starts = range(lo, hi, chunk)
    wanted, ready = queue.SimpleQueue(), queue.SimpleQueue()

    def sample():
        # the caller asks for each chunk in turn (True) or stops the stream (False)
        try:
            for start in starts:
                times = _grid_times(steps, start, min(start + chunk, hi))
                frames = curve_samples(ctrl, times)
                if not wanted.get():
                    return
                ready.put((times, frames))
        except BaseException as exc:  # raised again on the caller's thread
            if wanted.get():
                ready.put(exc)

    adjoint = np.empty((min(chunk, hi - lo), 2 * ctrl.k, ctrl.n))
    helper = threading.Thread(target=sample, name="holosynth-sampler", daemon=True)
    helper.start()
    try:
        for _ in starts:
            wanted.put(True)
            item = ready.get()
            if isinstance(item, BaseException):
                raise item
            times, frames = item
            yield times, frames, _check_frames(frames, tol, adjoint[:len(frames)])
    finally:
        wanted.put(False)
        helper.join()


def _closed_loop(ctrl: Controller, *steps: int) -> np.ndarray:
    """Gamma, once every step count passes and `holonomy_analytic` decides
    the loop is closed; the one preamble of every grid reader."""
    if min(steps) < 2:
        raise TooFewSamples(f"steps must be >= 2, got {min(steps)}")
    if max(steps) > _MAX_WHOLE:
        raise DimensionError(f"steps must be <= 2**53, got {max(steps)}")
    return holonomy_analytic(ctrl)


def cross_validate(
    ctrl: Controller,
    gate,
    steps_schedule: tuple[int, ...] = DEFAULT_SCHEDULE,
    tol: float = VALIDATION_TOL,
) -> OracleReport:
    """Run the oracle over a refinement schedule and fit its convergence.

    Each schedule point is sampled and transported in fixed-size chunks
    (see the module docstring), so memory does not grow with the steps.
    Each point gives `numeric_holonomy(sample_loop(ctrl, steps, tol))`. The
    step-count, closure and target-gate checks are decided once per call,
    before the interior frames are sampled and Gram-checked. The schedule
    must increase strictly: its last point is the finest grid.

    The slope fit only uses schedule points whose deviation exceeds the
    roundoff floor; when fewer than two such points remain the estimate is
    NaN (the oracle already agrees with the analytic answer to roundoff
    everywhere, so no meaningful order exists).

    The polar-unitarized chain converges at order 2: each compressed step
    is I - (dt^2/2) V'^H V' + O(dt^3), the O(dt^2) terms add up to a
    Hermitian O(1/M) contraction that the polar step removes, and O(1/M^2)
    remains. A healthy measurable slope therefore lies near -2; one outside
    [-2.5, -1.5] (near -1, say, when the polar step is lost) sets
    `anomalous`.
    """
    schedule = tuple(int(s) for s in steps_schedule)
    if not schedule:
        raise DimensionError("steps_schedule must not be empty")
    analytic = _closed_loop(ctrl, *schedule)
    if any(a >= b for a, b in zip(schedule, schedule[1:])):
        raise DimensionError(f"steps_schedule must be strictly increasing, got {schedule}")
    gate = check_target(ctrl, gate, tol)
    v0 = ctrl.base_frame()
    deviations = []
    for steps in schedule:
        with closing(_grid_chunks(ctrl, steps, 1, steps, tol)) as interior:
            gamma_numeric = _chain_holonomy(((f, a) for _, f, a in interior), v0)
        deviations.append(float(np.linalg.norm(gamma_numeric - analytic)))
    usable = [
        (np.log(s), np.log(d))
        for s, d in zip(schedule, deviations)
        if d > _ROUNDOFF_FLOOR
    ]
    if len(usable) >= 2:
        xs, ys = zip(*usable)
        slope = float(np.polyfit(xs, ys, 1)[0])
        anomalous = not (_SLOPE_WINDOW[0] <= slope <= _SLOPE_WINDOW[1])
    else:
        slope = float("nan")
        anomalous = False
    return OracleReport(
        gamma_numeric=gamma_numeric,
        gamma_analytic=analytic,
        convergence_order_estimate=slope,
        anomalous=anomalous,
        schedule=schedule,
        deviations=tuple(deviations),
        target_error=float(np.linalg.norm(analytic - gate)),
    )


def gauge_invariance_check(loop: SampledLoop, trials: int, seed: int) -> float:
    """Max oracle shift under random re-gauging of the sampled frames.

    For each trial, every frame is right-multiplied by a fresh Haar
    unitary, which leaves its projector unchanged, and the oracle is rerun
    on the re-gauged loop. Since the overlap chain telescopes to the
    projector chain in any gauge, the shift is pure roundoff.
    """
    rng = np.random.default_rng(seed)
    baseline = numeric_holonomy(loop)
    worst = 0.0
    for _ in range(trials):
        gauges = _haar_stack(loop.rank, rng, loop.frames.shape[:1])
        gamma = numeric_holonomy(SampledLoop(loop.frames @ gauges, loop.tol))
        worst = max(worst, float(np.linalg.norm(gamma - baseline)))
    return worst
