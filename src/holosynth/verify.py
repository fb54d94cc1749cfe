"""Independent numerical holonomy oracle.

The oracle never touches the closed-form solution: it consumes only the
sampled loop of orthonormal k-frames V_0 ... V_M and the base frame V0.
The discrete transporter is the ordered overlap (Wilson-loop) chain

    K = V0^H V_{M-1} . V_{M-1}^H V_{M-2} ... V_2^H V_1 . V_1^H V0

of k x k matrices, followed by polar unitarization, which extracts the
closest unitary and discards the contraction the finite product
accumulates. Each factor V_i V_i^H is the sample's projector, so K equals
the projector chain V0^H P(t_{M-1}) ... P(t_1) V0 term for term, and any
frame choice at the interior samples gives the same answer up to
roundoff, which `gauge_invariance_check` verifies literally. No n x n
matrix is formed per sample.

Convention note: the holonomy compared against is Gamma = V(0)^H V(T) of
the horizontal lift (the composition matching a unitary gate acting on
the retained subspace); conventions differing by an overall transpose or
inverse exist in the literature and are not reconciled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import standard_base_frame
from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionError, InvalidFrame, OpenLoop, TooFewSamples
from .extremal import Controller, curve_samples, holonomy_analytic, loop_closure_defect
from .linalg import haar_unitary, polar_unitary, unitarity_defect

_SLOPE_WINDOW = (-2.5, -1.5)
_ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class SampledLoop:
    """A closed curve of orthonormal k-frames sampled on a uniform time grid.

    `frames` has shape (M+1, n, k). Validation confirms the grid is uniform
    on [0, 1], the first and last frames span the same subspace (their
    projectors agree within `tol.closure`), and every frame is orthonormal,
    ||V^H V - I||_F within `tol.frame`.
    """

    times: np.ndarray
    frames: np.ndarray
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        frames = np.asarray(self.frames, dtype=complex)
        if times.ndim != 1 or frames.ndim != 3 or len(times) != frames.shape[0]:
            raise DimensionError("times and frames must align 1:1")
        if len(times) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(times)}")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
            raise DimensionError("time grid is not uniform")
        first, last = frames[0], frames[-1]
        closure = float(np.linalg.norm(last @ last.conj().T - first @ first.conj().T))
        if closure > self.tol.closure:
            raise OpenLoop(f"endpoint projectors differ by {closure:.3e}")
        worst = unitarity_defect(frames)
        if worst > self.tol.frame:
            raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "frames", frames)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    @property
    def rank(self) -> int:
        return self.frames.shape[2]

    @property
    def projectors(self) -> np.ndarray:
        """The (M+1, n, n) stack P = V V^H, formed on every access."""
        return np.einsum("mik,mjk->mij", self.frames, self.frames.conj())


@dataclass(frozen=True)
class OracleReport:
    """Cross-validation record of numeric versus analytic holonomy.

    `deviation` is the finest-grid Frobenius distance between the two.
    `convergence_order_estimate` is the least-squares slope of
    log(deviation) against log(steps); it is NaN when the deviations sit
    at the roundoff floor, where no order can be estimated. The
    polar-unitarized chain converges at order 2, so a slope outside the
    second-order window [-2.5, -1.5] sets `anomalous` instead of raising;
    it is False when the slope is NaN.
    """

    gamma_numeric: np.ndarray
    gamma_analytic: np.ndarray
    deviation: float
    steps: int
    convergence_order_estimate: float
    anomalous: bool
    schedule: tuple[int, ...]
    deviations: tuple[float, ...]
    target_error: float


def sample_loop(
    ctrl: Controller, steps: int, tol: Tolerances = DEFAULT_TOL
) -> SampledLoop:
    """Sample the controller's projected loop at steps+1 uniform times.

    Raises:
        OpenLoop: the controller does not close its loop at t = 1.
        TooFewSamples: steps < 2.
    """
    if steps < 2:
        raise TooFewSamples(f"steps must be >= 2, got {steps}")
    defect = loop_closure_defect(ctrl, 1.0)
    if defect > tol.closure:
        raise OpenLoop(
            f"loop closure defect {defect:.3e} exceeds {tol.closure:.1e}"
        )
    times = np.linspace(0.0, 1.0, steps + 1)
    return SampledLoop(times=times, frames=curve_samples(ctrl, times), tol=tol)


def _ordered_chain(factors: np.ndarray) -> np.ndarray:
    """Product factors[0] @ factors[1] @ ... @ factors[-1] by pairwise reduction.

    Associativity keeps the operand order intact while each pass halves
    the count with one batched matmul, so megasample chains stay cheap.
    """
    chain = factors
    while chain.shape[0] > 1:
        m = chain.shape[0]
        half = (m // 2) * 2
        paired = np.matmul(chain[0:half:2], chain[1:half:2])
        if m % 2:
            chain = np.concatenate([paired, chain[-1:]], axis=0)
        else:
            chain = paired
    return chain[0]


def numeric_holonomy(loop: SampledLoop, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Discrete parallel-transport holonomy of a sampled frame loop.

    Multiplies the k x k overlaps of the base frame and the interior frames
    in descending time order and unitarizes the product by polar
    decomposition. Converges to the holonomy of the canonical connection
    as the grid refines; the polar step guarantees a unitary result at any
    resolution.

    Raises:
        SingularInput: the chain is numerically singular, which signals the
            loop was sampled too coarsely for transport.
    """
    inner = loop.frames[-2:0:-1]  # V_{M-1}, ..., V_1
    v0 = standard_base_frame(inner.shape[1], loop.rank)
    overlaps = np.concatenate([
        (v0.conj().T @ inner[0])[None],
        np.swapaxes(inner[:-1], -2, -1).conj() @ inner[1:],
        (inner[-1].conj().T @ v0)[None],
    ])
    return polar_unitary(_ordered_chain(overlaps), tol)


def cross_validate(
    ctrl: Controller,
    gate,
    steps_schedule: tuple[int, ...] = (10**3, 10**4, 10**5),
    tol: Tolerances = DEFAULT_TOL,
) -> OracleReport:
    """Run the oracle over a refinement schedule and fit its convergence.

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
    gate = np.asarray(gate, dtype=complex)
    schedule = tuple(int(s) for s in steps_schedule)
    if not schedule:
        raise DimensionError("steps_schedule must not be empty")
    analytic = holonomy_analytic(ctrl, 1.0, tol)
    deviations = []
    gamma_numeric = None
    for steps in schedule:
        loop = sample_loop(ctrl, steps, tol)
        gamma_numeric = numeric_holonomy(loop, tol)
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
        deviation=deviations[-1],
        steps=schedule[-1],
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
        gauges = np.stack([haar_unitary(loop.rank, rng) for _ in loop.times])
        regauged = SampledLoop(
            times=loop.times, frames=loop.frames @ gauges, tol=loop.tol
        )
        gamma = numeric_holonomy(regauged)
        worst = max(worst, float(np.linalg.norm(gamma - baseline)))
    return worst
