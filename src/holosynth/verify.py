"""Independent numerical holonomy oracle.

The oracle never touches the closed-form solution: it consumes only the
sampled projector loop and the base frame. The discrete transporter is the
ordered projector chain

    K = V0^H P(t_{M-1}) P(t_{M-2}) ... P(t_1) V0

followed by polar unitarization, which extracts the closest unitary and
discards the contraction the finite product accumulates. The chain uses
gauge-invariant data only, so any frame choice over the same projectors
gives the same answer up to roundoff, which `gauge_invariance_check`
verifies literally.

Convention note: the holonomy compared against is Gamma = V(0)^H V(T) of
the horizontal lift (the composition matching a unitary gate acting on
the retained subspace); conventions differing by an overall transpose or
inverse exist in the literature and are not reconciled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import projector_defects, standard_base_frame
from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionError, InvalidProjector, OpenLoop, TooFewSamples
from .extremal import Controller, curve_samples, holonomy_analytic, loop_closure_defect
from .linalg import haar_unitary, polar_unitary

_SLOPE_WINDOW = (-2.5, -1.5)
_ROUNDOFF_FLOOR = 1e-12


@dataclass(frozen=True)
class SampledLoop:
    """A closed projector curve sampled on a uniform time grid.

    Validation confirms the grid is uniform on [0, 1], the first and last
    projectors agree within `tol.closure`, and every sample passes the
    projector invariants within `tol.projector`.
    """

    times: np.ndarray
    projectors: np.ndarray
    rank: int
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        projs = np.asarray(self.projectors, dtype=complex)
        if times.ndim != 1 or projs.ndim != 3 or len(times) != projs.shape[0]:
            raise DimensionError("times and projectors must align 1:1")
        if len(times) < 3:
            raise TooFewSamples(f"need at least 3 samples, got {len(times)}")
        steps = np.diff(times)
        if not np.allclose(steps, steps[0], rtol=0.0, atol=1e-12):
            raise DimensionError("time grid is not uniform")
        closure = float(np.linalg.norm(projs[-1] - projs[0]))
        if closure > self.tol.closure:
            raise OpenLoop(f"endpoint projectors differ by {closure:.3e}")
        worst = max(float(d.max()) for d in projector_defects(projs, self.rank))
        if worst > self.tol.projector:
            raise InvalidProjector(f"worst per-sample projector defect {worst:.3e}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "projectors", projs)

    @property
    def steps(self) -> int:
        return len(self.times) - 1


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
    frames = curve_samples(ctrl, times)
    projs = np.einsum("mik,mjk->mij", frames, frames.conj())
    return SampledLoop(times=times, projectors=projs, rank=ctrl.k, tol=tol)


def _ordered_chain(projs: np.ndarray) -> np.ndarray:
    """Product projs[0] @ projs[1] @ ... @ projs[-1] by pairwise reduction.

    Associativity keeps the operand order intact while each pass halves
    the count with one batched matmul, so megasample chains stay cheap.
    """
    chain = projs
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
    """Discrete parallel-transport holonomy of a sampled projector loop.

    Multiplies the interior projectors in descending time order, compresses
    onto the base frame and unitarizes by polar decomposition. Converges to
    the holonomy of the canonical connection as the grid refines; the polar
    step guarantees a unitary result at any resolution.

    Raises:
        SingularInput: the compressed chain is numerically singular, which
            signals the loop was sampled too coarsely for transport.
    """
    projs = loop.projectors
    v0 = standard_base_frame(projs.shape[1], loop.rank)
    compressed = v0.conj().T @ _ordered_chain(projs[-2:0:-1]) @ v0
    return polar_unitary(compressed, tol)


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

    For each trial, every projector is refactored through an arbitrary
    frame (an orthonormal range basis times a fresh random unitary) and
    the oracle is rerun on the refactored projectors. Since the transport
    chain consumes projectors only, the shift is pure roundoff.
    """
    rng = np.random.default_rng(seed)
    baseline = numeric_holonomy(loop)
    k = loop.rank
    eigvals, eigvecs = np.linalg.eigh(loop.projectors)
    bases = eigvecs[:, :, -k:]
    worst = 0.0
    for _ in range(trials):
        rotated = np.empty_like(bases)
        for i in range(bases.shape[0]):
            rotated[i] = bases[i] @ haar_unitary(k, rng)
        projs = np.einsum("mik,mjk->mij", rotated, rotated.conj())
        regauged = SampledLoop(
            times=loop.times, projectors=projs, rank=k, tol=loop.tol
        )
        gamma = numeric_holonomy(regauged)
        worst = max(worst, float(np.linalg.norm(gamma - baseline)))
    return worst
