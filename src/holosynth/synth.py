"""Inverse problem: build the controller that implements a given gate.

The construction diagonalizes the target, solves one small-circle problem
per eigenphase channel, and conjugates the diagonal solution back:

    R^H U R        = diag(e^{i gamma_1}, ..., e^{i gamma_k})
    omega_j        = 2 (n_j pi - gamma_j)
    tau_j          = e^{i phi_j} sqrt((n_j pi)^2 - (n_j pi - gamma_j)^2)
    X              = [[R Omega_d R^H, R W_d], [-W_d^H R^H, 0]]

with Omega_d = diag(i omega_j) and W_d = diag(i tau_j). The ambient space
always has dimension n = 2k here: one auxiliary direction per channel is
what lets every channel close its own loop independently.

Winding numbers n_j >= 1 choose how often channel j wraps its circle;
n_j = 1 is the shortest choice and the default. The phases phi_j never
affect the holonomy or the length; they parametrize an equivalence class
of controllers and default to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamShapeMismatch
from .extremal import Controller
from .linalg import VALIDATION_TOL, check_unitary, eig_unitary

_NEG_CLAMP = 1e-14


@dataclass(frozen=True)
class SynthesisParams:
    """Free per-channel synthesis choices.

    Attributes:
        phases: k free phases (radians) multiplying each channel coupling.
        windings: k positive integers; how many times channel j traverses
            its small circle.
    """

    phases: tuple[float, ...]
    windings: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "windings", tuple(int(n) for n in self.windings))
        if len(self.phases) != len(self.windings):
            raise ParamShapeMismatch(
                f"{len(self.phases)} phases vs {len(self.windings)} windings"
            )
        if any(n < 1 for n in self.windings):
            raise ParamShapeMismatch("every winding number must be >= 1")
        if not all(np.isfinite(self.phases)):
            raise ParamShapeMismatch(f"every phase must be finite, got phases {self.phases}")

    @classmethod
    def defaults(cls, k: int) -> "SynthesisParams":
        return cls(phases=(0.0,) * k, windings=(1,) * k)


@dataclass(frozen=True)
class SynthesisResult:
    """Everything the construction produced for one gate.

    `omega_diag` and `w_diag` are the diagonal k x k blocks in the gate
    eigenbasis (entries i*omega_j and i*tau_j); `controller` is the
    assembled 2k x 2k generator, and `length` the analytic loop length.
    """

    gate: np.ndarray
    diagonalizer: np.ndarray
    eigenphases: np.ndarray
    omega_diag: np.ndarray
    w_diag: np.ndarray
    controller: Controller
    length: float


def small_circle_params(gamma: float, phi: float = 0.0, n: int = 1) -> tuple[float, complex]:
    """Rotation rate and coupling amplitude of one closed circle channel.

    Returns `(omega, tau)` with omega = 2(n pi - gamma) and
    |tau|^2 + (omega/2)^2 = (n pi)^2, which is exactly the closure radius
    condition for winding number n.
    """
    if n < 1:
        raise ParamShapeMismatch(f"winding number must be >= 1, got {n}")
    half = n * np.pi - gamma
    omega = 2.0 * half
    radicand = (n * np.pi) ** 2 - half**2
    if radicand < 0.0:
        if radicand < -_NEG_CLAMP:
            raise ParamShapeMismatch(
                f"negative circle radicand {radicand:.3e} for gamma={gamma}, n={n}"
            )
        radicand = 0.0
    tau = np.exp(1j * phi) * np.sqrt(radicand)
    return omega, complex(tau)


def channel_length(gamma: float, n: int = 1) -> float:
    """Loop length (n pi)^2 - (n pi - gamma)^2 of one circle channel.

    Strictly increasing in n for fixed gamma > 0, so n = 1 is minimal.
    """
    if n < 1:
        raise ParamShapeMismatch(f"winding number must be >= 1, got {n}")
    return float((n * np.pi) ** 2 - (n * np.pi - gamma) ** 2)


def synthesize(
    gate,
    params: SynthesisParams | None = None,
    channel_order: tuple[int, ...] | None = None,
    channel_signs: tuple[int, ...] | None = None,
    tol: float = VALIDATION_TOL,
) -> SynthesisResult:
    """Construct the controller whose holonomy equals `gate`.

    Args:
        gate: k x k unitary target.
        params: per-channel phases and windings; defaults to phases 0 and
            windings 1 (the shortest loop in each channel).
        channel_order: optional permutation of the ascending-eigenphase
            channels; entry i names the canonical channel placed at slot i.
            Used by the catalog to reproduce tabulated controller layouts.
        channel_signs: optional +-1 factors applied to the diagonalizer
            columns after reordering. Any choice yields an equivalent
            controller with identical holonomy and length.

    Raises:
        NonUnitaryInput: gate fails the unitarity tolerance.
        ParamShapeMismatch: params or ordering data do not fit k channels.
    """
    gate = check_unitary(gate, tol, what="target gate")
    k = gate.shape[0]
    if params is None:
        params = SynthesisParams.defaults(k)
    if len(params.phases) != k:
        raise ParamShapeMismatch(
            f"params carry {len(params.phases)} channels for a {k}-dim gate"
        )

    r, gammas = eig_unitary(gate, tol)
    if channel_order is not None:
        order = tuple(int(i) for i in channel_order)
        if sorted(order) != list(range(k)):
            raise ParamShapeMismatch(f"channel_order {order} is not a permutation")
        r = r[:, order]
        gammas = gammas[list(order)]
    if channel_signs is not None:
        signs = np.asarray(channel_signs, dtype=float)
        if signs.shape != (k,) or not np.all(np.abs(signs) == 1.0):
            raise ParamShapeMismatch("channel_signs must be k entries of +-1")
        r = r * signs[None, :]

    omegas = np.empty(k)
    taus = np.empty(k, dtype=complex)
    for j in range(k):
        omegas[j], taus[j] = small_circle_params(
            gammas[j], params.phases[j], params.windings[j]
        )

    omega_diag = np.diag(1j * omegas)
    w_diag = np.diag(1j * taus)
    ctrl = Controller(
        omega=r @ omega_diag @ r.conj().T,
        coupling=r @ w_diag,
    )
    length = sum(
        channel_length(g, n) for g, n in zip(gammas, params.windings)
    )
    return SynthesisResult(
        gate=gate,
        diagonalizer=r,
        eigenphases=gammas,
        omega_diag=omega_diag,
        w_diag=w_diag,
        controller=ctrl,
        length=float(length),
    )
