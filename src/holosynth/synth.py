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

Winding numbers n_j choose how often channel j wraps its circle. They
are whole numbers 1 <= n_j <= 2**53, beyond which the float64 angles
n_j pi of neighbouring windings coincide; any other winding raises
ParamShapeMismatch. n_j = 1 is the shortest choice and the default. The
phases phi_j never affect the holonomy or the length; they parametrize an
equivalence class of controllers and default to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParamShapeMismatch
from .extremal import Controller, _frozen
from .linalg import _MAX_WHOLE, VALIDATION_TOL, eig_unitary

_NEG_CLAMP = 1e-14


def _whole(value) -> int:
    """An integer (10, numpy.int64(10) or 10.0); bools, fractions and other
    types raise ValueError, where int() would truncate 10.9 to 10."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, np.integer)) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A number as a float; bools, strings, non-numbers and integers beyond
    the float range raise ValueError, where float() would read true as 1.0
    and "0.5" as 0.5, or raise OverflowError."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (OverflowError, TypeError):
            pass
    raise ValueError(f"expected a number, got {value!r}")


def _param(convert, value, what: str, error: type[Exception] = ParamShapeMismatch):
    """`convert(value)`; its ValueError becomes an `error`, by default a
    ParamShapeMismatch, naming `what`."""
    try:
        return convert(value)
    except ValueError as exc:
        raise error(f"{what}: {exc}") from exc


def _winding(n) -> int:
    """A winding number: a whole number 1 <= n <= 2**53 (ParamShapeMismatch otherwise)."""
    n = _param(_whole, n, "winding")
    if not 1 <= n <= _MAX_WHOLE:
        raise ParamShapeMismatch(f"winding number must be >= 1 and <= 2**53, got {n}")
    return n


@dataclass(frozen=True)
class SynthesisParams:
    """Free per-channel synthesis choices.

    Attributes:
        phases: k free phases (radians) multiplying each channel coupling.
        windings: k whole numbers 1 <= n <= 2**53; how many times channel j
            traverses its small circle.

    The count k is checked against the gate by `synthesize`.
    """

    phases: tuple[float, ...]
    windings: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(_param(_real, p, "phase") for p in self.phases))
        object.__setattr__(self, "windings", tuple(map(_winding, self.windings)))
        if not all(map(math.isfinite, self.phases)):
            raise ParamShapeMismatch(f"every phase must be finite, got phases {self.phases}")

    @classmethod
    def defaults(cls, k: int) -> "SynthesisParams":
        return cls(phases=(0.0,) * k, windings=(1,) * k)


@dataclass(frozen=True)
class SynthesisResult:
    """Everything the construction produced for one gate.

    `gate` is a read-only copy of the gate given; `omega_diag` and `w_diag`
    are the diagonal k x k blocks in the gate eigenbasis (entries
    i*omega_j and i*tau_j); `controller` is the assembled 2k x 2k
    generator, and `length` the analytic loop length.
    """

    gate: np.ndarray
    diagonalizer: np.ndarray
    eigenphases: np.ndarray
    omega_diag: np.ndarray
    w_diag: np.ndarray
    controller: Controller
    length: float


def _channel(gamma: float, phi: float, n: int) -> tuple[float, complex, float]:
    """(omega, tau, length) of one circle channel, n checked: the one rule of
    `synthesize`, both functions below and `berry_controller`; a non-finite
    gamma or phi raises, and roundoff to -1e-14 gives tau 0."""
    if not (math.isfinite(gamma) and math.isfinite(phi)):
        raise ParamShapeMismatch(f"non-finite circle channel: gamma={gamma}, phi={phi}")
    half = n * np.pi - gamma
    length = (n * np.pi) ** 2 - half**2
    if length < -_NEG_CLAMP:
        raise ParamShapeMismatch(f"negative circle radicand {length:.3e} for gamma={gamma}, n={n}")
    return 2.0 * half, complex(np.exp(1j * phi) * np.sqrt(max(length, 0.0))), length


def small_circle_params(gamma: float, phi: float = 0.0, n: int = 1) -> tuple[float, complex]:
    """Rotation rate and coupling amplitude of one closed circle channel.

    Returns `(omega, tau)` with omega = 2(n pi - gamma) and
    |tau|^2 + (omega/2)^2 = (n pi)^2, which is exactly the closure radius
    condition for winding number n.
    """
    return _channel(gamma, phi, _winding(n))[:2]


def channel_length(gamma: float, n: int = 1) -> float:
    """Loop length (n pi)^2 - (n pi - gamma)^2 of one circle channel.

    Strictly increasing in n for fixed gamma > 0, so n = 1 is minimal; a
    gamma beyond 2 n pi, where it is negative, raises ParamShapeMismatch.
    """
    return float(_channel(gamma, 0.0, _winding(n))[2])


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
    r, gammas = eig_unitary(gate, tol, what="target gate")
    gate = _frozen(gate)
    k = gate.shape[0]
    if params is None:
        params = SynthesisParams.defaults(k)
    if not len(params.phases) == len(params.windings) == k:
        raise ParamShapeMismatch(f"gate has {k} channels but got {len(params.phases)} phases "
                                 f"and {len(params.windings)} windings")
    if channel_order is not None:
        order = tuple(_param(_whole, i, "channel_order entry") for i in channel_order)
        if sorted(order) != list(range(k)):
            raise ParamShapeMismatch(f"channel_order {order} is not a permutation")
        r = r[:, order]
        gammas = gammas[list(order)]
    if channel_signs is not None:
        signs = tuple(_param(_whole, s, "channel_signs entry") for s in channel_signs)
        if len(signs) != k or not all(abs(s) == 1 for s in signs):
            raise ParamShapeMismatch("channel_signs must be k entries of +-1")
        r = r * np.array(signs, dtype=float)[None, :]

    omegas, taus, lengths = zip(*map(_channel, gammas, params.phases, params.windings))
    omega_diag = np.diag(1j * np.array(omegas))
    w_diag = np.diag(1j * np.array(taus))
    ctrl = Controller(omega=r @ omega_diag @ r.conj().T, coupling=r @ w_diag, tol=tol)
    return SynthesisResult(
        gate=gate,
        diagonalizer=r,
        eigenphases=gammas,
        omega_diag=omega_diag,
        w_diag=w_diag,
        controller=ctrl,
        length=float(sum(lengths)),
    )
