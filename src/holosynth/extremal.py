"""Closed-form horizontal extremal curves and their holonomy.

A controller is the constant skew-Hermitian generator

    X = [[Omega, W], [-W^H, 0]]

acting on C^n, with Omega (k x k, skew-Hermitian) and W (k x (n-k)). The
curve V(t) = exp(t X) V0 exp(-t Omega) through the standard base frame V0
is a horizontal lift whose projected loop, when it closes at t = 1, picks
up the holonomy

    Gamma = V0^H exp(X) V0 exp(-Omega).

The projected curve length is tr(W^H W), independent of Omega. As in the
paper, every controller traverses its loop in unit time, and the loop counts
as closed when its Grassmannian closure defect is at most `CLOSURE_TOL`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, OpenLoop
from .linalg import VALIDATION_TOL, as_complex_matrix, check_skew, check_unitary, expm_eigen

CLOSURE_TOL = 1e-8  # a loop whose closure defect ||g P0 g^H - P0||_F exceeds this is open


def standard_base_frame(n: int, k: int) -> np.ndarray:
    """The base frame with I_k stacked above an (n-k) x k zero block."""
    if not (0 < k < n):
        raise DimensionError(f"need 0 < k < n, got n={n}, k={k}")
    v = np.zeros((n, k), dtype=complex)
    v[:k, :k] = np.eye(k)
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Controller:
    """Constant generator of a horizontal extremal curve.

    Attributes:
        omega: k x k skew-Hermitian block; the constant fiber rotation,
            equal to V0^H X V0 at the standard base frame.
        coupling: k x (n-k) block tying the working subspace to its
            complement; its squared Frobenius norm is the loop length
            per unit time. The lower-right block of X is identically zero.
        tol: the bound `omega` is checked against for skew-Hermiticity;
            read by no other check.
    """

    omega: np.ndarray
    coupling: np.ndarray
    tol: float = field(default=VALIDATION_TOL, kw_only=True)

    def __post_init__(self):
        omega = check_skew(self.omega, self.tol, what="controller omega block")
        coupling = as_complex_matrix(self.coupling)
        if coupling.shape[0] != omega.shape[0]:
            raise DimensionError(
                f"coupling rows {coupling.shape[0]} != omega dim {omega.shape[0]}"
            )
        if coupling.shape[1] < 1:
            raise DimensionError("coupling block needs at least one column (n > k)")
        object.__setattr__(self, "omega", _frozen(omega))
        object.__setattr__(self, "coupling", _frozen(coupling))

    @property
    def k(self) -> int:
        return self.omega.shape[0]

    @property
    def n(self) -> int:
        return self.omega.shape[0] + self.coupling.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        """The assembled n x n generator; skew-Hermitian by construction."""
        k, n = self.k, self.n
        x = np.zeros((n, n), dtype=complex)
        x[:k, :k] = self.omega
        x[:k, k:] = self.coupling
        x[k:, :k] = -self.coupling.conj().T
        return x

    @classmethod
    def _from_matrix(cls, x: np.ndarray, k: int, tol: float) -> "Controller":
        """The controller whose `matrix` is `x` with k channels: DimensionError
        unless x is n x n with n > k and [-W^H, 0] below within 1e-12."""
        if x.shape[0] != x.shape[1] or x.shape[0] <= k:
            raise DimensionError(f"controller matrix shape {x.shape} inconsistent with k={k}")
        mirror = float(np.linalg.norm(x[k:, :k] + x[:k, k:].conj().T))
        tail = float(np.linalg.norm(x[k:, k:]))
        if not (mirror <= 1e-12 and tail <= 1e-12):
            raise DimensionError("stored generator is not in controller block form "
                                 f"(mirror defect {mirror:.3e}, tail norm {tail:.3e})")
        return cls(omega=x[:k, :k], coupling=x[:k, k:], tol=tol)

    def base_frame(self) -> np.ndarray:
        return standard_base_frame(self.n, self.k)

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigen-data (w, q) of X = q diag(i w) q^H, computed once."""
        return np.linalg.eigh(-1j * self.matrix)

    @cached_property
    def _omega_spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigen-data (w, q) of Omega = q diag(i w) q^H, computed once."""
        return np.linalg.eigh(-1j * self.omega)


def curve_samples(ctrl: Controller, times) -> np.ndarray:
    """Frames V(t) = exp(t X) V0 exp(-t Omega) of the extremal curve at many
    times, shape (len(times), n, k).

    With X = q_X diag(i w_X) q_X^H and Omega = q_O diag(i w_O) q_O^H this is
    V(t) = q_X (e^{i t w_X} e^{-i t w_O}^T * C) q_O^H for the fixed n x k
    core C = q_X^H V0 q_O: one eigendecomposition of X and one of Omega
    serve every sample. The two scalings run on a (k, n, len(times)) stack,
    sample axis innermost; q_O^H and then q_X multiply all samples in one
    matrix product each, and a last copy puts the sample axis first.
    The stack is allocated C-ordered: a broadcast product takes its
    operands' order ("K", here (n, k, m)), and `reshape` would then copy it.
    A lone sample at k = 1 is taken twice, as BLAS rounds the matrix-vector
    product differently: no frame depends on the batch it is sampled in.
    """
    times = np.asarray(times, dtype=float)
    if len(times) * ctrl.k == 1:
        return curve_samples(ctrl, times.repeat(2))[:1]
    w_x, q_x = ctrl._spectrum
    w_o, q_o = ctrl._omega_spectrum
    n, k, m = ctrl.n, ctrl.k, len(times)
    core = q_x.conj().T @ ctrl.base_frame() @ q_o
    scaled = np.empty((k, n, m), dtype=complex)
    np.multiply(_unit_phases(np.multiply.outer(w_x, times)), core.T[:, :, None], out=scaled)
    scaled *= _unit_phases(-np.multiply.outer(w_o, times))[:, None, :]
    rotated = scaled.reshape(k, n * m).T @ q_o.conj().T
    frames = q_x @ rotated.reshape(n, m * k)
    return np.ascontiguousarray(np.swapaxes(frames.reshape(n, m, k), 0, 1))


def _unit_phases(theta: np.ndarray) -> np.ndarray:
    """e^{i theta}, its cosine and sine written into one complex buffer."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _closure_defect(g: np.ndarray, v0: np.ndarray) -> float:
    """||g P0 g^H - P0||_F for g = exp(X) and P0 = V0 V0^H the base projector."""
    p0 = v0 @ v0.conj().T
    return float(np.linalg.norm(g @ p0 @ g.conj().T - p0))


def loop_closure_defect(ctrl: Controller) -> float:
    """||exp(X) P0 exp(-X) - P0||_F with P0 the base projector."""
    return _closure_defect(expm_eigen(*ctrl._spectrum), ctrl.base_frame())


def _closed_holonomy(ctrl: Controller) -> tuple[np.ndarray, float]:
    """(Gamma, closure defect), both from one g = exp(X); OpenLoop if open."""
    g = expm_eigen(*ctrl._spectrum)
    v0 = ctrl.base_frame()
    defect = _closure_defect(g, v0)
    if not defect <= CLOSURE_TOL:
        raise OpenLoop(f"loop closure defect {defect:.3e} exceeds {CLOSURE_TOL:.1e}")
    unwind = expm_eigen(*ctrl._omega_spectrum, -1.0)
    return v0.conj().T @ g @ v0 @ unwind, defect


def holonomy_analytic(ctrl: Controller) -> np.ndarray:
    """Holonomy Gamma = V0^H exp(X) V0 exp(-Omega) of the closed loop.

    ||Gamma^H Gamma - I||_F <= closure^2 / 2, so closure bounds unitarity.

    Raises:
        OpenLoop: the projected curve misses its start point at t = 1, in
            which case the product above would not be unitary and the
            boundary-value problem is simply unsolved for this X.
    """
    return _closed_holonomy(ctrl)[0]


def length_analytic(ctrl: Controller) -> float:
    """Loop length tr(W^H W) of the projected extremal curve."""
    w = ctrl.coupling
    return float(np.trace(w.conj().T @ w).real)


def check_target(ctrl: Controller, target, tol: float = VALIDATION_TOL) -> np.ndarray:
    """The target gate as a matrix, checked unitary within `tol` and k x k
    for this controller (NonUnitaryInput, DimensionError otherwise)."""
    target = check_unitary(target, tol, what="target gate")
    if target.shape != (ctrl.k, ctrl.k):
        raise DimensionError(f"target gate has shape {target.shape}, not {(ctrl.k, ctrl.k)}")
    return target


def transform_controller(ctrl: Controller, h1, h2, tol: float = VALIDATION_TOL) -> Controller:
    """Conjugate a controller by block unitaries (h1, h2); `tol` governs every check.

    Returns the controller with omega' = h1 omega h1^H and
    coupling' = h1 W h2^H. When h1 additionally commutes with the target
    gate (see :func:`gate_commutes`), the transformed controller produces
    the same holonomy, so (h1, h2) sweep out an equivalence class of
    solutions of identical length.
    """
    h1 = check_unitary(h1, tol, what="h1")
    h2 = check_unitary(h2, tol, what="h2")
    if h1.shape[0] != ctrl.k:
        raise DimensionError(f"h1 must be {ctrl.k} x {ctrl.k}, got {h1.shape}")
    if h2.shape[0] != ctrl.n - ctrl.k:
        raise DimensionError(
            f"h2 must be {ctrl.n - ctrl.k} x {ctrl.n - ctrl.k}, got {h2.shape}"
        )
    return Controller(
        omega=h1 @ ctrl.omega @ h1.conj().T,
        coupling=h1 @ ctrl.coupling @ h2.conj().T, tol=tol,
    )


def gate_commutes(h1, gate) -> float:
    """Commutation defect ||h1 gate h1^H - gate||_F."""
    h1 = as_complex_matrix(h1)
    gate = as_complex_matrix(gate)
    if h1.shape != gate.shape or h1.shape[0] != h1.shape[1]:
        raise DimensionError(
            f"shape mismatch: h1 {h1.shape} vs gate {gate.shape}"
        )
    return float(np.linalg.norm(h1 @ gate @ h1.conj().T - gate))


@dataclass(frozen=True)
class HolonomyReport:
    """Analytic verification summary for a controller against a target."""

    gamma_matrix: np.ndarray
    target: np.ndarray
    holonomy_error: float
    loop_defect: float
    length_analytic: float


def evaluate_controller(ctrl: Controller, target, tol: float = VALIDATION_TOL) -> HolonomyReport:
    """Holonomy, closure and length of a controller versus a target gate."""
    target = check_target(ctrl, target, tol)
    gamma, defect = _closed_holonomy(ctrl)
    return HolonomyReport(
        gamma_matrix=gamma,
        target=target,
        holonomy_error=float(np.linalg.norm(gamma - target)),
        loop_defect=defect,
        length_analytic=length_analytic(ctrl),
    )
