"""Closed-form horizontal extremal curves and their holonomy.

A controller is the constant skew-Hermitian generator

    X = [[Omega, W], [-W^H, 0]]

acting on C^n, with Omega (k x k, skew-Hermitian) and W (k x (n-k)). The
curve V(t) = exp(t X) V0 exp(-t Omega) through the standard base frame V0
is a horizontal lift whose projected loop, when it closes at t = 1, picks
up the holonomy

    Gamma = V0^H exp(X) V0 exp(-Omega) = V0^H V(1).

`curve_samples` is the one evaluator of this closed form: the analytic side
reads Gamma and the closure defect off its end frame V(1).

The projected curve length is tr(W^H W), independent of Omega. As in the
paper, every controller traverses its loop in unit time, and the loop counts
as closed when its Grassmannian closure defect is at most `CLOSURE_TOL`.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, OpenLoop
from .linalg import VALIDATION_TOL, as_complex_matrix, check_skew, check_unitary

CLOSURE_TOL = 1e-8  # a loop whose closure defect ||V(1) V(1)^H - P0||_F exceeds this is open


def standard_base_frame(n: int, k: int) -> np.ndarray:
    """The base frame with I_k stacked above an (n-k) x k zero block."""
    if not (0 < k < n):
        raise DimensionError(f"need 0 < k < n, got n={n}, k={k}")
    v = np.zeros((n, k), dtype=complex)
    v[:k, :k] = np.eye(k)
    return v


_SEALED = {}  # id -> a weak reference to each stack `_sealed` made read-only


def _sealed(stack: np.ndarray) -> np.ndarray:
    """A read-only view of `stack`, a fresh C-ordered complex array that no
    caller holds, recorded: the one way a stack reaches `_frozen` uncopied."""
    stack.setflags(write=False)
    key = id(stack)
    _SEALED[key] = weakref.ref(stack, lambda _, key=key: _SEALED.pop(key, None))
    return stack.view()


def _frozen(a) -> np.ndarray:
    """`a` as a read-only C-ordered complex view of a `_sealed` stack, so
    that no caller can make it writeable: `a` itself if it already is one,
    else a view of a sealed copy."""
    sealed = _SEALED.get(id(a.base)) if isinstance(a, np.ndarray) else None
    if not (sealed is not None and sealed() is a.base and not a.flags.writeable
            and a.flags.c_contiguous and a.dtype == complex):
        a = _sealed(np.array(a, dtype=complex))
    return a


@dataclass(frozen=True)
class Controller:
    """Constant generator of a horizontal extremal curve, with 0 < k < n
    (the rule of `standard_base_frame`).

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
        standard_base_frame(omega.shape[0] + coupling.shape[1], omega.shape[0])  # 0 < k
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
    serve every sample. It is `_frame_sampler` with the times as its
    offsets, called at t0 = 0, where neither factor is scaled; this
    evaluator adds a last copy that puts the sample axis first and returns
    a C-ordered stack of its own.

    Raises:
        DimensionError: `times` is not a 1-D sequence of finite numbers.
    """
    try:
        times = np.asarray(times, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"times must be a 1-D sequence of numbers: {exc}") from exc
    if times.ndim != 1:
        raise DimensionError(f"times must be a 1-D sequence, got shape {times.shape}")
    if not np.isfinite(times).all():
        raise DimensionError("times must be finite")
    return np.ascontiguousarray(_frame_sampler(ctrl, times)(0.0))


def _frame_sampler(ctrl: Controller, offsets: np.ndarray, out: np.ndarray | None = None):
    """`sample(t0)`: the frames V(t0 + s_j) of `curve_samples` at the
    offsets s_j, as the strided (len(offsets), n, k) view of `out`, an
    (n, len(offsets) k) array whose rows may be strided, if given, else of
    a buffer allocated here, once; valid until the next call, and with
    the same bits either way.

    The curve is a one-parameter group orbit, V(t0 + s) = e^{t0 X} V(s)
    e^{-t0 Omega}, so with T_j = e^{i s_j w_X} * C * e^{-i s_j w_O}^T

        V(t0 + s_j) = (q_X e^{i t0 w_X}) T_j (e^{-i t0 w_O} q_O^H).

    The table of the T_j is built here, once, as a C-ordered (k, n, m)
    stack, sample axis innermost (a broadcast product would take its
    operands' (n, k, m) order, and `reshape` would then copy it). A call
    scales only the n x n factor q_X and the k x k factor q_O^H by n + k
    phases, neither at t0 = 0, and runs two matrix products over all
    samples. A lone offset at k = 1 is taken twice, as BLAS rounds the
    matrix-vector product differently; it takes no `out`.
    """
    w_x, q_x = ctrl._spectrum
    w_o, q_o = ctrl._omega_spectrum
    n, k, count = ctrl.n, ctrl.k, len(offsets)
    if count * k == 1:
        offsets = np.repeat(offsets, 2)
    m = len(offsets)
    core, q_oh = (q_x.conj().T @ ctrl.base_frame() @ q_o).T[:, :, None], q_o.conj().T

    def phases(theta):
        return _unit_phases(theta, np.empty(theta.shape, dtype=complex))

    table = np.multiply(phases(np.multiply.outer(w_x, offsets)), core)
    table *= phases(-np.multiply.outer(w_o, offsets))[:, None, :]
    table = table.reshape(k, n * m).T
    product = np.empty((n * m, k), dtype=complex)
    frames = np.empty((n, m * k), dtype=complex) if out is None else out
    view = np.swapaxes(frames.reshape(n, m, k), 0, 1)[:count]

    def sample(t0: float) -> np.ndarray:
        left, right = q_x, q_oh
        if t0:
            left = q_x * phases(w_x * t0)
            right = phases(-(w_o * t0))[:, None] * q_oh
        np.matmul(table, right, out=product)
        np.matmul(left, product.reshape(n, m * k), out=frames)
        return view

    return sample


def _unit_phases(theta: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{i theta}, its cosine and sine written into `out`, a complex
    buffer of theta's shape."""
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _end_frame(ctrl: Controller) -> tuple[np.ndarray, float]:
    """(Gamma, closure defect) off the end frame V(1) = [[Gamma], [B]]:
    ||V(1) V(1)^H - P0||_F = sqrt(2) ||B||_F exactly for an orthonormal
    V(1), with no cancellation when the defect is at roundoff."""
    end = curve_samples(ctrl, (1.0,))[0]
    b = end[ctrl.k:]
    return end[:ctrl.k], float(2.0 * np.vdot(b, b).real) ** 0.5


def loop_closure_defect(ctrl: Controller) -> float:
    """||V(1) V(1)^H - P0||_F = ||exp(X) P0 exp(-X) - P0||_F, P0 = V0 V0^H."""
    return _end_frame(ctrl)[1]


def _closed_holonomy(ctrl: Controller) -> tuple[np.ndarray, float]:
    """(Gamma, closure defect), both from one end frame; OpenLoop if open."""
    gamma, defect = _end_frame(ctrl)
    if not defect <= CLOSURE_TOL:
        raise OpenLoop(f"loop closure defect {defect:.3e} exceeds {CLOSURE_TOL:.1e}")
    return gamma, defect


def holonomy_analytic(ctrl: Controller) -> np.ndarray:
    """Holonomy Gamma = V0^H exp(X) V0 exp(-Omega) = V0^H V(1) of the closed loop.

    With V(1) = [[Gamma], [B]] orthonormal, ||Gamma^H Gamma - I||_F =
    ||B^H B||_F <= ||B||_F^2 = closure^2 / 2, so closure bounds unitarity.

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
    gate = check_unitary(target, tol, what="target gate")
    if gate.shape != (ctrl.k, ctrl.k):
        raise DimensionError(f"target gate has shape {gate.shape}, not {(ctrl.k, ctrl.k)}")
    return gate


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
    """Analytic verification summary for a controller against a target.

    It holds the controller's holonomy `gamma_matrix`, the checked target
    gate `target` (`evaluate_controller` stores a read-only copy), the
    closure defect `loop_defect` and the loop length `length_analytic`,
    and reads `holonomy_error`, ||gamma_matrix - target||_F, off the
    first two.
    """

    gamma_matrix: np.ndarray
    target: np.ndarray
    loop_defect: float
    length_analytic: float

    @cached_property
    def holonomy_error(self) -> float:
        return float(np.linalg.norm(self.gamma_matrix - self.target))


def evaluate_controller(ctrl: Controller, target, tol: float = VALIDATION_TOL) -> HolonomyReport:
    """Holonomy, closure and length of a controller versus a target gate."""
    target = _frozen(check_target(ctrl, target, tol))
    gamma, defect = _closed_holonomy(ctrl)
    return HolonomyReport(
        gamma_matrix=gamma,
        target=target,
        loop_defect=defect,
        length_analytic=length_analytic(ctrl),
    )
