"""Dense complex linear algebra on numpy alone: validated unitary
eigendecomposition (a Cayley transform handed to the Hermitian `eigh`),
the one matrix exponential (`expm_eigen`, from Hermitian eigen-data) and
polar unitarization.

Matrices are plain complex numpy arrays. Validation helpers raise typed
exceptions from :mod:`holosynth.errors`, so callers can rely on inputs
having been checked exactly once at the operation boundary. The k x k
paths call ufuncs and ndarray methods, not numpy's Python-level wrappers
(`np.angle`, `np.diff`), which cost more than their arithmetic.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionError,
    NonSkewInput,
    NonUnitaryInput,
    SingularInput,
)

TWO_PI = 2.0 * np.pi
PHASE_SNAP = 1e-12  # eig_unitary snaps eigenphases this close to 0 or 2*pi to 0
SINGULAR_FLOOR = 1e-12  # polar_unitary refuses a matrix whose smallest singular value is <= this
VALIDATION_TOL = 1e-10  # default bound on unitarity, skewness, frame Gram and eigen-reconstruction defects
_MAX_WHOLE = 2**53  # above it float64 merges whole numbers: grid times i/M, angles n*pi coincide


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix contains non-finite entries")
    return a


def unitarity_defect(u) -> float:
    """||U^H U - I||_F; for a stack of matrices, the largest over the stack.
    Overflowing or NaN entries give an inf or NaN defect, without a numpy
    warning, which every `not defect <= tol` check rejects."""
    u = np.asarray(u)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(u, -2, -1).conj() @ u
        return float(np.linalg.norm(gram - np.eye(u.shape[-1]), axis=(-2, -1)).max())


def _adjoint(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real transposed copy of a contiguous complex (..., n, k) stack A
    that `_adjoint_product` takes in place of A^H, shape (..., 2k, n): rows
    0..k-1 hold Re of A's columns and rows k..2k-1 their Im. One copy
    serves every product A^H B with the same A. It is written into `out`,
    a contiguous float array of that shape, when one is given."""
    n, k = u.shape[-2:]
    out = np.empty(u.shape[:-2] + (2 * k, n)) if out is None else out
    parts = u.view(float).reshape(u.shape[:-1] + (k, 2))
    out.reshape(u.shape[:-2] + (2, k, n))[...] = np.swapaxes(parts, -3, -1)
    return out


def _adjoint_product(adjoint: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """A^H B for complex stacks, given `adjoint = _adjoint(A)`, in real
    arithmetic, which numpy's batched matmul forms several times faster
    than the complex product for small matrices. One real matmul gives
    [[Re(A)^T B], [Im(A)^T B]] in complex view, and
    A^H B = Re(A)^T B - i Im(A)^T B. The real product is written into
    `work`, a contiguous float (..., 2k, 2k) array, when one is given."""
    m = np.matmul(adjoint, b.view(float), out=work).view(complex)
    k = m.shape[-1]
    out = np.multiply(m[..., k:, :], -1j, out=out)
    out += m[..., :k, :]
    return out


def _gram_defect(adjoint: np.ndarray, u: np.ndarray) -> float:
    """`unitarity_defect(u)` of a contiguous complex stack, given its
    `_adjoint`; like it, inf or NaN without a warning on overflowing or
    NaN entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _adjoint_product(adjoint, u)
        gram -= np.eye(gram.shape[-1])
        parts = gram.view(float)
        worst = np.einsum("...ij,...ij->...", parts, parts).max()
    return float(worst) ** 0.5


def skewness_defect(a: np.ndarray) -> float:
    """||A + A^H||_F."""
    a = np.asarray(a)
    return float(np.linalg.norm(a + a.conj().T))


def check_unitary(u, tol: float = VALIDATION_TOL, what: str = "matrix") -> np.ndarray:
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1] or u.size == 0:
        raise DimensionError(f"{what} must be square and not empty, got shape {u.shape}")
    defect = unitarity_defect(u)
    if not defect <= tol:
        raise NonUnitaryInput(
            f"{what} fails unitarity: ||U^H U - I||_F = {defect:.3e} > {tol:.1e}"
        )
    return u


def check_skew(a, tol: float = VALIDATION_TOL, what: str = "matrix") -> np.ndarray:
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    defect = skewness_defect(a)
    if not defect <= tol:
        raise NonSkewInput(
            f"{what} fails skew-Hermiticity: ||A + A^H||_F = {defect:.3e} > {tol:.1e}"
        )
    return a


def eig_unitary(
    u, tol: float = VALIDATION_TOL, what: str = "eig_unitary input"
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a unitary matrix into phases and a unitary diagonalizer.

    Returns `(r, gammas)` with `r^H @ u @ r = diag(exp(1j * gammas))`.
    The phases live in [0, 2*pi), sorted ascending; phases within
    `PHASE_SNAP` of 0 or 2*pi are snapped to exactly 0, which keeps
    downstream square roots of the form sqrt(gamma * (2n*pi - gamma))
    exact on degenerate channels.

    Eigenvectors come from `eigh` of the Cayley transform
    H = -i (I - V)^{-1} (I + V), V = e^{-i theta} U, with theta in the middle
    of the widest gap between U's eigenphases. H shares U's eigenvectors and
    has eigenvalues cot(alpha/2), monotone in V's phases alpha, so every gap
    stays a gap and `r` is unitary to machine precision even inside
    degenerate clusters. The phases are the Rayleigh quotients diag(r^H U r).
    Each column's largest-magnitude entry is made real positive (ties go to
    the lowest row), so the output is deterministic for a given platform.

    Raises:
        NonUnitaryInput: `u` fails the unitarity tolerance; the message
            names it `what`, so a caller may pass its own input unchecked.
        ConvergenceFailure: an eigenvalue iteration failed, or the
            reconstruction check exceeded `tol`.
    """
    u = check_unitary(u, tol, what=what)
    eye = np.eye(u.shape[0])
    try:
        lam = np.linalg.eigvals(u)
        alphas = np.arctan2(lam.imag, lam.real) % TWO_PI
        alphas.sort()
        gaps = np.concatenate((alphas[1:], [alphas[0] + TWO_PI])) - alphas
        widest = int(gaps.argmax())
        v = np.exp(-1j * (alphas[widest] + gaps[widest] / 2)) * u
        _, z = np.linalg.eigh(-1j * np.linalg.solve(eye - v, eye + v))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(f"unitary eigendecomposition failed: {exc}") from exc

    rayleigh = np.einsum("ij,ij->j", z.conj(), u @ z)
    gammas = np.arctan2(rayleigh.imag, rayleigh.real) % TWO_PI
    gammas[(np.abs(gammas - TWO_PI) <= PHASE_SNAP) | (np.abs(gammas) <= PHASE_SNAP)] = 0.0

    order = gammas.argsort(kind="stable")
    gammas = gammas[order]
    r = z[:, order]
    mags = np.abs(r)
    pivot = (mags > mags.max(axis=0) - 1e-12).argmax(axis=0)
    lead = r[pivot, np.arange(r.shape[1])]
    r *= (lead / np.abs(lead)).conj()

    recon = float(np.linalg.norm((r * np.exp(1j * gammas)) @ r.conj().T - u))
    if not recon <= tol:
        raise ConvergenceFailure(
            f"eigendecomposition reconstruction defect {recon:.3e} exceeds {tol:.1e}"
        )
    return r, gammas


def expm_eigen(w, q, t=1.0) -> np.ndarray:
    """exp(i t H) for Hermitian H = q diag(w) q^H and a scalar time t."""
    return q @ (np.exp(1j * float(t) * w)[:, None] * q.conj().T)


def polar_unitary(m) -> np.ndarray:
    """Unitary factor Q of the polar decomposition M = Q H.

    Q is the closest unitary to M in the Frobenius norm. Refuses inputs
    whose smallest singular value is at or below `SINGULAR_FLOOR`, since the
    unitary factor is then ill-determined.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"polar_unitary needs a square matrix, got {m.shape}")
    u, s, vh = np.linalg.svd(m)
    if not s[-1] > SINGULAR_FLOOR:
        raise SingularInput(
            f"smallest singular value {s[-1]:.3e} at or below {SINGULAR_FLOOR:.1e}"
        )
    return u @ vh


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary: QR of a complex Gaussian matrix
    with the R diagonal's phases folded back into Q."""
    return _haar_stack(dim, rng, ())


def _haar_stack(dim: int, rng: np.random.Generator, batch: tuple) -> np.ndarray:
    """Independent Haar unitaries of shape (*batch, dim, dim), drawn with one
    batched QR; `batch = ()` is exactly `haar_unitary`."""
    shape = (*batch, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
