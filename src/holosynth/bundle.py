"""Geometry of the homogeneous bundle of orthonormal k-frames.

A frame V (n x k complex, V^H V = I_k) projects to the rank-k projector
P = V V^H. The canonical connection reads off A = V^H dV along curves of
frames. Curve-length is measured with the projector-space metric
||dP||^2 = tr(dP dP); only that metric is exposed because the closed-form
solution machinery never needs the frame-space metric tr(dV^H dV), which
we note here for completeness.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import DimensionError, InvalidFrame, TooFewSamples
from .linalg import as_complex_matrix, unitarity_defect as frame_defect


def standard_base_frame(n: int, k: int) -> np.ndarray:
    """The base frame with I_k stacked above an (n-k) x k zero block."""
    if not (0 < k < n):
        raise DimensionError(f"need 0 < k < n, got n={n}, k={k}")
    v = np.zeros((n, k), dtype=complex)
    v[:k, :k] = np.eye(k)
    return v


def check_frame(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    v = as_complex_matrix(v)
    if v.shape[0] <= v.shape[1]:
        raise DimensionError(f"frame must be tall (n > k), got shape {v.shape}")
    defect = frame_defect(v)
    if defect > tol.frame:
        raise InvalidFrame(
            f"||V^H V - I||_F = {defect:.3e} exceeds {tol.frame:.1e}"
        )
    return v


def project(v, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Project a frame to its subspace projector P = V V^H.

    The result is invariant under V -> V h for unitary h, so it depends
    only on the subspace the frame spans.
    """
    v = check_frame(v, tol)
    return v @ v.conj().T


def _as_sampled(stack, min_samples: int) -> np.ndarray:
    arr = np.asarray(stack, dtype=complex)
    if arr.ndim != 3:
        raise DimensionError("expected a sequence of equally shaped matrices")
    if arr.shape[0] < min_samples:
        raise TooFewSamples(
            f"need at least {min_samples} samples, got {arr.shape[0]}"
        )
    return arr


def _central_differences(arr: np.ndarray, dt: float) -> np.ndarray:
    """Second-order time derivative of a sampled matrix curve.

    Central differences in the interior, one-sided three-point stencils at
    the endpoints; both are O(dt^2) accurate.
    """
    d = np.empty_like(arr)
    d[1:-1] = (arr[2:] - arr[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dt)
    d[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dt)
    return d


def horizontality_defect(frames, duration: float = 1.0) -> float:
    """Largest interior-sample norm ||V^H (dV/dt)||_F along a sampled curve.

    Zero (up to the O(dt^2) stencil error) exactly when the curve is a
    horizontal lift; a purely vertical curve V(t) = V0 exp(t*Om) returns
    roughly ||Om||_F.
    """
    arr = _as_sampled(frames, 3)
    dt = duration / (arr.shape[0] - 1)
    deriv = (arr[2:] - arr[:-2]) / (2.0 * dt)
    conn = np.einsum("mji,mjk->mik", arr[1:-1].conj(), deriv)
    return float(np.sqrt(np.einsum("mik,mik->m", conn, conn.conj()).real.max()))


def loop_length_numeric(projectors, duration: float = 1.0) -> float:
    """Quadrature of the curve energy integral(0.5 * tr(Pdot^2)) dt.

    Pdot comes from second-order finite differences. Composite Simpson
    weights apply when the sample count is odd (an even number of
    intervals); otherwise the trapezoid rule is used. Either way the
    result converges at O(dt^2), dominated by the stencil error.
    """
    arr = _as_sampled(projectors, 3)
    m = arr.shape[0] - 1
    dt = duration / m
    pdot = _central_differences(arr, dt)
    integrand = 0.5 * np.einsum("mij,mji->m", pdot, pdot).real
    if m % 2 == 0:
        weights = np.ones(m + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(np.sum(weights * integrand) * dt / 3.0)
    weights = np.ones(m + 1)
    weights[0] = weights[-1] = 0.5
    return float(np.sum(weights * integrand) * dt)
