"""Shared test utilities, including oracles kept independent of the
library's own computational routes."""

import tracemalloc

import numpy as np

from holosynth.abelian import BerryController
from holosynth.errors import ConvergenceFailure, InvalidFrame
from holosynth.extremal import _unit_phases, curve_samples, holonomy_analytic
from holosynth.linalg import (
    PHASE_SNAP, TWO_PI, VALIDATION_TOL, _adjoint, _adjoint_product, _gram_defect,
    check_unitary, polar_unitary,
)
from holosynth.verify import _chunk_frames, _grid_times


def expm_taylor_squaring(a, t=1.0, taylor_terms=18, squarings=12):
    """Matrix exponential by scaling-and-squaring a truncated Taylor series.

    Deliberately avoids any eigendecomposition so it can serve as an
    independent cross-check of the spectral exponential.
    """
    a = np.asarray(a, dtype=complex) * t
    dim = a.shape[0]
    scaled = a / (2.0**squarings)
    term = np.eye(dim, dtype=complex)
    acc = np.eye(dim, dtype=complex)
    for order in range(1, taylor_terms + 1):
        term = term @ scaled / order
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def random_skew(rng, dim):
    """Random skew-Hermitian matrix with O(1) entries."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (z - z.conj().T)


def random_haar(rng, dim):
    """Haar unitary built here so tests do not lean on the library's own."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


def traced_peak(fn, *args):
    """Peak bytes allocated (as tracemalloc counts them) while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def eig_unitary_reference(u, tol=VALIDATION_TOL):
    """`linalg.eig_unitary` as it was written with numpy's wrapper functions
    (np.angle, np.diff, np.where, np.diag); the library's version must
    return bit-identical `(r, gammas)`."""
    u = check_unitary(u, tol, what="eig_unitary input")
    eye = np.eye(u.shape[0])
    try:
        alphas = np.sort(np.angle(np.linalg.eigvals(u)) % TWO_PI)
        gaps = np.diff(alphas, append=alphas[0] + TWO_PI)
        widest = int(np.argmax(gaps))
        v = np.exp(-1j * (alphas[widest] + gaps[widest] / 2)) * u
        _, z = np.linalg.eigh(-1j * np.linalg.solve(eye - v, eye + v))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"unitary eigendecomposition failed: {exc}") from exc

    gammas = np.angle(np.einsum("ij,ij->j", z.conj(), u @ z)) % TWO_PI
    gammas = np.where(np.abs(gammas - TWO_PI) <= PHASE_SNAP, 0.0, gammas)
    gammas = np.where(np.abs(gammas) <= PHASE_SNAP, 0.0, gammas)

    order = np.argsort(gammas, kind="stable")
    gammas = gammas[order]
    r = z[:, order]
    mags = np.abs(r)
    pivot = np.argmax(mags > mags.max(axis=0) - 1e-12, axis=0)
    lead = r[pivot, np.arange(r.shape[1])]
    r = r * np.conj(lead / np.abs(lead))

    recon = float(np.linalg.norm(r @ np.diag(np.exp(1j * gammas)) @ r.conj().T - u))
    if not recon <= tol:
        raise ConvergenceFailure(
            f"eigendecomposition reconstruction defect {recon:.3e} exceeds {tol:.1e}"
        )
    return r, gammas


def berry_controller_reference(gamma, phi=0.0, n=1):
    """`abelian.berry_controller` as it was written with its own copy of the
    circle channel, for valid (gamma, phi, n); the library's version, which
    reads `synth.small_circle_params`, must return an equal `w`."""
    w3 = n * np.pi - gamma
    radicand = max((n * np.pi) ** 2 - w3**2, 0.0)
    transverse = np.exp(-1j * phi) * np.sqrt(radicand)
    return BerryController(w=(float(transverse.real), float(transverse.imag), float(w3)))


def curve_samples_reference(ctrl, times):
    """`extremal.curve_samples` as it was written with the broadcast product,
    whose (n, k, m) memory order made `reshape` copy the stack; the
    library's version must return bit-identical frames."""
    times = np.asarray(times, dtype=float)
    if len(times) * ctrl.k == 1:
        return curve_samples_reference(ctrl, times.repeat(2))[:1]
    w_x, q_x = ctrl._spectrum
    w_o, q_o = ctrl._omega_spectrum
    n, k, m = ctrl.n, ctrl.k, len(times)
    core = q_x.conj().T @ ctrl.base_frame() @ q_o
    scaled = _unit_phases(np.multiply.outer(w_x, times))[None, :, :] * core.T[:, :, None]
    scaled *= _unit_phases(-np.multiply.outer(w_o, times))[:, None, :]
    rotated = scaled.reshape(k, n * m).T @ q_o.conj().T
    frames = q_x @ rotated.reshape(n, m * k)
    return np.ascontiguousarray(np.swapaxes(frames.reshape(n, m, k), 0, 1))


def _check_frames_serial(frames, tol):
    """`verify._check_frames` as it was written before the helper thread:
    a fresh `_adjoint` per chunk."""
    adjoint = _adjoint(frames)
    worst = _gram_defect(adjoint, frames)
    if not worst <= tol:
        raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")
    return adjoint


def _ordered_chain_serial(factors):
    """`verify._ordered_chain` as it was written before the reused work
    arrays: a fresh array per pass."""
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


def _chain_holonomy_serial(chunks, v0):
    """`verify._chain_holonomy` as it was written before the reused work
    arrays."""
    k = v0.shape[1]
    chain, prev = np.eye(2 * k), v0
    for frames, adjoint in chunks:
        embedded = np.empty((len(frames), k, 2, k), dtype=complex)
        overlaps = embedded[:, :, 0, :]
        _adjoint_product(adjoint[:1], prev[None], overlaps[:1])
        _adjoint_product(adjoint[1:], frames[:-1], overlaps[1:])
        np.multiply(overlaps, 1j, out=embedded[:, :, 1, :])
        factors = embedded.view(float).reshape(len(frames), 2 * k, 2 * k)
        chain = _ordered_chain_serial(factors[::-1]) @ chain
        prev = frames[-1]
    return polar_unitary(v0.conj().T @ prev @ chain.view(complex)[0::2])


def _grid_chunks_serial(ctrl, steps, lo, hi, tol):
    """`verify._grid_chunks` as it was written before the helper thread:
    each chunk sampled and then checked on the caller's thread."""
    chunk = _chunk_frames(ctrl.n, ctrl.k)
    for start in range(lo, hi, chunk):
        times = _grid_times(steps, start, min(start + chunk, hi))
        frames = curve_samples(ctrl, times)
        yield times, frames, _check_frames_serial(frames, tol)


def cross_validate_serial(ctrl, schedule, tol=VALIDATION_TOL):
    """(deviations, gamma_numeric) of `verify.cross_validate` on one thread,
    with the fold as it was written before the pipeline; the library's
    version must return them bit for bit."""
    analytic = holonomy_analytic(ctrl)
    v0 = ctrl.base_frame()
    deviations = []
    for steps in schedule:
        interior = _grid_chunks_serial(ctrl, steps, 1, steps, tol)
        gamma_numeric = _chain_holonomy_serial(((f, a) for _, f, a in interior), v0)
        deviations.append(float(np.linalg.norm(gamma_numeric - analytic)))
    return tuple(deviations), gamma_numeric
