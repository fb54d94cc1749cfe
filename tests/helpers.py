"""Shared test utilities, including oracles kept independent of the
library's own computational routes."""

import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import as_strided

from holosynth.abelian import BerryController
from holosynth.errors import ConvergenceFailure, InvalidFrame
from holosynth.extremal import _unit_phases, curve_samples, holonomy_analytic
from holosynth.linalg import (
    PHASE_SNAP, TWO_PI, VALIDATION_TOL, _squared_gram_defect, check_unitary, polar_unitary,
)
from holosynth.verify import _chunk_frames, _grid_times


def expm_eigen(w, q, t=1.0):
    """exp(i t H) for Hermitian H = q diag(w) q^H and a scalar time t."""
    return q @ (np.exp(1j * float(t) * w)[:, None] * q.conj().T)


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
    scaled = _unit_phases(np.multiply.outer(w_x, times), np.empty((n, m), complex))[None, :, :]
    scaled = scaled * core.T[:, :, None]
    scaled *= _unit_phases(-np.multiply.outer(w_o, times), np.empty((k, m), complex))[:, None, :]
    rotated = scaled.reshape(k, n * m).T @ q_o.conj().T
    frames = q_x @ rotated.reshape(n, m * k)
    return np.ascontiguousarray(np.swapaxes(frames.reshape(n, m, k), 0, 1))


def frame_sampler_reference(ctrl, offsets, left_time=None, right_time=None, out=None):
    """`extremal._frame_sampler` written from its specification with fresh
    arrays, which ignores `out`, so that the oracle's fold copies its
    frames rather than finding them in place: the table T_j = e^{i s_j w_X} * C * e^{-i s_j w_O}^T of
    `curve_samples_reference`'s broadcast product at the offsets s_j, and
    per call `sample(t0)` the factors q_X e^{i t0 w_X} and e^{-i t0 w_O}
    q_O^H scaled by broadcasting, neither at t0 = 0; the library's sampler
    must give bit-identical frames. `left_time(t0)` and `right_time(t0)`,
    by default t0, are the times the two factors are scaled to, so that a
    test can build a faulty sampler."""
    offsets = np.asarray(offsets, dtype=float)
    count = len(offsets)
    if count * ctrl.k == 1:
        offsets = offsets.repeat(2)
    w_x, q_x = ctrl._spectrum
    w_o, q_o = ctrl._omega_spectrum
    n, k, m = ctrl.n, ctrl.k, len(offsets)
    core = q_x.conj().T @ ctrl.base_frame() @ q_o
    table = _unit_phases(np.multiply.outer(w_x, offsets), np.empty((n, m), complex))[None, :, :]
    table = table * core.T[:, :, None]
    table *= _unit_phases(-np.multiply.outer(w_o, offsets), np.empty((k, m), complex))[:, None, :]
    table = table.reshape(k, n * m).T

    def sample(t0):
        a = t0 if left_time is None else left_time(t0)
        b = t0 if right_time is None else right_time(t0)
        left = q_x * _unit_phases(w_x * a, np.empty(n, complex)) if a else q_x
        right = q_o.conj().T
        if b:
            right = _unit_phases(-(w_o * b), np.empty(k, complex))[:, None] * right
        frames = left @ (table @ right).reshape(n, m * k)
        return np.swapaxes(frames.reshape(n, m, k), 0, 1)[:count]

    return sample


def _adjoint_product_serial(a, b):
    """A^H B for complex stacks, in plain complex arithmetic."""
    return a.conj().swapaxes(-1, -2) @ b


def _embedding_serial(z):
    """The real 2k x 2k embedding E(Z) of each complex k x k matrix of a
    stack, each entry x + iy becoming the block [[x, y], [-y, x]], written
    out with np.kron."""
    turn = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.array([np.kron(m.real, np.eye(2)) + np.kron(m.imag, turn) for m in z])


def embedded_reference(u):
    """The real embedding e(U) of a complex (..., n, k) stack that the
    oracle's fold holds its frames in: the (..., 2n, 2k) real view of
    [[U], [iU]], for which e(A)^T e(B) = E(A^H B)."""
    return np.concatenate([u, 1j * u], axis=-2).view(float)


def unitarity_defect_reference(u):
    """The largest ||U^H U - I||_F over a stack, from the complex Gram
    matrices and numpy's norm, as `linalg.unitarity_defect` computed it
    before it shared the fold's reduction."""
    u = np.asarray(u, dtype=complex)
    grams = _adjoint_product_serial(u, u)
    return float(np.linalg.norm(grams - np.eye(u.shape[-1]), axis=(-2, -1)).max())


def _check_frames_serial(frames, tol):
    """The Gram check in plain complex arithmetic: every ||V^H V - I||_F
    from the complex Gram matrix and numpy's norm."""
    worst = unitarity_defect_reference(frames)
    if not worst <= tol:
        raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")


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
    """`verify._chain_holonomy` from its specification, sharing no helper
    with the fold: the overlaps V_i^H V_{i-1} of each chunk in plain
    complex arithmetic, their np.kron embeddings reduced pairwise in
    descending time order, and K read off the even rows and columns of
    the running product."""
    k = v0.shape[1]
    chain, prev = np.eye(2 * k), v0
    for frames in chunks:
        before = np.concatenate([prev[None], frames[:-1]])
        factors = _embedding_serial(_adjoint_product_serial(frames, before))
        chain = _ordered_chain_serial(factors[::-1]) @ chain
        prev = frames[-1]
    product = chain[0::2, 0::2] + 1j * chain[0::2, 1::2]
    return polar_unitary(v0.conj().T @ prev @ product)


def _ordered_chain_per_chunk(factors, work):
    """`verify`'s pairwise chain reduction as the fold ran it before its
    passes were planned once per stream: the views of every pass sliced
    again for each chunk."""
    chain, halves = factors, work.reshape(2, -1, *work.shape[1:])
    while chain.shape[0] > 1:
        pairs, odd = divmod(chain.shape[0], 2)
        paired, halves = halves[0][:pairs + odd], halves[::-1]
        np.matmul(chain[0:2 * pairs:2], chain[1:2 * pairs:2], out=paired[:pairs])
        if odd:
            paired[pairs] = chain[-1]
        chain = paired
    return chain[0]


def chain_holonomy_per_chunk(stream, count, v0, tol):
    """`verify._chain_holonomy` as it was before the Gram check moved to
    the product's even rows and the chain's passes were planned once per
    stream: the Gram check on the whole embedded Gram half, whose
    ||E(G) - I||_F^2 is 2 ||G - I||_F^2, and `_ordered_chain_per_chunk`
    for each chunk. The fold must give its Gamma bit for bit."""
    n, k = v0.shape
    buffer = np.empty((2 * n, (count + 1) * k), dtype=complex)
    frames, real = np.swapaxes(buffer[:n, k:].reshape(n, count, k), 0, 1), buffer.view(float)
    step, row, column = 2 * k * real.itemsize, *real.strides
    windows = as_strided(real, (count, 2 * n, 4 * k), (step, row, column), writeable=False)
    blocks = np.swapaxes(windows[:, :, 2 * k:], 1, 2)
    products = np.empty((count, 2 * k, 4 * k))
    halves = np.empty((2 * ((count + 1) // 2), 2 * k, 2 * k))
    buffer[:n, :k], chain = v0, np.eye(2 * k)
    for chunk in stream(buffer[:n, k:]):
        c = len(chunk)
        frames[:c] = chunk
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(buffer[:n, :(c + 1) * k], 1j, out=buffer[n:, :(c + 1) * k])
            np.matmul(blocks[:c], windows[:c], out=products[:c])
        worst = (_squared_gram_defect(products[:c, :, 2 * k:]) / 2.0) ** 0.5
        if not worst <= tol:
            raise InvalidFrame(f"worst per-sample frame defect {worst:.3e}")
        chain = _ordered_chain_per_chunk(products[c - 1::-1, :, :2 * k], halves) @ chain
        buffer[:n, :k] = buffer[:n, c * k:(c + 1) * k]
    embedded = chain.view(complex)
    product = (embedded[0::2] - 1j * embedded[1::2]) / 2
    return polar_unitary(v0.conj().T @ buffer[:n, :k] @ product)


def _grid_chunks_serial(ctrl, steps, tol):
    """The oracle's stream as it was written before the helper thread and
    the in-place frames: each chunk of the grid points 0, ..., steps
    sampled by `curve_samples` and then checked."""
    chunk = _chunk_frames(ctrl.n, ctrl.k)
    for start in range(0, steps + 1, chunk):
        times = _grid_times(steps, start, min(start + chunk, steps + 1))
        frames = curve_samples(ctrl, times)
        _check_frames_serial(frames, tol)
        yield frames


def cross_validate_serial(ctrl, schedule, tol=VALIDATION_TOL):
    """(deviations, gamma_numeric) of `verify.cross_validate` written from
    its specification in plain complex arithmetic: each chunk's Gram check
    and overlaps in complex products of their own, and the overlaps'
    embeddings built with np.kron. The library's fold sums the same
    products in another order, in real arithmetic, so it returns them to
    roundoff."""
    analytic = holonomy_analytic(ctrl)
    v0 = ctrl.base_frame()
    deviations = []
    for steps in schedule:
        gamma_numeric = _chain_holonomy_serial(_grid_chunks_serial(ctrl, steps, tol), v0)
        deviations.append(float(np.linalg.norm(gamma_numeric - analytic)))
    return tuple(deviations), gamma_numeric


def oracle_fit_reference(schedule, deviations):
    """(slope, anomalous) as `verify.cross_validate` fitted them before the
    fit moved into `OracleReport`: the least-squares slope of log(deviation)
    against log(steps) over the points above the 1e-12 roundoff floor, NaN
    below two such points, and anomalous outside [-2.5, -1.5]; the report's
    properties must return them bit for bit."""
    usable = [
        (np.log(s), np.log(d))
        for s, d in zip(schedule, deviations)
        if d > 1e-12
    ]
    if len(usable) >= 2:
        xs, ys = zip(*usable)
        slope = float(np.polyfit(xs, ys, 1)[0])
        anomalous = not (-2.5 <= slope <= -1.5)
    else:
        slope = float("nan")
        anomalous = False
    return slope, anomalous
