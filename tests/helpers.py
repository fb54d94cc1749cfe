"""Shared test utilities, including oracles kept independent of the
library's own computational routes."""

import tracemalloc

import numpy as np


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
