"""Named gate catalog.

Entries are exact algebraic matrices evaluated in double precision. Gates
whose controllers are commonly tabulated carry a `paper_order` channel
permutation (and per-channel sign flips) that reorders the canonical
ascending-eigenphase channels into the tabulated layout, so the emitted
controller blocks match the reference listings entrywise. The reordering
data were read off those listings; any choice is an equivalent controller.

Recognized names:
    identity-<k>   k x k identity, k >= 1
    hadamard       the 2 x 2 Hadamard gate
    pauli-x        the 2 x 2 bit flip
    pauli-z        the 2 x 2 phase flip
    phase-<gamma>  the one-channel gate [e^{i gamma}] (float gamma); its
                   controller is the small-circle solution on the sphere
    cnot           the 4 x 4 controlled NOT
    dft2           the 4 x 4 discrete Fourier transform
    random-<k>     Haar-random k x k unitary (seed selects the draw)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownGate
from .extremal import _frozen
from .linalg import haar_unitary


@dataclass(frozen=True)
class GateCatalogEntry:
    """A named unitary plus optional tabulated channel-ordering data. The
    matrix is a read-only copy, so no caller can alter a catalog entry;
    `dim` is read off its shape."""

    name: str
    matrix: np.ndarray
    paper_order: tuple[int, ...] | None = None
    paper_signs: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dft2() -> np.ndarray:
    j = np.arange(4)
    return np.exp(2j * np.pi * np.outer(j, j) / 4.0) / 2.0


_FIXED: dict[str, GateCatalogEntry] = {
    "hadamard": GateCatalogEntry(
        name="hadamard",
        matrix=np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
        paper_order=(0, 1),
        paper_signs=(1, 1),
    ),
    "pauli-x": GateCatalogEntry(
        name="pauli-x",
        matrix=np.array([[0, 1], [1, 0]], dtype=complex),
    ),
    "pauli-z": GateCatalogEntry(
        name="pauli-z",
        matrix=np.array([[1, 0], [0, -1]], dtype=complex),
    ),
    "cnot": GateCatalogEntry(
        name="cnot",
        matrix=np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        ),
        paper_order=(0, 1, 2, 3),
        paper_signs=(1, 1, 1, -1),
    ),
    "dft2": GateCatalogEntry(
        name="dft2",
        matrix=_dft2(),
        paper_order=(0, 1, 3, 2),
        paper_signs=(1, 1, -1, -1),
    ),
}


def catalog_names() -> list[str]:
    """Fixed entries plus the parametrized name patterns."""
    return sorted(_FIXED) + ["identity-<k>", "phase-<gamma>", "random-<k>"]


def catalog_get(name: str, seed: int = 0) -> GateCatalogEntry:
    """Look up a gate by name.

    The seed only matters for `random-<k>` entries, which are drawn from a
    generator seeded with it (so a given (name, seed) pair is one fixed
    matrix).

    Raises:
        UnknownGate: the name matches neither a fixed entry nor a pattern.
    """
    if name in _FIXED:
        return _FIXED[name]
    if name.startswith("identity-"):
        k = _parse_int(name, "identity-")
        return GateCatalogEntry(name=name, matrix=np.eye(k, dtype=complex))
    if name.startswith("phase-"):
        raw = name[len("phase-") :]
        try:
            gamma = float(raw)
        except ValueError as exc:
            raise UnknownGate(f"bad phase angle in gate name {name!r}") from exc
        if not np.isfinite(gamma):
            raise UnknownGate(f"phase angle must be finite in gate name {name!r}")
        matrix = np.array([[np.exp(1j * gamma)]], dtype=complex)
        return GateCatalogEntry(name=name, matrix=matrix)
    if name.startswith("random-"):
        k = _parse_int(name, "random-")
        rng = np.random.default_rng(seed)
        return GateCatalogEntry(name=name, matrix=haar_unitary(k, rng))
    raise UnknownGate(
        f"unknown gate {name!r}; known entries: {', '.join(catalog_names())}"
    )


def _parse_int(name: str, prefix: str) -> int:
    raw = name[len(prefix) :]
    try:
        value = int(raw)
    except ValueError as exc:
        raise UnknownGate(f"bad dimension in gate name {name!r}") from exc
    if value < 1:
        raise UnknownGate(f"dimension must be >= 1 in gate name {name!r}")
    return value
