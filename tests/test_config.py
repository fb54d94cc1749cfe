import numpy as np
import pytest

from holosynth import (
    ConvergenceFailure,
    Controller,
    InvalidFrame,
    NonSkewInput,
    NonUnitaryInput,
    SampledLoop,
    catalog_get,
    eig_unitary,
    sample_loop,
    synthesize,
)
from holosynth.linalg import check_unitary

HADAMARD = catalog_get("hadamard").matrix


def _rough_gate(tol):
    # ||U^H U - I||_F = 2.8e-9
    check_unitary(HADAMARD * (1.0 + 1e-9), tol)


def _rough_omega(tol):
    # ||A + A^H||_F = 2e-9
    Controller(omega=[[1e-9 + 2j]], coupling=[[1j]], tol=tol)


def _rough_frames(tol):
    # ||V^H V - I||_F near 3e-9
    loop = sample_loop(synthesize(HADAMARD).controller, 100)
    SampledLoop(loop.frames * (1.0 + 1e-9), tol)


def _roundoff_reconstruction(tol):
    # pauli-x is exactly unitary; its eigendecomposition reconstructs it
    # to 3.4e-16
    eig_unitary(catalog_get("pauli-x").matrix, tol)


@pytest.mark.parametrize(
    "check, error",
    [
        (_rough_gate, NonUnitaryInput),
        (_rough_omega, NonSkewInput),
        (_rough_frames, InvalidFrame),
        (_roundoff_reconstruction, ConvergenceFailure),
    ],
)
def test_validation_governs_every_check(check, error):
    with pytest.raises(error):
        check(1e-17)
    check(1e-8)
