"""Numerical tolerance configuration shared across modules.

All matrix defects are measured in the Frobenius norm unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class Tolerances:
    """The tolerances a caller may set.

    Attributes:
        validation: bound on ||U^H U - I||_F for unitary inputs,
            ||A + A^H||_F for skew-Hermitian ones, ||V^H V - I_k||_F for
            Stiefel frames and ||R diag(e^{i gamma}) R^H - U||_F after a
            unitary eigendecomposition: an input admitted with defect
            `validation` cannot reconstruct more tightly than that.
        closure: bound on the Grassmannian loop-closure defect below which
            a loop counts as closed.
    """

    validation: float = 1e-10
    closure: float = 1e-8


DEFAULT_TOL = Tolerances()
