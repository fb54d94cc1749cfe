"""Numerical tolerance configuration shared across modules.

All matrix defects are measured in the Frobenius norm unless noted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, kw_only=True)
class Tolerances:
    """One record of every tolerance the package consults.

    Attributes:
        unitarity: bound on ||U^H U - I||_F for unitary inputs.
        skewness: bound on ||A + A^H||_F for skew-Hermitian inputs.
        frame: bound on ||V^H V - I_k||_F for Stiefel frames.
        reconstruction: bound on ||R diag(e^{i gamma}) R^H - U||_F after
            a unitary eigendecomposition.
        singular: lower bound on the smallest singular value before a
            polar decomposition is refused.
        closure: bound on the Grassmannian loop-closure defect below which
            a loop counts as closed.
        phase_snap: eigenphases within this distance of 0 or 2*pi are
            snapped to exactly 0.
    """

    unitarity: float = 1e-10
    skewness: float = 1e-10
    frame: float = 1e-10
    reconstruction: float = 1e-10
    singular: float = 1e-12
    closure: float = 1e-8
    phase_snap: float = 1e-12

    def with_validation(self, value: float) -> "Tolerances":
        """Copy with all validation tolerances set to `value`.

        Touches the unitarity, skewness, frame and reconstruction bounds
        (inputs admitted with defect `value` cannot reconstruct more
        tightly than that); the structural tolerances (closure,
        singular, ...) keep their defaults.
        """
        return replace(
            self,
            unitarity=value,
            skewness=value,
            frame=value,
            reconstruction=value,
        )


DEFAULT_TOL = Tolerances()
