"""The one-channel (U(1)) specialization: small circles on the Bloch sphere.

With k = 1 and n = 2 the frame bundle is the Hopf fibration S^3 -> S^2 and
the holonomy is a pure phase. The controller is parametrized by a real
3-vector w through

    X = i*(w3*I + w1*s1 + w2*s2 + w3*s3)        (s_j the Pauli matrices)

and the projected curve is a circle on the sphere around the axis w/||w||,
starting at the north pole and swept at angular rate 2*||w||. The loop
closes after time 1 exactly when ||w|| = n*pi for a positive integer n
(the winding number), and then the acquired phase is exp(-i*(w3 - n*pi)).

This module serves both as the pedagogical picture and as an independent
cross-check of the general synthesis at k = 1.

Sign conventions: the general construction attaches exp(+i*phi) to the
channel coupling amplitude, and the controller assembled here matches it;
in the w-vector components that same choice appears as
w1 + i*w2 = exp(-i*phi) * sqrt((n*pi)^2 - (n*pi - gamma)^2).

A gate phase gamma = 0 gives the degenerate stationary loop (the point
never leaves the pole). It is accepted rather than rejected because
multi-channel constructions routinely contain such channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OpenLoop, ParamShapeMismatch
from .extremal import Controller

_E3 = np.array([0.0, 0.0, 1.0])
_WINDING_TOL = 1e-8


@dataclass(frozen=True)
class BerryController:
    """Small-circle controller described by its control vector w."""

    w: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(float(x) for x in self.w))
        if len(self.w) != 3:
            raise ParamShapeMismatch("control vector must have 3 components")

    @property
    def rho(self) -> float:
        """||w||; half the angular sweep rate of the projected circle."""
        return float(np.linalg.norm(self.w))

    @property
    def axis(self) -> np.ndarray:
        """Unit circle axis w/||w||; defaults to the pole axis when w = 0."""
        r = self.rho
        if r == 0.0:
            return _E3.copy()
        return np.asarray(self.w) / r

    @property
    def matrix(self) -> np.ndarray:
        """The 2 x 2 generator i*(w3*I + w . sigma)."""
        w1, w2, w3 = self.w
        return 1j * np.array(
            [[2.0 * w3, w1 - 1j * w2], [w1 + 1j * w2, 0.0]], dtype=complex
        )

    def to_controller(self) -> Controller:
        """The same generator as a general controller (k = 1, n = 2)."""
        w1, w2, w3 = self.w
        return Controller(
            omega=np.array([[2j * w3]], dtype=complex),
            coupling=np.array([[1j * (w1 - 1j * w2)]], dtype=complex),
        )


def berry_controller(gamma: float, phi: float = 0.0, n: int = 1) -> BerryController:
    """Control vector for the phase gate exp(i*gamma) with winding n.

    Sets w3 = n*pi - gamma and w1 + i*w2 = exp(-i*phi) * sqrt((n*pi)^2 - w3^2),
    which pins ||w|| = n*pi so the loop closes after unit time.
    """
    if n < 1:
        raise ParamShapeMismatch(f"winding number must be >= 1, got {n}")
    w3 = n * np.pi - gamma
    radicand = max((n * np.pi) ** 2 - w3**2, 0.0)
    transverse = np.exp(-1j * phi) * np.sqrt(radicand)
    return BerryController(w=(float(transverse.real), float(transverse.imag), float(w3)))


def bloch_curve(ctrl: BerryController, t: float) -> np.ndarray:
    """Unit Bloch vector of the projected curve at time t.

    r(t) = a (a.e3) + (e3 - a (a.e3)) cos(2 rho t) - (a x e3) sin(2 rho t)
    with a the circle axis; r(0) is the north pole and r(t).a is constant.
    """
    a = ctrl.axis
    rho = ctrl.rho
    axial = a * float(a @ _E3)
    angle = 2.0 * rho * t
    r = axial + (_E3 - axial) * np.cos(angle) - np.cross(a, _E3) * np.sin(angle)
    return r


def berry_holonomy(ctrl: BerryController) -> complex:
    """Phase exp(-i*(w3 - n*pi)) acquired around the closed circle.

    Raises:
        OpenLoop: ||w||/pi is not within 1e-8 of a positive integer, so
            the curve never returns to the pole at t = 1.
    """
    rho = ctrl.rho
    n = int(round(rho / np.pi))
    if n < 1 or not abs(rho - n * np.pi) <= _WINDING_TOL:
        raise OpenLoop(
            f"||w|| = {rho:.12g} is not a positive multiple of pi; "
            "the projected circle does not close at t = 1"
        )
    return complex(np.exp(-1j * (ctrl.w[2] - n * np.pi)))
