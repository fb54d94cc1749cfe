"""The one-channel (U(1)) specialization: small circles on the Bloch sphere.

With k = 1 and n = 2 the frame bundle is the Hopf fibration S^3 -> S^2 and
the holonomy is a pure phase. The controller is parametrized by a real
3-vector w through

    X = i*(w3*I + w1*s1 + w2*s2 + w3*s3)        (s_j the Pauli matrices)

and the projected curve is a circle on the sphere around the axis w/||w||,
starting at the north pole and swept at angular rate 2*||w||. The loop
closes after time 1 exactly when ||w|| = n*pi for a positive integer n
(the winding number), and then the acquired phase is exp(-i*(w3 - n*pi)).

This module is the pedagogical picture; its closed forms `bloch_curve` and
`berry_holonomy` cross-check the general synthesis at k = 1.

Sign conventions: the general construction attaches exp(+i*phi) to the
channel coupling amplitude, and the controller assembled here matches it;
in the w-vector components that same choice appears as
w1 + i*w2 = exp(-i*phi) * sqrt((n*pi)^2 - (n*pi - gamma)^2).

A gate phase gamma = 0 gives the degenerate stationary loop (the point
never leaves the pole). It is accepted rather than rejected because
multi-channel constructions routinely contain such channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OpenLoop, ParamShapeMismatch
from .extremal import Controller
from .synth import _param, _real, small_circle_params

_E3 = np.array([0.0, 0.0, 1.0])
_WINDING_TOL = 1e-8


@dataclass(frozen=True)
class BerryController:
    """Small-circle controller described by its control vector w."""

    w: tuple[float, float, float]

    def __post_init__(self):
        w = tuple(_param(_real, x, "control vector component") for x in self.w)
        if len(w) != 3 or not all(map(math.isfinite, w)):
            raise ParamShapeMismatch(f"control vector must be 3 finite numbers, got {w}")
        object.__setattr__(self, "w", w)

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
        return self.to_controller().matrix

    def to_controller(self) -> Controller:
        """The same generator as a general controller (k = 1, n = 2)."""
        w1, w2, w3 = self.w
        return Controller(
            omega=np.array([[2j * w3]], dtype=complex),
            coupling=np.array([[1j * (w1 - 1j * w2)]], dtype=complex),
        )


def berry_controller(gamma: float, phi: float = 0.0, n: int = 1) -> BerryController:
    """Control vector for the phase gate exp(i*gamma) with winding n: the
    channel (omega, tau) of `small_circle_params` as w = (Re tau, -Im tau,
    omega/2), so ||w|| = n*pi. It raises what `small_circle_params` raises."""
    omega, tau = small_circle_params(gamma, phi, n)
    return BerryController(w=(tau.real, -tau.imag, omega / 2))


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
