"""Exception hierarchy shared by all holosynth modules."""


class HolosynthError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HolosynthError):
    """Matrix or vector shapes are incompatible with the operation."""


class NonUnitaryInput(HolosynthError):
    """A matrix required to be unitary fails the unitarity tolerance."""


class NonSkewInput(HolosynthError):
    """A matrix required to be skew-Hermitian fails the skewness tolerance."""


class SingularInput(HolosynthError):
    """A matrix is numerically singular where an invertible one is required."""


class ConvergenceFailure(HolosynthError):
    """An eigensolver did not converge or failed its reconstruction check."""


class InvalidFrame(HolosynthError):
    """A matrix fails the orthonormal-frame tolerance."""


class TooFewSamples(HolosynthError):
    """A sampled curve has too few points for the requested operation."""


class OpenLoop(HolosynthError):
    """The projected curve does not close on the Grassmannian."""


class ParamShapeMismatch(HolosynthError):
    """Synthesis parameters do not match the gate dimension."""


class UnknownGate(HolosynthError):
    """Requested gate name is not in the catalog."""
