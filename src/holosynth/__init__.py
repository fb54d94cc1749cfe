"""holosynth: exact optimal controller synthesis for holonomic unitary gates.

Given a target unitary acting on a k-dimensional subspace, the package
constructs, in closed form, the constant generator whose horizontal
extremal curve on the manifold of orthonormal 2k-frames traces the
shortest closed loop of subspaces producing that unitary as its holonomy.
Analytic results are cross-checked by an independent discrete
parallel-transport oracle that consumes only the sampled loop of frames.
"""

from .abelian import BerryController, berry_controller, berry_holonomy, bloch_curve
from .catalog import GateCatalogEntry, catalog_get, catalog_names
from .errors import (
    ConvergenceFailure,
    DimensionError,
    HolosynthError,
    InvalidFrame,
    NonSkewInput,
    NonUnitaryInput,
    OpenLoop,
    ParamShapeMismatch,
    SingularInput,
    TooFewSamples,
    UnknownGate,
)
from .extremal import (
    Controller,
    HolonomyReport,
    curve_samples,
    evaluate_controller,
    gate_commutes,
    holonomy_analytic,
    length_analytic,
    loop_closure_defect,
    standard_base_frame,
    transform_controller,
)
from .linalg import eig_unitary, haar_unitary, polar_unitary
from .synth import (
    SynthesisParams,
    SynthesisResult,
    channel_length,
    small_circle_params,
    synthesize,
)
from .verify import (
    OracleReport,
    SampledLoop,
    cross_validate,
    gauge_invariance_check,
    loop_length_numeric,
    numeric_holonomy,
    sample_loop,
)

__version__ = "0.1.0"

__all__ = [
    "BerryController",
    "Controller",
    "ConvergenceFailure",
    "DimensionError",
    "GateCatalogEntry",
    "HolonomyReport",
    "HolosynthError",
    "InvalidFrame",
    "NonSkewInput",
    "NonUnitaryInput",
    "OpenLoop",
    "OracleReport",
    "ParamShapeMismatch",
    "SampledLoop",
    "SingularInput",
    "SynthesisParams",
    "SynthesisResult",
    "TooFewSamples",
    "UnknownGate",
    "berry_controller",
    "berry_holonomy",
    "bloch_curve",
    "catalog_get",
    "catalog_names",
    "channel_length",
    "cross_validate",
    "curve_samples",
    "eig_unitary",
    "evaluate_controller",
    "gate_commutes",
    "gauge_invariance_check",
    "haar_unitary",
    "holonomy_analytic",
    "length_analytic",
    "loop_closure_defect",
    "loop_length_numeric",
    "numeric_holonomy",
    "polar_unitary",
    "sample_loop",
    "small_circle_params",
    "standard_base_frame",
    "synthesize",
    "transform_controller",
]
