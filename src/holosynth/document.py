"""Bit-stable serialization of controllers and verification reports.

Documents are JSON with sorted keys, two-space indentation and a trailing
newline; floats print as Python's shortest round-trip decimals and complex
numbers as [re, im] pairs. Parsing then re-serializing a document
reproduces it byte for byte, which makes the artifacts diffable and the
format unambiguous to reimplement.

The bytes are `json.dumps(doc, sort_keys=True, indent=2, separators=(",",
": "))` plus a newline, written by `_encode`, not by json's pure-Python
indenting encoder: one format template per list of finite [re, im] pairs.

Schema version "1":

    schema_version      "1"
    gate                {name: str|null, matrix: MATRIX}
    params              {phases: [float], windings: [int], paper_order: bool}
    synthesis           {eigenphases: [float], diagonalizer: MATRIX,
                         omega_diag: [CPLX], w_diag: [CPLX],
                         controller: MATRIX, length: float}
    verification        {holonomy_error: float, closure_defect: float,
                         oracle: null | {deviation, steps, slope,
                                         anomalous, schedule, deviations}}

    MATRIX = {rows: int, cols: int, data: [CPLX]}  (row-major)
    CPLX   = [re, im]

JSON values read from matrix, document and config files pass one pair of
converters, `synth._whole` and `synth._real`, which also check
`SynthesisParams`: `_whole` takes an integer (10 or 10.0, not 10.9, true
or "10") and `_real` a number (not true or "0.5"). Matrix `rows` and
`cols` are whole numbers of at least 1, and each `[re, im]` entry holds
two numbers.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import DimensionError
from .extremal import Controller, HolonomyReport
from .linalg import VALIDATION_TOL
from .synth import SynthesisParams, SynthesisResult, _real, _whole
from .verify import OracleReport

SCHEMA_VERSION = "1"


def _pairs(a: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs of a complex array."""
    return a.reshape(-1, 1).view(float).tolist()


def encode_matrix(m) -> dict:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"can only encode 2-D matrices, got ndim={a.ndim}")
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": _pairs(a)}


def decode_matrix(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise DimensionError(f"malformed matrix object: {exc}") from exc
    try:
        rows, cols = _whole(rows), _whole(cols)
    except ValueError as exc:
        raise DimensionError(f"matrix rows and cols: {exc}") from exc
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix of {rows} x {cols} is empty; rows and cols must be >= 1")
    if not isinstance(data, list):
        raise DimensionError(f"matrix data = {data!r} is not a list of [re, im]")
    flat = np.empty(len(data), dtype=complex)
    for i, entry in enumerate(data):
        try:
            re, im = entry
            flat[i] = complex(_real(re), _real(im))
        except (TypeError, ValueError) as exc:
            raise DimensionError(
                f"matrix data[{i}] = {entry!r} is not an [re, im] pair of numbers") from exc
    if flat.size != rows * cols:
        raise DimensionError(
            f"matrix data length {flat.size} != rows*cols = {rows * cols}"
        )
    return flat.reshape(rows, cols)


def oracle_document(oracle: OracleReport) -> dict:
    """The plain-dict summary of an oracle run stored in documents."""
    slope = oracle.convergence_order_estimate
    return {
        "deviation": float(oracle.deviation),
        "steps": int(oracle.steps),
        "slope": None if np.isnan(slope) else float(slope),
        "anomalous": bool(oracle.anomalous),
        "schedule": [int(s) for s in oracle.schedule],
        "deviations": [float(d) for d in oracle.deviations],
    }


def controller_document(
    result: SynthesisResult,
    report: HolonomyReport,
    params: SynthesisParams,
    gate_name: str | None = None,
    paper_order: bool = False,
    oracle: OracleReport | None = None,
) -> dict:
    """Assemble the plain-dict document for one synthesis run."""
    return {
        "schema_version": SCHEMA_VERSION,
        "gate": {
            "name": gate_name,
            "matrix": encode_matrix(result.gate),
        },
        "params": {
            "phases": [float(p) for p in params.phases],
            "windings": [int(n) for n in params.windings],
            "paper_order": bool(paper_order),
        },
        "synthesis": {
            "eigenphases": [float(g) for g in result.eigenphases],
            "diagonalizer": encode_matrix(result.diagonalizer),
            "omega_diag": _pairs(result.omega_diag.diagonal()),
            "w_diag": _pairs(result.w_diag.diagonal()),
            "controller": encode_matrix(result.controller.matrix),
            "length": float(result.length),
        },
        "verification": {
            "holonomy_error": float(report.holonomy_error),
            "closure_defect": float(report.loop_defect),
            "oracle": None if oracle is None else oracle_document(oracle),
        },
    }


def _encode(o, nl: str) -> str:
    """Canonical text of a JSON value; `nl` is "\n" plus its line's indent."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if isinstance(o, bool):
        return "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    inner = nl + "  "
    if isinstance(o, dict):
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]
        brackets = "{}"
    elif isinstance(o, (list, tuple)):
        if o and all(type(p) is list and len(p) == 2
                     and type(p[0]) is type(p[1]) is float for p in o):
            flat = [x for p in o for x in p]
            if all(map(math.isfinite, flat)):
                pair = f"{inner}[{inner}  %r,{inner}  %r{inner}]"
                return "[" + ",".join([pair] * len(o)) % tuple(flat) + nl + "]"
        items = [_encode(v, inner) for v in o]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def canonical_dumps(doc: dict) -> str:
    """Serialize with the canonical formatting (sorted keys, LF newline)."""
    return _encode(doc, "\n") + "\n"


def loads(text: str) -> dict:
    return json.loads(text)


def _field(doc, *path):
    """doc[path[0]][path[1]]...; DimensionError naming the path if absent."""
    try:
        for key in path:
            doc = doc[key]
    except (KeyError, TypeError) as exc:
        named = "".join(f"[{step!r}]" for step in path)
        raise DimensionError(f"controller document lacks a valid field {named}") from exc
    return doc


def document_controller(doc: dict, tol: float = VALIDATION_TOL) -> tuple[Controller, np.ndarray]:
    """Rebuild the controller and target gate from a parsed document.

    The channel count k is the number of eigenphases; the stored generator
    must be in controller block form for it (`Controller._from_matrix`),
    and its omega block skew-Hermitian at `tol`.
    """
    x = decode_matrix(_field(doc, "synthesis", "controller"))
    gate = decode_matrix(_field(doc, "gate", "matrix"))
    phases = _field(doc, "synthesis", "eigenphases")
    if not isinstance(phases, list):
        raise DimensionError(f"controller document eigenphases = {phases!r} is not a list")
    return Controller._from_matrix(x, len(phases), tol), gate
