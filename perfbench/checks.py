"""Output checks made apart from the program.

Every check recomputes what it tests with routes the program does not use
(scipy's Pade `expm` instead of the program's `eigh` exponential,
`numpy.linalg.eigvals` for the gate's phases, the standard-library JSON
encoder for the canonical form), or tests a property the method must have
(second-order oracle convergence, rank-k projectors on the sampled loop).
Each returns the worst error it measured and raises `CheckFailed` when a
bound is exceeded.
"""

from __future__ import annotations

import io
import json

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi

HOLONOMY_TOL = 1e-10
CLOSURE_TOL = 1e-10
STRUCTURE_TOL = 1e-12
LENGTH_TOL = 1e-10
UNITARY_TOL = 1e-10
PROJECTOR_TOL = 1e-10
ROUNDOFF_FLOOR = 1e-12
SECOND_ORDER = (-2.5, -1.5)


class CheckFailed(Exception):
    """An output of the program failed an independent check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def optimal_length(gate: np.ndarray) -> float:
    """Sum of gamma_j (2 pi - gamma_j) over the gate's eigenphases."""
    gammas = np.angle(np.linalg.eigvals(gate)) % TWO_PI
    return float(np.sum(gammas * (TWO_PI - gammas)))


def check_controller(x: np.ndarray, gate: np.ndarray) -> float:
    """Structure, holonomy, closure and length of X = [[Omega, W], [-W^H, 0]]."""
    k = gate.shape[0]
    n = x.shape[0]
    _require(x.shape == (2 * k, 2 * k), f"controller shape {x.shape} for k={k}")
    skew = _norm(x + x.conj().T)
    tail = _norm(x[k:, k:])
    _require(skew <= STRUCTURE_TOL * max(1.0, _norm(x)), f"X not skew-Hermitian ({skew:.3e})")
    _require(tail <= STRUCTURE_TOL, f"lower-right block of X not zero ({tail:.3e})")

    v0 = np.eye(n, k, dtype=complex)
    p0 = v0 @ v0.conj().T
    ex = scipy.linalg.expm(x)
    holonomy = _norm(v0.conj().T @ ex @ v0 @ scipy.linalg.expm(-x[:k, :k]) - gate)
    closure = _norm(ex @ p0 @ scipy.linalg.expm(-x) - p0)
    _require(holonomy <= HOLONOMY_TOL, f"holonomy error {holonomy:.3e}")
    _require(closure <= CLOSURE_TOL, f"closure defect {closure:.3e}")

    w = x[:k, k:]
    length_error = check_length(float(np.trace(w.conj().T @ w).real), gate)
    return max(holonomy, closure, length_error)


def check_length(length: float, gate: np.ndarray) -> float:
    expected = optimal_length(gate)
    error = abs(length - expected)
    _require(error <= LENGTH_TOL * max(1.0, expected),
             f"length {length!r} != sum gamma(2 pi - gamma) = {expected!r}")
    return error


def canonical_json(obj) -> str:
    """The canonical text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def encode_matrix(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)]}


def decode_matrix(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def expected_document(gate, name, paper_order: bool, k: int, result, report) -> dict:
    """The document a synthesis run should emit, built from its results by
    the schema, not by the program's encoder."""
    return {
        "schema_version": "1",
        "gate": {"name": name, "matrix": encode_matrix(gate)},
        "params": {"phases": [0.0] * k, "windings": [1] * k, "paper_order": paper_order},
        "synthesis": {
            "eigenphases": [float(g) for g in result.eigenphases],
            "diagonalizer": encode_matrix(result.diagonalizer),
            "omega_diag": [[float(z.real), float(z.imag)] for z in np.diag(result.omega_diag)],
            "w_diag": [[float(z.real), float(z.imag)] for z in np.diag(result.w_diag)],
            "controller": encode_matrix(result.controller.matrix),
            "length": float(result.length),
        },
        "verification": {
            "holonomy_error": float(report.holonomy_error),
            "closure_defect": float(report.loop_defect),
            "oracle": None,
        },
    }


def check_canonical(text: str) -> dict:
    """Parse a document and require its re-serialisation to be byte-identical."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"document is not JSON: {exc}") from exc
    _require(canonical_json(doc) == text, "document is not in canonical form")
    return doc


def check_document(text: str, expected: dict, x: np.ndarray) -> None:
    """Canonical bytes, every field as expected, and the decoded X equal to X."""
    doc = check_canonical(text)
    _require(doc == expected, "document fields differ from the synthesis result")
    _require(np.array_equal(decode_matrix(doc["synthesis"]["controller"]), x),
             "decoded X differs from the emitted X")


def check_cli_document(text: str, gate: np.ndarray) -> float:
    """A document written by one process and checked with no result at hand."""
    doc = check_canonical(text)
    _require(np.array_equal(decode_matrix(doc["gate"]["matrix"]), gate),
             "document gate differs from the input gate")
    x = decode_matrix(doc["synthesis"]["controller"])
    worst = check_controller(x, gate)
    worst = max(worst, check_length(doc["synthesis"]["length"], gate))
    verification = doc["verification"]
    for key in ("holonomy_error", "closure_defect"):
        _require(verification[key] <= HOLONOMY_TOL, f"document {key} {verification[key]!r}")
    return worst


def check_oracle(schedule, deviations, gamma_numeric: np.ndarray,
                 gate: np.ndarray, gate_tol: float) -> float:
    """Unitary numeric holonomy near the gate, converging at second order.

    Returns the numeric holonomy's distance to the gate.
    """
    k = gate.shape[0]
    defect = _norm(gamma_numeric.conj().T @ gamma_numeric - np.eye(k))
    _require(defect <= UNITARY_TOL, f"numeric holonomy not unitary ({defect:.3e})")
    error = _norm(gamma_numeric - gate)
    _require(error <= gate_tol, f"numeric holonomy {error:.3e} from the gate")
    usable = [(s, d) for s, d in zip(schedule, deviations) if d > ROUNDOFF_FLOOR]
    if usable:
        _require(len(usable) >= 2, f"one deviation above the roundoff floor: {deviations}")
        steps, devs = zip(*usable)
        slope = float(np.polyfit(np.log(steps), np.log(devs), 1)[0])
        _require(SECOND_ORDER[0] <= slope <= SECOND_ORDER[1],
                 f"oracle deviations fall with slope {slope:.2f}, not second order")
    return error


def check_csv(text: str, n: int, k: int, steps: int) -> float:
    """steps + 1 rows whose projectors are rank-k and close the loop."""
    header = text[: text.index("\n")].split(",")
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    _require(rows.shape == (steps + 1, len(header)),
             f"CSV holds {rows.shape} values, expected {steps + 1} rows of {len(header)}")
    column = {name: i for i, name in enumerate(header)}
    entries = [(i, j) for i in range(n) for j in range(n)]
    re = rows[:, [column[f"p_re_{i}_{j}"] for i, j in entries]]
    im = rows[:, [column[f"p_im_{i}_{j}"] for i, j in entries]]
    p = (re + 1j * im).reshape(-1, n, n)
    ph = np.conj(np.transpose(p, (0, 2, 1)))
    herm = float(np.abs(p - ph).max())
    idem = float(np.linalg.norm(p @ p - p, axis=(1, 2)).max())
    trace = float(np.abs(np.trace(p, axis1=1, axis2=2) - k).max())
    closure = _norm(p[-1] - p[0])
    _require(herm <= PROJECTOR_TOL, f"CSV projector not Hermitian ({herm:.3e})")
    _require(idem <= PROJECTOR_TOL, f"CSV projector not idempotent ({idem:.3e})")
    _require(trace <= PROJECTOR_TOL, f"CSV projector trace off k by {trace:.3e}")
    _require(closure <= PROJECTOR_TOL, f"CSV loop does not close ({closure:.3e})")
    return max(herm, idem, trace, closure)
