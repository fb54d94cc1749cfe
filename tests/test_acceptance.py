"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 6 carries two lines: the oracle-deviation bound, and the
oracle's convergence order. The polar-unitarized projector chain converges
at second order, so every catalog gate either shows a slope near -2 or is
reproduced to roundoff at every resolution, leaving no order to measure
(see test_criterion_6_oracle_convergence_slope).
"""

import json
import time

import numpy as np

from holosynth import (
    berry_controller,
    berry_holonomy,
    bloch_curve,
    catalog_get,
    channel_length,
    cross_validate,
    curve_samples,
    eig_unitary,
    gate_commutes,
    holonomy_analytic,
    length_analytic,
    loop_closure_defect,
    loop_length_numeric,
    sample_loop,
    synthesize,
    transform_controller,
)
from holosynth.cli import main as cli_main
from holosynth.document import canonical_dumps, loads
from holosynth.synth import SynthesisParams
from helpers import random_haar

CATALOG_GATES = (
    "identity-1",
    "identity-2",
    "identity-4",
    "phase-1.5707963267948966",
    "phase-3.141592653589793",
    "hadamard",
    "pauli-x",
    "pauli-z",
    "cnot",
    "dft2",
)

# Convergence-order window around the oracle's documented order (-2), and
# the deviation below which no order is estimated (as in cross_validate).
SECOND_ORDER_WINDOW = (-2.5, -1.5)
ROUNDOFF_FLOOR = 1e-12


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    return ok


def cli_document(tmp_path, *argv):
    out = tmp_path / "doc.json"
    code = cli_main(list(argv) + ["--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def blocks_from_document(doc):
    k = len(doc["synthesis"]["eigenphases"])
    data = doc["synthesis"]["controller"]["data"]
    n = doc["synthesis"]["controller"]["rows"]
    x = np.array([complex(re, im) for re, im in data]).reshape(n, n)
    return x[:k, :k], x[:k, k:]


def test_criterion_1_hadamard_reproduction(tmp_path):
    start = time.perf_counter()
    doc = cli_document(tmp_path, "synthesize", "--gate", "hadamard", "--paper-order")
    elapsed = time.perf_counter() - start
    omega_block, coupling_block = blocks_from_document(doc)
    ipi = 1j * np.pi
    want_omega = (ipi / np.sqrt(2)) * np.array(
        [[np.sqrt(2) + 1, 1], [1, np.sqrt(2) - 1]]
    )
    want_coupling = (ipi / 2) * np.array(
        [[0, -np.sqrt(2 - np.sqrt(2))], [0, np.sqrt(2 + np.sqrt(2))]]
    )
    err = max(
        np.abs(omega_block - want_omega).max(),
        np.abs(coupling_block - want_coupling).max(),
    )
    ok = err < 1e-12 and elapsed < 0.1
    assert report(
        "criterion 1: hadamard controller reproduction",
        ok,
        f"entrywise err {err:.2e}, runtime {elapsed * 1e3:.1f} ms",
    )


def test_criterion_2_cnot_reproduction(tmp_path):
    doc = cli_document(tmp_path, "synthesize", "--gate", "cnot", "--paper-order")
    omega_block, coupling_block = blocks_from_document(doc)
    ipi = 1j * np.pi
    want_omega = ipi * np.array(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=complex
    )
    want_coupling = np.zeros((4, 4), dtype=complex)
    want_coupling[:, 3] = (ipi / np.sqrt(2)) * np.array([0, 0, -1, 1])
    err = max(
        np.abs(omega_block - want_omega).max(),
        np.abs(coupling_block - want_coupling).max(),
    )
    assert report(
        "criterion 2: cnot controller reproduction", err < 1e-12,
        f"entrywise err {err:.2e}",
    )


def test_criterion_3_dft2_reproduction(tmp_path):
    doc = cli_document(tmp_path, "synthesize", "--gate", "dft2", "--paper-order")
    gammas = np.array(doc["synthesis"]["eigenphases"])
    multiset_ok = np.allclose(
        np.sort(gammas), np.sort([0.0, 0.0, np.pi, np.pi / 2]), atol=1e-12
    )
    w_diag = np.array([complex(re, im) for re, im in doc["synthesis"]["w_diag"]])
    w_want = np.array([0.0, 0.0, 1j * np.pi, 1j * np.pi * np.sqrt(3) / 2])
    omega_block, coupling_block = blocks_from_document(doc)
    ipi = 1j * np.pi
    want_omega = (ipi / 2) * np.array(
        [[3, 1, 1, 1], [1, 2, -1, 0], [1, -1, 3, -1], [1, 0, -1, 2]], dtype=complex
    )
    want_coupling = (ipi / 2) * np.array(
        [
            [0, 0, -1, 0],
            [0, 0, 1, -np.sqrt(1.5)],
            [0, 0, 1, 0],
            [0, 0, 1, np.sqrt(1.5)],
        ],
        dtype=complex,
    )
    err = max(
        np.abs(w_diag - w_want).max(),
        np.abs(omega_block - want_omega).max(),
        np.abs(coupling_block - want_coupling).max(),
    )
    ok = multiset_ok and err < 1e-12
    assert report(
        "criterion 3: dft2 controller reproduction", ok, f"entrywise err {err:.2e}"
    )


def test_criterion_4_holonomy_round_trip():
    start = time.perf_counter()
    worst_hol = worst_closure = 0.0
    for name in CATALOG_GATES:
        gate = catalog_get(name).matrix
        ctrl = synthesize(gate).controller
        worst_hol = max(
            worst_hol, float(np.linalg.norm(holonomy_analytic(ctrl) - gate))
        )
        worst_closure = max(worst_closure, loop_closure_defect(ctrl))
    for k in (1, 2, 3, 4):
        rng = np.random.default_rng(1000 + k)
        for _ in range(200):
            gate = random_haar(rng, k)
            ctrl = synthesize(gate).controller
            worst_hol = max(
                worst_hol, float(np.linalg.norm(holonomy_analytic(ctrl) - gate))
            )
            worst_closure = max(worst_closure, loop_closure_defect(ctrl))
    elapsed = time.perf_counter() - start
    ok = worst_hol < 1e-9 and worst_closure < 1e-9 and elapsed < 30.0
    assert report(
        "criterion 4: holonomy round-trip on catalog + 800 random gates",
        ok,
        f"worst holonomy err {worst_hol:.2e}, worst closure {worst_closure:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_5_length_identity():
    samples = 10**5
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(50):
        k = int(rng.integers(1, 3))
        params = SynthesisParams(
            phases=tuple(rng.uniform(0, 2 * np.pi, k)), windings=(1,) * k
        )
        ctrl = synthesize(random_haar(rng, k), params).controller
        loop = sample_loop(ctrl, samples)
        err = abs(loop_length_numeric(loop) - length_analytic(ctrl))
        worst = max(worst, err)
    worst_u1 = 0.0
    for gamma in (np.pi / 4, np.pi / 2, np.pi, 3 * np.pi / 2):
        for n in (1, 2):
            gate = np.array([[np.exp(1j * gamma)]], dtype=complex)
            ctrl = synthesize(
                gate, SynthesisParams(phases=(0.0,), windings=(n,))
            ).controller
            loop = sample_loop(ctrl, samples)
            err = abs(loop_length_numeric(loop) - channel_length(gamma, n))
            worst_u1 = max(worst_u1, err)
    ok = worst < 1e-6 and worst_u1 < 1e-6
    assert report(
        "criterion 5: numeric loop length matches analytic length",
        ok,
        f"worst random-controller err {worst:.2e}, worst one-channel err {worst_u1:.2e}",
    )


def _oracle_reports():
    if not hasattr(_oracle_reports, "cache"):
        reports = {}
        start = time.perf_counter()
        for name in CATALOG_GATES:
            gate = catalog_get(name).matrix
            ctrl = synthesize(gate).controller
            reports[name] = cross_validate(ctrl, gate, (10**3, 10**4, 10**5))
        _oracle_reports.cache = (reports, time.perf_counter() - start)
    return _oracle_reports.cache


def test_criterion_6_oracle_deviation():
    reports, elapsed = _oracle_reports()
    worst = max(r.deviation for r in reports.values())
    ok = worst < 2e-3 and elapsed < 60.0
    assert report(
        "criterion 6 (deviation): transport oracle agrees with analytic holonomy",
        ok,
        f"worst deviation {worst:.2e} at 1e5 steps, schedule runtime {elapsed:.1f} s",
    )


def test_criterion_6_oracle_convergence_slope():
    reports, _ = _oracle_reports()
    slopes = {
        name: r.convergence_order_estimate for name, r in reports.items()
    }
    # The chain-with-polar discretization is second order (see
    # cross_validate). A NaN slope means no order could be estimated, which
    # is accepted only when every deviation sits at the roundoff floor (the
    # great-circle channels are reproduced exactly at any resolution).
    ok_gate = {
        name: (
            all(d <= ROUNDOFF_FLOOR for d in reports[name].deviations)
            if np.isnan(s)
            else SECOND_ORDER_WINDOW[0] <= s <= SECOND_ORDER_WINDOW[1]
        )
        for name, s in slopes.items()
    }
    detail = ", ".join(
        f"{name}: {slopes[name]:+.2f}" if not np.isnan(slopes[name])
        else f"{name}: at roundoff"
        for name in reports
    )
    # at least one finite slope, so the check cannot pass vacuously
    ok = all(ok_gate.values()) and not all(np.isnan(list(slopes.values())))
    assert report(
        "criterion 6 (slope): oracle converges at second order, or at roundoff",
        ok,
        detail,
    )


def test_criterion_7_horizontality_and_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(31)
    h = 1e-4
    worst_horiz = worst_rotation = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        params = SynthesisParams(
            phases=tuple(rng.uniform(0, 2 * np.pi, k)), windings=(1,) * k
        )
        ctrl = synthesize(random_haar(rng, k), params).controller
        t = float(rng.uniform(0.05, 0.95))
        vm, v, vp = curve_samples(ctrl, [t - h, t, t + h])
        v_dot = (vp - vm) / (2.0 * h)
        worst_horiz = max(worst_horiz, float(np.linalg.norm(v.conj().T @ v_dot)))
        rotation = v.conj().T @ ctrl.matrix @ v
        worst_rotation = max(
            worst_rotation, float(np.linalg.norm(rotation - ctrl.omega))
        )
    elapsed = time.perf_counter() - start
    ok = worst_horiz < 1e-6 and worst_rotation < 1e-10 and elapsed < 5.0
    assert report(
        "criterion 7: horizontality and constant fiber rotation",
        ok,
        f"worst defect {worst_horiz:.2e}, worst rotation drift "
        f"{worst_rotation:.2e}, {elapsed:.1f} s",
    )


def test_criterion_8_one_channel_suite():
    pole = np.array([0.0, 0.0, 1.0])
    worst_phase = worst_closure = 0.0
    grid = [2 * np.pi * m / 16 for m in range(16)]
    for gamma in grid:
        for n in (1, 2):
            c = berry_controller(gamma, 0.4, n)
            worst_phase = max(
                worst_phase, abs(berry_holonomy(c) - np.exp(1j * gamma))
            )
            worst_closure = max(
                worst_closure, float(np.linalg.norm(bloch_curve(c, 1.0) - pole))
            )
    minimal = all(
        channel_length(gamma, 1) < channel_length(gamma, n)
        for gamma in grid
        if gamma > 0.0
        for n in (2, 3)
    )
    ok = worst_phase < 1e-12 and worst_closure < 1e-10 and minimal
    assert report(
        "criterion 8: one-channel holonomy grid, loop closure, minimal winding",
        ok,
        f"worst phase err {worst_phase:.2e}, worst closure {worst_closure:.2e}",
    )


def test_criterion_9_equivalence_classes():
    rng = np.random.default_rng(55)
    worst_hol = worst_len = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        gate = random_haar(rng, k)
        result = synthesize(gate)
        ctrl = result.controller
        r, _ = eig_unitary(gate)
        h1 = r @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, k))) @ r.conj().T
        assert gate_commutes(h1, gate) < 1e-12
        h2 = random_haar(rng, k)
        moved = transform_controller(ctrl, h1, h2)
        worst_hol = max(
            worst_hol, float(np.linalg.norm(holonomy_analytic(moved) - gate))
        )
        worst_len = max(
            worst_len, abs(length_analytic(moved) - length_analytic(ctrl))
        )
    ok = worst_hol < 1e-10 and worst_len < 1e-12
    assert report(
        "criterion 9: commuting conjugations preserve holonomy and length",
        ok,
        f"worst holonomy err {worst_hol:.2e}, worst length drift {worst_len:.2e}",
    )


def test_criterion_10_determinism_and_round_trip(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = cli_main(
            ["synthesize", "--gate", "dft2", "--paper-order", "--out", str(out)]
        )
        assert code == 0
    bytes1, bytes2 = out1.read_bytes(), out2.read_bytes()
    text = bytes1.decode()
    round_tripped = canonical_dumps(loads(canonical_dumps(loads(text))))
    ok = bytes1 == bytes2 and round_tripped == text
    assert report(
        "criterion 10: byte-stable serialization and deterministic runs",
        ok,
        f"document bytes {len(bytes1)}",
    )
