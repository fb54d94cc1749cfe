import io
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import holosynth
from holosynth import (
    DimensionError, GateCatalogEntry, InvalidFrame, UnknownGate, catalog_get, catalog_names, cli,
    extremal, synthesize, verify,
)
from holosynth.cli import main
from holosynth.document import (
    canonical_dumps,
    controller_document,
    decode_matrix,
    document_controller,
    encode_matrix,
    loads,
)
from holosynth.extremal import curve_samples, evaluate_controller
from holosynth.linalg import unitarity_defect
from holosynth.synth import SynthesisParams
from helpers import traced_peak


class TestCatalog:
    def test_hadamard_matrix(self):
        entry = catalog_get("hadamard")
        np.testing.assert_allclose(
            entry.matrix, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-16
        )

    def test_cnot_is_the_right_permutation(self):
        entry = catalog_get("cnot")
        want = np.zeros((4, 4))
        want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1.0
        np.testing.assert_array_equal(entry.matrix.real, want)

    def test_dft2_entries(self):
        entry = catalog_get("dft2")
        want = 0.5 * np.array(
            [
                [1, 1, 1, 1],
                [1, 1j, -1, -1j],
                [1, -1, 1, -1],
                [1, -1j, -1, 1j],
            ]
        )
        np.testing.assert_allclose(entry.matrix, want, atol=1e-15)

    def test_phase_gate_is_one_channel(self):
        entry = catalog_get("phase-1.5707963267948966")
        assert entry.dim == 1
        assert abs(entry.matrix[0, 0] - 1j) < 1e-12

    def test_identity_and_random_patterns(self):
        np.testing.assert_array_equal(
            catalog_get("identity-3").matrix, np.eye(3, dtype=complex)
        )
        u1 = catalog_get("random-3", seed=5).matrix
        u2 = catalog_get("random-3", seed=5).matrix
        u3 = catalog_get("random-3", seed=6).matrix
        assert np.array_equal(u1, u2)
        assert not np.array_equal(u1, u3)

    def test_every_fixed_entry_is_tightly_unitary(self):
        for name in ("hadamard", "pauli-x", "pauli-z", "cnot", "dft2",
                     "identity-2", "identity-4", "phase-0.7"):
            assert unitarity_defect(catalog_get(name).matrix) < 1e-15

    def test_unknown_names(self):
        for bad in ("toffoli", "identity-x", "identity-0", "phase-abc", "phase-inf",
                    "phase--inf", "phase-nan"):
            with pytest.raises(UnknownGate):
                catalog_get(bad)

    def test_names_listing(self):
        names = catalog_names()
        assert "hadamard" in names and "dft2" in names

    @pytest.mark.parametrize("name", [
        *(name for name in catalog_names() if "<" not in name),
        "identity-1", "identity-3", "phase-0.7", "random-1", "random-5",
    ])
    def test_dim_is_read_off_the_matrix(self, name):
        entry = catalog_get(name)
        assert entry.dim == entry.matrix.shape[0]
        assert type(entry.dim) is int

    def test_an_entry_takes_no_dim(self):
        with pytest.raises(TypeError, match="dim"):
            GateCatalogEntry(name="x", dim=3, matrix=np.eye(2))
        assert GateCatalogEntry("x", np.eye(2)).dim == 2

    @pytest.mark.parametrize("name", ["cnot", "identity-2", "phase-0.7", "random-3"])
    def test_an_entry_matrix_is_read_only(self, name):
        entry = catalog_get(name)
        with pytest.raises(ValueError, match="read-only"):
            entry.matrix[0, 0] = 7
        assert catalog_get(name).matrix[0, 0] != 7


class TestDocument:
    def _document(self, gate_name="hadamard"):
        entry = catalog_get(gate_name)
        params = SynthesisParams.defaults(entry.dim)
        result = synthesize(entry.matrix, params)
        report = evaluate_controller(result.controller, entry.matrix)
        return controller_document(result, report, params, gate_name=gate_name)

    def test_matrix_codec_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert np.array_equal(decode_matrix(encode_matrix(m)), m)

    def test_serialization_is_byte_stable(self):
        doc = self._document()
        text1 = canonical_dumps(doc)
        text2 = canonical_dumps(loads(text1))
        assert text1 == text2
        text3 = canonical_dumps(loads(text2))
        assert text2 == text3

    def test_document_rebuilds_controller(self):
        doc = self._document("cnot")
        ctrl, gate = document_controller(loads(canonical_dumps(doc)))
        result = synthesize(catalog_get("cnot").matrix)
        np.testing.assert_allclose(ctrl.matrix, result.controller.matrix, atol=1e-15)
        np.testing.assert_allclose(gate, catalog_get("cnot").matrix, atol=1e-15)

    def test_a_document_with_no_eigenphases_is_refused(self):
        doc = self._document()
        doc["synthesis"]["eigenphases"] = []
        doc["synthesis"]["controller"] = encode_matrix(np.zeros((2, 2)))
        with pytest.raises(DimensionError, match=r"^need 0 < k < n, got n=2, k=0$"):
            document_controller(loads(canonical_dumps(doc)))

    def test_a_document_keeps_its_gate_when_the_caller_changes_it(self):
        gate = np.array(catalog_get("cnot").matrix)
        params = SynthesisParams.defaults(4)
        result = synthesize(gate, params)
        report = evaluate_controller(result.controller, result.gate)
        before = canonical_dumps(controller_document(result, report, params))
        gate[:] = np.eye(4)
        assert canonical_dumps(controller_document(result, report, params)) == before
        assert not result.gate.flags.writeable

    def test_schema_fields_present(self):
        doc = self._document()
        assert doc["schema_version"] == "1"
        assert doc["gate"]["name"] == "hadamard"
        assert len(doc["synthesis"]["eigenphases"]) == 2
        assert doc["verification"]["oracle"] is None


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliSynthesize:
    def test_hadamard_document(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "--gate", "hadamard")
        assert code == 0
        doc = json.loads(out)
        assert doc["verification"]["holonomy_error"] < 1e-10
        assert doc["verification"]["closure_defect"] < 1e-10

    def test_identity_document(self, capsys):
        code, out, _ = run_cli(capsys, "synthesize", "--gate", "identity-2")
        assert code == 0
        doc = json.loads(out)
        assert doc["synthesis"]["length"] == 0.0
        assert all(re == 0.0 and im == 0.0 for re, im in doc["synthesis"]["w_diag"])

    def test_non_unitary_matrix_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            canonical_dumps(encode_matrix(np.array([[1.0, 0.3], [0.0, 1.0]])))
        )
        code, _, err = run_cli(capsys, "synthesize", "--matrix", str(bad))
        assert code == 3
        assert "unitar" in err.lower()

    def test_matrix_file_round_trip(self, capsys, tmp_path):
        gate = catalog_get("hadamard").matrix
        mfile = tmp_path / "gate.json"
        mfile.write_text(canonical_dumps(encode_matrix(gate)))
        code, out, _ = run_cli(capsys, "synthesize", "--matrix", str(mfile))
        assert code == 0
        assert json.loads(out)["gate"]["name"] is None

    def test_unknown_gate_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "synthesize", "--gate", "toffoli")
        assert code == 2
        assert "unknown gate" in err

    def test_bad_winding_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard", "--windings", "1,0"
        )
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(
            capsys, "synthesize", "--gate", "dft2", "--paper-order"
        )
        _, out2, _ = run_cli(
            capsys, "synthesize", "--gate", "dft2", "--paper-order"
        )
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard", "--out", str(target)
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["gate"]["name"] == "hadamard"

    def test_oracle_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "synthesize", "--gate", "phase-3.141592653589793",
            "--oracle", "--steps", "100,1000",
        )
        assert code == 0
        oracle = json.loads(out)["verification"]["oracle"]
        assert oracle["deviation"] < 2e-3
        assert oracle["schedule"] == [100, 1000]

    def test_tolerance_flag_admits_slightly_rough_input(self, capsys, tmp_path):
        gate = catalog_get("hadamard").matrix.copy()
        gate[0, 0] += 1e-8
        mfile = tmp_path / "rough.json"
        mfile.write_text(canonical_dumps(encode_matrix(gate)))
        code, _, _ = run_cli(capsys, "synthesize", "--matrix", str(mfile))
        assert code == 3  # rejected as non-unitary at default tolerance
        code, _, err = run_cli(
            capsys, "synthesize", "--matrix", str(mfile), "--tolerance", "1e-6"
        )
        # accepted for synthesis, but the rough target is then missed by
        # more than the fixed holonomy bound
        assert code == 4
        assert "verification failed" in err

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"phases": [0.5, 0.5], "windings": [2, 1]}))
        _, out_cfg, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard", "--config", str(config)
        )
        _, out_flags, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard",
            "--phases", "0.5,0.5", "--windings", "2,1",
        )
        assert out_cfg == out_flags

    def test_explicit_flags_beat_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"windings": [3, 3]}))
        _, out, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard",
            "--config", str(config), "--windings", "1,1",
        )
        assert json.loads(out)["params"]["windings"] == [1, 1]

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"tolerances": 1e-9}))
        code, _, err = run_cli(
            capsys, "synthesize", "--gate", "hadamard", "--config", str(config)
        )
        assert code == 2
        assert "unknown config" in err


class TestCliVerify:
    def _write_doc(self, capsys, tmp_path, *extra):
        target = tmp_path / "doc.json"
        code, _, _ = run_cli(
            capsys, "synthesize", "--gate", "hadamard", "--out", str(target), *extra
        )
        assert code == 0
        return target

    def test_verify_passes(self, capsys, tmp_path):
        target = self._write_doc(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys, "verify", "--doc", str(target), "--steps", "200,2000"
        )
        assert code == 0
        report = json.loads(out)
        assert report["deviation"] < 2e-3

    @pytest.mark.parametrize("gate", ["cnot", "dft2", "random-3", "random-5"])
    def test_reproduces_the_oracle_block_of_its_document(self, gate, capsys, tmp_path):
        # verify reads the stored controller and gate back exactly, so its
        # oracle gives the bits `synthesize --oracle` wrote
        target, steps = tmp_path / "doc.json", ("--steps", "1000,10000")
        code, _, _ = run_cli(
            capsys, "synthesize", "--gate", gate, "--oracle", *steps, "--out", str(target)
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", "--doc", str(target), *steps)
        assert code == 0
        stored, report = json.loads(target.read_text())["verification"]["oracle"], json.loads(out)
        assert set(stored) >= {"deviations", "slope", "anomalous", "schedule"}
        assert {key: report[key] for key in stored} == stored

    @staticmethod
    def _oracle_run(capsys, tmp_path, command, source):
        """`synthesize --oracle` on the source flags, or `verify` of the
        document that `synthesize` writes for them, on the default schedule."""
        if command == "synthesize":
            return run_cli(capsys, "synthesize", *source, "--oracle")
        doc = tmp_path / "doc.json"
        assert run_cli(capsys, "synthesize", *source, "--out", str(doc))[0] == 0
        return run_cli(capsys, "verify", "--doc", str(doc))

    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_an_anomalous_oracle_order_fails_by_name(self, command, capsys, tmp_path,
                                                      monkeypatch):
        # without the polar step the chain converges at order 1, while its
        # finest deviation still passes the deviation bound
        monkeypatch.setattr(verify, "polar_unitary", lambda m, tol=None: m)
        code, out, err = self._oracle_run(capsys, tmp_path, command, ("--gate", "dft2"))
        assert code == 4
        assert re.fullmatch(r"verification failed: oracle order -1\.\d{3} is anomalous\n",
                            err), err
        oracle = json.loads(out)
        oracle = oracle["verification"]["oracle"] if command == "synthesize" else oracle
        assert oracle["anomalous"] is True and oracle["deviation"] < 2e-3

    ORDER_SOURCES = [("--gate", name.replace("<k>", "3").replace("<gamma>", "0.7"))
                     for name in catalog_names()]
    ORDER_SOURCES += [("--gate", "random-4"), ("--gate", "hadamard", "--windings", "2,1")]

    @pytest.mark.parametrize("source", ORDER_SOURCES, ids=" ".join)
    @pytest.mark.parametrize("command", ["synthesize", "verify"])
    def test_a_second_order_or_roundoff_oracle_passes(self, command, source, capsys,
                                                      tmp_path):
        code, out, err = self._oracle_run(capsys, tmp_path, command, source)
        assert (code, err) == (0, "")
        oracle = json.loads(out)
        oracle = oracle["verification"]["oracle"] if command == "synthesize" else oracle
        assert oracle["anomalous"] is False
        if source[1] == "identity-3":  # at the roundoff floor: no slope, no verdict
            assert oracle["slope"] is None

    def test_identity_document_verifies_exactly(self, capsys, tmp_path):
        target = tmp_path / "id.json"
        run_cli(capsys, "synthesize", "--gate", "identity-2", "--out", str(target))
        code, out, _ = run_cli(
            capsys, "verify", "--doc", str(target), "--steps", "100,1000"
        )
        assert code == 0
        assert json.loads(out)["deviation"] < 1e-12

    def test_corrupted_document_is_open_loop(self, capsys, tmp_path):
        target = self._write_doc(capsys, tmp_path)
        doc = json.loads(target.read_text())
        ctrl = decode_matrix(doc["synthesis"]["controller"])
        k = len(doc["synthesis"]["eigenphases"])
        ctrl[:k, k:] *= 0.9
        ctrl[k:, :k] *= 0.9
        doc["synthesis"]["controller"] = encode_matrix(ctrl)
        target.write_text(canonical_dumps(doc))
        code, _, err = run_cli(
            capsys, "verify", "--doc", str(target), "--steps", "100"
        )
        assert code == 5
        assert "clos" in err.lower() or "loop" in err.lower()

    def test_unreachable_bound_exits_4(self, capsys, tmp_path):
        target = self._write_doc(capsys, tmp_path)
        code, _, err = run_cli(
            capsys,
            "verify", "--doc", str(target),
            "--steps", "200,2000", "--bound", "1e-30",
        )
        assert code == 4
        assert "bound" in err

    def _perturbed_cnot(self, capsys, tmp_path, edit):
        target = tmp_path / "cnot.json"
        run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(target))
        doc = json.loads(target.read_text())
        edit(doc)
        target.write_text(canonical_dumps(doc))
        return target

    def test_tolerance_reaches_the_omega_skewness_check(self, capsys, tmp_path):
        def raise_omega_entry(doc):
            doc["synthesis"]["controller"]["data"][0][0] += 1e-9

        target = self._perturbed_cnot(capsys, tmp_path, raise_omega_entry)
        verify_doc = ("verify", "--doc", str(target), "--steps", "1000")
        code, _, err = run_cli(capsys, *verify_doc)
        assert code == 4
        assert "controller omega block fails skew-Hermiticity" in err
        code, out, err = run_cli(capsys, *verify_doc, "--tolerance", "1e-6")
        assert code == 0, err
        assert json.loads(out)["deviation"] < 1e-12
        sample_doc = ("sample", "--doc", str(target), "--steps", "10")
        assert run_cli(capsys, *sample_doc)[0] == 4
        assert run_cli(capsys, *sample_doc, "--tolerance", "1e-6")[0] == 0

    @pytest.mark.parametrize("command", ["verify", "sample"])
    @pytest.mark.parametrize("dim, k", [(1, 4), (2, 4), (4, 5)],
                             ids=["1x1-gate", "2x2-gate", "five-eigenphases"])
    def test_target_of_the_wrong_shape_exits_2(self, dim, k, command, capsys, tmp_path):
        # cnot's k = 4 controller with a dim x dim gate, or with a fifth
        # eigenphase, which reads a k = 5 controller off the same generator:
        # every reader of the document refuses the gate before any sample
        def misfit(doc):
            doc["gate"]["matrix"] = encode_matrix(np.eye(dim))
            doc["synthesis"]["eigenphases"] += [0.0] * (k - 4)

        target = self._perturbed_cnot(capsys, tmp_path, misfit)
        code, out, err = run_cli(capsys, command, "--doc", str(target), "--steps", "1000")
        assert code == 2
        assert f"target gate has shape ({dim}, {dim}), not ({k}, {k})" in err
        assert "Traceback" not in err
        assert out == ""

    def test_a_gate_the_controller_does_not_implement_exits_4(self, capsys, tmp_path):
        def replace_gate(doc):
            doc["gate"]["matrix"] = encode_matrix(np.eye(4))

        target = self._perturbed_cnot(capsys, tmp_path, replace_gate)
        report = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "--doc", str(target), "--steps", "1000", "--out", str(report)
        )
        assert code == 4
        assert "target error 2.000e+00 >= bound 1.000e-10" in err
        assert "oracle deviation" not in err
        assert json.loads(report.read_text())["target_error"] == pytest.approx(2.0)

    @pytest.mark.parametrize("command", ["verify", "sample"])
    def test_a_non_unitary_gate_exits_3(self, command, capsys, tmp_path):
        # each reader of the document refuses the gate before any sample,
        # and writes nothing
        def replace_gate(doc):
            doc["gate"]["matrix"] = encode_matrix(2.0 * np.eye(4))

        target = self._perturbed_cnot(capsys, tmp_path, replace_gate)
        written = tmp_path / "out"
        code, out, err = run_cli(capsys, command, "--doc", str(target), "--steps", "1000",
                                 "--out", str(written))
        assert code == 3
        assert "target gate fails unitarity" in err
        assert "Traceback" not in err
        assert out == "" and not written.exists()

    @pytest.mark.parametrize("steps", ["1000,1000", "100,1000,100"])
    def test_a_schedule_that_does_not_increase_exits_2(self, steps, capsys, tmp_path):
        target = self._write_doc(capsys, tmp_path)
        code, _, err = run_cli(capsys, "verify", "--doc", str(target), "--steps", steps)
        assert code == 2
        assert err.splitlines() == [
            f"error: steps_schedule must be strictly increasing, got ({steps.replace(',', ', ')})"
        ]

    def test_failed_oracle_check_is_named(self, capsys):
        code, _, err = run_cli(
            capsys,
            "synthesize", "--gate", "random-3", "--seed", "2",
            "--oracle", "--steps", "5",
        )
        assert code == 4
        assert "oracle deviation" in err
        assert "bound 2.000e-03" in err
        assert "holonomy error" not in err


def _python_env():
    """The environment of a fresh interpreter that imports the package under test."""
    src = str(Path(holosynth.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_python(*args):
    """Run a fresh interpreter that imports the package under test."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=_python_env())


def test_cli_never_imports_scipy(tmp_path):
    out = str(tmp_path / "doc.json")
    proc = _run_python("-c", (
        "import sys\n"
        "from holosynth.cli import main\n"
        f"assert main(['synthesize', '--gate', 'dft2', '--out', {out!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_the_console_script_runs():
    # the `holosynth` command that pyproject.toml installs, called as its
    # generated wrapper calls it
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["holosynth"]
    module, function = target.split(":")

    def run(*argv):
        return _run_python("-c", (
            "import sys\n"
            f"from {module} import {function}\n"
            f"sys.argv = ['holosynth', *{list(argv)!r}]\n"
            f"{function}()\n"
        ))

    proc = run("catalog", "list")
    assert proc.returncode == 0, proc.stderr
    assert "hadamard" in proc.stdout.split()
    # argparse's rejection: main returns its 2, and the process exits with it
    proc = run("synthesize", "--gate", "cnot", "--tolerance", "abc")
    assert proc.returncode == 2, proc.stderr
    assert "argument --tolerance: expected a number, got 'abc'" in proc.stderr


def test_public_surface_resolves():
    proc = _run_python("-c", (
        "import holosynth\n"
        "from holosynth import *\n"
        "missing = [n for n in holosynth.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "print(len(holosynth.__all__))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{len(holosynth.__all__)}\n"


def test_the_readme_library_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, "README.md", "exec"), {})


def test_tolerance_below_roundoff_keeps_a_closed_loop_passing(capsys):
    # Gamma's unitarity defect is roundoff here (4.4e-16), above the
    # 1e-17 validation tolerance, yet the loop closes: exit 0.
    code, out, err = run_cli(
        capsys, "synthesize", "--gate", "phase-0.5", "--tolerance", "1e-17"
    )
    assert code == 0, err
    assert json.loads(out)["verification"]["closure_defect"] < 1e-10


def test_oracle_grid_too_coarse_to_transport_exits_4(capsys):
    code, _, err = run_cli(
        capsys, "synthesize", "--gate", "phase-3.141592653589793",
        "--oracle", "--steps", "2",
    )
    assert code == 4
    assert "smallest singular value" in err
    assert "Traceback" not in err


def test_running_out_of_memory_exits_2(capsys, monkeypatch):
    # a huge random-<k> runs out of memory where the catalog draws it; the
    # catalog is replaced here, so nothing large is requested
    def exhausted(name, seed=0):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "catalog_get", exhausted)
    code, out, err = run_cli(capsys, "synthesize", "--gate", "random-4")
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 74.5 GiB for an array\n"


def test_an_unmapped_exception_propagates_out_of_main(capsys, monkeypatch):
    # what the exit-code table does not map fails an in-process test, where
    # a process would only print its traceback
    def broken(name, seed=0):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "catalog_get", broken)
    with pytest.raises(RuntimeError, match="boom"):
        main(["synthesize", "--gate", "hadamard"])
    assert capsys.readouterr().out == ""


def test_failed_eigendecomposition_exits_4(capsys):
    # pauli-x is exactly unitary, but its eigendecomposition reconstructs
    # it only to roundoff, above the 1e-17 validation tolerance
    code, _, err = run_cli(capsys, "synthesize", "--gate", "pauli-x", "--tolerance", "1e-17")
    assert code == 4
    assert "reconstruction defect 3.385e-16 exceeds 1.0e-17" in err
    assert "Traceback" not in err


_HADAMARD_DATA = json.dumps(encode_matrix(catalog_get("hadamard").matrix)["data"])


class TestCliBadInput:
    # matrix files that --matrix must refuse
    MATRICES = {
        "empty_matrix": '{"rows": 0, "cols": 0, "data": []}',
        "fractional_rows": f'{{"rows": 2.9, "cols": 2, "data": {_HADAMARD_DATA}}}',
        "boolean_rows": '{"rows": true, "cols": true, "data": [[1.0, 0.0]]}',
        "string_rows": f'{{"rows": "2", "cols": "2", "data": {_HADAMARD_DATA}}}',
        "negative_rows": f'{{"rows": -2, "cols": -2, "data": {_HADAMARD_DATA}}}',
        "boolean_entry": '{"rows": 1, "cols": 1, "data": [[true, false]]}',
        # an integer beyond the float range, where float() raises OverflowError
        "huge_entry": '{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * 400),
    }
    # eigenphases that len() counts as k = 4 for a cnot document
    EIGENPHASES = {"string_eigenphases": "abcd",
                   "object_eigenphases": {"a": 0, "b": 0, "c": 0, "d": 0}}

    @pytest.mark.parametrize(
        "case, field",
        [
            ("empty_document", "'synthesis'"),
            ("synthesis_list", "'synthesis'"),
            ("short_data_entry", "data[3]"),
            ("data_not_a_list", "data"),
            ("config_list", "JSON object"),
            ("config_scalar_phases", "phases"),
            ("one_step", "steps"),
            ("empty_matrix", "empty"),
            ("fractional_rows", "rows"),
            ("boolean_rows", "rows"),
            ("string_rows", "rows"),
            ("negative_rows", "rows"),
            ("boolean_entry", "data[0]"),
            ("huge_entry", "data[0]"),
            ("two_sample_steps", "single integer step count"),
            ("string_eigenphases", "eigenphases"),
            ("object_eigenphases", "eigenphases"),
        ],
    )
    def test_exits_2_naming_the_field(self, case, field, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        config = tmp_path / "config.json"
        if case in self.MATRICES:
            gate = tmp_path / "gate.json"
            gate.write_text(self.MATRICES[case])
            argv = ["synthesize", "--matrix", str(gate)]
        elif case in self.EIGENPHASES:
            assert main(["synthesize", "--gate", "cnot", "--out", str(doc)]) == 0
            parsed = json.loads(doc.read_text())
            parsed["synthesis"]["eigenphases"] = self.EIGENPHASES[case]
            doc.write_text(json.dumps(parsed))
            argv = ["verify", "--doc", str(doc), "--steps", "1000,2000"]
        elif case == "empty_document":
            doc.write_text("{}")
            argv = ["verify", "--doc", str(doc)]
        elif case == "synthesis_list":
            doc.write_text('{"synthesis": []}')
            argv = ["verify", "--doc", str(doc)]
        elif case in ("short_data_entry", "data_not_a_list"):
            assert main(["synthesize", "--gate", "hadamard", "--out", str(doc)]) == 0
            parsed = json.loads(doc.read_text())
            if case == "short_data_entry":
                parsed["synthesis"]["controller"]["data"][3] = [1.0]
            else:
                parsed["synthesis"]["controller"]["data"] = 5
            doc.write_text(json.dumps(parsed))
            argv = ["verify", "--doc", str(doc)]
        elif case == "two_sample_steps":
            argv = ["sample", "--gate", "hadamard", "--steps", "10,20"]
        elif case == "one_step":
            assert main(["synthesize", "--gate", "hadamard", "--out", str(doc)]) == 0
            argv = ["verify", "--doc", str(doc), "--steps", "1"]
        else:
            config.write_text('["phases"]' if case == "config_list" else '{"phases": 1}')
            argv = ["synthesize", "--gate", "hadamard", "--config", str(config)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "Traceback" not in err
        assert field in err


    @pytest.mark.parametrize("source, message", [
        ("both", "give either --gate or --matrix, not both"),
        ("neither", "one of --gate or --matrix is required"),
    ])
    def test_synthesize_takes_one_gate_source(self, source, message, capsys, tmp_path):
        gate = tmp_path / "gate.json"
        gate.write_text(canonical_dumps(encode_matrix(catalog_get("hadamard").matrix)))
        argv = {"both": ["--gate", "hadamard", "--matrix", str(gate)], "neither": []}[source]
        code, out, err = run_cli(capsys, "synthesize", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("content, detail", [
        (b"{'rows': 1}", "Expecting property name enclosed in double quotes"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"", "Expecting value: line 1 column 1 (char 0)"),
        (b"[" * 100000, "maximum recursion depth exceeded"),
    ], ids=["bad_json", "not_utf8", "empty", "too_deep"])
    @pytest.mark.parametrize("route", ["--config", "--matrix", "verify --doc", "sample --doc"])
    def test_a_malformed_json_file_exits_2_naming_flag_and_path(self, route, content, detail,
                                                                capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        command, flag = route.split() if " " in route else ("synthesize", route)
        argv = [command, flag, str(bad)]
        if flag == "--config":
            argv += ["--gate", "hadamard"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} {bad}: {detail}")
        assert err.count("\n") == 1

    def test_an_overflowing_controller_entry_fails_without_a_warning(self, capsys, tmp_path):
        # pytest turns the numpy RuntimeWarning the skew check once printed into an error
        doc = tmp_path / "doc.json"
        assert main(["synthesize", "--gate", "hadamard", "--out", str(doc)]) == 0
        parsed = json.loads(doc.read_text())
        parsed["synthesis"]["controller"]["data"][0] = [1e308, 0.0]
        doc.write_text(json.dumps(parsed))
        code, out, err = run_cli(capsys, "verify", "--doc", str(doc))
        assert (code, out) == (4, "")
        assert err == ("error: controller omega block fails skew-Hermiticity: "
                       "||A + A^H||_F = inf > 1.0e-10\n")


class TestCliBlockForm:
    """`verify --doc` refuses a stored generator that is not
    X = [[Omega, W], [-W^H, 0]] for the document's channel count k."""

    @staticmethod
    def _tamper(parsed, case):
        x = parsed["synthesis"]["controller"]  # hadamard: k = 2, n = 4, row-major
        if case == "tail":
            x["data"][3 * 4 + 3] = [0.5, 0.0]
        elif case == "mirror":
            x["data"][2 * 4 + 0][0] += 9.0
        elif case == "not_square":
            x["rows"], x["cols"] = 2, 8
        else:  # n <= k: a 4 x 4 generator for four channels
            parsed["synthesis"]["eigenphases"] = [0.0] * 4

    BLOCKS = "stored generator is not in controller block form "

    @pytest.mark.parametrize("case, message", [
        ("tail", BLOCKS + "(mirror defect 0.000e+00, tail norm 5.000e-01)"),
        ("mirror", BLOCKS + "(mirror defect 9.000e+00, tail norm 0.000e+00)"),
        ("not_square", "controller matrix shape (2, 8) inconsistent with k=2"),
        ("n_not_above_k", "controller matrix shape (4, 4) inconsistent with k=4"),
    ])
    def test_exits_2_naming_the_defect(self, case, message, capsys, tmp_path):
        doc = tmp_path / "doc.json"
        assert main(["synthesize", "--gate", "hadamard", "--out", str(doc)]) == 0
        parsed = json.loads(doc.read_text())
        self._tamper(parsed, case)
        doc.write_text(json.dumps(parsed))
        code, out, err = run_cli(capsys, "verify", "--doc", str(doc), "--steps", "1000,2000")
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestCliFailsClosed:
    """A NaN defect, a NaN or non-positive bound and a negative seed each
    end in a documented exit code that names the culprit."""

    FILES = {
        "overflowing.json": canonical_dumps(encode_matrix(np.diag([1.0, 1e200]))),
        "doubled.json": canonical_dumps(encode_matrix(2.0 * np.eye(2))),
        "nan_tolerance.json": '{"tolerance": NaN}',
        "infinite_bound.json": '{"bound": Infinity}',
        "negative_seed.json": '{"seed": -1}',
        "fractional_steps.json": '{"steps": 10.9}',
        "fractional_seed.json": '{"seed": 1.5}',
        "boolean_seed.json": '{"seed": true}',
        "fractional_windings.json": '{"windings": [1, 1.5]}',
        "stretched.json": canonical_dumps(encode_matrix(np.diag([1.0, 1.3]))),
        "boolean_tolerance.json": '{"tolerance": true}',
        "string_bound.json": '{"bound": "0.5"}',
        "string_phases.json": '{"phases": "12"}',
        "huge_tolerance.json": '{"tolerance": 1%s}' % ("0" * 400),
    }
    # argv (a *.json argument names a file in the test's directory), exit
    # code, text stderr must contain
    CASES = {
        "overflowing_gate": (
            ["synthesize", "--matrix", "overflowing.json"], 3, "target gate fails unitarity"),
        "nan_tolerance_on_a_non_unitary_gate": (
            ["synthesize", "--matrix", "doubled.json", "--tolerance", "nan"], 2, "--tolerance"),
        "nan_tolerance_on_verify": (
            ["verify", "--doc", "doc.json", "--tolerance", "nan"], 2, "--tolerance"),
        "negative_tolerance": (
            ["synthesize", "--gate", "hadamard", "--tolerance", "-1"], 2, "--tolerance"),
        "nan_bound": (["verify", "--doc", "doc.json", "--bound", "nan"], 2, "--bound"),
        "negative_seed": (["synthesize", "--gate", "random-2", "--seed", "-1"], 2, "--seed"),
        "negative_catalog_seed": (["catalog", "show", "random-2", "--seed", "-1"], 2, "--seed"),
        "config_nan_tolerance": (
            ["synthesize", "--gate", "hadamard", "--config", "nan_tolerance.json"],
            2, "'tolerance'"),
        "config_infinite_bound": (
            ["verify", "--doc", "doc.json", "--config", "infinite_bound.json"], 2, "'bound'"),
        "config_negative_seed": (
            ["synthesize", "--gate", "random-2", "--config", "negative_seed.json"], 2, "'seed'"),
        "config_fractional_steps": (
            ["sample", "--gate", "hadamard", "--config", "fractional_steps.json"], 2, "'steps'"),
        "config_fractional_seed": (
            ["synthesize", "--gate", "random-2", "--config", "fractional_seed.json"], 2, "'seed'"),
        "config_boolean_seed": (
            ["synthesize", "--gate", "random-2", "--config", "boolean_seed.json"], 2, "'seed'"),
        "config_fractional_windings": (
            ["synthesize", "--gate", "hadamard", "--config", "fractional_windings.json"],
            2, "'windings'"),
        # read as tol = 1.0, true would admit the non-unitary diag(1, 1.3)
        "config_boolean_tolerance": (
            ["synthesize", "--matrix", "stretched.json", "--config", "boolean_tolerance.json"],
            2, "'tolerance'"),
        "config_string_bound": (
            ["verify", "--doc", "doc.json", "--config", "string_bound.json"], 2, "'bound'"),
        "config_string_phases": (
            ["synthesize", "--gate", "hadamard", "--config", "string_phases.json"],
            2, "'phases'"),
        "config_huge_tolerance": (
            ["synthesize", "--gate", "hadamard", "--config", "huge_tolerance.json"],
            2, "'tolerance'"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code(self, case, capsys, tmp_path):
        argv, code, named = self.CASES[case]
        assert main(["synthesize", "--gate", "hadamard",
                     "--out", str(tmp_path / "doc.json")]) == 0
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        got, _, err = run_cli(
            capsys, *(str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv)
        )
        assert got == code, err
        assert named in err
        assert "Traceback" not in err

    def test_an_overflowing_gate_prints_one_error_line(self, tmp_path):
        # its Gram matrix overflows; a real process must not print numpy's warnings
        (tmp_path / "overflowing.json").write_text(self.FILES["overflowing.json"])
        proc = _run_python("-m", "holosynth.cli",
                           "synthesize", "--matrix", str(tmp_path / "overflowing.json"))
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith("error: target gate fails unitarity")

    @pytest.mark.parametrize("argv, named", [
        (["synthesize", "--gate", "hadamard", "--phases", "inf,0"], "phases"),
        (["synthesize", "--gate", "hadamard", "--config", "infinite_phases.json"], "phases"),
        (["synthesize", "--gate", "phase-inf"], "phase-inf"),
    ], ids=["flag", "config", "gate-name"])
    def test_a_non_finite_phase_prints_one_error_line(self, argv, named, capsys, tmp_path):
        (tmp_path / "infinite_phases.json").write_text('{"phases": [Infinity, 0]}')
        code, _, err = run_cli(
            capsys, *(str(tmp_path / arg) if arg.endswith(".json") else arg for arg in argv)
        )
        assert code == 2
        assert len(err.splitlines()) == 1, err
        assert err.startswith("error:") and named in err

    def test_an_integral_float_in_the_config_is_an_integer(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"steps": 10.0}')
        code, out, _ = run_cli(capsys, "sample", "--gate", "hadamard", "--config", str(config))
        assert code == 0
        assert len(out.splitlines()) == 12  # header + 11 samples


class TestCliNonNumericFlags:
    """A flag given a word where it wants a number exits 2 with a message
    naming the flag and what it expected, not a private helper."""

    CASES = [
        (["synthesize", "--gate", "hadamard", "--phases", "abc"], "--phases",
         "expected comma-separated numbers"),
        (["synthesize", "--gate", "hadamard", "--windings", "abc"], "--windings",
         "expected comma-separated integers"),
        (["synthesize", "--gate", "hadamard", "--steps", "abc"], "--steps",
         "expected comma-separated integers"),
        (["synthesize", "--gate", "random-2", "--seed", "abc"], "--seed",
         "expected an integer"),
        (["synthesize", "--gate", "hadamard", "--tolerance", "abc"], "--tolerance",
         "expected a number"),
        (["verify", "--doc", "doc.json", "--tolerance", "abc"], "--tolerance",
         "expected a number"),
        (["verify", "--doc", "doc.json", "--bound", "abc"], "--bound", "expected a number"),
        (["verify", "--doc", "doc.json", "--steps", "abc"], "--steps",
         "expected comma-separated integers"),
        (["sample", "--gate", "hadamard", "--phases", "abc"], "--phases",
         "expected comma-separated numbers"),
        (["catalog", "show", "random-2", "--seed", "abc"], "--seed", "expected an integer"),
    ]

    @pytest.mark.parametrize("argv, flag, expected", CASES)
    def test_exits_2_saying_what_was_expected(self, argv, flag, expected, capsys):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"argument {flag}: {expected}, got 'abc'" in err
        assert "invalid" not in err and "_" not in err.splitlines()[-1]


class TestCliSteps:
    """`--steps` is one comma-separated integer type on every command."""

    @pytest.mark.parametrize("command", [
        ["synthesize", "--gate", "hadamard", "--oracle"],
        ["verify", "--doc", "doc.json"],
        ["sample", "--gate", "hadamard"],
    ], ids=lambda command: command[0])
    def test_an_empty_list_exits_2(self, command, capsys, tmp_path):
        doc = str(tmp_path / "doc.json")
        assert main(["synthesize", "--gate", "hadamard", "--out", doc]) == 0
        argv = [doc if arg == "doc.json" else arg for arg in command]
        code, out, err = run_cli(capsys, *argv, "--steps", ",")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "step" in err

    def test_synthesize_takes_steps_only_with_the_oracle(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "synthesize", "--gate", "hadamard", "--steps", "100")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --steps") and "--oracle" in err
        # a config file may hold steps for the commands that read them
        config = tmp_path / "config.json"
        config.write_text('{"steps": 100}')
        code, _, err = run_cli(capsys, "synthesize", "--gate", "hadamard",
                               "--config", str(config))
        assert code == 0, err

    @pytest.mark.parametrize("argv", [
        ["verify", "--doc", "doc.json", "--steps", "1000,1" + "0" * 300],
        ["sample", "--doc", "doc.json", "--steps", str(2**53 + 1)],
    ], ids=lambda argv: argv[0])
    def test_a_count_above_2_pow_53_exits_2(self, argv, capsys, tmp_path):
        # the float64 grid t_i = i / steps has coinciding times there
        doc = str(tmp_path / "doc.json")
        assert main(["synthesize", "--gate", "hadamard", "--out", doc]) == 0
        code, out, err = run_cli(capsys, *(doc if arg == "doc.json" else arg for arg in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: steps must be <= 2**53, got ")
        assert len(err.splitlines()) == 1, err


class TestCliWindings:
    """A winding is a whole number 1 <= n <= 2**53, whether it comes from
    --windings or from a config file; above that the float64 angles n pi
    of neighbouring windings coincide."""

    @pytest.mark.parametrize("source, huge", [
        ("flag", 2**53 + 1), ("flag", 10**20), ("flag", 10**400),
        ("config", 2**53 + 1), ("config", 10**400), ("config", 1e300),
    ], ids=["flag-2**53+1", "flag-10**20", "flag-10**400",
            "config-2**53+1", "config-10**400", "config-1e300"])
    def test_a_winding_above_2_pow_53_exits_2_naming_it(self, source, huge, capsys, tmp_path):
        argv = ["synthesize", "--gate", "pauli-z"]
        if source == "flag":
            argv += ["--windings", f"1,{huge}"]
        else:
            (tmp_path / "config.json").write_text(json.dumps({"windings": [1, huge]}))
            argv += ["--config", str(tmp_path / "config.json")]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        named = "config key 'windings': " if source == "config" else ""
        assert err == f"error: {named}winding number must be >= 1 and <= 2**53, got {int(huge)}\n"


def test_a_channel_count_mismatch_exits_2_naming_both_counts(capsys):
    code, out, err = run_cli(capsys, "synthesize", "--gate", "cnot", "--phases", "0,0")
    assert (code, out) == (2, "")
    assert err == "error: gate has 4 channels but got 2 phases and 4 windings\n"


class TestCliConfigLists:
    """A config file gives `phases` and `windings` as JSON lists; a scalar
    there, a string included, is refused naming its key."""

    @pytest.mark.parametrize("text, message", [
        ('{"windings": NaN}', "'windings': expected a list of whole numbers, got nan"),
        ('{"windings": 3}', "'windings': expected a list of whole numbers, got 3"),
        ('{"phases": true}', "'phases': expected a list of numbers, got True"),
        ('{"phases": "abc"}', "'phases': expected a list of numbers, got 'abc'"),
    ], ids=["nan-windings", "scalar-windings", "boolean-phases", "string-phases"])
    def test_a_config_list_key_given_a_scalar_exits_2_naming_it(
        self, text, message, capsys, tmp_path
    ):
        (tmp_path / "config.json").write_text(text)
        code, out, err = run_cli(
            capsys, "synthesize", "--gate", "pauli-z", "--config", str(tmp_path / "config.json")
        )
        assert code == 2
        assert out == ""
        assert err == f"error: config key {message}\n"


class TestCliHelp:
    SOURCE = ["--gate", "--matrix", "--phases", "--windings", "--paper-order", "--seed"]
    COMMON = ["--steps", "--tolerance", "--config", "--out"]
    FLAGS = {
        "synthesize": SOURCE + COMMON + ["--oracle"],
        "verify": COMMON + ["--doc", "--bound"],
        "sample": SOURCE + COMMON + ["--doc"],
    }

    @pytest.mark.parametrize("command", FLAGS)
    def test_lists_each_flag_of_the_command_once(self, command, capsys):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        options = out.split("\noptions:\n")[1]
        listed = [line.split()[0].rstrip(",") for line in options.splitlines()
                  if line.startswith("  -")]
        assert sorted(listed) == sorted(["-h", *self.FLAGS[command]])


class TestCliSample:
    def test_identity_rows_are_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--gate", "identity-1", "--steps", "10"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12  # header + 11 samples
        rows = np.array(
            [[float(x) for x in line.split(",")[1:]] for line in lines[1:]]
        )
        assert np.max(np.abs(rows - rows[0])) < 1e-12

    def test_half_turn_bloch_track(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--gate", "phase-3.141592653589793", "--steps", "4"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        idx = {name: i for i, name in enumerate(header)}
        assert {"r1", "r2", "r3"} <= set(idx)
        r3 = [float(line.split(",")[idx["r3"]]) for line in lines[1:]]
        np.testing.assert_allclose(r3, [1.0, 0.0, -1.0, 0.0, 1.0], atol=1e-12)

    def test_two_channel_gate_has_no_bloch_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--gate", "hadamard", "--steps", "4"
        )
        assert code == 0
        assert "r1" not in out.split("\n")[0]

    def test_endpoint_projectors_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--gate", "hadamard", "--steps", "1000"
        )
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        first = np.array([float(x) for x in lines[1].split(",")])
        last = np.array([float(x) for x in lines[-1].split(",")])
        p_cols = [i for i, name in enumerate(header) if name.startswith("p_")]
        assert np.max(np.abs(first[p_cols] - last[p_cols])) < 1e-10

    @pytest.mark.parametrize(
        "gate, steps",
        [("dft2", 50), ("phase-0.7", 50), ("dft2", 1500)],
        ids=["dft2", "phase-0.7", "dft2-1500"],  # 1500 steps are 3 chunks at k = 4
    )
    def test_csv_reproduces_the_sampled_loop(self, gate, steps, capsys):
        code, out, _ = run_cli(capsys, "sample", "--gate", gate, "--steps", str(steps))
        assert code == 0
        header, *lines = out.strip().split("\n")
        values = np.array([[float(x) for x in line.split(",")] for line in lines])
        col = dict(zip(header.split(","), values.T))
        ctrl = synthesize(catalog_get(gate).matrix).controller
        times = np.linspace(0.0, 1.0, steps + 1)
        # the grid's frames, shifted from one table per stream, are the closed
        # form's to roundoff and the CSV's bit for bit
        frames = verify.sample_loop(ctrl, steps).frames
        assert np.abs(frames - curve_samples(ctrl, times)).max() <= 2e-15
        p = np.einsum("mik,mjk->mij", frames, frames.conj())
        np.testing.assert_array_equal(col["t"], times)
        for i in range(ctrl.n):
            for j in range(ctrl.k):
                np.testing.assert_array_equal(col[f"v_re_{i}_{j}"], frames[:, i, j].real)
                np.testing.assert_array_equal(col[f"v_im_{i}_{j}"], frames[:, i, j].imag)
            for j in range(ctrl.n):
                np.testing.assert_array_equal(col[f"p_re_{i}_{j}"], p[:, i, j].real)
                np.testing.assert_array_equal(col[f"p_im_{i}_{j}"], p[:, i, j].imag)
        if ctrl.k == 1:
            np.testing.assert_array_equal(col["r3"], (p[:, 0, 0] - p[:, 1, 1]).real)
            np.testing.assert_array_equal(col["r1"] + 1j * col["r2"], 2.0 * p[:, 0, 1].conj())

    def test_csv_frames_are_the_sample_loop_frames(self, capsys):
        # at k = 3 a frame's last bit depends on the batch it is sampled in,
        # so this holds only because sample_loop samples in the CSV's batches
        code, out, _ = run_cli(capsys, "sample", "--gate", "random-3", "--steps", "1000")
        assert code == 0
        header, *lines = out.strip().split("\n")
        values = np.array([[float(x) for x in line.split(",")] for line in lines])
        col = dict(zip(header.split(","), values.T))
        frames = verify.sample_loop(synthesize(catalog_get("random-3").matrix).controller,
                                    1000).frames
        for i in range(frames.shape[1]):
            for j in range(frames.shape[2]):
                np.testing.assert_array_equal(col[f"v_re_{i}_{j}"], frames[:, i, j].real)
                np.testing.assert_array_equal(col[f"v_im_{i}_{j}"], frames[:, i, j].imag)

    def test_starts_no_thread(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refused)
        code, out, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "2000")
        assert code == 0 and len(out.splitlines()) == 2002

    def test_samples_the_curve_once(self, capsys, monkeypatch):
        # the analytic end frame V(1) once, for the closure check, then one
        # table for the grid, shifted once per chunk to the chunk's first
        # grid point, with no probe of the grid's end frames
        sampled, tables, shifts, sampler = [], [], [], verify._frame_sampler

        def recording(ctrl, times):
            sampled.append(np.asarray(times))
            return curve_samples(ctrl, times)

        def streaming(ctrl, offsets, out=None):
            tables.append(np.array(offsets))
            sample = sampler(ctrl, offsets, out)

            def streamed(t0):
                shifts.append(t0)
                return sample(t0)

            return streamed

        for module in (extremal, verify, cli):
            if getattr(module, "curve_samples", None) is curve_samples:
                monkeypatch.setattr(module, "curve_samples", recording)
        monkeypatch.setattr(verify, "_frame_sampler", streaming)
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**12)  # 8 frames at k = 4
        code, _, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "20")
        assert code == 0
        assert len(sampled) == 1
        np.testing.assert_array_equal(sampled[0], [1.0])
        assert len(tables) == 1
        np.testing.assert_array_equal(tables[0], np.arange(8) * (1 / 20))
        assert shifts == [0.0, 8 * (1 / 20), 16 * (1 / 20)]
        covered = np.concatenate([t0 + tables[0] for t0 in shifts])[:21]
        np.testing.assert_allclose(covered, np.linspace(0.0, 1.0, 21), rtol=0, atol=1e-15)

    def test_memory_does_not_grow_with_steps(self, monkeypatch, tmp_path):
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**11)  # 16 frames at k = 2
        out = str(tmp_path / "loop.csv")

        def sample(steps):
            assert main(["sample", "--gate", "hadamard", "--steps", str(steps),
                         "--out", out]) == 0

        coarse = traced_peak(sample, 200)
        fine = traced_peak(sample, 2000)
        assert fine <= 1.2 * coarse, (fine, coarse)

    def test_a_check_failing_mid_stream_leaves_out_untouched(self, capsys, monkeypatch, tmp_path):
        # calls: the first chunk, then the second chunk
        calls = []
        check = verify._check_frames

        def failing_second_chunk(frames, tol):
            calls.append(len(frames))
            if len(calls) == 2:
                raise InvalidFrame("rough frame in the second chunk")
            check(frames, tol)

        monkeypatch.setattr(cli, "_check_frames", failing_second_chunk)
        monkeypatch.setattr(verify, "_CHUNK_BYTES", 2**12)
        out = tmp_path / "loop.csv"
        out.write_text("earlier run\n")
        code, _, err = run_cli(
            capsys, "sample", "--gate", "dft2", "--steps", "100", "--out", str(out)
        )
        assert code == 4
        assert "second chunk" in err
        assert calls == [8, 8]
        assert out.read_text() == "earlier run\n"
        assert os.listdir(tmp_path) == ["loop.csv"]

    @pytest.mark.parametrize("flags", [
        ["--gate", "hadamard"], ["--matrix", "gate.json"], ["--phases", "0,0,0,0"],
        ["--windings", "5"], ["--paper-order"], ["--seed", "0"],
    ], ids=lambda flags: flags[0])
    def test_a_document_takes_no_flag_that_chooses_the_controller(self, flags, capsys, tmp_path):
        doc = tmp_path / "cnot.json"
        run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(doc))
        code, out, err = run_cli(capsys, "sample", "--doc", str(doc), "--steps", "8", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + flags[0])

    def test_a_document_ignores_config_keys_meant_for_synthesis(self, capsys, tmp_path):
        doc, config = tmp_path / "cnot.json", tmp_path / "config.json"
        run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(doc))
        config.write_text('{"phases": [0.5], "windings": [3], "seed": 4}')
        code, out, _ = run_cli(capsys, "sample", "--doc", str(doc), "--steps", "8",
                               "--config", str(config))
        assert code == 0
        assert len(out.strip().split("\n")) == 10

    def test_sample_from_document(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        run_cli(capsys, "synthesize", "--gate", "hadamard", "--out", str(target))
        code, out, _ = run_cli(
            capsys, "sample", "--doc", str(target), "--steps", "8"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 10


class TestCliOut:
    """--out replaces a regular file, or creates one, only once the output
    is complete; a symlink, a device or a FIFO is written through."""

    @staticmethod
    def _csv(capsys):
        code, out, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "1500")
        assert code == 0
        return out

    def test_a_new_file_gets_the_mode_open_would_give_it(self, capsys, tmp_path):
        out = tmp_path / "loop.csv"
        code, _, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "1500",
                             "--out", str(out))
        assert code == 0
        assert out.read_text() == self._csv(capsys)
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["loop.csv"]

    @pytest.mark.parametrize("mode", [0o600, 0o640], ids=oct)
    def test_a_replaced_file_keeps_its_mode(self, capsys, tmp_path, mode):
        out = tmp_path / "doc.json"
        out.write_text("earlier run\n")
        out.chmod(mode)
        code, _, _ = run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("{")
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert os.listdir(tmp_path) == ["doc.json"]

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() != 0,
                        reason="only root may give a file to another owner")
    def test_a_replaced_file_keeps_its_owner_and_group(self, capsys, tmp_path):
        out = tmp_path / "owned.json"
        out.write_text("earlier run\n")
        out.chmod(0o640)
        os.chown(out, 65534, 65534)
        code, _, _ = run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("{")
        owned = out.stat()
        assert (owned.st_uid, owned.st_gid, stat.S_IMODE(owned.st_mode)) == (65534, 65534, 0o640)
        assert os.listdir(tmp_path) == ["owned.json"]

    def test_a_refused_owner_change_still_replaces_the_file(self, capsys, tmp_path, monkeypatch):
        # what a caller that is not root meets when it replaces another user's file
        def refuse(fd, uid, gid):
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "fchown", refuse)
        out = tmp_path / "doc.json"
        out.write_text("earlier run\n")
        out.chmod(0o640)
        code, _, _ = run_cli(capsys, "synthesize", "--gate", "cnot", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith("{")
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert os.listdir(tmp_path) == ["doc.json"]

    def test_sigterm_exits_143_and_leaves_no_partial_file(self, tmp_path):
        # the console command, stopped while it streams a long CSV to --out
        proc = subprocess.Popen(
            [sys.executable, "-m", "holosynth.cli", "sample", "--gate", "cnot",
             "--steps", "3000000", "--out", "c.csv"],
            cwd=tmp_path, env=_python_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not (partial := list(tmp_path.glob("*.partial"))):
                assert proc.poll() is None and time.monotonic() < deadline, proc.returncode
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert partial[0].name.startswith("c.csv.")  # names what it was for
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 143, err
        assert os.listdir(tmp_path) == []

    def test_a_symlink_survives_and_its_target_gets_the_output(self, capsys, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("earlier run\n")
        link.symlink_to(target)
        code, _, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "1500",
                             "--out", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == self._csv(capsys)
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    def test_a_fifo_is_written_through_to_its_reader(self, capsys, tmp_path):
        fifo = tmp_path / "loop.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            with open(fifo, encoding="utf-8", newline="") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        code, _, _ = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "1500",
                             "--out", str(fifo))
        reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert received == [self._csv(capsys)]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_the_null_device_stays_a_device(self, capsys):
        code, out, err = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "100",
                                 "--out", os.devnull)
        assert (code, out, err) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_a_missing_directory_exits_2_naming_out(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "loop.csv")
        code, _, err = run_cli(capsys, "sample", "--gate", "dft2", "--steps", "10",
                               "--out", out)
        assert code == 2
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"

    def test_a_write_failing_part_way_exits_2_and_joins_the_sampler(self, monkeypatch):
        class FullDisk(io.StringIO):
            def writelines(self, parts):
                for i, part in enumerate(parts):
                    if i == 2:
                        raise OSError(28, "No space left on device")
                    self.write(part)

        threads = threading.active_count()
        monkeypatch.setattr(sys, "stdout", FullDisk())
        assert main(["sample", "--gate", "dft2", "--steps", "5000"]) == 2
        assert threading.active_count() == threads


class TestCliCatalog:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "hadamard" in out and "cnot" in out

    def test_show(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show", "dft2")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4
        assert doc["paper_order"] == [0, 1, 3, 2]

    def test_show_unknown(self, capsys):
        code, _, _ = run_cli(capsys, "catalog", "show", "nope")
        assert code == 2
