"""The benchmark's workloads: inputs from a seed, one operation, its check.

Every operation works on a k = 4 gate (n = 8), so the operations inside a
workload are alike and a run's median lands on the same kind of work
whatever the seed. A round is the workload's fixed list of cases: `cnot`
and `dft2` in their tabulated channel layout, then the seeded Haar gates.
Runs attempt whole rounds only.

The program is called through module attributes (`synth.synthesize`, not
a name bound at import), so the traced run sees these calls where it
replaces the attributes.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np
import scipy.linalg

from holosynth import catalog, cli, document, extremal, synth, verify

import checks
from spans import CALLS, SELF, TOTAL, median_over

K = 4
N = 2 * K
PARAMS = synth.SynthesisParams.defaults(K)
SCHEDULE = (10**3, 10**4, 10**5)
CLI_VERIFY_STEPS = (10**3, 10**4)
CLI_SAMPLE_STEPS = 10**3
ORACLE_GATE_TOL = 1e-8      # numeric holonomy vs gate at 1e5 steps
CLI_ORACLE_GATE_TOL = 1e-6  # the same at 1e4 steps
PROCESS_TIMEOUT_S = 120


def haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


def named_gate(name: str) -> np.ndarray:
    """The two-qubit gates, defined here rather than read from the catalog."""
    if name == "cnot":
        return np.eye(K, dtype=complex)[[0, 1, 3, 2]]
    j = np.arange(K)
    return np.exp(2j * np.pi * np.outer(j, j) / K) / 2.0


@dataclass(frozen=True)
class Case:
    label: str
    gate: np.ndarray
    named: bool  # a catalog gate, synthesised in its tabulated layout

    def synthesize(self):
        if not self.named:
            return synth.synthesize(self.gate)
        entry = catalog.catalog_get(self.label)
        return synth.synthesize(self.gate, channel_order=entry.paper_order,
                                channel_signs=entry.paper_signs)


def make_cases(seed: int, haar_count: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    cases = [Case(name, named_gate(name), True) for name in ("cnot", "dft2")]
    cases += [Case(f"haar-{i}", haar(rng, K), False) for i in range(haar_count)]
    return cases


class Workload:
    name = ""
    rusage = resource.RUSAGE_SELF
    # A case's time in a run, from the times of its passed operations. The
    # host's speed drifts by up to a factor of two on its own, in spells of
    # seconds to minutes. An operation of 1 to 3 s spans several spells, so
    # no repeat runs at the fast speed and the median of the case's few
    # repeats is the steadiest figure.
    case_time = staticmethod(statistics.median)

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.tracer = None  # set by the runner for traced operations only

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, case: Case):
        raise NotImplementedError

    def check(self, case: Case, out) -> float:
        """Independent check; returns the worst error that counts for digits."""
        raise NotImplementedError

    in_process = None  # extra traced work after a traced operation, if any

    def layer_metrics(self, ops: dict[str, list[int]], table, tracer) -> dict:
        raise NotImplementedError


class SynthK4(Workload):
    name = "synth-k4"
    # A 1 ms operation repeated hundreds of times lands wholly inside the
    # host's fast spells now and then, and slow spells only ever add time,
    # so the fastest repeat is what the program costs (as `timeit` takes the
    # best of its repeats); the median lands on whichever spell held most of
    # the run.
    case_time = staticmethod(min)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = make_cases(seed, 14)
        self.checked: dict[str, tuple[str, dict]] = {}

    def warm_up(self):
        for case in self.cases:
            self.run(case)

    def run(self, case):
        result = case.synthesize()
        report = extremal.evaluate_controller(result.controller, result.gate)
        doc = document.controller_document(
            result, report, PARAMS,
            gate_name=case.label if case.named else None, paper_order=case.named)
        text = document.canonical_dumps(doc)
        if self.tracer:
            self.tracer.note("document.bytes", len(text.encode()))
        return result, report, text

    def check(self, case, out):
        """The full check once per case; a repeat passes when its document and
        every result field it encodes equal those of the output that passed.
        The full check costs about 2 ms, as long as the operation, and taking
        it on every round doubled a 30 s run to 60 s of wall time."""
        result, report, text = out
        expected = checks.expected_document(
            case.gate, case.label if case.named else None, case.named, K, result, report)
        if self.checked.get(case.label) == (text, expected):
            return 0.0
        x = result.controller.matrix
        worst = checks.check_controller(x, case.gate)
        worst = max(worst, checks.check_length(result.length, case.gate))
        checks.check_document(text, expected, x)
        self.checked[case.label] = (text, expected)
        return worst

    def layer_metrics(self, ops, table, tracer):
        ops = ops["op"]
        metrics = {
            "linalg.eig_unitary.self_ms": median_over(ops, table, "linalg.eig_unitary", SELF),
            "linalg.schur.ms": median_over(ops, table, "linalg.schur", TOTAL),
            "synth.synthesize.self_ms": median_over(ops, table, "synth.synthesize", SELF),
        }
        for name in ("evaluate_controller", "holonomy_analytic", "loop_closure_defect"):
            metrics[f"extremal.{name}.self_ms"] = median_over(ops, table, f"extremal.{name}", SELF)
        metrics["extremal.loop_closure_defect.calls"] = median_over(
            ops, table, "extremal.loop_closure_defect", CALLS)
        metrics["extremal.eigh.calls"] = statistics.median(
            tracer.counts[(op, "extremal.eigh")] for op in ops)
        for name in ("controller_document", "canonical_dumps"):
            metrics[f"document.{name}.self_ms"] = median_over(ops, table, f"document.{name}", SELF)
        metrics["document.bytes"] = statistics.median(
            tracer.values[(op, "document.bytes")] for op in ops)
        return metrics


class OracleK4(Workload):
    name = "oracle-k4"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = make_cases(seed, 1)
        self.controllers = {case.label: case.synthesize().controller for case in self.cases}

    def warm_up(self):
        case = self.cases[0]
        verify.cross_validate(self.controllers[case.label], case.gate, SCHEDULE[:1])

    def run(self, case):
        return verify.cross_validate(self.controllers[case.label], case.gate)

    def check(self, case, out):
        if tuple(out.schedule) != SCHEDULE:
            raise checks.CheckFailed(f"schedule {out.schedule}")
        error = checks.check_oracle(out.schedule, out.deviations, out.gamma_numeric,
                                    case.gate, ORACLE_GATE_TOL)
        return error if error > checks.ROUNDOFF_FLOOR else 0.0

    def layer_metrics(self, ops, table, tracer):
        ops = ops["op"]
        metrics = {"extremal.curve_samples.self_ms":
                   median_over(ops, table, "extremal.curve_samples", SELF)}
        for name in ("sample_loop", "SampledLoop", "numeric_holonomy"):
            metrics[f"verify.{name}.self_ms"] = median_over(ops, table, f"verify.{name}", SELF)
        metrics["linalg.polar_unitary.self_ms"] = median_over(
            ops, table, "linalg.polar_unitary", SELF)
        metrics["verify.cross_validate.self_ms"] = median_over(
            ops, table, "verify.cross_validate", SELF)
        samples = sum(steps + 1 for steps in SCHEDULE)
        metrics["verify.samples_per_s"] = statistics.median(
            samples / (table[op]["verify.cross_validate"][TOTAL] / 1e3) for op in ops)
        metrics["verify.sample_loop.peak_alloc_mb"] = statistics.median(
            tracer.values[(op, "verify.sample_loop.peak_alloc_mb")] for op in ops)
        # Computed from array sizes, not measured: the finest projector stack.
        metrics["verify.projector_mb"] = (SCHEDULE[-1] + 1) * N * N * 16 / 1e6
        return metrics


class CliSession(Workload):
    name = "cli-session"
    rusage = resource.RUSAGE_CHILDREN
    COMMANDS = ("synthesize", "verify", "sample")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cases = make_cases(seed, 1)
        for case in self.cases:
            if not case.named:
                with open(self._path(case, "", "gate.json"), "w", encoding="utf-8") as fh:
                    json.dump(checks.encode_matrix(case.gate), fh)

    def _path(self, case, prefix, suffix):
        return os.path.join(self.workdir, f"{prefix}{case.label}.{suffix}")

    def argvs(self, case, prefix=""):
        doc, report, csv = (self._path(case, prefix, s) for s in ("doc.json", "report.json", "csv"))
        source = (["--gate", case.label] if case.named
                  else ["--matrix", self._path(case, "", "gate.json")])
        steps = ",".join(str(s) for s in CLI_VERIFY_STEPS)
        return {
            "synthesize": ["synthesize", *source, "--paper-order", "--out", doc],
            "verify": ["verify", "--doc", doc, "--steps", steps, "--out", report],
            "sample": ["sample", "--doc", doc, "--steps", str(CLI_SAMPLE_STEPS), "--out", csv],
        }, (doc, report, csv)

    def warm_up(self):
        self._process(["catalog", "list"])

    def _process(self, args) -> int:
        return subprocess.run([sys.executable, "-m", "holosynth.cli", *args],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              timeout=PROCESS_TIMEOUT_S).returncode

    def run(self, case):
        argvs, paths = self.argvs(case)
        codes = []
        for command in self.COMMANDS:
            with self.span(f"cli.{command}"):
                codes.append(self._process(argvs[command]))
        return codes, paths

    @staticmethod
    def _read(paths) -> list[bytes]:
        out = []
        for path in paths:
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    def check(self, case, out):
        codes, paths = out
        if codes != [0, 0, 0]:
            raise checks.CheckFailed(f"exit codes {codes}")
        doc, report, csv = (data.decode() for data in self._read(paths))
        worst = checks.check_cli_document(doc, case.gate)
        report = checks.check_canonical(report)
        if tuple(report["schedule"]) != CLI_VERIFY_STEPS:
            raise checks.CheckFailed(f"verify schedule {report['schedule']}")
        worst = max(worst, checks.check_oracle(
            report["schedule"], report["deviations"],
            checks.decode_matrix(report["gamma_numeric"]), case.gate, CLI_ORACLE_GATE_TOL))
        return max(worst, checks.check_csv(csv, N, K, CLI_SAMPLE_STEPS))

    def in_process(self, case, out):
        """The same argv through `holosynth.cli.main`, with import excluded;
        its outputs must equal the processes' byte for byte."""
        argvs, paths = self.argvs(case, prefix="main-")
        for command in self.COMMANDS:
            with self.span(f"cli.main.{command}"):
                code = cli.main(argvs[command])
            if code != 0:
                raise checks.CheckFailed(f"cli.main {command} exited {code}")
        if self._read(paths) != self._read(out[1]):
            raise checks.CheckFailed("in-process outputs differ from the processes' outputs")
        self.tracer.note("cli.sample.csv_bytes", os.path.getsize(paths[2]))

    def layer_metrics(self, ops, table, tracer):
        metrics = {}
        for command in self.COMMANDS:
            metrics[f"cli.{command}.ms"] = median_over(ops["op"], table, f"cli.{command}", TOTAL)
        for command in self.COMMANDS:
            metrics[f"cli.main.{command}.ms"] = median_over(
                ops["in_process"], table, f"cli.main.{command}", TOTAL)
        for name in ("loads", "document_controller"):
            metrics[f"document.{name}.self_ms"] = median_over(
                ops["in_process"], table, f"document.{name}", SELF)
        metrics["cli.sample.csv_bytes"] = statistics.median(
            tracer.values[(op, "cli.sample.csv_bytes")] for op in ops["in_process"])
        metrics.update(self.import_metrics())
        return metrics

    def import_metrics(self, repeats: int = 3) -> dict:
        """Bare interpreter start, and package import split by `-X importtime`."""
        bare, package, scipy_part = [], [], []
        for _ in range(repeats):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROCESS_TIMEOUT_S)
            bare.append((perf_counter() - start) * 1e3)
            stderr = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import holosynth.cli"],
                check=True, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S).stderr
            ours, theirs = import_times(stderr)
            package.append(ours)
            scipy_part.append(theirs)
        return {"cli.interpreter_ms": statistics.median(bare),
                "cli.import_ms": statistics.median(package),
                "cli.import_scipy_ms": statistics.median(scipy_part)}


def import_times(report: str) -> tuple[float, float]:
    """Cumulative ms of the top-level `holosynth` imports, and of every
    `scipy` import not nested in another `scipy` import."""
    entries = []
    for line in report.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e3))
    ours = sum(ms for depth, name, ms in entries
               if name.split(".")[0] == "holosynth" and depth == 0)
    theirs = 0.0
    enclosing: list[tuple[int, bool]] = []  # (depth, is scipy) of later-printed parents
    for depth, name, ms in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(flag for _, flag in enclosing):
            theirs += ms
        enclosing.append((depth, is_scipy))
    return ours, theirs


WORKLOADS = {cls.name: cls for cls in (SynthK4, OracleK4, CliSession)}


def install_tracing(tracer) -> None:
    """Replace the module attributes through which each traced function is
    looked up by its callers."""
    wrap = tracer.wrap
    wrap(synth, "synthesize", "synth.synthesize")
    wrap(synth, "eig_unitary", "linalg.eig_unitary")
    wrap(scipy.linalg, "schur", "linalg.schur")
    wrap(extremal, "evaluate_controller", "extremal.evaluate_controller")
    for module in (extremal, verify):
        wrap(module, "holonomy_analytic", "extremal.holonomy_analytic")
        wrap(module, "loop_closure_defect", "extremal.loop_closure_defect")
    tracer.count(np.linalg, "eigh", "extremal.eigh")
    wrap(document, "controller_document", "document.controller_document")
    wrap(document, "canonical_dumps", "document.canonical_dumps")
    wrap(verify, "cross_validate", "verify.cross_validate")
    wrap(verify, "sample_loop", "verify.sample_loop", peak_alloc=True)
    wrap(verify, "curve_samples", "extremal.curve_samples")
    wrap(verify, "SampledLoop", "verify.SampledLoop")
    wrap(verify, "numeric_holonomy", "verify.numeric_holonomy")
    wrap(verify, "polar_unitary", "linalg.polar_unitary")
    wrap(cli, "loads", "document.loads")
    wrap(cli, "document_controller", "document.document_controller")
