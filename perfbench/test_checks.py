"""Each of the benchmark's checks passes the program's real output and
rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json

import numpy as np
import pytest

from holosynth import cli, document, extremal

import checks
import workloads
from worker import Runner

K = workloads.K


@pytest.fixture(scope="module")
def haar_case():
    return workloads.make_cases(seed=7, haar_count=1)[-1]


@pytest.fixture(scope="module")
def synthesis(haar_case):
    result = haar_case.synthesize()
    report = extremal.evaluate_controller(result.controller, result.gate)
    return result, report


def synth_document(haar_case, result, report):
    doc = document.controller_document(result, report, workloads.PARAMS)
    expected = checks.expected_document(haar_case.gate, None, False, K, result, report)
    return document.canonical_dumps(doc), expected


def test_controller_check_accepts_the_program_output(haar_case, synthesis):
    result, _ = synthesis
    assert checks.check_controller(result.controller.matrix, haar_case.gate) < 1e-12


def test_controller_check_rejects_x_perturbed_by_1e6(haar_case, synthesis):
    x = result_x = synthesis[0].controller.matrix
    rng = np.random.default_rng(0)
    z = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    bump = 1e-6 * (z - z.conj().T) / 2
    bump[K:, K:] = 0.0  # stays skew-Hermitian with a zero lower-right block
    with pytest.raises(checks.CheckFailed, match="holonomy"):
        checks.check_controller(result_x + bump, haar_case.gate)


def test_controller_check_rejects_a_transposed_gate(haar_case):
    wrong = workloads.Case("haar-t", haar_case.gate.T, False).synthesize()
    with pytest.raises(checks.CheckFailed, match="holonomy"):
        checks.check_controller(wrong.controller.matrix, haar_case.gate)


def test_controller_check_rejects_a_nonzero_lower_right_block(haar_case, synthesis):
    x = synthesis[0].controller.matrix.copy()
    x[K:, K:] = 1e-3j * np.eye(K)  # still skew-Hermitian
    with pytest.raises(checks.CheckFailed, match="lower-right"):
        checks.check_controller(x, haar_case.gate)


def test_length_check_rejects_a_wrong_length(haar_case, synthesis):
    assert checks.check_length(synthesis[0].length, haar_case.gate) < 1e-12
    with pytest.raises(checks.CheckFailed, match="length"):
        checks.check_length(synthesis[0].length * (1 + 1e-8), haar_case.gate)


def test_document_check_accepts_the_program_output(haar_case, synthesis):
    result, report = synthesis
    text, expected = synth_document(haar_case, result, report)
    checks.check_document(text, expected, result.controller.matrix)


@pytest.mark.parametrize("key", ["controller", "diagonalizer", "length", "holonomy_error"])
def test_document_check_rejects_one_digit_changed(haar_case, synthesis, key):
    result, report = synthesis
    text, expected = synth_document(haar_case, result, report)
    start = text.index(f'"{key}"')
    if key in ("controller", "diagonalizer"):
        start = text.index('"data"', start)
    at = next(i for i in range(start, len(text)) if text[i].isdigit())
    changed = text[:at] + ("7" if text[at] != "7" else "3") + text[at + 1:]
    with pytest.raises(checks.CheckFailed):
        checks.check_document(changed, expected, result.controller.matrix)


def test_document_check_rejects_one_space_changed(haar_case, synthesis):
    result, report = synthesis
    text, expected = synth_document(haar_case, result, report)
    at = text.index("  ")
    with pytest.raises(checks.CheckFailed, match="canonical"):
        checks.check_document(text[:at] + "\t" + text[at + 1:], expected,
                              result.controller.matrix)


def test_oracle_check_accepts_second_order_and_roundoff(haar_case):
    schedule = (10**3, 10**4, 10**5)
    gate = haar_case.gate
    checks.check_oracle(schedule, (4e-6, 4e-8, 4e-10), gate, gate, 1e-8)
    checks.check_oracle(schedule, (3e-15, 4e-15, 5e-15), gate, gate, 1e-8)


def test_oracle_check_rejects_first_order_deviations(haar_case):
    schedule = (10**3, 10**4, 10**5)
    gate = haar_case.gate
    with pytest.raises(checks.CheckFailed, match="second order"):
        checks.check_oracle(schedule, (6e-3, 6e-4, 6e-5), gate, gate, 1e-8)


def test_oracle_check_rejects_a_holonomy_off_the_gate(haar_case):
    gate = haar_case.gate
    with pytest.raises(checks.CheckFailed, match="from the gate"):
        checks.check_oracle((10**3, 10**4), (4e-6, 4e-8), gate.T, gate, 1e-6)


@pytest.fixture(scope="module")
def curve_csv(tmp_path_factory, haar_case):
    tmp = tmp_path_factory.mktemp("cli")
    gate_file, doc, csv = tmp / "gate.json", tmp / "doc.json", tmp / "curve.csv"
    gate_file.write_text(json.dumps(checks.encode_matrix(haar_case.gate)))
    assert cli.main(["synthesize", "--matrix", str(gate_file), "--out", str(doc)]) == 0
    assert cli.main(["sample", "--doc", str(doc), "--steps", "40", "--out", str(csv)]) == 0
    return doc.read_text(), csv.read_text()


def test_cli_checks_accept_the_program_output(haar_case, curve_csv):
    doc, csv = curve_csv
    assert checks.check_cli_document(doc, haar_case.gate) < 1e-12
    assert checks.check_csv(csv, 2 * K, K, 40) < 1e-12


def test_csv_check_rejects_a_row_that_is_not_a_projector(curve_csv):
    _, csv = curve_csv
    lines = csv.splitlines()
    header = lines[0].split(",")
    row = lines[20].split(",")
    for name in ("p_re_0_0", "p_re_1_1"):
        i = header.index(name)
        row[i] = repr(float(row[i]) + 1e-3)  # still Hermitian, trace now k + 2e-3
    lines[20] = ",".join(row)
    with pytest.raises(checks.CheckFailed, match="projector"):
        checks.check_csv("\n".join(lines) + "\n", 2 * K, K, 40)


def test_csv_check_rejects_a_missing_row(curve_csv):
    _, csv = curve_csv
    lines = csv.splitlines()
    with pytest.raises(checks.CheckFailed, match="rows"):
        checks.check_csv("\n".join(lines[:-1]) + "\n", 2 * K, K, 40)


def test_synth_repeat_is_checked_again_unless_identical(tmp_path):
    wl = workloads.SynthK4(seed=7, workdir=str(tmp_path))
    case = wl.cases[-1]
    result, report, text = wl.run(case)
    assert wl.check(case, (result, report, text)) < 1e-12
    assert wl.check(case, (result, report, text)) == 0.0
    at = text.index('"length"')
    at = next(i for i in range(at, len(text)) if text[i].isdigit())
    changed = text[:at] + ("7" if text[at] != "7" else "3") + text[at + 1:]
    with pytest.raises(checks.CheckFailed):
        wl.check(case, (result, report, changed))
    longer = dataclasses.replace(result, length=result.length * (1 + 1e-8))
    with pytest.raises(checks.CheckFailed, match="length"):
        wl.check(case, (longer, report, text))


class FailedCli(workloads.CliSession):
    """A CLI session whose processes return `codes` and write no file."""

    def __init__(self, workdir, codes):
        super().__init__(seed=7, workdir=workdir)
        self.codes = codes

    def run(self, case):
        return list(self.codes), self.argvs(case)[1]


@pytest.mark.parametrize("codes", [(0, 0, 0), (0, 2, -9)])
def test_runner_counts_a_cli_operation_without_outputs_as_failed(tmp_path, codes):
    wl = FailedCli(str(tmp_path), codes)
    runner = Runner()
    runner.operation(wl, wl.cases[-1], traced=False)
    assert (runner.attempted, runner.failed, runner.wrong) == (1, 1, 1)
    assert not runner.times[(wl.name, False)]
    assert runner.result({})["correct"] is False


def test_import_times_sum_top_level_entries():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   holosynth.linalg",
        "import time:        50 |        900 | holosynth",
        "import time:        60 |         60 |   scipy.sparse",
        "import time:        40 |        100 | holosynth.cli",
    ])
    assert workloads.import_times(report) == pytest.approx((1.0, 0.36))
