"""Fuzzing `holosynth.cli.main` over numeric flags, config files and matrix
files: every run returns a documented exit code and raises nothing, and no
run given a non-finite number succeeds."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosynth.cli import main

WORDS = ("nan", "inf", "-1", "0", "1e300", "abc", ",", "2.5", "1,2")
CONFIG_VALUES = (True, "0.5", math.nan, 1e300, [], {})
SIZES = (0, -1, 1, 2, 2.5, True)
ENTRIES = (0.0, 1.0, math.nan, 1e300, True)
GATES = ("hadamard", "cnot", "phase-1.0", "random-2")
DOCS = ("hadamard.json", "phase.json")
SOURCE_KEYS = ("phases", "windings", "seed")
KEYS = {  # the numeric flags and config keys each command reads
    "synthesize": SOURCE_KEYS + ("steps", "tolerance"),
    "verify": ("steps", "tolerance", "bound"),
    "sample": SOURCE_KEYS + ("steps", "tolerance"),
}


@st.composite
def runs(draw):
    """(argv, files, non_finite): a *.json argument names one of `files`
    or of `DOCS`, and `non_finite` says whether the run reads a NaN or an
    infinity."""
    command = draw(st.sampled_from(sorted(KEYS)))
    argv, files = [command], {}
    oracle = command == "verify" or (command == "synthesize" and draw(st.booleans()))
    if command == "synthesize" and oracle:
        argv.append("--oracle")
    sources = {"synthesize": ("matrix", "gate"), "verify": ("doc",),
               "sample": ("matrix", "gate", "doc")}[command]
    source = draw(st.sampled_from(sources))
    non_finite = False
    if source == "gate":
        argv += ["--gate", draw(st.sampled_from(GATES))]
    elif source == "doc":
        argv += ["--doc", draw(st.sampled_from(DOCS))]
    else:
        rows, cols = draw(st.sampled_from(SIZES)), draw(st.sampled_from(SIZES))
        fits = isinstance(rows * cols, int) and rows * cols >= 0 and draw(st.booleans())
        pairs = st.lists(st.sampled_from(ENTRIES), min_size=2, max_size=2)
        data = draw(st.lists(pairs, min_size=rows * cols if fits else 0,
                             max_size=rows * cols if fits else 4))
        files["gate.json"] = json.dumps({"rows": rows, "cols": cols, "data": data})
        argv += ["--matrix", "gate.json"]
        non_finite = any(x != x for pair in data for x in pair)
    if command != "verify" and draw(st.booleans()):
        argv.append("--paper-order")
    flags = draw(st.dictionaries(st.sampled_from(KEYS[command]), st.sampled_from(WORDS)))
    if oracle:  # the default schedule takes too long for a fuzzer
        flags.setdefault("steps", draw(st.sampled_from(WORDS)))
    for key, word in flags.items():
        argv += [f"--{key}", word]
    non_finite |= any(word in ("nan", "inf") for word in flags.values())
    config = draw(st.dictionaries(st.sampled_from(KEYS[command]), st.sampled_from(CONFIG_VALUES)))
    if config:
        files["config.json"] = json.dumps(config)
        argv += ["--config", "config.json"]
        non_finite |= any(value != value for key, value in config.items() if key not in flags)
    return argv, files, non_finite


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for gate, name in (("hadamard", "hadamard.json"), ("phase-1.0", "phase.json")):
        assert main(["synthesize", "--gate", gate, "--out", str(path / name)]) == 0
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(run=runs())
def test_main_ends_in_an_exit_code(workdir, run):
    argv, files, non_finite = run
    for name, text in files.items():
        (workdir / name).write_text(text)
    argv = [str(workdir / arg) if arg.endswith(".json") else arg for arg in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert not (non_finite and code == 0), argv
