"""canonical_dumps writes exactly the standard library's indented layout.

The reference is the encoder that canonical_dumps replaced: json.dumps with
sorted keys, two-space indentation and (",", ": ") separators, plus a
newline. The tests compare bytes against it, so on each interpreter the
emitter is checked against that interpreter's own json.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holosynth import catalog_names, synthesize
from holosynth.cli import main
from holosynth.document import canonical_dumps, controller_document, loads
from holosynth.extremal import evaluate_controller
from holosynth.synth import SynthesisParams
from helpers import random_haar


def reference(doc):
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310])
INTS = st.integers() | st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64))
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té \U0001F600') | st.characters(),
               max_size=6)
PAIR = st.lists(FINITE, min_size=2, max_size=2)
ODD_PAIR = st.one_of(
    st.tuples(FLOATS, FLOATS).map(list),        # NaN or an infinity in a pair
    st.lists(FINITE, min_size=1, max_size=1),
    st.lists(FINITE, min_size=3, max_size=3),
    st.tuples(FINITE, INTS).map(list),          # an int mixed into a pair
    st.tuples(FINITE, FINITE.map(np.float64)).map(list),  # a float subclass
    st.tuples(FINITE, FINITE),                  # a tuple, not a list
)
PAIR_LISTS = st.lists(PAIR, min_size=1, max_size=5) | st.lists(PAIR | ODD_PAIR, max_size=5)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | INTS | FLOATS | TEXT | PAIR_LISTS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(tree=JSON_TREES)
def test_any_json_tree_matches_the_stdlib_bytes(tree):
    assert canonical_dumps(tree) == reference(tree)


def _cli_text(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


CATALOG = [n.replace("<k>", "3").replace("<gamma>", "0.7") for n in catalog_names()]
CORPUS = (
    [("synthesize", "--gate", g) for g in CATALOG]
    + [("synthesize", "--gate", g, "--paper-order") for g in CATALOG]
    + [("synthesize", "--gate", f"random-{k}") for k in (1, 2, 4, 16, 64)]
    + [
        ("synthesize", "--gate", "hadamard", "--windings", "2,1"),
        ("catalog", "show", "dft2"),
        ("catalog", "show", "random-4", "--seed", "3"),
    ]
)


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_documents_match_the_stdlib_bytes(capsys, argv):
    text = _cli_text(capsys, *argv)
    assert text == reference(loads(text))


@pytest.mark.parametrize("gate, slope_is_null", [("hadamard", True), ("phase-1.5", False)])
def test_oracle_documents_and_verify_reports_match_the_stdlib_bytes(
        capsys, tmp_path, gate, slope_is_null):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(_cli_text(
        capsys, "synthesize", "--gate", gate, "--oracle", "--steps", "1000,10000"))
    report = _cli_text(capsys, "verify", "--doc", str(doc_file), "--steps", "1000,10000")
    for text in (doc_file.read_text(), report):
        assert text == reference(loads(text))
    oracle = loads(doc_file.read_text())["verification"]["oracle"]
    assert (oracle["slope"] is None) == slope_is_null


@pytest.mark.parametrize("value", [
    np.int64(3), {1, 2}, object(), [1.0, np.int64(2)], {"a": [[1.0, {2}]]},
])
def test_values_json_refuses_raise_type_error(value):
    with pytest.raises(TypeError):
        reference(value)
    with pytest.raises(TypeError):
        canonical_dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {1.5: 2}, {"a": {True: 0}}])
def test_a_non_string_key_raises_type_error(value):
    # json would write these keys as strings; documents only have string keys
    with pytest.raises(TypeError):
        canonical_dumps(value)


def test_the_pure_python_json_encoder_is_never_entered(monkeypatch):
    result = synthesize(random_haar(np.random.default_rng(4), 4))
    doc = controller_document(
        result, evaluate_controller(result.controller, result.gate), SynthesisParams.defaults(4))
    want = reference(doc)

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python iterencode was entered")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert canonical_dumps(doc) == want
