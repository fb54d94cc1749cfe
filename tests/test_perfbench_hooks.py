"""The traced benchmark run replaces program attributes by name; a refactor
that unbinds one of them should fail here, not in the traced run."""

import importlib
from pathlib import Path

import pytest

pytest.importorskip("scipy")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_hook_resolves_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        workloads.install_tracing(tracer)
        hooks = list(tracer._patched)
    finally:
        tracer.restore()
    assert len(hooks) == 19
    for owner, attr, original in hooks:
        assert getattr(owner, attr) is original, attr
