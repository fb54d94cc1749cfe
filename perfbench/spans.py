"""In-memory spans and counts for the traced run.

A span is `[name, op, parent, start, end]`, where `op` identifies the
operation it belongs to and `parent` is the index of the enclosing span.
Functions are traced by replacing the module attribute that their callers
look them up through, so a call made from inside the package is seen
exactly where the caller resolves the name. `restore` puts every original
back.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TOTAL, SELF, CALLS = 0, 1, 2  # fields of a `per_op` row


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.values: dict[tuple[int, str], float] = defaultdict(float)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.op, parent, perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, owner, attr: str, name: str, peak_alloc: bool = False) -> None:
        """Trace `owner.attr` as span `name`; with `peak_alloc`, also record
        the call's peak traced allocation (tracemalloc) in MB."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if peak_alloc:
                tracemalloc.start()
            index = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)
                if peak_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    self.note(f"{name}.peak_alloc_mb", peak)

        self._patch(owner, attr, original, traced)

    def note(self, name: str, value: float) -> None:
        """Record a value for the current operation, keeping the largest."""
        key = (self.op, name)
        self.values[key] = max(self.values[key], value)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of `owner.attr` under `name`, per operation."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.counts[(self.op, name)] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def per_op(self) -> dict[int, dict[str, tuple[float, float, int]]]:
        """For each operation: span name -> (total ms, self ms, calls)."""
        child_time = defaultdict(float)
        for name, op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: dict[int, dict[str, list]] = defaultdict(dict)
        for index, (name, op, parent, start, end) in enumerate(self.spans):
            row = table[op].setdefault(name, [0.0, 0.0, 0])
            row[0] += (end - start) * 1e3
            row[1] += (end - start - child_time[index]) * 1e3
            row[2] += 1
        return {op: {name: tuple(row) for name, row in names.items()}
                for op, names in table.items()}

    def dump(self, path, ops: dict[int, tuple[str, str]]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"ops": {str(op): label for op, label in ops.items()},
                       "spans": self.spans}, fh)


def median_over(ops, table, name: str, field: int) -> float:
    """Median over `ops` of one field of span `name` (0 when an op lacks it)."""
    return statistics.median(table[op].get(name, (0.0, 0.0, 0))[field] for op in ops)
