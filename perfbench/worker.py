"""One benchmark process: set up a workload, then time it (see run.py).

Untraced (`--trace 0`): whole rounds of the workload until the operations
have taken `--seconds`; prints the end-to-end metrics, which are taken from
one time per case (see `Workload.case_time`).

Traced (`--trace 1`): the named workload for `--seconds`, alternating
untraced and traced rounds so the tracing overhead is measured on the same
machine state; then traced rounds of every other workload for at least
`OTHER_SECONDS`, so each per-layer metric comes from the workload that
exercises it. Spans are written to `perfbench/out/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import monotonic, perf_counter

import workloads
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
OTHER_SECONDS = 1.0
UNITS = (("ms", "ms"), ("calls", "count"), ("bytes", "bytes"), ("_mb", "MB"),
         ("_pct", "%"), ("_per_s", "1/s"))


class Runner:
    """Runs operations one at a time, checks them and keeps the tallies."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.worst: dict[str, float] = defaultdict(float)
        self.times: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.case_times: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.busy: dict[tuple[str, bool], float] = defaultdict(float)
        self.ops: dict[int, tuple[str, str]] = {}

    def rounds(self, wl, budget: float, traced=lambda i: False, min_rounds: int = 1) -> None:
        """Whole rounds until the operations have taken `budget` seconds;
        `traced(i)` says whether round i is traced."""
        busy, i = 0.0, 0
        while busy < budget or i < min_rounds:
            for case in wl.cases:
                busy += self.operation(wl, case, traced(i))
            i += 1

    @contextmanager
    def _traced(self, wl, kind: str, on: bool):
        if not on:
            yield
            return
        self.tracer.op = len(self.ops)
        self.ops[self.tracer.op] = (wl.name, kind)
        workloads.install_tracing(self.tracer)
        wl.tracer = self.tracer
        try:
            with wl.span("op"):
                yield
        finally:
            self.tracer.restore()
            self.tracer.op = None
            wl.tracer = None

    def operation(self, wl, case, traced: bool) -> float:
        """Time one operation, then check its output (untimed). An operation
        fails when the program raises, or when its output fails a check or
        cannot be read by one (a missing file, a malformed document)."""
        self.attempted += 1
        out = None
        with self._traced(wl, "op", traced):
            start = perf_counter()
            try:
                out = wl.run(case)
            except Exception:
                self._fail(wl, case)
            elapsed = perf_counter() - start
        self.busy[(wl.name, traced)] += elapsed
        if out is None:
            return elapsed
        try:
            self.worst[wl.name] = max(self.worst[wl.name], wl.check(case, out))
            if traced and wl.in_process:
                with self._traced(wl, "in_process", True):
                    wl.in_process(case, out)
        except Exception:
            self.wrong += 1
            self._fail(wl, case)
            return elapsed
        self.times[(wl.name, traced)].append(elapsed)
        if not traced:
            self.case_times[wl.name][case.label].append(elapsed)
        return elapsed

    def _fail(self, wl, case) -> None:
        self.failed += 1
        print(f"{wl.name} {case.label} failed:", file=sys.stderr)
        traceback.print_exc()

    def result(self, metrics: dict) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, wl, setup_s: float) -> dict:
    ms = [wl.case_time(times) * 1e3 for times in runner.case_times[wl.name].values()]
    worst = max(runner.worst[wl.name], sys.float_info.epsilon)
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(1e3 * len(ms) / sum(ms), "1/s"),
        "p50_ms": metric(statistics.median(ms), "ms"),
        "p90_ms": metric(statistics.quantiles(ms, n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": metric(resource.getrusage(wl.rusage).ru_maxrss * 1024 / 1e6, "MB"),
        "digits": metric(-math.log10(worst), "digits"),
    }


def per_layer(runner: Runner, home: str, built: dict) -> dict:
    tracer = runner.tracer
    table = tracer.per_op()
    metrics = {}
    for name, wl in built.items():
        ops = defaultdict(list)
        for op, (owner, kind) in runner.ops.items():
            if owner == name:
                ops[kind].append(op)
        metrics.update(wl.layer_metrics(ops, table, tracer))
        roots = [table[op]["op"] for kind in ops.values() for op in kind]
        metrics[f"trace.{name}.unattributed_pct"] = (
            100.0 * sum(r[1] for r in roots) / sum(r[0] for r in roots))
    traced = statistics.median(runner.times[(home, True)])
    untraced = statistics.median(runner.times[(home, False)])
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return {key: metric(value, next(unit for suffix, unit in UNITS if key.endswith(suffix)))
            for key, value in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        names = [args.workload]
        if args.trace:
            names += [n for n in workloads.WORKLOADS if n != args.workload]
        built = {n: workloads.WORKLOADS[n](args.seed, workdir) for n in names}
        for wl in built.values():
            try:
                wl.warm_up()
            except Exception:  # the timed phase counts the failing operations
                traceback.print_exc()
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading
        # and ours share one origin.
        setup_s = monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        home = built[args.workload]
        if not args.trace:
            runner = Runner()
            runner.rounds(home, args.seconds)
            passed = runner.times[(home.name, False)]
            print(json.dumps(runner.result(end_to_end(runner, home, setup_s) if passed else {})))
            return 0
        runner = Runner(Tracer())
        runner.rounds(home, args.seconds, traced=lambda i: i % 2 == 1, min_rounds=2)
        for wl in list(built.values())[1:]:
            runner.rounds(wl, OTHER_SECONDS, traced=lambda i: True)
        passed = all(runner.times[(n, True)] for n in built) and runner.times[(args.workload, False)]
        metrics = per_layer(runner, args.workload, built) if passed else {}
        runner.tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
                           runner.ops)
        print(json.dumps(runner.result(metrics)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
