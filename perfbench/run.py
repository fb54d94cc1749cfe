"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload synth-k4 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it needs no install, only numpy and
scipy. The program is imported from `src/` and every process it starts
gets one BLAS thread. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.

Set-up is measured in `SETUP_SAMPLES` fresh processes: each starts the
interpreter, imports, generates the inputs and warms up; the last one then
goes on to the timed phase. `setup_s` is their median.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
# A run's wall time is its set-ups, `--seconds` of operations, their
# untimed checks (about as long again on synth-k4) and, when traced, whole
# rounds of the other workloads; past this deadline the worker is killed.
TIMEOUT_FACTOR = 3
TIMEOUT_MARGIN_S = 80


def worker(args, env, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(monotonic())]
    # A session of its own, so a timeout also stops the worker's children.
    with subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit("worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = monotonic() + TIMEOUT_FACTOR * args.seconds + TIMEOUT_MARGIN_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "holosynth", "__init__.py")):
        print("run.py: no src/holosynth here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # Byte-compile up front so the first set-up sample does not pay for it.
    compileall.compile_dir(os.path.join(src, "holosynth"), quiet=1)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)

    setup = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup.append(worker(args, env, deadline, setup_only=True)["setup_s"])
    result = worker(args, env, deadline, setup_only=False)
    if not args.trace and result["metrics"]:  # no metrics when every operation failed
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
