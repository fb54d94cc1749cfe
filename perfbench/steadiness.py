"""Steadiness check: two sets of repeated runs of the same code.

    python3 perfbench/steadiness.py

Run it from the root of a checkout. Each of the SETS sets makes RUNS runs
of every workload, each run with its own seed (set s, run i uses seed
1 + s * RUNS + i); within a set the workloads take turns, so a slow spell
of the machine touches all of them. For each set, workload and end-to-end
metric it prints the median, the quartiles (`statistics.quantiles(values,
n=4)`) and the spread (q3 - q1) / median. It names every metric whose
median in a later set differs from the first set's, either way, by more
than its bound in BENCHMARK.json; every metric whose spread exceeds its
bound, except `setup_s`, whose bound applies to its median only; and every
workload whose share of failed operations differs between sets. It exits 1
if it named any. Raw results go to perfbench/out/steadiness.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    results = {name: [[] for _ in range(SETS)] for name in names}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1 + s * RUNS + i
            for name in names:
                result = run_once(name, seed, bench["run_seconds"])
                results[name][s].append(result)
                print(f"set {s + 1} seed {seed} {name}: attempted {result['attempted']} "
                      f"failed {result['failed']} correct {result['correct']}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    problems = []
    for name in names:
        print(f"\n{name}")
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[name]}
        if len(shares) > 1:
            problems.append(f"{name}: failed share differs between sets {sorted(shares)}")
        if not all(r["correct"] for runs in results[name] for r in runs):
            problems.append(f"{name}: a run reported correct=false")
        for m in bench["end_to_end"]:
            per_set = [summary([r["metrics"][m["name"]]["value"] for r in runs])
                       for runs in results[name]]
            for s, (median, q1, q3, spread) in enumerate(per_set):
                print(f"  {m['name']:12s} set {s + 1}: median {median:.6g} q1 {q1:.6g} "
                      f"q3 {q3:.6g} spread {spread:6.2%} (bound {m['bound']:.0%})")
                if m["name"] != "setup_s" and spread > m["bound"]:
                    problems.append(f"{name} {m['name']}: set {s + 1} spread {spread:.2%} "
                                    f"> bound {m['bound']:.0%}")
                first = per_set[0][0]
                moved = abs(median - first) / first
                if moved > m["bound"]:
                    problems.append(f"{name} {m['name']}: set {s + 1} median differs from set 1 "
                                    f"by {moved:.2%} > bound {m['bound']:.0%}")
    print()
    for problem in problems:
        print("NOT STEADY:", problem)
    print("steady" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
