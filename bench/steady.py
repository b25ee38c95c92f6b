"""Steadiness check: do repeated sets of benchmark runs agree within the bounds?

    python3 bench/steady.py

Each of SETS sets runs every workload of BENCHMARK.json RUNS times, for the
run length BENCHMARK.json fixes, with seeds 1..RUNS (the same seeds in every
set), workloads interleaved. For each end-to-end metric and workload it
prints each set's median, quartiles and spread (the quartile distance as a
share of the median) next to the metric's bound from BENCHMARK.json, and,
for a later set, how much worse its median is than the first set's, as a
share of it. A spread or a move beyond the bound is marked. Every run must
report ``correct``, and the share of failed operations must be identical in
every run of a workload. Results are also written to
``bench_out/steady.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out" / "steady.json"
#: Runs per workload in a set, and sets.
RUNS = 10
SETS = 2


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          check=False, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse the second median is, as a share of the first."""
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in workloads:
                out = run_once(bench["command"], w, seed, seconds)
                results[w][s].append(out)
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in out["metrics"].items())
                    + f" failed={out['failed']}/{out['attempted']}",
                    flush=True)

    ok = True
    print()
    print(f"{'workload':<13} {'metric':<16} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'moved':>7} {'bound':>6}")
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for s, runs in enumerate(results[w]):
                med, q1, q3, spread = summary(
                    [r["metrics"][name]["value"] for r in runs])
                moved = "" if first is None else \
                    f"{worse_by(metric, first, med):+.3f}"
                flag = "  SPREAD > BOUND" if spread > bound else ""
                if first is not None and worse_by(metric, first, med) > bound:
                    flag += "  MOVED > BOUND"
                ok = ok and not flag
                print(f"{w:<13} {name:<16} {s + 1:>3} {med:>11.5g} "
                      f"{q1:>11.5g} {q3:>11.5g} {spread:>7.3f} {moved:>7} "
                      f"{bound:>6}{flag}")
                first = med if first is None else first
        shares = {(r["failed"], r["attempted"]) for runs in results[w]
                  for r in runs}
        fractions = {f / a for f, a in shares}
        same = len(fractions) == 1
        correct = all(r["correct"] for runs in results[w] for r in runs)
        ok = ok and same and correct
        print(f"{w:<13} failed share {'identical' if same else 'DIFFERS'}: "
              f"{sorted(fractions)}; correct in "
              f"{'every run' if correct else 'NOT every run'}")
    os.makedirs(OUT.parent, exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    print(f"\n{'steady' if ok else 'NOT steady'}; runs written to {OUT}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
