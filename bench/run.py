"""Benchmark of the SPPS eigenvalue and initial-value paths.

    python3 bench/run.py --workload eig_interval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. For ``--seconds`` seconds the workload repeats passes of
set-up (building every workspace) and solve (one round of queries). The
machine's speed drifts by up to a third within seconds, so every step of a
pass (one workspace build, one query, eight IVPs) is followed by a fixed
numpy kernel held in this file, and the step's wall time is divided by the
mean kernel time on either side of it. ``setup_s`` and ``solve_s`` are
medians over the passes of these normalized times, in seconds at the
kernel's reference speed (KERNEL_REF_S). Raw wall times are printed too.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the last line holds the
per-layer metrics (``tracer.py``), and the spans are written as JSON under
``bench_out/``. Every run checks every pass against references computed
apart from the package (``references.py``): ``correct`` is true when
every pass gave the same outcome and every failed operation is one of the
workload's kept faults (``workloads.py``).
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread in the measured process; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / "bench_out"

#: Rounds of the speed kernel; one call takes a few milliseconds.
KERNEL_ROUNDS = 30
#: Time of one kernel call on the reference machine (2-core x86-64 VM),
#: the unit in which normalized times are reported.
KERNEL_REF_S = 0.003
#: Seconds allowed for the ivp_sweep reference process.
REFERENCE_TIMEOUT_S = 150


def kernel() -> float:
    """Fixed mix of small numpy operations and interpreter work; its time.

    Shaped like the package's inner loops: shifted-slice quadrature sums
    and prefix sums over complex arrays of a mesh's length, small
    determinants, and Python-level bookkeeping.
    """
    v = _KERNEL_V
    acc = np.zeros(v.size, dtype=np.complex128)
    start = perf_counter()
    for _ in range(KERNEL_ROUNDS):
        seg = np.zeros(v.size, dtype=np.complex128)
        for k in range(9):
            seg[4:v.size - 4] += _KERNEL_W[k] * v[k:v.size - 8 + k]
        acc = acc + np.cumsum(seg) * 1e-3
        float(np.max(np.abs(acc)))
        np.linalg.det(_KERNEL_M)
    return perf_counter() - start


_KERNEL_V = np.exp(1j * np.linspace(0.0, 3.0, 1601))
_KERNEL_W = np.linspace(0.1, 0.9, 9)
_KERNEL_M = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4)


def import_package():
    """Import spps from this checkout's src directory, or exit."""
    src = ROOT / "src"
    if not (src / "spps" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'spps'}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(src))
    import spps
    if Path(spps.__file__).resolve().parent != (src / "spps").resolve():
        sys.exit(f"error: imported spps from {spps.__file__}, not {src}")
    return spps


def load_references(workload) -> dict:
    if workload.name != "ivp_sweep":
        with open(BENCH / "references.json", encoding="utf-8") as fh:
            return json.load(fh)
    # scipy runs in its own process, after the measurement
    proc = subprocess.run(
        [sys.executable, str(BENCH / "references.py"), "--ivp-seed",
         str(workload.seed)], capture_output=True, text=True, check=False,
        timeout=REFERENCE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: reference process failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_steps(steps, speed: float):
    """Run steps one by one, each followed by a kernel.

    ``speed`` is the kernel time just before the first step. Returns the
    results, the raw wall time, the wall time normalized step by step by
    the mean kernel time on either side, and the last kernel time.
    """
    results, raw, norm = [], 0.0, 0.0
    for step in steps:
        start = perf_counter()
        results.append(step())
        elapsed = perf_counter() - start
        after = kernel()
        raw += elapsed
        norm += elapsed / (0.5 * (speed + after)) * KERNEL_REF_S
        speed = after
    return results, raw, norm, speed


class PassTimes(NamedTuple):
    """Raw and normalized seconds of one pass."""

    setup: float
    solve: float
    setup_norm: float
    solve_norm: float


def timed_pass(workload):
    """One pass: its PassTimes and its outputs."""
    gc.collect()
    speed = kernel()
    state, setup, setup_norm, speed = run_steps(workload.setup_steps(), speed)
    chunks, solve, solve_norm, _ = run_steps(workload.solve_steps(state),
                                             speed)
    outputs = [item for chunk in chunks for item in chunk]
    return PassTimes(setup, solve, setup_norm, solve_norm), outputs


def median(values) -> float:
    return float(statistics.median(values))


def keep(variants: list, outputs) -> None:
    """Count ``outputs`` in ``variants``, a list of [outputs, passes].

    Passes that repeat an earlier pass's outputs are only counted, so memory
    does not grow with the number of passes.
    """
    for variant in variants:
        if variant[0] == outputs:
            variant[1] += 1
            return
    variants.append([outputs, 1])


def measure(workload, seconds: float, tracer=None):
    """Passes for ``seconds``; with a tracer, untraced and traced alternate."""
    timed_pass(workload)  # fill lazy caches before timing
    passes, traced, variants = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not passes:
        times, out = timed_pass(workload)
        passes.append(times)
        keep(variants, out)
        if tracer is not None:
            tracer.begin_pass()
            tracer.install()
            try:
                times, out = timed_pass(workload)
            finally:
                tracer.uninstall()
            traced.append((times.setup_norm + times.solve_norm,
                           tracer.pass_metrics()))
            keep(variants, out)
    return passes, traced, variants


def end_to_end(passes, checks, rss_mb: float) -> dict:
    """End-to-end metrics; ``checks`` holds (Check, passes) pairs."""
    digits = [median(c.digits) if c.digits else 0.0
              for c, n in checks for _ in range(n)]
    return {
        "setup_s": {"value": median(p.setup_norm for p in passes),
                    "unit": "s"},
        "solve_s": {"value": median(p.solve_norm for p in passes),
                    "unit": "s"},
        "accuracy_digits": {
            "value": median(digits), "unit": "digits"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(passes, traced) -> dict:
    from tracer import layer_metric_names
    metrics = {}
    for name, unit in layer_metric_names():
        metrics[name] = {"value": median(m[name] for _, m in traced),
                         "unit": unit}
    plain = median(p.setup_norm + p.solve_norm for p in passes)
    metrics["trace.overhead"] = {
        "value": 100.0 * (median(t for t, _ in traced) / plain - 1.0),
        "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    # numpy generators take non-negative seeds
    workload = WORKLOADS[args.workload](args.seed % 2**32)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    passes, traced, variants = measure(workload, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs = load_references(workload)
    checks = [(workload.check(out, refs), n) for out, n in variants]
    first = checks[0][0]
    # every pass gives the same outcome (the package is deterministic), and
    # every failure is one of the workload's kept faults
    correct = all((c.attempted, c.failed, c.failures) ==
                  (first.attempted, first.failed, first.failures)
                  and not c.unexpected(workload.kept_faults)
                  for c, _ in checks)

    print(f"{workload.name} seed={args.seed} passes={len(passes)} "
          f"raw setup_s={median(p.setup for p in passes):.4f} "
          f"raw solve_s={median(p.solve for p in passes):.4f}")
    for c, n in checks:
        unexpected = c.unexpected(workload.kept_faults)
        for f in c.failures:
            kind = "UNEXPECTED failure" if f in unexpected else "kept fault"
            print(f"  {kind} in {n} passes: {f.note}")
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace_{workload.name}_{args.seed}.json"
        tracer.write_spans(path)
        print(f"  spans written to {path}")
        metrics = per_layer(passes, traced)
    else:
        metrics = end_to_end(passes, checks, rss_mb)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(c.attempted * n for c, n in checks),
        "failed": sum(c.failed * n for c, n in checks),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
