#!/usr/bin/env python
"""Simulation-core performance harness.

Measures the throughput of the two simulation hot paths and the
end-to-end experiment pipeline, and writes the numbers to a JSON file
(``BENCH_simcore.json`` at the repo root by convention) so the perf
trajectory of the simulator is tracked in-tree, PR over PR:

* **functional** — simulated instructions per second of the functional
  emulator (``run_program``, the native functional engine wherever it
  loads), with and without trace collection;
* **functional_oracle** — the same, trace on, for the per-pc Python
  engine alone (``FunctionalSimulator``, the native engine's oracle),
  with ``engine_over_oracle``, the throughput ratio;
* **timing** — simulated instructions per second of the out-of-order
  core replaying a trace on the Figure 2 machine: one whole
  ``simulate`` call (the native timing kernel wherever it loads) on a
  freshly unpickled trace, as a cell that loads its trace from the
  artifact cache finds it;
* **timing_oracle** — the same for the Python core alone
  (``OutOfOrderCore.run``, the kernel's oracle), with
  ``kernel_over_oracle``, the throughput ratio;
* **run-all** — wall-clock seconds of ``python -m repro run-all`` on a
  chosen profile, cold (fresh cache directory; everything simulated and
  stored) and warm (second invocation; everything replayed from the
  artifact cache), plus the cold run's peak RSS and the bytes of the
  trace pickles it stored.

Usage::

    python benchmarks/perf/bench_simcore.py                  # quick profile
    python benchmarks/perf/bench_simcore.py --profile tiny   # CI-sized
    python benchmarks/perf/bench_simcore.py --skip-run-all   # hot loops only
    python benchmarks/perf/bench_simcore.py --baseline old.json

``--baseline`` merges a previous output (e.g. one produced by running
this same script on the pre-optimization tree) into the report and
computes speedups; the committed ``BENCH_simcore.json`` records the
latest engine change's before and after, both sides measured on the
same machine.

The harness is intentionally import-light and API-stable (it only uses
``run_program``, ``FunctionalSimulator``, ``simulate``, and the CLI) so
the identical file can be dropped onto older revisions of this repo to
produce comparable baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.dvi.config import DVIConfig  # noqa: E402
from repro.sim.config import MachineConfig  # noqa: E402
from repro.sim.functional import FunctionalSimulator, run_program  # noqa: E402
from repro.sim.ooo.core import OutOfOrderCore, simulate  # noqa: E402
from repro.workloads.suite import get_program  # noqa: E402


#: Workload used for the hot-loop measurements (procedure-heavy, mixed
#: ALU/memory/control — representative of the suite).
HOT_WORKLOAD = "li_like"
#: Repetitions for the hot-loop measurements; the best time is reported
#: (standard practice: the minimum is the least noise-contaminated).
REPEATS = 3


def _best(measure, repeats: int = REPEATS) -> float:
    return min(measure() for _ in range(repeats))


def bench_functional(*, collect_trace: bool, engine=run_program) -> dict:
    """Functional inst/s of ``engine(program, dvi, collect_trace=...)``."""
    program = get_program(HOT_WORKLOAD, 1)
    insts = 0
    engine(program, DVIConfig.none(), collect_trace=collect_trace)  # warm-up

    def measure() -> float:
        nonlocal insts
        started = time.perf_counter()
        result = engine(
            program, DVIConfig.none(), collect_trace=collect_trace
        )
        elapsed = time.perf_counter() - started
        insts = result.stats.program_insts
        return elapsed

    elapsed = _best(measure)
    return {
        "instructions": insts,
        "seconds": round(elapsed, 4),
        "insts_per_sec": round(insts / elapsed),
    }


def bench_timing(engine) -> dict:
    """Timing inst/s of ``engine(config, trace)`` on the Figure 2 machine.

    Every run gets its own unpickled copy of the trace, so nothing one
    run derives from the trace is left for the next.
    """
    program = get_program(HOT_WORKLOAD, 1)
    payload = pickle.dumps(
        run_program(program, DVIConfig.none(), collect_trace=True).trace
    )
    config = MachineConfig.micro97()
    committed = 0
    engine(config, pickle.loads(payload))  # builds or loads the kernel

    def measure() -> float:
        nonlocal committed
        trace = pickle.loads(payload)
        started = time.perf_counter()
        stats = engine(config, trace)
        elapsed = time.perf_counter() - started
        committed = stats.committed
        return elapsed

    elapsed = _best(measure)
    return {
        "instructions": committed,
        "seconds": round(elapsed, 4),
        "insts_per_sec": round(committed / elapsed),
    }


#: Runs ``sys.argv[1:]`` with its output discarded, exits with its
#: status, and prints its peak RSS in KiB and its wall time in seconds.
#: A fresh interpreter starts it because Linux starts a child's peak at
#: its parent's RSS, and this harness's own is larger than a cold
#: ``run-all``'s by then.
_MEASURED = """
import os, sys, time
started = time.perf_counter()
pid = os.fork()
if pid == 0:
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, time.perf_counter() - started)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def bench_run_all(profile: str) -> dict:
    """Cold then warm ``run-all`` wall time against a fresh cache dir.

    Run after the hot loops, which build both native engines, so the
    cold run's peak RSS counts no compiler.
    """
    cache_dir = tempfile.mkdtemp(prefix="bench-simcore-cache-")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    command = [
        sys.executable, "-m", "repro", "run-all",
        "--profile", profile, "--cache-dir", cache_dir,
    ]
    try:
        runs = []
        for _ in range(2):  # first: cold, second: warm replay
            run = subprocess.run(
                [sys.executable, "-c", _MEASURED, *command], env=env,
                check=True, stdout=subprocess.PIPE, text=True,
            )
            rss_kib, seconds = run.stdout.split()
            runs.append((int(rss_kib), float(seconds)))
            if len(runs) == 1:
                # Either artifact layout, so older revisions measure too.
                trace_bytes = sum(
                    path.stat().st_size
                    for path in Path(cache_dir, "trace").rglob("*.pkl")
                )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    (cold_rss_kib, cold_seconds), (_, warm_seconds) = runs
    return {
        "profile": profile,
        "cold_seconds": round(cold_seconds, 2),
        "warm_seconds": round(warm_seconds, 2),
        "cold_rss_peak_mb": round(cold_rss_kib / 1024, 1),
        "cold_trace_bytes": trace_bytes,
    }


def _speedups(current: dict, baseline: dict) -> dict:
    """Baseline-over-current ratios for the headline numbers."""
    out = {}
    try:
        out["functional_insts_per_sec"] = round(
            current["functional_trace"]["insts_per_sec"]
            / baseline["functional_trace"]["insts_per_sec"], 2,
        )
        out["timing_insts_per_sec"] = round(
            current["timing"]["insts_per_sec"]
            / baseline["timing"]["insts_per_sec"], 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    try:
        out["run_all_cold"] = round(
            baseline["run_all"]["cold_seconds"]
            / current["run_all"]["cold_seconds"], 2,
        )
        out["run_all_warm"] = round(
            baseline["run_all"]["warm_seconds"]
            / current["run_all"]["warm_seconds"], 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    for name in ("cold_rss_peak_mb", "cold_trace_bytes"):
        try:
            out[f"run_all_{name}"] = round(
                baseline["run_all"][name] / current["run_all"][name], 2
            )
        except (KeyError, ZeroDivisionError):
            pass
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile", default="quick", choices=("tiny", "quick", "full"),
        help="run-all profile to measure (default: quick)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_simcore.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--skip-run-all", action="store_true",
        help="measure only the hot loops (no end-to-end pipeline runs)",
    )
    parser.add_argument(
        "--baseline", metavar="JSON",
        help="previous bench_simcore output to embed and compute speedups "
             "against",
    )
    args = parser.parse_args(argv)

    metrics = {}
    print("benchmarking functional emulator (trace on)...", flush=True)
    metrics["functional_trace"] = bench_functional(collect_trace=True)
    print("benchmarking functional emulator (trace off)...", flush=True)
    metrics["functional_no_trace"] = bench_functional(collect_trace=False)
    print("benchmarking its Python oracle...", flush=True)
    metrics["functional_oracle"] = bench_functional(
        collect_trace=True,
        engine=lambda *args, **kwargs: FunctionalSimulator(*args, **kwargs).run(),
    )
    metrics["functional_oracle"]["engine_over_oracle"] = round(
        metrics["functional_trace"]["insts_per_sec"]
        / metrics["functional_oracle"]["insts_per_sec"], 1
    )
    print("benchmarking out-of-order timing core...", flush=True)
    metrics["timing"] = bench_timing(simulate)
    print("benchmarking its Python oracle...", flush=True)
    metrics["timing_oracle"] = bench_timing(
        lambda config, trace: OutOfOrderCore(config, trace).run()
    )
    metrics["timing_oracle"]["kernel_over_oracle"] = round(
        metrics["timing"]["insts_per_sec"]
        / metrics["timing_oracle"]["insts_per_sec"], 1
    )
    if not args.skip_run_all:
        print(f"benchmarking run-all ({args.profile}, cold+warm)...", flush=True)
        metrics["run_all"] = bench_run_all(args.profile)

    report = {
        "bench": "simcore",
        "date": date.today().isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hot_workload": HOT_WORKLOAD,
        "metrics": metrics,
    }
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        report["baseline"] = baseline.get("metrics", baseline)
        report["speedup"] = _speedups(metrics, report["baseline"])

    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    Path(args.output).write_text(payload, encoding="utf-8")
    print(payload)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
