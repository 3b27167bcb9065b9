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
  artifact cache), each the median of ``RUN_ALL_RUNS`` invocations,
  plus the cold runs' median peak RSS and the bytes of the trace
  pickles a cold run stored.

**Host speed.** Every sample is bracketed by a fixed pure-Python probe
loop timed in this thread's CPU time, the method of perfbench's
speedometer (copied here, not imported, so the file runs on trees
without perfbench).  The probe's mean speed over the two relative to
``NOMINAL_PROBE_MS`` scales the sample, so a scaled time reads as if
the host had run at the nominal speed throughout.  Every time is
reported both as measured and scaled (``scaled_*``), and the
``speedup`` ratios come from the scaled figures.  Three comparisons of
one tree against itself (``--profile quick``, one CPU of a 2-vCPU host)
read ``run_all_cold`` 0.84, 1.02 and 1.22 as measured and 0.92–0.94
scaled; the hot loops' samples last 1–4 ms, and their scaled ratios
still spread 0.76–1.11 over the same comparisons.

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
import statistics
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
#: Cold and warm ``run-all`` invocations behind each reported median.
RUN_ALL_RUNS = 5
#: One host-speed probe: a pure-Python loop of this length, timed in
#: the calling thread's CPU time.
PROBE_ITERATIONS = 100_000
#: What one probe takes at the nominal host speed.
NOMINAL_PROBE_MS = 10.0


def _probe_ms() -> float:
    """CPU milliseconds of one ``PROBE_ITERATIONS`` probe loop."""
    started = time.thread_time()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return (time.thread_time() - started) * 1000.0


def _sample(measure):
    """``(measure(), speed)``, the host's speed relative to nominal
    taken from probes just before and just after the call; a time
    times that speed reads as if the host had run at nominal speed."""
    before = _probe_ms()
    result = measure()
    return result, statistics.fmean(
        NOMINAL_PROBE_MS / ms for ms in (before, _probe_ms()))


def _best(measure, repeats: int = REPEATS):
    """The fastest measured and the fastest scaled of ``repeats`` samples."""
    samples = [_sample(measure) for _ in range(repeats)]
    return (min(seconds for seconds, _ in samples),
            min(seconds * speed for seconds, speed in samples))


def _rate(count: int, seconds: float, scaled: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "scaled_seconds": round(scaled, 4),
        "insts_per_sec": round(count / seconds),
        "scaled_insts_per_sec": round(count / scaled),
    }


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

    elapsed, scaled = _best(measure)
    return {"instructions": insts, **_rate(insts, elapsed, scaled)}


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

    elapsed, scaled = _best(measure)
    return {"instructions": committed, **_rate(committed, elapsed, scaled)}


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
    """Median cold and warm ``run-all`` wall times over fresh cache dirs.

    Each of ``RUN_ALL_RUNS`` rounds runs cold into a fresh cache
    directory, then warm against it.  Run after the hot loops, which
    build both native engines, so a cold run's peak RSS counts no
    compiler.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    samples = {"cold": [], "warm": []}  # (seconds, scaled, peak KiB)
    for _ in range(RUN_ALL_RUNS):
        cache_dir = tempfile.mkdtemp(prefix="bench-simcore-cache-")
        command = [
            sys.executable, "-c", _MEASURED, sys.executable, "-m", "repro",
            "run-all", "--profile", profile, "--cache-dir", cache_dir,
        ]

        def measure():
            run = subprocess.run(command, env=env, check=True,
                                 stdout=subprocess.PIPE, text=True)
            return run.stdout.split()

        try:
            for phase in ("cold", "warm"):
                (rss_kib, seconds), speed = _sample(measure)
                samples[phase].append(
                    (float(seconds), float(seconds) * speed, int(rss_kib)))
            # Either artifact layout, so older revisions measure too.
            trace_bytes = sum(
                path.stat().st_size
                for path in Path(cache_dir, "trace").rglob("*.pkl")
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    report = {"profile": profile, "runs": RUN_ALL_RUNS}
    for phase, runs in samples.items():
        report[f"{phase}_seconds"] = round(
            statistics.median(seconds for seconds, _, _ in runs), 3)
        report[f"{phase}_scaled_seconds"] = round(
            statistics.median(scaled for _, scaled, _ in runs), 3)
    report["cold_rss_peak_mb"] = round(
        statistics.median(rss for _, _, rss in samples["cold"]) / 1024, 1)
    report["cold_trace_bytes"] = trace_bytes
    return report


def _speedups(current: dict, baseline: dict) -> dict:
    """Baseline-over-current ratios for the headline numbers (scaled)."""
    out = {}
    try:
        out["functional_insts_per_sec"] = round(
            current["functional_trace"]["scaled_insts_per_sec"]
            / baseline["functional_trace"]["scaled_insts_per_sec"], 2,
        )
        out["timing_insts_per_sec"] = round(
            current["timing"]["scaled_insts_per_sec"]
            / baseline["timing"]["scaled_insts_per_sec"], 2,
        )
    except (KeyError, ZeroDivisionError):
        pass
    try:
        out["run_all_cold"] = round(
            baseline["run_all"]["cold_scaled_seconds"]
            / current["run_all"]["cold_scaled_seconds"], 2,
        )
        out["run_all_warm"] = round(
            baseline["run_all"]["warm_scaled_seconds"]
            / current["run_all"]["warm_scaled_seconds"], 2,
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
        metrics["functional_trace"]["scaled_insts_per_sec"]
        / metrics["functional_oracle"]["scaled_insts_per_sec"], 1
    )
    print("benchmarking out-of-order timing core...", flush=True)
    metrics["timing"] = bench_timing(simulate)
    print("benchmarking its Python oracle...", flush=True)
    metrics["timing_oracle"] = bench_timing(
        lambda config, trace: OutOfOrderCore(config, trace).run()
    )
    metrics["timing_oracle"]["kernel_over_oracle"] = round(
        metrics["timing"]["scaled_insts_per_sec"]
        / metrics["timing_oracle"]["scaled_insts_per_sec"], 1
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
