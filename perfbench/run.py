"""Benchmark entry point.

Usage::

    python3 perfbench/run.py --workload reproduce-warm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Runs one workload (or ``all`` three in turn), prints a report that gives
every metric by name with its unit and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` the ``per_layer`` list, measured
by a separate, traced run of the same workload.  ``--self-test`` runs a
seconds-long form of each workload and checks that the gates catch a
corrupted manifest and a failed request.

The benchmark and every process it starts run on one CPU, and every
end-to-end time is scaled to a nominal host speed by a speedometer
sampling that CPU (``common.Speedometer``).

Exits 2 without a result where the directory holds no program.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT, CheckoutError, HostWatch, Outcome, Speedometer, check_checkout,
    pin_to_program_cpu,
)

WORKLOADS = ("reproduce-cold", "reproduce-warm", "serve-mixed")

#: Per-layer metrics a workload cannot produce, by name prefix.  They
#: are reported as 0 with no samples.
NOT_EXERCISED = {
    "reproduce-cold": ("service.", "serve."),
    "reproduce-warm": ("service.", "serve."),
    "serve-mixed": ("cli.", "workloads.", "rewrite.", "sim.",
                    "experiments.cache.key", "experiments.cache.load",
                    "experiments.cache.store", "experiments.self",
                    "experiments.export", "other_s"),
}


def declared(trace: bool) -> list:
    """``(name, unit)`` of every metric the mode must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, seconds: int, seed: int, trace: bool) -> Outcome:
    from reproduce import reproduce_cold, reproduce_warm
    from serve import serve_mixed

    runners = {"reproduce-cold": reproduce_cold,
               "reproduce-warm": reproduce_warm,
               "serve-mixed": serve_mixed}
    with HostWatch() as host, Speedometer() as speed:
        outcome = runners[name](seconds, seed, trace, speed)
    outcome.report += [speed.describe(), host.describe()]
    if trace:
        for metric, value in host.metrics().items():
            outcome.put(metric, value, 1)
        outcome.put("host.speed", statistics.fmean(speed.speeds()),
                    len(speed.samples))
    return outcome


def finish(name: str, outcome: Outcome, trace: bool) -> dict:
    """Print the report; return the result object of the contract."""
    metrics = {}
    missing = []
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for metric, unit in declared(trace):
        if metric in outcome.metrics:
            value, count = outcome.metrics[metric], outcome.samples[metric]
            note = f"n={count}"
        else:
            value, count = 0.0, 0
            exercised = not (trace and metric.startswith(NOT_EXERCISED[name]))
            note = "not produced" if exercised else "n=0, not exercised"
            if exercised:
                missing.append(metric)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"  {metric} = {value:.6g} {unit} ({note})")
    for line in outcome.report:
        print(f"  {line}")
    print(f"  operations: {outcome.attempted} attempted, "
          f"{outcome.failed} failed")
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}")
    if not outcome.attempted:
        raise RuntimeError(f"{name} attempted no operation")
    if missing and not outcome.failed:
        raise RuntimeError(f"{name} produced no {', '.join(missing)}")
    return {"correct": outcome.failed == 0 and not missing,
            "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def _exit_on_sigterm(signum, frame) -> None:
    """Unwind through every ``finally`` so children are stopped too."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    pin_to_program_cpu()
    try:
        check_checkout()
    except CheckoutError as error:
        print(f"perfbench: {error}; nothing to measure", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import run_self_test

        return run_self_test(run_workload, finish, declared)
    if args.workload is None:
        parser.error("--workload is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = {}
    for name in names:
        try:
            outcome = run_workload(name, args.seconds, args.seed, trace)
            results[name] = finish(name, outcome, trace)
        except Exception:
            traceback.print_exc()
            return 1
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
