#!/usr/bin/env python
"""Multi-tenant load/SLO benchmark: percentile latency at saturation.

Drives a live service (in-process :class:`~repro.service.server
.ServerThread`, real sockets, the same urllib client the CLI uses)
through the deterministic multi-client harness in
``tests/service/loadsim.py`` and records the numbers mean-req/s
benchmarks hide:

* **mixed** — the headline: N tenants submitting 10k+ seeded
  warm/cold jobs closed-loop, with p50/p95/p99 end-to-end latency,
  saturation throughput, rejection counts, and the exactly-once
  ledger (no accepted job lost, every distinct cold cell simulated
  once);
* **overload** — cold-heavy fire-and-forget tenants hammering a tight
  per-client quota, so the 429/Retry-After path and the
  rejection-rate numbers come from real sustained overload, and the
  accepted subset still completes exactly once.

The full run merges a ``load`` section into ``BENCH_service.json``
(preserving the existing cold/warm metrics); ``--smoke`` runs a
seconds-bounded miniature and writes a standalone report instead —
the CI gate that the harness and the section shape stay healthy.

Usage::

    python benchmarks/perf/bench_load.py
    python benchmarks/perf/bench_load.py --clients 8 --jobs-per-client 1300
    python benchmarks/perf/bench_load.py --smoke
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "service"))

from loadsim import (  # noqa: E402
    exactly_once_ledger,
    run_load,
    summarize,
    uniform_clients,
)

from repro.service.server import ServerThread  # noqa: E402

#: Keys every phase summary must carry (the smoke gate's contract, and
#: what dashboards reading BENCH_service.json may rely on).
REQUIRED_KEYS = (
    "clients", "jobs_offered", "jobs_accepted", "jobs_rejected_final",
    "retries", "wall_seconds", "throughput_rps",
    "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
    "warm_latency_p99_ms",
    "rejected_quota", "rejected_depth", "rejected_size",
    "exactly_once",
)


def validate_section(section: dict) -> None:
    """Loud structural check: required keys, ordered percentiles."""
    for phase in ("mixed", "overload"):
        summary = section[phase]
        missing = [key for key in REQUIRED_KEYS if key not in summary]
        if missing:
            raise SystemExit(f"load.{phase} is missing keys: {missing}")
        if not (summary["latency_p50_ms"] <= summary["latency_p95_ms"]
                <= summary["latency_p99_ms"]):
            raise SystemExit(f"load.{phase}: percentiles out of order")
        if not summary["exactly_once"]["exactly_once"]:
            raise SystemExit(
                f"load.{phase}: exactly-once ledger failed: "
                f"{summary['exactly_once']}"
            )


def bench_mixed(tmp: Path, clients: int, jobs_each: int, warm_ratio: float,
                seed: int) -> dict:
    """The headline phase: seeded mixed traffic, closed loop."""
    with ServerThread(
        tmp / "mixed-queue", tmp / "mixed-cache",
        max_batch=8, quota=64, max_queue_depth=512,
    ) as service:
        result = run_load(
            service.url,
            uniform_clients(clients, jobs_each, warm_ratio=warm_ratio,
                            max_retries=6),
            seed=seed, settle=True,
        )
        summary = summarize(result)
        summary["exactly_once"] = exactly_once_ledger(result, service.url)
    return summary


def bench_overload(tmp: Path, clients: int, jobs_each: int,
                   seed: int) -> dict:
    """Sustained overload: cold-heavy fire-and-forget vs a tight quota."""
    with ServerThread(
        tmp / "over-queue", tmp / "over-cache",
        max_batch=8, quota=4,
    ) as service:
        result = run_load(
            service.url,
            uniform_clients(clients, jobs_each, warm_ratio=0.0,
                            wait=False, max_retries=1,
                            backoff_base=0.02, backoff_cap=0.5,
                            prefix="hostile"),
            seed=seed, settle=True,
        )
        summary = summarize(result)
        summary["exactly_once"] = exactly_once_ledger(result, service.url)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=8, metavar="N",
        help="tenants in the mixed phase (default: 8)",
    )
    parser.add_argument(
        "--jobs-per-client", type=int, default=1300, metavar="N",
        help="jobs each mixed-phase tenant offers (default: 1300, so "
             "the headline run is a 10k+ job population)",
    )
    parser.add_argument(
        "--warm-ratio", type=float, default=0.9, metavar="R",
        help="warm (cache-hit) fraction of mixed traffic (default: 0.9)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="schedule seed (default: 0)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-bounded miniature run; writes a standalone report "
             "and never touches BENCH_service.json",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="report destination (default: BENCH_service.json at the "
             "repo root; BENCH_load_smoke.json with --smoke)",
    )
    args = parser.parse_args()

    if args.smoke:
        clients, jobs_each = 4, 30
        overload_clients, overload_jobs = 4, 15
        output = Path(args.output or REPO_ROOT / "BENCH_load_smoke.json")
    else:
        clients, jobs_each = args.clients, args.jobs_per_client
        overload_clients, overload_jobs = 4, 100
        output = Path(args.output or REPO_ROOT / "BENCH_service.json")

    with tempfile.TemporaryDirectory(prefix="bench-load-") as tmp:
        tmp_path = Path(tmp)
        total = clients * jobs_each
        print(f"mixed: {clients} tenants x {jobs_each} jobs "
              f"({total} total, warm ratio {args.warm_ratio}) ...",
              flush=True)
        mixed = bench_mixed(tmp_path, clients, jobs_each,
                            args.warm_ratio, args.seed)
        print(f"  {mixed['jobs_accepted']}/{mixed['jobs_offered']} "
              f"accepted at {mixed['throughput_rps']} jobs/s; "
              f"p50 {mixed['latency_p50_ms']}ms / "
              f"p95 {mixed['latency_p95_ms']}ms / "
              f"p99 {mixed['latency_p99_ms']}ms")
        print(f"overload: {overload_clients} hostile tenants x "
              f"{overload_jobs} cold jobs vs quota=4 ...", flush=True)
        overload = bench_overload(tmp_path, overload_clients,
                                  overload_jobs, args.seed)
        print(f"  {overload['jobs_accepted']}/{overload['jobs_offered']} "
              f"accepted, {overload['rejected_quota']} quota refusals, "
              f"{overload['retries']} retries")

    section = {
        "config": {
            "clients": clients,
            "jobs_per_client": jobs_each,
            "warm_ratio": args.warm_ratio,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "mixed": mixed,
        "overload": overload,
    }
    validate_section(section)

    if args.smoke:
        report = {
            "bench": "service-load-smoke",
            "date": date.today().isoformat(),
            "load": section,
        }
    else:
        # Merge, never overwrite: the cold/warm metrics bench_service.py
        # maintains live in the same committed file.
        try:
            with open(output, encoding="utf-8") as handle:
                report = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            report = {"bench": "service", "metrics": {}}
        report["date"] = date.today().isoformat()
        report.setdefault("host", {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        })
        report.setdefault("metrics", {})["load"] = section

    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
