#!/usr/bin/env python
"""Service performance harness: request throughput and batch latency.

Measures the simulation service's two interesting regimes and writes
the numbers to ``BENCH_service.json`` at the repo root (committed, so
the service's perf trajectory is tracked in-tree like the simulation
core's):

* **warm requests/sec** — sequential and concurrent submit-poll-fetch
  round trips for a request whose result is already in the artifact
  cache (the instant-response path: one journal append, one pickle
  read, zero simulation);
* **cold batch latency** — wall-clock seconds from first HTTP submit to
  result for a tiny sweep against an empty cache (queue + dispatch +
  simulate + assemble + store), and for a fan-out of distinct sweeps
  submitted together;
* **fault-containment overhead** — the same cold single job and warm
  round trips with ``--job-timeout`` armed (per-cell deadlines, job
  leases, containment bookkeeping), so the report tracks what the
  contained executor costs a healthy workload relative to the
  uncontained baseline above.  A deadline puts the server on its
  persistent worker pool, pre-warmed before the clock starts, so this
  dimension also records the pool lifecycle counters;
* **observability overhead** — the same warm sequential round trips
  with zero and with one live SSE subscriber on ``/v1/events``
  (span-stamping is always on), pinning the claim that the live
  operations surface is near-zero-cost when nobody is watching and
  cheap when somebody is.

The service is hosted in-process (:class:`repro.service.server
.ServerThread`) but driven over real sockets through the same urllib
client the CLI uses.

Each section updates only its own key in the committed report — a
partial run (``--skip-*``) preserves every other section verbatim,
including the ``load`` section maintained by bench_load.py.

Usage::

    python benchmarks/perf/bench_service.py
    python benchmarks/perf/bench_service.py --warm-requests 200
    python benchmarks/perf/bench_service.py --skip-warm --skip-fault
    python benchmarks/perf/bench_service.py --output /tmp/report.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import (  # noqa: E402
    get_stats,
    submit_and_wait,
)
from repro.service.server import ServerThread  # noqa: E402

#: One-cell tiny request: the unit of warm-path round trips.
WARM_PAYLOAD = {"kind": "sweep", "axis": "regfile", "values": ["34"],
                "workloads": ["li_like"], "profile": "tiny"}

#: Distinct single-cell requests for the cold fan-out measurement.
FANOUT_VALUES = ("34", "42", "50", "64")


def _payload(value: str) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [value],
            "workloads": ["li_like"], "profile": "tiny"}


def _wait_pool_live(service, timeout: float = 60.0) -> None:
    """Block until the server's eager pool warm-up finishes.

    Pre-warming is a *startup* cost, not a request cost; measuring a
    cold request while the pool is still spawning would charge warmup
    to the request and misstate what a warmed server delivers.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pool = get_stats(service.url)["workers"].get("warm_pool")
        if pool is not None and pool["live"]:
            return
        time.sleep(0.05)
    raise RuntimeError("warm pool never came up")


def bench_cold(tmp: Path) -> dict:
    """First-ever submission: queue + simulate + assemble + store."""
    with ServerThread(tmp / "cold-queue", tmp / "cold-cache") as service:
        started = time.perf_counter()
        submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                        timeout=300.0)
        single = time.perf_counter() - started

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(FANOUT_VALUES)) as pool:
            list(pool.map(
                lambda value: submit_and_wait(
                    service.url, _payload(value), client="bench",
                    timeout=300.0,
                ),
                FANOUT_VALUES,
            ))
        fanout = time.perf_counter() - started
        stats = get_stats(service.url)["dispatcher"]
    return {
        "single_job_seconds": round(single, 3),
        "fanout_jobs": len(FANOUT_VALUES),
        "fanout_seconds": round(fanout, 3),
        "fanout_batches": stats["batches"],
        "cells_executed": stats["cells_executed"],
    }


def bench_warm(tmp: Path, requests: int) -> dict:
    """Cache-hit round trips: sequential and 8-way concurrent."""
    with ServerThread(tmp / "warm-queue", tmp / "warm-cache") as service:
        submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                        timeout=300.0)  # prime the cache

        started = time.perf_counter()
        for _ in range(requests):
            submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                            timeout=60.0)
        sequential = time.perf_counter() - started

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(
                lambda _: submit_and_wait(
                    service.url, dict(WARM_PAYLOAD), client="bench",
                    timeout=60.0,
                ),
                range(requests),
            ))
        concurrent = time.perf_counter() - started
        stats = get_stats(service.url)["dispatcher"]
    return {
        "requests": requests,
        "sequential_seconds": round(sequential, 3),
        "sequential_rps": round(requests / sequential, 1),
        "concurrent_seconds": round(concurrent, 3),
        "concurrent_rps": round(requests / concurrent, 1),
        "cells_executed": stats["cells_executed"],  # must stay 1 (the prime)
    }


def bench_fault_overhead(tmp: Path, requests: int) -> dict:
    """Cold + warm measurements with the contained executor armed.

    ``job_timeout`` switches execution onto the deadline-enforcing
    path (futures with per-cell deadlines, journaled job leases,
    containment counters); on a healthy workload its overhead should be
    noise, and this dimension keeps that claim measured.  The pool is
    pre-warmed before the clock starts, so the cold number excludes
    spawn and import.
    """
    with ServerThread(
        tmp / "fault-queue", tmp / "fault-cache", job_timeout=120.0,
    ) as service:
        _wait_pool_live(service)
        started = time.perf_counter()
        submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                        timeout=300.0)
        cold_single = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(requests):
            submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                            timeout=60.0)
        sequential = time.perf_counter() - started
        stats = get_stats(service.url)
    containment = stats["containment"]
    return {
        "job_timeout_seconds": 120.0,
        "cold_single_job_seconds": round(cold_single, 3),
        "warm_requests": requests,
        "warm_sequential_seconds": round(sequential, 3),
        "warm_sequential_rps": round(requests / sequential, 1),
        # Must all stay zero on a healthy run: armed is not triggered.
        "retries": containment["retries"],
        "quarantined": containment["quarantined"],
        "pool_crashes": containment["pool_crashes"],
        "warm_pool": stats["workers"]["warm_pool"],
    }


def bench_observability(tmp: Path, requests: int) -> dict:
    """Warm round trips with 0 vs 1 SSE subscriber attached.

    Span stamps are always on (they ride every queue transition), so
    the 0-subscriber number *includes* stamping — the overhead being
    pinned is the whole instrumentation path.  With a subscriber, every
    transition and access record is also serialized onto the stream;
    the delta is what a live dashboard costs the request path.

    Throughput on a shared box drifts tens of percent over seconds,
    and the request path itself slows slightly as the run ages (the
    coalesced job's attach list and the queue journal both grow), so
    whichever phase runs second in a pair is structurally
    disadvantaged.  The design is ABBA: five trial pairs with the
    phase order alternating each pair (idle-first, then
    subscribed-first, ...).  The headline overhead is the ratio of the
    *summed* phase times — order bias cancels across pairs, and
    averaging over all pairs smooths box drift that makes any single
    pair swing tens of percent (the per-pair deltas are reported too,
    as a noise gauge).

    The subscriber runs as a separate ``repro watch --json``
    *process*, like a real dashboard would: an in-process tail thread
    would contend with the server for the GIL and charge the client's
    own ``json.loads`` work to the server's account.
    """
    import os
    import subprocess

    trials = 5
    chunk = max(60, requests // trials)

    def phase(service) -> float:
        started = time.perf_counter()
        for _ in range(chunk):
            submit_and_wait(service.url, dict(WARM_PAYLOAD),
                            client="bench", timeout=60.0)
        return time.perf_counter() - started

    def wait_for_subscribers(service, count: int) -> None:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if get_stats(service.url)["events"]["subscribers"] == count:
                return
            time.sleep(0.05)
        raise RuntimeError(f"subscriber count never reached {count}")

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    pairs = []
    with ServerThread(tmp / "obs-queue", tmp / "obs-cache") as service:

        def subscribed_phase_run() -> float:
            watcher = subprocess.Popen(
                [sys.executable, "-m", "repro", "watch",
                 "--url", service.url, "--json"],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=env,
            )
            try:
                wait_for_subscribers(service, 1)
                return phase(service)
            finally:
                watcher.terminate()
                watcher.wait(timeout=10.0)
                # The server only notices the dead socket on its next
                # write; one more round trip publishes an event, which
                # makes that write happen so the stream is reaped
                # before the next idle phase starts.
                submit_and_wait(service.url, dict(WARM_PAYLOAD),
                                client="bench", timeout=60.0)
                wait_for_subscribers(service, 0)

        submit_and_wait(service.url, dict(WARM_PAYLOAD), client="bench",
                        timeout=300.0)  # prime the cache
        for _ in range(min(requests, 50)):  # warm the request path
            submit_and_wait(service.url, dict(WARM_PAYLOAD),
                            client="bench", timeout=60.0)

        for trial in range(trials):
            if trial % 2 == 0:
                idle_phase = phase(service)
                subscribed_phase = subscribed_phase_run()
            else:
                subscribed_phase = subscribed_phase_run()
                idle_phase = phase(service)
            pairs.append((idle_phase, subscribed_phase))
        bus = get_stats(service.url)["events"]
    total = trials * chunk
    idle_seconds = sum(idle for idle, _ in pairs)
    subscribed_seconds = sum(sub for _, sub in pairs)
    idle_rps = total / idle_seconds
    subscribed_rps = total / subscribed_seconds
    per_pair_pct = [
        (sub - idle) / idle * 100 for idle, sub in pairs
    ]
    return {
        "warm_requests_per_phase": chunk,
        "trial_pairs": trials,
        "no_subscriber_seconds": round(idle_seconds, 3),
        "no_subscriber_rps": round(idle_rps, 1),
        "one_subscriber_seconds": round(subscribed_seconds, 3),
        "one_subscriber_rps": round(subscribed_rps, 1),
        "overhead_pct": round(
            max(0.0, (subscribed_seconds - idle_seconds)
               / idle_seconds * 100), 1
        ),
        "overhead_pct_per_pair": [
            round(pct, 1) for pct in per_pair_pct
        ],
        "events_published": bus["published"],
        "events_dropped": bus["dropped"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--warm-requests", type=int, default=100, metavar="N",
        help="round trips per warm measurement (default: 100)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_service.json"),
        metavar="PATH", help="report destination (default: repo root)",
    )
    parser.add_argument(
        "--skip-cold", action="store_true",
        help="skip the serial cold section (its report key is preserved)",
    )
    parser.add_argument(
        "--skip-warm", action="store_true",
        help="skip the warm round-trip section",
    )
    parser.add_argument(
        "--skip-fault", action="store_true",
        help="skip the fault-containment overhead section",
    )
    parser.add_argument(
        "--skip-observability", action="store_true",
        help="skip the observability overhead section (0 vs 1 SSE "
             "subscriber on the warm path)",
    )
    args = parser.parse_args()

    sections = {}
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        tmp_path = Path(tmp)
        if not args.skip_cold:
            print("cold: first submission + 4-way fan-out ...", flush=True)
            cold = sections["cold"] = bench_cold(tmp_path)
            print(f"  single job {cold['single_job_seconds']}s, "
                  f"{cold['fanout_jobs']} distinct jobs in "
                  f"{cold['fanout_seconds']}s "
                  f"({cold['fanout_batches']} batches)")
        if not args.skip_warm:
            print(f"warm: {args.warm_requests} cache-hit round trips ...",
                  flush=True)
            warm = sections["warm"] = bench_warm(tmp_path, args.warm_requests)
            print(f"  sequential {warm['sequential_rps']} req/s, "
                  f"8-way concurrent {warm['concurrent_rps']} req/s")
        if not args.skip_fault:
            print("fault overhead: cold + warm, --job-timeout on the "
                  "pool ...", flush=True)
            fault = sections["fault_overhead"] = bench_fault_overhead(
                tmp_path, args.warm_requests
            )
            print(f"  contained cold {fault['cold_single_job_seconds']}s, "
                  f"warm sequential {fault['warm_sequential_rps']} req/s")
        if not args.skip_observability:
            print(f"observability: {args.warm_requests} warm round "
                  "trips, 0 vs 1 SSE subscriber ...", flush=True)
            obs = sections["observability_overhead"] = bench_observability(
                tmp_path, args.warm_requests
            )
            print(f"  no subscriber {obs['no_subscriber_rps']} req/s, "
                  f"one subscriber {obs['one_subscriber_rps']} req/s "
                  f"({obs['overhead_pct']}% overhead, "
                  f"{obs['events_published']} events published)")

    # Merge, never overwrite: only the sections measured above are
    # replaced.  Everything else in the committed report — skipped
    # sections, and the `load` section bench_load.py maintains — is
    # preserved verbatim.
    try:
        with open(args.output, encoding="utf-8") as handle:
            report = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        report = {"bench": "service", "metrics": {}}
    report["bench"] = "service"
    report["date"] = date.today().isoformat()
    report["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
    report.setdefault("metrics", {}).update(sections)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
