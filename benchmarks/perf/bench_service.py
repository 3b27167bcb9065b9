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
  cheap when somebody is;
* **burst latency** — DESIGN §"One drain loop"'s bursts A and B, four
  requests released together by four client threads against a ``repro
  serve`` child with the traces primed, timed from the first submit to
  the last server-side ``done``, with the batches each burst took.

The service is hosted in-process (:class:`repro.service.server
.ServerThread`), except for the burst section's child, and driven over
real sockets through the same urllib client the CLI uses.

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
import os
import platform
import queue
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import date
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import (  # noqa: E402
    ServiceError,
    get_stats,
    stream_events,
    submit_and_wait,
    submit_job,
)
from repro.service.server import ServerThread  # noqa: E402

#: One-cell tiny request: the unit of warm-path round trips.
WARM_PAYLOAD = {"kind": "sweep", "axis": "regfile", "values": ["34"],
                "workloads": ["li_like"], "profile": "tiny"}

#: Distinct single-cell requests for the cold fan-out measurement.
FANOUT_VALUES = ("34", "42", "50", "64")

#: How often a cold measurement polls its job: the client's default
#: 0.1 s would round a job of a few tens of ms up to the next poll.
COLD_POLL_SECONDS = 0.01

#: Burst B's workloads, one 8-point regfile sweep each (burst A is four
#: one-point sweeps on ``li_like``); one request primes all four traces.
BURST_WORKLOADS = ("li_like", "perl_like", "compress_like", "gcc_like")
BURST_ROUNDS = 10


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
                        timeout=300.0, poll=COLD_POLL_SECONDS)
        single = time.perf_counter() - started

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(FANOUT_VALUES)) as pool:
            list(pool.map(
                lambda value: submit_and_wait(
                    service.url, _payload(value), client="bench",
                    timeout=300.0, poll=COLD_POLL_SECONDS,
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
                        timeout=300.0, poll=COLD_POLL_SECONDS)
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


def _burst_payloads(burst: str, round_index: int) -> list:
    """Four requests of fresh timed cells on primed traces: every round
    draws register-file sizes no earlier round used."""
    if burst == "A":
        return [_payload(str(100 + 4 * round_index + i)) for i in range(4)]
    sizes = [str(200 + 8 * round_index + i) for i in range(8)]
    return [{"kind": "sweep", "axis": "regfile", "values": sizes,
             "workloads": [workload], "profile": "tiny"}
            for workload in BURST_WORKLOADS]


def _spawn_server(tmp: Path) -> tuple:
    """A default ``repro serve`` child on fresh directories, and its URL."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(tmp / "burst-cache"),
         "--queue-dir", str(tmp / "burst-queue")],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env,
    )
    match = re.search(r"http://[0-9.]+:\d+", process.stdout.readline())
    if match is None:
        process.kill()
        process.wait()
        raise RuntimeError("repro serve announced no URL")
    return process, match.group(0)


def bench_burst(tmp: Path) -> dict:
    """Bursts A and B, alternating, ``BURST_ROUNDS`` times each.

    Each burst is four client threads released together, one request
    apiece.  Its time runs from the first client's submit to the
    server-side ``ts`` of the last ``done`` job event, both wall clock
    on this host, read from the ``/v1/events`` stream; the ``batch``
    events in between count its batches.  A seeded 0.1–0.2 s pause
    between bursts lands each at an arbitrary point of the idle
    loop's wait.  The server is a child process, not a
    :class:`ServerThread`, so the clients do not share its interpreter.
    """
    process, url = _spawn_server(tmp)
    events: "queue.Queue[dict]" = queue.Queue()

    def tail() -> None:
        try:
            for event in stream_events(url, buffer=4096, timeout=120.0):
                events.put(event)
        except ServiceError:
            pass  # the server went away: the run is over

    def burst(payloads: list) -> tuple:
        go, starts, ids = threading.Event(), [], []

        def client(payload: dict) -> None:
            go.wait()
            starts.append(time.time())
            ids.append(submit_job(url, payload, client="bench")["id"])

        clients = [threading.Thread(target=client, args=(payload,))
                   for payload in payloads]
        for thread in clients:
            thread.start()
        go.set()
        for thread in clients:
            thread.join(timeout=60.0)
        if len(ids) != len(payloads):
            raise RuntimeError("a burst client never got its receipt")
        pending, batches, last_done = set(ids), 0, 0.0
        while pending:
            event = events.get(timeout=120.0)
            if event["event"] == "batch":
                batches += 1
            elif event["event"] == "job" and event["id"] in pending:
                if event["state"] in ("failed", "quarantined"):
                    raise RuntimeError(f"burst job {event['id']} "
                                       f"ended {event['state']}")
                if event["state"] == "done":
                    pending.discard(event["id"])
                    last_done = event["ts"]
        return (last_done - min(starts)) * 1000.0, batches

    tailer = threading.Thread(target=tail, daemon=True)
    tailer.start()
    rng = random.Random(0)
    times = {"A": [], "B": []}
    batches = {"A": [], "B": []}
    try:
        deadline = time.monotonic() + 30.0
        while get_stats(url)["events"]["subscribers"] < 1:
            if time.monotonic() > deadline:
                raise RuntimeError("the event stream never subscribed")
            time.sleep(0.01)
        submit_and_wait(url, {"kind": "sweep", "axis": "regfile",
                              "values": ["99"],
                              "workloads": list(BURST_WORKLOADS),
                              "profile": "tiny"},
                        client="bench", timeout=300.0)  # prime the traces
        for round_index in range(BURST_ROUNDS):
            for name in ("A", "B"):
                time.sleep(0.1 + 0.1 * rng.random())
                took, count = burst(_burst_payloads(name, round_index))
                times[name].append(round(took, 1))
                batches[name].append(count)
    finally:
        process.terminate()
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        tailer.join(timeout=30.0)
    report = {"rounds": BURST_ROUNDS, "requests": 4}
    for name, cells in (("A", 4), ("B", 8 * len(BURST_WORKLOADS))):
        q1, median, q3 = statistics.quantiles(times[name], n=4)
        report[name] = {
            "cells": cells,
            "median_ms": round(median, 1),
            "q1_ms": round(q1, 1),
            "q3_ms": round(q3, 1),
            "rounds_ms": times[name],
            "batches": batches[name],
        }
    return report


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
    parser.add_argument(
        "--skip-burst", action="store_true",
        help="skip the burst section (bursts A and B against a serve "
             "child)",
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
        if not args.skip_burst:
            print(f"burst: A and B, {BURST_ROUNDS} rounds each, against "
                  "a serve child ...", flush=True)
            bursts = sections["burst"] = bench_burst(tmp_path)
            for name in ("A", "B"):
                row = bursts[name]
                print(f"  {name}: median {row['median_ms']} ms "
                      f"(q1-q3 {row['q1_ms']}-{row['q3_ms']}), "
                      f"batches {row['batches']}")

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
