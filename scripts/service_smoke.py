#!/usr/bin/env python
"""Service smoke: serve, submit a tiny sweep over HTTP, verify, exit.

What CI's service job runs (``make service-smoke``, again as
``make service-smoke-workers`` with ``--workers 4`` to cover the
sharded multi-worker drain, and as ``make service-smoke-pool`` with
``--jobs 2 --job-timeout 120`` to run every cell on the server's
persistent worker pool), end to end through the real CLI and real
sockets:

1. start ``python -m repro serve --port 0`` as a subprocess (passing
   ``--workers``, ``--jobs`` and ``--job-timeout`` through) and parse
   the announced URL;
2. submit a tiny sweep over HTTP and wait for the result;
3. assert the served document is byte-identical to the artifact the
   cache stored under the job's ``result_key``;
4. resubmit and assert the warm path did not execute a single
   additional cell;
5. tear the server down.

The whole script enforces its own deadline (and CI additionally wraps
it in a hard ``timeout 120``), so a wedged server fails fast instead of
hanging the job.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.service.client import get_stats, submit_and_wait  # noqa: E402

DEADLINE_SECONDS = 100.0

PAYLOAD = {"kind": "sweep", "axis": "regfile", "values": ["34", "42"],
           "workloads": ["li_like"], "profile": "tiny"}


def _spawn_server(cache_dir: str, queue_dir: str, args) -> tuple:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(args.workers), "--jobs", str(args.jobs),
         "--job-timeout", str(args.job_timeout),
         "--cache-dir", cache_dir, "--queue-dir", queue_dir],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    url_box = []

    def read_announce():
        line = process.stdout.readline()
        match = re.search(r"http://[0-9.]+:\d+", line or "")
        if match:
            url_box.append(match.group(0))

    reader = threading.Thread(target=read_announce, daemon=True)
    reader.start()
    reader.join(timeout=30.0)
    if not url_box:
        process.terminate()
        raise RuntimeError("server did not announce a URL within 30s")
    return process, url_box[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="dispatch workers for the served instance (default: 1)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per dispatch worker (default: 1)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=0, metavar="SECONDS",
        help="per-cell deadline for the served instance (default: 0, "
             "none)",
    )
    args = parser.parse_args()

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        queue_dir = os.path.join(tmp, "queue")
        process, url = _spawn_server(cache_dir, queue_dir, args)
        print(f"serving with --workers {args.workers} --jobs {args.jobs} "
              f"--job-timeout {args.job_timeout:g} at {url}")
        try:
            job, document = submit_and_wait(
                url, dict(PAYLOAD), client="smoke", timeout=DEADLINE_SECONDS
            )
            print(f"cold job {job['id']}: {job['state']} "
                  f"(source: {job['source']}) in "
                  f"{time.monotonic() - started:.1f}s")

            hit, stored = ArtifactCache(cache_dir).load_digest(
                "service", job["result_key"]
            )
            assert hit, "result artifact missing from the cache"
            assert document == stored.encode("utf-8"), (
                "HTTP response differs from the cached artifact"
            )
            print(f"served document matches cached artifact "
                  f"({len(document)} bytes)")

            cells_before = get_stats(url)["dispatcher"]["cells_executed"]
            warm_job, warm_document = submit_and_wait(
                url, dict(PAYLOAD), client="smoke-again",
                timeout=DEADLINE_SECONDS,
            )
            cells_after = get_stats(url)["dispatcher"]["cells_executed"]
            assert warm_job["id"] == job["id"], "resubmission was not deduped"
            assert warm_document == document, "warm response drifted"
            assert cells_after == cells_before, (
                "warm resubmission executed simulation cells"
            )
            print("warm resubmission: deduped, byte-identical, zero cells")
        finally:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                process.kill()
        elapsed = time.monotonic() - started
        assert elapsed < DEADLINE_SECONDS, f"smoke took {elapsed:.0f}s"
        print(f"service smoke OK in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
