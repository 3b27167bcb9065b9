"""SLO invariants under multi-tenant load (the loadsim harness's tests).

The contracts this file pins, each end-to-end through real sockets:

* **exactly-once under mixed traffic** — a seeded multi-client run of
  warm and cold jobs loses no accepted job and simulates each distinct
  cold cell exactly once, however the clients interleave;
* **throttling is targeted** — a quota-breaching tenant is refused
  (429, parseable ``Retry-After``) while compliant tenants' tail
  latency stays bounded, because warm traffic and other tenants' jobs
  are never charged for the breacher's backlog;
* **backpressure is honest** — past ``max_queue_depth`` the server
  refuses with 503 + ``Retry-After``, and every job it *did* accept
  completes once the backlog drains;
* **Retry-After converts overload into latency** — a client that
  honors the hint with capped exponential backoff eventually lands
  every job without manual pacing.

Determinism: rejection paths run against a *frozen* dispatcher (its
``drain_once`` patched to a no-op after priming), so exactly N jobs
are live when the N+1th arrives — no sleeps, no timing guesses.
"""

import time

import pytest
from loadsim import (
    exactly_once_ledger,
    percentile,
    run_load,
    summarize,
    uniform_clients,
)

from repro.service.client import (
    ServiceError,
    get_job,
    get_stats,
    submit_and_wait,
    submit_job,
)
from repro.service.server import ServerThread

WARM = {"kind": "sweep", "axis": "regfile", "values": ["34"],
        "workloads": ["li_like"], "profile": "tiny"}


def _cold(value: str) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [value],
            "workloads": ["li_like"], "profile": "tiny"}


def _freeze_drain(service: ServerThread):
    """Stop the dispatcher from claiming work; returns the undo handle.

    The drain loop reads ``dispatcher.drain_once`` each iteration, so
    patching the instance attribute freezes draining after the current
    iteration — cold submissions then stay queued, which is what makes
    quota/depth rejection counts exact instead of racy.
    """
    dispatcher = service.server.dispatcher
    original = dispatcher.drain_once
    dispatcher.drain_once = lambda: 0
    return original


def _wait_idle(service: ServerThread, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = get_stats(service.url)
        states = stats["queue"]["states"]
        if states["queued"] == 0 and states["running"] == 0:
            return
        time.sleep(0.02)
    raise AssertionError("queue did not go idle")


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100

    def test_small_and_empty(self):
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([2.0, 1.0], 99) == 2.0


class TestMixedLoadExactlyOnce:
    def test_seeded_mixed_run_loses_nothing(self, tmp_path):
        """4 tenants x 25 mixed jobs: all accepted (bounds are loose for
        closed-loop clients), every accepted job done, each distinct
        cold cell simulated exactly once."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            max_batch=4, quota=32, max_queue_depth=128,
        ) as service:
            result = run_load(
                service.url,
                uniform_clients(4, 25, warm_ratio=0.8),
                seed=7, cold_values=("36", "38", "40", "42"),
            )
        ledger = exactly_once_ledger(result)
        assert ledger["exactly_once"], ledger
        summary = summarize(result)
        assert summary["jobs_offered"] == 100
        assert summary["jobs_accepted"] == 100
        assert summary["jobs_rejected_final"] == {}
        assert (summary["latency_p50_ms"] <= summary["latency_p95_ms"]
                <= summary["latency_p99_ms"])
        assert summary["throughput_rps"] > 0

    def test_same_seed_same_schedules(self, tmp_path):
        """The schedule side of determinism: two runs with one seed
        offer the identical (client, kind, cell) sequence."""
        with ServerThread(tmp_path / "q", tmp_path / "c") as service:
            first = run_load(
                service.url, uniform_clients(2, 10, warm_ratio=0.5),
                seed=3, cold_values=("36", "38"),
            )
            second = run_load(
                service.url, uniform_clients(2, 10, warm_ratio=0.5),
                seed=3, cold_values=("36", "38"), prime=False,
            )
        key = [(o.client, o.index, o.kind, o.cell) for o in first.outcomes]
        assert key == [
            (o.client, o.index, o.kind, o.cell) for o in second.outcomes
        ]


class TestQuotaSLO:
    def test_breacher_throttled_compliant_tail_bounded(self, tmp_path):
        """quota=3, frozen drain: the breacher lands exactly 3 jobs and
        eats 429s with parseable Retry-After for the rest; compliant
        warm tenants sail through with bounded tail latency."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", quota=3,
        ) as service:
            submit_and_wait(service.url, dict(WARM), client="prime",
                            timeout=120.0)
            _wait_idle(service)
            _freeze_drain(service)

            accepted, refused = 0, []
            for index in range(10):
                try:
                    submit_job(service.url, _cold(str(36 + 2 * index)),
                               client="breacher")
                    accepted += 1
                except ServiceError as error:
                    refused.append(error)
            assert accepted == 3
            assert len(refused) == 7
            for error in refused:
                assert error.status == 429
                assert error.retry_after is not None
                assert error.retry_after > 0
            assert service.server.queue.client_inflight("breacher") == 3

            # Compliant tenants: warm-only traffic, no retries needed —
            # the breacher's backlog must not tax them at all.
            result = run_load(
                service.url,
                uniform_clients(3, 20, warm_ratio=1.0, max_retries=0,
                                prefix="compliant"),
                seed=11, prime=False,
            )
            assert all(o.accepted for o in result.outcomes)
            latencies = [o.latency for o in result.outcomes]
            assert percentile(latencies, 99) < 2.0  # seconds; warm ~ms

            admission = get_stats(service.url)["admission"]
            assert admission["rejected_quota"] == 7
            assert admission["rejected_depth"] == 0

    def test_honoring_retry_after_eventually_lands_everything(
        self, tmp_path
    ):
        """quota=1, live drain: a client that submits without waiting
        relies on retry/backoff alone — every job is eventually
        admitted as its predecessor completes."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", quota=1,
        ) as service:
            result = run_load(
                service.url,
                [
                    # wait=False: fire the next job immediately, so the
                    # quota *must* refuse and Retry-After must pace it.
                    uniform_clients(1, 5, warm_ratio=0.0, wait=False,
                                    max_retries=8, backoff_base=0.05,
                                    backoff_cap=1.0)[0]
                ],
                seed=2, cold_values=("36", "38", "40", "42", "44"),
            )
            assert all(o.accepted for o in result.outcomes)
            admission = result.stats["admission"]
            total_retries = sum(o.retries for o in result.outcomes)
            assert admission["rejected_quota"] >= 1
            assert total_retries >= 1
            for outcome in result.outcomes:
                for hint in outcome.retry_after_seen:
                    assert hint > 0


class TestDepthSLO:
    def test_backpressure_then_full_recovery(self, tmp_path):
        """max_queue_depth=4, frozen drain: exactly 4 accepted, the
        rest 503 + Retry-After; unfreezing drains every accepted job to
        ``done`` — overload refuses new work, never loses accepted
        work."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", max_queue_depth=4,
        ) as service:
            submit_and_wait(service.url, dict(WARM), client="prime",
                            timeout=120.0)
            _wait_idle(service)
            original = _freeze_drain(service)

            receipts, refused = [], []
            for index in range(7):
                try:
                    receipts.append(submit_job(
                        service.url, _cold(str(50 + 2 * index)),
                        client=f"tenant-{index}",
                    ))
                except ServiceError as error:
                    refused.append(error)
            assert len(receipts) == 4
            assert len(refused) == 3
            for error in refused:
                assert error.status == 503
                assert error.retry_after is not None
                assert error.retry_after >= 1

            # Warm resubmissions are exempt: a full queue still serves
            # the free traffic instantly.
            warm_receipt = submit_job(service.url, dict(WARM),
                                      client="warm-tenant")
            assert get_job(
                service.url, warm_receipt["id"]
            )["state"] == "done"

            service.server.dispatcher.drain_once = original
            deadline = time.monotonic() + 120.0
            for receipt in receipts:
                while True:
                    record = get_job(service.url, receipt["id"])
                    if record["state"] == "done":
                        assert record["result_key"]
                        break
                    assert record["state"] in ("queued", "running")
                    if time.monotonic() > deadline:
                        pytest.fail(f"job {receipt['id']} never finished")
                    time.sleep(0.02)

            admission = get_stats(service.url)["admission"]
            assert admission["rejected_depth"] == 3
            assert admission["rejected_quota"] == 0
