"""Admission control: quotas, depth bounds, body caps — unit and e2e.

Three layers are pinned here:

* **queue unit** — :meth:`JobQueue.submit` enforces per-client quotas
  and the total depth bound atomically inside the queue lock, charges
  exactly live (queued+running) jobs, frees quota on every terminal
  transition, and restores the tally across journal replay;
* **HTTP e2e** — the server maps the refusals to 429/503 with a
  ``Retry-After`` header *and* a ``retry_after`` JSON field, maps
  oversize bodies to 413, and tallies all three in ``/v1/stats``;
* **schema pin** — the full ``/v1/stats`` key set is asserted exactly,
  so any drift (a renamed counter, a dropped section) fails this suite
  loudly instead of silently breaking dashboards and benchmarks.

The fairness property rides along: a quota-capped client can occupy at
most ``quota`` slots of the fair rotation, so another client's single
job is always claimed within the first ``quota + 1`` drained jobs.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service.client import get_stats, submit_job
from repro.service.dispatcher import DEFAULT_MAX_BODY_BYTES
from repro.service.queue import (
    AdmissionError,
    JobQueue,
    JobState,
    QueueFullError,
    QuotaExceededError,
)
from repro.service.server import ServerThread

WARM = {"kind": "sweep", "axis": "regfile", "values": ["34"],
        "workloads": ["li_like"], "profile": "tiny"}


def _request(n: int) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [n],
            "workloads": ["li_like"], "profile": "tiny"}


def _post_raw(url: str, body: bytes):
    """POST raw bytes; returns (status, headers, parsed JSON body)."""
    request = urllib.request.Request(
        f"{url}/v1/jobs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return (response.status, response.headers,
                    json.loads(response.read()))
    except urllib.error.HTTPError as error:
        return error.code, error.headers, json.loads(error.read())


class TestQueueQuota:
    def test_quota_refuses_new_jobs_not_attaches(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_request(1), "alice", quota=2)
        queue.submit(_request(2), "alice", quota=2)
        with pytest.raises(QuotaExceededError):
            queue.submit(_request(3), "alice", quota=2)
        # A duplicate of a live request coalesces — always admitted.
        job, created = queue.submit(_request(1), "alice", quota=2)
        assert not created and job.attached == 1
        # Another client is not charged for alice's backlog.
        _job, created = queue.submit(_request(3), "bob", quota=2)
        assert created
        queue.close()

    def test_quota_charges_live_jobs_only(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        first, _ = queue.submit(_request(1), "alice", quota=2)
        second, _ = queue.submit(_request(2), "alice", quota=2)
        assert queue.client_inflight("alice") == 2
        queue.mark_running(first.id)
        assert queue.client_inflight("alice") == 2  # running is live
        queue.mark_done(first.id, result_key="ab" * 32, source="computed")
        assert queue.client_inflight("alice") == 1
        queue.submit(_request(3), "alice", quota=2)  # slot freed
        queue.mark_failed(second.id, "boom")
        assert queue.client_inflight("alice") == 1  # failed frees too
        queue.close()

    def test_requeue_recharges_quota(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        job, _ = queue.submit(_request(1), "alice", quota=1)
        queue.mark_running(job.id)
        queue.mark_done(job.id, result_key="ab" * 32, source="computed")
        assert queue.client_inflight("alice") == 0
        queue.requeue_lost(job.id)  # result evicted -> live again
        assert queue.client_inflight("alice") == 1
        with pytest.raises(QuotaExceededError):
            queue.submit(_request(2), "alice", quota=1)
        queue.close()

    def test_replay_restores_per_client_tally(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queued, _ = queue.submit(_request(1), "alice")
        running, _ = queue.submit(_request(2), "alice")
        done, _ = queue.submit(_request(3), "alice")
        queue.mark_running(running.id)
        queue.mark_running(done.id)
        queue.mark_done(done.id, result_key="ab" * 32, source="computed")
        queue.close()

        # Restart: the running job demotes to queued (still live), the
        # done one stays terminal — alice owes exactly 2 slots.
        replayed = JobQueue(tmp_path / "q")
        assert replayed.client_inflight("alice") == 2
        with pytest.raises(QuotaExceededError):
            replayed.submit(_request(4), "alice", quota=2)
        replayed.close()

    def test_snapshot_restores_per_client_tally(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_request(1), "alice")
        queue.submit(_request(2), "bob")
        queue.compact()
        queue.close()
        replayed = JobQueue(tmp_path / "q")
        assert replayed.client_inflight("alice") == 1
        assert replayed.client_inflight("bob") == 1
        replayed.close()


class TestQueueDepth:
    def test_depth_bound_counts_queued_and_running(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        first, _ = queue.submit(_request(1), "a", max_depth=2)
        queue.submit(_request(2), "b", max_depth=2)
        queue.mark_running(first.id)
        with pytest.raises(QueueFullError):
            queue.submit(_request(3), "c", max_depth=2)
        queue.mark_done(first.id, result_key="ab" * 32, source="computed")
        _job, created = queue.submit(_request(3), "c", max_depth=2)
        assert created
        queue.close()

    def test_exempt_bypasses_both_bounds(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        queue.submit(_request(1), "a", quota=1, max_depth=1)
        # At quota AND at depth: a cache-backed submission sails, and
        # completes without taking a live slot.
        job, created = queue.submit(
            _request(2), "a", quota=1, max_depth=1, result_key="ab" * 32
        )
        assert created
        assert job.state is JobState.DONE and job.source == "cache"
        assert queue.depth() == 1
        assert queue.client_inflight("a") == 1
        queue.close()

    def test_refusal_leaves_no_trace(self, tmp_path):
        """A refused submission journals nothing: replay sees no job."""
        queue = JobQueue(tmp_path / "q")
        queue.submit(_request(1), "a")
        with pytest.raises(AdmissionError):
            queue.submit(_request(2), "b", max_depth=1)
        queue.close()
        replayed = JobQueue(tmp_path / "q")
        assert replayed.depth() == 1
        assert replayed.client_inflight("b") == 0
        replayed.close()


class TestFairnessUnderQuota:
    def test_capped_client_cannot_starve_rotation(self, tmp_path):
        """Property: with quota q, a flooding client holds at most q
        queue slots, so every other client's first job is drained
        within the first q+1 fair picks."""
        quota = 2
        queue = JobQueue(tmp_path / "q")
        accepted = 0
        for n in range(10):  # the flooder offers 10, lands exactly q
            try:
                queue.submit(_request(n), "flooder", quota=quota)
                accepted += 1
            except QuotaExceededError:
                pass
        assert accepted == quota
        victim, _ = queue.submit(_request(100), "victim", quota=quota)

        picks = queue.pending_fair(quota + 1)
        assert victim.id in {job.id for job in picks}
        # Round-robin means the victim is in the first full round.
        assert [job.client for job in picks[:2]].count("flooder") <= 1
        queue.close()


class TestHTTPAdmission:
    def test_429_carries_retry_after_header_and_field(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", quota=1,
        ) as service:
            service.server.dispatcher.drain_once = lambda: 0
            submit_job(service.url, _request(1), client="alice")
            status, headers, payload = _post_raw(
                service.url,
                json.dumps(dict(_request(2), client="alice")).encode(),
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after"] == int(headers["Retry-After"])
            assert "alice" in payload["error"]

    def test_503_carries_retry_after_header_and_field(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", max_queue_depth=2,
        ) as service:
            service.server.dispatcher.drain_once = lambda: 0
            submit_job(service.url, _request(1), client="a")
            submit_job(service.url, _request(2), client="b")
            status, headers, payload = _post_raw(
                service.url,
                json.dumps(dict(_request(3), client="c")).encode(),
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after"] == int(headers["Retry-After"])

    def test_413_oversize_body(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", max_body_bytes=512,
        ) as service:
            padding = {"kind": "sweep", "axis": "regfile",
                       "values": ["34"], "workloads": ["li_like"],
                       "profile": "tiny", "client": "x" * 1024}
            status, _headers, payload = _post_raw(
                service.url, json.dumps(padding).encode()
            )
            assert status == 413
            assert "512-byte limit" in payload["error"]
            admission = get_stats(service.url)["admission"]
            assert admission["rejected_size"] == 1
            # A normal-sized request still goes through.
            submit_job(service.url, _request(1), client="ok")

    def test_stats_count_each_rejection_kind(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            quota=1, max_queue_depth=2, max_body_bytes=256,
        ) as service:
            service.server.dispatcher.drain_once = lambda: 0
            submit_job(service.url, _request(1), client="alice")
            with pytest.raises(Exception):
                submit_job(service.url, _request(2), client="alice")
            submit_job(service.url, _request(2), client="bob")
            with pytest.raises(Exception):
                submit_job(service.url, _request(3), client="carol")
            _post_raw(service.url, b"x" * 1024)
            admission = get_stats(service.url)["admission"]
            assert admission["rejected_quota"] == 1
            assert admission["rejected_depth"] == 1
            assert admission["rejected_size"] == 1
            assert admission["quota"] == 1
            assert admission["max_queue_depth"] == 2
            assert admission["max_body_bytes"] == 256

    def test_unlimited_by_default(self, tmp_path):
        """No quota/depth flags: nothing is ever refused (the seed
        behavior), and stats report the bounds as null/default."""
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            service.server.dispatcher.drain_once = lambda: 0
            for n in range(20):
                submit_job(service.url, _request(n), client="flood")
            admission = get_stats(service.url)["admission"]
            assert admission["quota"] is None
            assert admission["max_queue_depth"] is None
            assert admission["max_body_bytes"] == DEFAULT_MAX_BODY_BYTES
            assert admission["rejected_quota"] == 0
            assert admission["rejected_depth"] == 0


class TestStatsSchema:
    """Exact key-set pin: stats drift fails loudly, not silently."""

    EXPECTED = {
        "queue": {"depth", "states", "compaction"},
        "dispatcher": {
            "submissions", "coalesced", "jobs_from_cache",
            "jobs_completed", "jobs_failed", "batches", "batched_jobs",
            "cells_executed",
        },
        "shard": {"index", "count", "url", "peers", "misrouted"},
        "admission": {
            "quota", "max_queue_depth", "max_body_bytes",
            "rejected_quota", "rejected_depth", "rejected_size",
        },
        "containment": {
            "max_attempts", "job_timeout", "retries", "quarantined",
            "timeouts", "bisections", "pool_crashes", "breaker_open",
        },
        "cache": {"session", "lifetime"},
        "tiered": {
            "local", "shared", "peer", "shared_root", "peer_count",
        },
        "workers": {
            "active", "inflight_cells", "pool_size",
            "max_batch", "busy_seconds", "utilization", "warm_pool",
        },
        "events": {
            "published", "dropped", "subscribers",
            "jobs_traced", "jobs_retained",
        },
    }

    #: Top-level scalars (not sections): schema identity + uptime.
    SCALARS = {"schema_version", "started_at", "uptime_seconds"}

    def test_full_key_set_exact(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            stats = get_stats(service.url)
        assert set(stats) == set(self.EXPECTED) | self.SCALARS
        for section, keys in self.EXPECTED.items():
            assert set(stats[section]) == keys, section
        assert stats["schema_version"] == 4
        assert stats["started_at"] > 0
        assert stats["uptime_seconds"] >= 0
        for tier in ("local", "shared", "peer"):
            assert set(stats["tiered"][tier]) == {
                "hits", "misses", "stores", "promotes", "errors",
                "corrupt",
            }
        assert set(stats["queue"]["states"]) == {
            "queued", "running", "done", "failed", "quarantined"
        }
        assert set(stats["queue"]["compaction"]) == {
            "generation", "compactions", "events_folded",
            "jobs_dropped", "journal_events",
        }
