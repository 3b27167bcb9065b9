"""Containment-layer tests: queue state machine, lease reclaim,
circuit breaker, graceful drain.

The faultsim scenarios (test_faultsim.py) prove the end-to-end story
under injected worker faults; these tests pin each mechanism in
isolation — the retry/quarantine transitions and their journal replay,
lease reclaim, the breaker's open/half-open cycle, and the drain
sequence including the real-SIGTERM subprocess path.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import (
    ServiceError,
    get_health,
    get_stats,
    submit_job,
)
from repro.service.dispatcher import BreakerOpenError, Dispatcher
from repro.service.queue import JobQueue, JobState, TransitionError
from repro.service.server import ServerThread

from faultsim import (
    arm_faults, hang, pool_worker_pids, running_pid, timed_signature,
)

REQ = {"kind": "sweep", "axis": "regfile", "values": [34],
       "workloads": ["li_like"], "profile": "tiny"}
PAYLOAD = {"kind": "sweep", "axis": "regfile", "values": ["34"],
           "workloads": ["li_like"], "profile": "tiny"}


# ----------------------------------------------------------------------
# Queue: retry / quarantine / lease state machine and its durability.
# ----------------------------------------------------------------------

class TestQueueRetryQuarantine:
    def test_retry_requeues_and_charges_one_attempt(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        retried = queue.retry(job.id)
        assert retried.state is JobState.QUEUED
        assert retried.attempts == 1
        assert retried.lease_deadline is None
        # Retried work is drainable again.
        assert [j.id for j in queue.pending_fair(8)] == [job.id]

    def test_quarantine_is_terminal_with_diagnostic(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        queue.quarantine(job.id, "worker pool died (attempt 1 of 1)")
        final = queue.get(job.id)
        assert final.state is JobState.QUARANTINED
        assert final.attempts == 1
        assert "pool died" in final.failure_reason
        with pytest.raises(TransitionError):
            queue.mark_running(job.id)
        with pytest.raises(TransitionError):
            queue.demote(job.id)
        # Terminal means not drainable and counted as such.
        assert queue.pending_fair(8) == []
        assert not queue.has_pending()
        assert queue.state_counts()["quarantined"] == 1

    def test_quarantined_absorbs_duplicates_like_done(self, tmp_path):
        """Resubmitting identical bytes under the same code version
        coalesces onto the quarantined job — rerunning them would only
        repeat the failure."""
        queue = JobQueue(tmp_path, version="v1")
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        queue.quarantine(job.id, "boom (attempt 1 of 1)")
        attached, created = queue.submit(REQ, "bob")
        assert not created and attached.id == job.id
        queue.close()

    def test_resubmission_after_version_bump_gets_fresh_job(self, tmp_path):
        """The quarantine escape hatch: fixing the code changes
        ``code_version``, which changes the request digest, which makes
        the same request bytes a brand-new job."""
        queue = JobQueue(tmp_path, version="v1")
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        queue.quarantine(job.id, "boom (attempt 1 of 1)")
        queue.close()

        fixed = JobQueue(tmp_path, version="v2")
        fresh, created = fixed.submit(REQ, "alice")
        assert created and fresh.id != job.id
        assert fresh.state is JobState.QUEUED and fresh.attempts == 0
        # The quarantined record survives alongside as the audit trail.
        assert fixed.get(job.id).state is JobState.QUARANTINED
        fixed.close()

    def test_demotion_preserves_attempts(self, tmp_path):
        """Crash demotion is free (the work didn't fail, the process
        did) but must not erase the attempt history."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        queue.retry(job.id)
        queue.mark_running(job.id)
        demoted = queue.demote(job.id)
        assert demoted.state is JobState.QUEUED
        assert demoted.attempts == 1


class TestLeases:
    def test_lease_set_on_running_and_cleared_on_exit(self, tmp_path):
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id, lease_seconds=120.0)
        leased = queue.get(job.id)
        assert leased.lease_deadline is not None
        assert leased.lease_deadline > time.time() + 60
        queue.retry(job.id)
        assert queue.get(job.id).lease_deadline is None

    def test_expired_leases_enumerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        expired_job, _ = queue.submit(REQ, "alice")
        live_job, _ = queue.submit(
            dict(REQ, values=[42]), "alice"
        )
        unleased, _ = queue.submit(dict(REQ, values=[50]), "alice")
        queue.mark_running(expired_job.id, lease_seconds=0.01)
        queue.mark_running(live_job.id, lease_seconds=300.0)
        queue.mark_running(unleased.id)  # no lease: never reclaimed
        time.sleep(0.05)
        expired = queue.expired_leases()
        assert [job.id for job in expired] == [expired_job.id]

    def test_running_jobs_enumerated(self, tmp_path):
        queue = JobQueue(tmp_path)
        a, _ = queue.submit(REQ, "alice")
        b, _ = queue.submit(dict(REQ, values=[42]), "alice")
        queue.mark_running(a.id)
        assert [job.id for job in queue.running_jobs()] == [a.id]
        queue.mark_done(a.id, result_key="k", source="computed")
        assert queue.running_jobs() == []


class TestContainmentDurability:
    def test_attempts_and_quarantine_survive_replay(self, tmp_path):
        queue = JobQueue(tmp_path)
        retried, _ = queue.submit(REQ, "alice")
        poisoned, _ = queue.submit(dict(REQ, values=[42]), "alice")
        queue.mark_running(retried.id)
        queue.retry(retried.id)
        queue.mark_running(poisoned.id)
        queue.quarantine(poisoned.id, "hung (attempt 1 of 1)")
        queue.close()

        replayed = JobQueue(tmp_path)
        assert replayed.get(retried.id).attempts == 1
        assert replayed.get(retried.id).state is JobState.QUEUED
        final = replayed.get(poisoned.id)
        assert final.state is JobState.QUARANTINED
        assert final.attempts == 1
        assert final.failure_reason == "hung (attempt 1 of 1)"
        replayed.close()

    def test_attempts_and_quarantine_survive_compaction(self, tmp_path):
        queue = JobQueue(tmp_path)
        retried, _ = queue.submit(REQ, "alice")
        poisoned, _ = queue.submit(dict(REQ, values=[42]), "alice")
        queue.mark_running(retried.id)
        queue.retry(retried.id)
        queue.mark_running(poisoned.id)
        queue.quarantine(poisoned.id, "boom (attempt 1 of 1)")
        queue.compact()
        queue.close()

        replayed = JobQueue(tmp_path)
        assert replayed.get(retried.id).attempts == 1
        final = replayed.get(poisoned.id)
        assert final.state is JobState.QUARANTINED
        assert final.failure_reason == "boom (attempt 1 of 1)"
        replayed.close()

    def test_crash_replay_demotes_running_but_keeps_attempts(self, tmp_path):
        """A RUNNING job abandoned by a dead process replays as QUEUED
        (the PR 4 contract) with its attempt history intact (this PR's
        addition) — so a repeatedly-crashing server still converges to
        quarantine instead of looping forever."""
        queue = JobQueue(tmp_path)
        job, _ = queue.submit(REQ, "alice")
        queue.mark_running(job.id)
        queue.retry(job.id)
        queue.mark_running(job.id, lease_seconds=300.0)
        # Abandon without close(): exactly what a crash leaves behind.
        replayed = JobQueue(tmp_path)
        revived = replayed.get(job.id)
        assert revived.state is JobState.QUEUED
        assert revived.attempts == 1
        assert revived.lease_deadline is None
        replayed.close()


# ----------------------------------------------------------------------
# Dispatcher: lease reclaim.
# ----------------------------------------------------------------------

class TestLeaseReclaimDispatch:
    def test_expired_lease_routed_through_containment(self, tmp_path):
        """A RUNNING job whose lease expired (a batch that left no
        verdict) is retried — and a repeat offender quarantines — without any
        worker ever touching it."""
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(
            queue, tmp_path / "cache",
            jobs=1, max_batch=8, max_attempts=2, job_timeout=5.0,
        )
        job = dispatcher.submit(PAYLOAD, "alice")
        queue.mark_running(job.id, lease_seconds=0.01)
        time.sleep(0.05)
        dispatcher._reclaim_expired_leases()
        assert queue.get(job.id).state is JobState.QUEUED
        assert queue.get(job.id).attempts == 1
        assert dispatcher.stats.retries == 1

        queue.mark_running(job.id, lease_seconds=0.01)
        time.sleep(0.05)
        dispatcher._reclaim_expired_leases()
        final = queue.get(job.id)
        assert final.state is JobState.QUARANTINED
        assert "lease expired" in final.failure_reason
        assert dispatcher.stats.quarantined == 1
        queue.close()


# ----------------------------------------------------------------------
# Circuit breaker.
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def _dispatcher(self, tmp_path, **kwargs):
        queue = JobQueue(tmp_path / "queue")
        return Dispatcher(
            queue, tmp_path / "cache", jobs=1, max_batch=8,
            breaker_threshold=2, breaker_cooldown=0.3, **kwargs
        )

    def test_submit_refused_while_open(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        dispatcher._breaker_record(crashed=True)
        assert dispatcher.breaker_open_for() == 0.0  # below threshold
        dispatcher._breaker_record(crashed=True)
        with pytest.raises(BreakerOpenError) as excinfo:
            dispatcher.submit(PAYLOAD, "alice")
        assert excinfo.value.retry_after >= 1
        # Draining is paused while open...
        assert dispatcher.drain_once() == 0
        # ...and resumes after the cooldown (half-open trial).
        time.sleep(0.35)
        assert dispatcher.breaker_open_for() == 0.0
        job = dispatcher.submit(PAYLOAD, "alice")
        assert dispatcher.drain_once() == 1
        assert dispatcher.queue.get(job.id).state is JobState.DONE
        # The crash-free execution closed the breaker for good.
        assert dispatcher._breaker_failures == 0
        dispatcher.queue.close()

    def test_success_resets_consecutive_count(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        dispatcher._breaker_record(crashed=True)
        dispatcher._breaker_record(crashed=False)
        dispatcher._breaker_record(crashed=True)
        assert dispatcher.breaker_open_for() == 0.0

    def test_cached_submission_admitted_while_open(self, tmp_path):
        """The breaker refuses *work*, not answers: a request whose
        result already sits in the artifact store completes instantly
        without touching a pool, so it is always admitted."""
        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(PAYLOAD, "alice")
        assert dispatcher.drain_once() == 1
        assert dispatcher.queue.get(job.id).state is JobState.DONE
        dispatcher._breaker_record(crashed=True)
        dispatcher._breaker_record(crashed=True)
        assert dispatcher.breaker_open_for() > 0.0
        served = dispatcher.submit(PAYLOAD, "bob")
        assert dispatcher.queue.get(served.id).state is JobState.DONE
        dispatcher.queue.close()


# ----------------------------------------------------------------------
# Graceful drain: in-process and the real-SIGTERM subprocess path.
# ----------------------------------------------------------------------

class TestDrainInProcess:
    def test_drain_refuses_submissions_with_retry_after(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", drain_grace=3.0
        ) as service:
            # Pin the server in the "draining, batch still running"
            # window: idle() false keeps the grace loop spinning with
            # the socket answering.
            service.server.dispatcher.drain_once = lambda: 0
            service.server.dispatcher.idle = lambda: False
            assert get_health(service.url)["ready"] is True
            service.begin_drain()
            deadline = time.monotonic() + 2.0
            health = get_health(service.url)
            while not health["draining"] and time.monotonic() < deadline:
                time.sleep(0.02)
                health = get_health(service.url)
            assert health["draining"] is True
            assert health["ready"] is False
            assert health["live"] is True
            with pytest.raises(ServiceError) as excinfo:
                submit_job(service.url, PAYLOAD)
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1
        assert service.server.drained_clean is False

    def test_unclean_drain_demotes_running_jobs(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", drain_grace=0.3
        ) as service:
            service.server.dispatcher.drain_once = lambda: 0
            service.server.dispatcher.idle = lambda: False
            receipt = submit_job(service.url, PAYLOAD)
            service.server.queue.mark_running(receipt["id"])
            service.begin_drain()
            service._thread.join(timeout=30.0)
            assert not service._thread.is_alive()
            job = service.server.queue.get(receipt["id"])
            assert job.state is JobState.QUEUED  # demoted, not lost
        assert service.server.drained_clean is False

    def test_clean_drain_compacts_and_closes(self, tmp_path):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", drain_grace=5.0
        ) as service:
            service.server.dispatcher.drain_once = lambda: 0
            before = service.server.queue.compaction_stats()["generation"]
            service.begin_drain()
            service._thread.join(timeout=30.0)
            assert not service._thread.is_alive()
        assert service.server.drained_clean is True
        # The drain compacted (generation stamped forward) and closed
        # the journal; a reopen is a pure snapshot load.
        queue = JobQueue(tmp_path / "queue")
        assert queue.compaction_stats()["generation"] >= before + 1
        assert queue.running_jobs() == []
        queue.close()


class TestSigtermSubprocess:
    def test_sigterm_during_active_batch_exits_zero_and_demotes(
        self, tmp_path
    ):
        """The acceptance scenario, against a real ``repro serve``
        process: SIGTERM while a batch is wedged on a hung worker →
        exit 0 within the drain grace, submissions during the drain get
        503 + Retry-After, the hung pool worker dies with the server
        instead of being orphaned, and replay shows the job queued
        (demoted, no attempt charged), not running or lost."""
        plan = arm_faults(
            tmp_path, {timed_signature(PAYLOAD): hang(hang_seconds=15.0)}
        )
        queue_dir = tmp_path / "queue"
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        env.update(plan.env)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--queue-dir", str(queue_dir),
             "--cache-dir", str(tmp_path / "cache"),
             "--job-timeout", "60", "--drain-grace", "3"],
            env=env, cwd="/root/repo",
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        workers = []
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving on "), line
            url = line[len("serving on "):]
            receipt = submit_job(url, PAYLOAD)

            # Wait until the batch is actually executing (the worker is
            # hung inside the injected fault).
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if get_stats(url)["queue"]["states"]["running"] >= 1:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("batch never started")
            workers = pool_worker_pids(process.pid)
            assert workers, "the serve process has no pool workers"

            started = time.monotonic()
            process.send_signal(signal.SIGTERM)

            # During the grace window, submissions are refused with a
            # Retry-After hint (the signal delivery races the probe, so
            # poll until the drain is observable).
            saw_drain_refusal = False
            refusal_deadline = time.monotonic() + 2.5
            while time.monotonic() < refusal_deadline:
                try:
                    submit_job(url, dict(PAYLOAD, values=["42"]))
                except ServiceError as error:
                    if error.status == 503 and error.retry_after:
                        saw_drain_refusal = True
                        break
                except OSError:
                    break  # socket already closed: grace expired
                time.sleep(0.05)
            assert saw_drain_refusal

            assert process.wait(timeout=30.0) == 0
            # Exit came within the grace window plus teardown slack,
            # not after the 60 s job deadline or the 15 s hang.
            assert time.monotonic() - started < 12.0
            # The hung worker holds both ends of its call-queue pipe, so
            # only the server's shutdown kill ends it.
            gone_by = time.monotonic() + 5.0
            while any(map(running_pid, workers)) and time.monotonic() < gone_by:
                time.sleep(0.05)
            assert not [pid for pid in workers if running_pid(pid)]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
            process.stdout.close()
            for pid in workers:
                if running_pid(pid):
                    os.kill(pid, signal.SIGKILL)  # never leak a failure's orphan

        replayed = JobQueue(queue_dir)
        try:
            job = replayed.get(receipt["id"])
            assert job is not None, "job lost across the drain"
            assert job.state is JobState.QUEUED
            # The shutdown kill is not charged as a failed attempt.
            assert job.attempts == 0
            assert replayed.running_jobs() == []
        finally:
            replayed.close()
