"""Faultsim scenarios: containment proven under injected worker faults.

Each test arms a deterministic fault (kill / hang / raise) at an exact
cell signature, runs a real server end to end over HTTP, and asserts
the containment contract: healthy batchmates complete exactly once,
the poison job is quarantined after its bounded attempts with a
diagnostic, and the queue directory replays to the identical state.

These spawn real worker pools (the whole point is killing them), so the
suite is seconds, not milliseconds — ``make test-faultsim`` runs it on
its own, and CI runs it next to ``test-crashsim``.
"""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dvi.config import DVIConfig
from repro.experiments.cache import ArtifactCache
from repro.experiments.pool import WarmPool, run_contained
from repro.experiments.runner import ExperimentContext, ExperimentProfile, Job
from repro.service.client import get_stats, poll_job, submit_job
from repro.service.queue import JobQueue, JobState
from repro.service.server import ServerThread
from repro.sim.config import MachineConfig

from faultsim import (
    arm_faults,
    hang,
    kill,
    pool_worker_pids,
    raise_,
    running_pid,
    timed_signature,
)


def _payload(value: int) -> dict:
    """One-cell request: a single regfile value for one tiny workload."""
    return {"kind": "sweep", "axis": "regfile", "values": [str(value)],
            "workloads": ["li_like"], "profile": "tiny"}


def _submit_all(service, payloads):
    """Submit every payload before the dispatcher claims anything.

    Stubbing ``drain_once`` while submitting pins the scenario: all the
    jobs land in the queue first, so the first claim fuses them into
    one batch (the "1 poison among N healthy" shape the tests assert).
    """
    dispatcher = service.server.dispatcher
    real_drain = dispatcher.drain_once
    dispatcher.drain_once = lambda: 0
    try:
        return [
            submit_job(service.url, payload)["id"] for payload in payloads
        ]
    finally:
        dispatcher.drain_once = real_drain


class TestPoisonKill:
    def test_poison_quarantined_healthy_exactly_once_replay_identical(
        self, tmp_path
    ):
        """The acceptance scenario: 1 pool-killing poison + 7 healthy
        jobs in one batch.  All 7 healthy end ``done`` with their timed
        cells stored exactly once, the poison ends ``quarantined``
        after exactly max_attempts failed executions, and a reopened
        queue replays to the identical terminal states."""
        payloads = [_payload(34 + i) for i in range(8)]
        poison = payloads[3]
        plan = arm_faults(tmp_path, {timed_signature(poison): kill()})
        queue_dir = tmp_path / "queue"
        with plan, ServerThread(
            queue_dir, tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=30.0, max_attempts=3,
            breaker_threshold=100,
        ) as service:
            ids = _submit_all(service, payloads)
            records = [
                poll_job(service.url, job_id, timeout=180.0)
                for job_id in ids
            ]
            stats = get_stats(service.url)

        by_state = {}
        for record in records:
            by_state.setdefault(record["state"], []).append(record)
        assert len(by_state.get("done", ())) == 7
        [quarantined] = by_state["quarantined"]
        assert quarantined["id"] == ids[3]
        assert quarantined["attempts"] == 3
        assert "crash" in quarantined["failure_reason"]
        assert "attempt 3 of 3" in quarantined["failure_reason"]
        # The poison fired at least once per attempt (bisection re-runs
        # it while isolating, so the fire count can exceed the budget).
        assert plan.fires(timed_signature(poison)) >= 3

        # Exactly-once: 7 healthy timed cells -> 7 stores, regardless
        # of how many times the pool died around them.  (The poison's
        # cell is killed before it can compute, so it never stores.)
        assert stats["cache"]["session"]["timed"]["stores"] == 7
        containment = stats["containment"]
        assert containment["retries"] == 2
        assert containment["quarantined"] == 1
        assert containment["pool_crashes"] >= 3
        assert containment["bisections"] >= 1

        # Replay: a fresh process reads the identical terminal states.
        replayed = JobQueue(queue_dir)
        try:
            final = {record["id"]: record for record in records}
            for job_id, expected in final.items():
                job = replayed.get(job_id)
                assert job.state.value == expected["state"]
                assert job.attempts == expected["attempts"]
                assert job.failure_reason == expected["failure_reason"]
            assert not replayed.running_jobs()
        finally:
            replayed.close()


class TestPoisonKillWithoutDeadline:
    def test_worker_death_ends_in_a_verdict_not_a_hang(self, tmp_path):
        """A pool worker killed on a ``jobs=2`` server with no
        ``job_timeout`` (so no lease either) is a pool crash with a
        verdict: the poison quarantines after its attempts, and its
        healthy batchmates are done on their first execution with each
        timed cell stored exactly once."""
        payloads = [_payload(34 + i) for i in range(4)]
        poison = payloads[1]
        plan = arm_faults(tmp_path, {timed_signature(poison): kill()})
        with plan, ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=2, max_batch=8, max_attempts=2, breaker_threshold=100,
        ) as service:
            ids = _submit_all(service, payloads)
            records = [
                poll_job(service.url, job_id, timeout=180.0)
                for job_id in ids
            ]
            stats = get_stats(service.url)

        assert [record["state"] for record in records] == [
            "done", "quarantined", "done", "done",
        ]
        assert [record["attempts"] for record in records] == [0, 2, 0, 0]
        assert "crash" in records[1]["failure_reason"]
        disk = ArtifactCache(tmp_path / "cache").disk_stats()
        assert disk["timed"][0] == 3
        assert stats["containment"]["job_timeout"] is None
        assert stats["containment"]["quarantined"] == 1
        assert stats["containment"]["pool_crashes"] >= 2


class TestCliPoolKill:
    def test_cli_exits_nonzero_and_names_the_cell(self, tmp_path):
        """``repro sweep --jobs 2`` under the same kill fault: the CLI
        isolates the poison, exits non-zero in bounded time, and names
        the cell instead of hanging or assembling around it."""
        poison = _payload(42)
        plan = arm_faults(tmp_path, {timed_signature(poison): kill()})
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), **plan.env)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--profile", "tiny",
             "--jobs", "2", "--axis", "regfile", "--values", "34,42",
             "--workloads", "li_like",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert timed_signature(poison)[:12] in result.stderr
        assert "li_like" in result.stderr
        assert "crash" in result.stderr


class TestPoisonHang:
    def test_hung_cell_times_out_healthy_completes(self, tmp_path):
        """A cell that never returns blows the deadline: the pool is
        killed, the healthy batchmate still completes, and the hung job
        is quarantined with a timeout diagnostic."""
        healthy, poison = _payload(40), _payload(41)
        plan = arm_faults(
            tmp_path, {timed_signature(poison): hang(hang_seconds=120.0)}
        )
        with plan, ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=6.0, max_attempts=1,
            breaker_threshold=100,
        ) as service:
            ids = _submit_all(service, [healthy, poison])
            records = [
                poll_job(service.url, job_id, timeout=120.0)
                for job_id in ids
            ]
            stats = get_stats(service.url)
        assert records[0]["state"] == "done"
        assert records[1]["state"] == "quarantined"
        assert records[1]["attempts"] == 1
        assert "timeout" in records[1]["failure_reason"]
        assert stats["containment"]["timeouts"] >= 1
        assert stats["containment"]["quarantined"] == 1


class TestPoisonRaise:
    def test_raising_cell_retried_then_quarantined(self, tmp_path):
        """An ordinary worker exception never touches the pool: the
        healthy batchmate completes on the first attempt, and the
        raising job burns its retry budget and quarantines with the
        exception text in the diagnostic."""
        healthy, poison = _payload(44), _payload(45)
        plan = arm_faults(tmp_path, {timed_signature(poison): raise_()})
        with plan, ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=30.0, max_attempts=2,
            breaker_threshold=100,
        ) as service:
            ids = _submit_all(service, [healthy, poison])
            records = [
                poll_job(service.url, job_id, timeout=120.0)
                for job_id in ids
            ]
            stats = get_stats(service.url)
        assert records[0]["state"] == "done"
        assert records[1]["state"] == "quarantined"
        assert records[1]["attempts"] == 2
        assert "error" in records[1]["failure_reason"]
        assert "injected fault" in records[1]["failure_reason"]
        # One fire per attempt: the pool survives a raise, so there is
        # no bisection re-run to inflate the count.
        assert plan.fires(timed_signature(poison)) == 2
        assert stats["containment"]["retries"] == 1
        assert stats["containment"]["pool_crashes"] == 0


class TestTransientFault:
    def test_transient_crash_recovers_within_budget(self, tmp_path):
        """A fault that fires twice and then stops models a transient
        (bad node, racy resource): the job survives on its third
        execution with the attempt history preserved on the record."""
        payload = _payload(48)
        plan = arm_faults(
            tmp_path, {timed_signature(payload): kill(max_fires=2)}
        )
        with plan, ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=30.0, max_attempts=3,
            breaker_threshold=100,
        ) as service:
            [job_id] = _submit_all(service, [payload])
            record = poll_job(service.url, job_id, timeout=120.0)
            stats = get_stats(service.url)
        assert record["state"] == "done"
        assert record["attempts"] == 2  # two failed executions survived
        assert plan.fires(timed_signature(payload)) == 2
        assert stats["containment"]["retries"] == 2
        assert stats["containment"]["quarantined"] == 0


class TestNoFaults:
    def test_contained_path_without_faults_is_invisible(self, tmp_path):
        """With deadlines on but nothing injected, the contained
        executor is behaviorally identical: jobs complete, no
        containment counters move."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=60.0,
        ) as service:
            ids = _submit_all(service, [_payload(50), _payload(51)])
            records = [
                poll_job(service.url, job_id, timeout=120.0)
                for job_id in ids
            ]
            stats = get_stats(service.url)
        assert [record["state"] for record in records] == ["done", "done"]
        assert all(record["attempts"] == 0 for record in records)
        containment = stats["containment"]
        assert containment["retries"] == 0
        assert containment["quarantined"] == 0
        assert containment["timeouts"] == 0
        assert containment["pool_crashes"] == 0


class TestShutdownDuringBisection:
    def test_shutdown_kills_the_pool_mid_bisection_hang(self, tmp_path):
        """Shutting the pool down while a bisection half hangs on it
        kills the pool's workers at once, fails the unfinished cell as
        ``shutdown`` and lets ``run_contained`` return, instead of
        leaving the worker hung until the deadline.

        One worker makes the order exact: the kill cell breaks the pool
        before the hang cell starts, bisection isolates the kill on the
        respawned pool, and the hang then runs on the next respawn."""
        poison, hung = (
            Job("timed", "li_like", dvi=DVIConfig.none(),
                machine=MachineConfig.micro97().with_phys_regs(size))
            for size in (40, 44)
        )
        plan = arm_faults(tmp_path, {
            poison.signature(): kill(),
            hung.signature(): hang(hang_seconds=120.0),
        })
        with plan:
            shared = WarmPool(1)
            context = ExperimentContext(
                ExperimentProfile.tiny(),
                cache=ArtifactCache(tmp_path / "cache"), pool=shared,
            )
            reports = []
            batch = threading.Thread(target=lambda: reports.append(
                run_contained([poison, hung], context, job_timeout=60.0)
            ))
            batch.start()
            try:
                deadline = time.monotonic() + 60.0
                while (plan.fires(hung.signature()) == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert plan.fires(hung.signature()) == 1
                workers = pool_worker_pids(os.getpid())
                assert workers, "the hung cell's worker is not running"
                shared.shutdown()
                gone_by = time.monotonic() + 5.0
                while (any(map(running_pid, workers))
                       and time.monotonic() < gone_by):
                    time.sleep(0.05)
                assert not [pid for pid in workers if running_pid(pid)]
                batch.join(timeout=10.0)
                assert not batch.is_alive(), "run_contained did not return"
            finally:
                shared.shutdown()
                for pid in pool_worker_pids(os.getpid()):
                    os.kill(pid, 9)  # never leak a failure's orphan
                batch.join(timeout=60.0)
        failures = reports[0].failures
        assert failures[poison.signature()].kind == "crash"
        assert failures[hung.signature()].kind == "shutdown"
        assert shared.rebuilds >= 2  # the kill, then the bisected kill
