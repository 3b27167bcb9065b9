"""The server's one drain loop: one fused batch at a time.

One thread claims and executes every batch, so batches never overlap.
A cell two batches share (a trace under two machine configurations, a
timed cell two requests enumerate) is computed by the first and read
from the disk cache by the second.  A drain-level failure is reported
and the loop keeps draining.  A submit that queues a job wakes the
idle loop, so the job never waits out the loop's idle timeout.  The
worker pool is sized ``jobs``, and ``repro serve`` has no
``--workers`` knob.
"""

import threading
import time

import pytest

import repro.service.server as server_module
from repro.__main__ import main
from repro.service.client import get_stats, poll_job, submit_job
from repro.service.dispatcher import Dispatcher
from repro.service.queue import JobQueue
from repro.service.server import ServerThread

#: Four distinct single-cell requests over one workload (one trace).
VALUES = ("34", "42", "50", "64")


def _payload(value: str) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [value],
            "workloads": ["li_like"], "profile": "tiny"}


def _events(subscription) -> list:
    events = []
    event = subscription.pop_nowait()
    while event is not None:
        events.append(event)
        event = subscription.pop_nowait()
    return events


class TestOneBatchAtATime:
    def test_batches_never_overlap(self, tmp_path):
        """Racing submissions, one job per batch: every batch runs on
        the one drain thread, and no batch starts before the last one
        finished."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", max_batch=1,
        ) as service:
            dispatcher = service.dispatcher
            run_batch = dispatcher._run_batch
            lock = threading.Lock()
            running, peak, threads = [0], [0], set()

            def watched(*args, **kwargs):
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                    threads.add(threading.get_ident())
                try:
                    time.sleep(0.05)  # widen the window an overlap needs
                    return run_batch(*args, **kwargs)
                finally:
                    with lock:
                        running[0] -= 1

            dispatcher._run_batch = watched
            receipts = []
            posters = [
                threading.Thread(target=lambda value=value: receipts.append(
                    submit_job(service.url, _payload(value), client=value)
                ))
                for value in VALUES
            ]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(timeout=60)
            records = [
                poll_job(service.url, receipt["id"], timeout=240.0)
                for receipt in receipts
            ]
            stats = get_stats(service.url)
        assert [record["state"] for record in records] == ["done"] * 4
        assert stats["dispatcher"]["batches"] == len(VALUES)
        assert peak[0] == 1
        assert len(threads) == 1

    def test_later_batch_reads_shared_dependencies_from_disk(
        self, tmp_path
    ):
        """Two batches of distinct timed cells over one workload: the
        first computes the shared trace and binary, the second reads the
        trace from the disk cache."""
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(queue, tmp_path / "cache", max_batch=1)
        for value in VALUES[:2]:
            dispatcher.submit(_payload(value), value)
        assert dispatcher.drain_once() == 1
        assert dispatcher.drain_once() == 1
        assert dispatcher.drain_once() == 0
        snapshot = dispatcher.snapshot()
        queue.close()
        assert snapshot["queue"]["states"]["done"] == 2
        assert snapshot["dispatcher"]["batches"] == 2
        assert snapshot["dispatcher"]["cells_executed"] == 2
        session = snapshot["cache"]["session"]
        assert {kind: session[kind]["misses"]
                for kind in ("binary", "trace", "timed")} == {
            "binary": 1, "trace": 1, "timed": 2,
        }
        assert session["trace"]["hits"] == 1


class TestDrainLoopSurvivesErrors:
    def test_drain_error_is_reported_and_the_loop_keeps_draining(
        self, tmp_path
    ):
        """A failure escaping ``drain_once`` (a journal write, say) is
        published as a ``drain_error`` event; after its back-off the
        same loop claims and completes the queued job."""
        service = ServerThread(tmp_path / "queue", tmp_path / "cache")
        dispatcher = service.dispatcher
        drain_once = dispatcher.drain_once
        failed = []

        def fails_once():
            if not failed:
                failed.append(True)
                raise OSError("journal write failed")
            return drain_once()

        dispatcher.drain_once = fails_once
        subscription = service.server.events.subscribe(maxsize=1024)
        with service:
            receipt = submit_job(service.url, _payload("34"), client="a")
            record = poll_job(service.url, receipt["id"], timeout=240.0)
        assert record["state"] == "done"
        [error] = [event for event in _events(subscription)
                   if event["event"] == "drain_error"]
        assert error["error"] == "OSError: journal write failed"
        assert set(error) == {"event", "error", "seq", "ts"}


class TestWakeOnSubmit:
    """With the idle timeout at a minute, only the wake can get a job
    claimed within the test's deadline."""

    def test_submit_wakes_the_idle_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "_IDLE_POLL_SECONDS", 60.0)
        service = ServerThread(tmp_path / "queue", tmp_path / "cache")
        dispatcher = service.dispatcher
        drain_once = dispatcher.drain_once
        idle = threading.Event()

        def watched():
            handled = drain_once()
            if not handled:
                idle.set()
            return handled

        dispatcher.drain_once = watched
        with service:
            assert idle.wait(timeout=30.0)
            receipt = submit_job(service.url, _payload("34"), client="a")
            record = poll_job(service.url, receipt["id"], timeout=10.0)
        assert record["state"] == "done"

    def test_submit_during_an_idle_claim_is_not_lost(
        self, tmp_path, monkeypatch
    ):
        """One idle ``drain_once`` returns 0 only after the POST has
        returned, as when its ``has_pending`` check ran just before the
        submit: the wake that submit set must survive the call."""
        monkeypatch.setattr(server_module, "_IDLE_POLL_SECONDS", 60.0)
        service = ServerThread(tmp_path / "queue", tmp_path / "cache")
        dispatcher = service.dispatcher
        drain_once = dispatcher.drain_once
        checked, posted = threading.Event(), threading.Event()

        def idle_across_the_submit():
            handled = drain_once()
            if not handled and not checked.is_set():
                checked.set()
                posted.wait(timeout=30.0)
            return handled

        dispatcher.drain_once = idle_across_the_submit
        with service:
            assert checked.wait(timeout=30.0)
            receipt = submit_job(service.url, _payload("34"), client="a")
            posted.set()
            record = poll_job(service.url, receipt["id"], timeout=10.0)
        assert record["state"] == "done"


class TestPoolSizing:
    def test_pool_is_sized_jobs(self, tmp_path):
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(queue, tmp_path / "cache", jobs=3)
        try:
            assert dispatcher.pool.max_workers == 3
            assert dispatcher.snapshot()["workers"]["pool_size"] == 3
        finally:
            dispatcher.shutdown_pool()
            queue.close()

    def test_serve_has_no_workers_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
