"""End-to-end service tests: dispatcher batching/dedup and the HTTP API.

Pins the PR's acceptance bar: N concurrent HTTP submissions of the same
tiny sweep must collapse into one underlying computation, every response
must be byte-identical to the direct (serial, in-process)
:func:`~repro.experiments.sweep.run_sweep` result, and a warm
resubmission must be served from the artifact cache without invoking a
single simulator.
"""

import json
import threading

import pytest

from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import adhoc_spec, run_sweep
from repro.service.client import (
    ServiceError,
    compact_queue,
    get_job,
    get_result,
    get_stats,
    submit_and_wait,
    submit_job,
)
from repro.service.dispatcher import (
    Dispatcher,
    RequestError,
    normalize_request,
    sweep_title,
)
from repro.service.queue import JobQueue, JobState
from repro.service.server import ServerThread

TINY = ExperimentProfile.tiny()

#: The cheapest real request: one timed cell (li_like @ 34 registers).
PAYLOAD = {"kind": "sweep", "axis": "regfile", "values": ["34"],
           "workloads": ["li_like"], "profile": "tiny"}


@pytest.fixture(scope="module")
def expected_document():
    """The direct, serial run_sweep manifest the service must reproduce."""
    spec = adhoc_spec("regfile", TINY, values=["34"], workloads=["li_like"])
    result = run_sweep(
        spec, TINY, ExperimentContext(TINY),
        title=sweep_title("regfile", TINY),
    )
    return render_manifest(TINY.name, {spec.name: result}).encode("utf-8")


class TestNormalize:
    def test_defaults_resolved_to_explicit_values(self):
        request = normalize_request({"axis": "regfile", "profile": "tiny"})
        assert request["values"] == list(TINY.regfile_sizes)
        assert request["workloads"] == list(TINY.workloads)
        assert request["kind"] == "sweep"

    def test_equivalent_spellings_share_identity(self):
        explicit = normalize_request({
            "kind": "sweep", "axis": "regfile",
            "values": [str(v) for v in TINY.regfile_sizes],
            "workloads": list(TINY.workloads), "profile": "tiny",
        })
        defaulted = normalize_request({"axis": "regfile", "profile": "tiny"})
        assert explicit == defaulted

    def test_bad_axis_profile_target_and_kind(self):
        with pytest.raises(RequestError, match="sweep axis"):
            normalize_request({"axis": "nonsense", "profile": "tiny"})
        with pytest.raises(RequestError, match="profile"):
            normalize_request({"axis": "regfile", "profile": "huge"})
        with pytest.raises(RequestError, match="figure target"):
            normalize_request({"kind": "figure", "target": "fig99",
                               "profile": "tiny"})
        with pytest.raises(RequestError, match="kind"):
            normalize_request({"kind": "dance", "profile": "tiny"})
        with pytest.raises(RequestError, match="bad value"):
            normalize_request({"axis": "regfile", "values": ["many"],
                               "profile": "tiny"})

    def test_type_malformed_payloads_are_400s_not_500s(self):
        with pytest.raises(RequestError, match="'values' must be a list"):
            normalize_request({"axis": "regfile", "values": 42,
                               "profile": "tiny"})
        with pytest.raises(RequestError, match="'workloads' must be a list"):
            normalize_request({"axis": "regfile", "workloads": 5,
                               "profile": "tiny"})
        with pytest.raises(RequestError, match="figure target"):
            normalize_request({"kind": "figure", "target": ["fig9"],
                               "profile": "tiny"})


class TestDispatcher:
    def _dispatcher(self, tmp_path, **kwargs):
        return Dispatcher(
            JobQueue(tmp_path / "queue"), tmp_path / "cache", **kwargs
        )

    def test_batch_fuses_jobs_and_dedups_cells(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        # Two overlapping sweeps: {34} and {34, 42} share the 34 cell.
        a = dispatcher.submit(dict(PAYLOAD), "alice")
        b = dispatcher.submit(dict(PAYLOAD, values=["34", "42"]), "bob")
        assert a.id != b.id
        handled = dispatcher.drain_once()
        assert handled == 2
        assert dispatcher.stats.batches == 1
        # 3 enumerated timed cells, but the shared one ran once.
        assert dispatcher.stats.cells_executed == 2
        for job in (a, b):
            assert dispatcher.queue.get(job.id).state is JobState.DONE

    def test_duplicate_submission_coalesces(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        first = dispatcher.submit(dict(PAYLOAD), "alice")
        second = dispatcher.submit(dict(PAYLOAD), "bob")
        assert second.id == first.id
        assert dispatcher.stats.coalesced == 1
        assert dispatcher.drain_once() == 1
        assert dispatcher.stats.jobs_completed == 1

    def test_result_matches_direct_run_sweep(
        self, tmp_path, expected_document
    ):
        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(dict(PAYLOAD), "alice")
        dispatcher.drain_once()
        done = dispatcher.queue.get(job.id)
        document = dispatcher.load_result(done.result_key)
        assert document.encode("utf-8") == expected_document

    def test_warm_resubmission_served_from_cache(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(dict(PAYLOAD), "alice")
        dispatcher.drain_once()
        baseline_cells = dispatcher.stats.cells_executed

        # Same cache, fresh queue: the service restarted.
        restarted = Dispatcher(
            JobQueue(tmp_path / "queue2"), tmp_path / "cache"
        )
        warm = restarted.submit(dict(PAYLOAD), "alice")
        assert warm.state is JobState.DONE
        assert warm.source == "cache"
        assert warm.result_key == dispatcher.queue.get(job.id).result_key
        assert restarted.stats.jobs_from_cache == 1
        assert restarted.drain_once() == 0  # nothing left to execute
        assert restarted.stats.cells_executed == 0
        assert dispatcher.stats.cells_executed == baseline_cells
        # Zero simulator invocations: no simulation-kind misses at all.
        assert restarted.cache.misses(
            "binary", "trace", "functional", "timed"
        ) == 0

    def test_figure_job_matches_direct_run(self, tmp_path):
        from repro.experiments import fig9_eliminated

        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(
            {"kind": "figure", "target": "fig9", "profile": "tiny"}, "alice"
        )
        dispatcher.drain_once()
        done = dispatcher.queue.get(job.id)
        assert done.state is JobState.DONE
        expected = render_manifest(
            "tiny", {"fig9": fig9_eliminated.run(TINY, ExperimentContext(TINY))}
        )
        assert dispatcher.load_result(done.result_key) == expected

    def test_worker_pool_batch_uses_spawn_safely(self, tmp_path):
        """jobs > 1 exercises the spawn-context pool (fork is unsafe in
        the threaded server process) and must match the serial result."""
        dispatcher = self._dispatcher(tmp_path, jobs=2)
        job = dispatcher.submit(
            dict(PAYLOAD, values=["34", "42"]), "alice"
        )
        try:
            assert dispatcher.drain_once() == 1
        finally:
            dispatcher.shutdown_pool()
        done = dispatcher.queue.get(job.id)
        assert done.state is JobState.DONE

        serial = self._dispatcher(tmp_path / "serial")
        serial_job = serial.submit(dict(PAYLOAD, values=["34", "42"]),
                                   "alice")
        serial.drain_once()
        assert dispatcher.load_result(done.result_key) == \
            serial.load_result(serial.queue.get(serial_job.id).result_key)

    def test_evicted_result_is_recomputed_not_404(self, tmp_path):
        """A cache gc must not leave a done job pointing at nothing."""
        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(dict(PAYLOAD), "alice")
        dispatcher.drain_once()
        first_key = dispatcher.queue.get(job.id).result_key
        dispatcher.cache.gc(max_bytes=0)  # evict everything
        assert dispatcher.load_result(first_key) is None

        again = dispatcher.submit(dict(PAYLOAD), "alice")
        assert again.id == job.id
        assert again.state is JobState.QUEUED  # requeued, not stale-done
        dispatcher.drain_once()
        done = dispatcher.queue.get(job.id)
        assert done.state is JobState.DONE
        assert dispatcher.load_result(done.result_key) is not None

    def test_batch_failure_does_not_strand_running_jobs(
        self, tmp_path, monkeypatch
    ):
        """A journal/IO error escaping the batch demotes its RUNNING
        jobs back to QUEUED instead of wedging them until restart."""
        dispatcher = self._dispatcher(tmp_path)
        job = dispatcher.submit(dict(PAYLOAD), "alice")

        def boom(*args, **kwargs):
            raise RuntimeError("assembly exploded")

        def disk_dead(*args, **kwargs):
            raise OSError("No space left on device")

        monkeypatch.setattr(dispatcher, "_assemble", boom)
        monkeypatch.setattr(dispatcher.queue, "mark_failed", disk_dead)
        with pytest.raises(OSError):
            dispatcher.drain_once()
        assert dispatcher.queue.get(job.id).state is JobState.QUEUED

        # Once the failure clears, the same job drains to completion.
        monkeypatch.undo()
        assert dispatcher.drain_once() == 1
        assert dispatcher.queue.get(job.id).state is JobState.DONE

    def test_batches_group_by_profile(self, tmp_path):
        dispatcher = self._dispatcher(tmp_path)
        dispatcher.submit(dict(PAYLOAD), "alice")
        dispatcher.submit(dict(PAYLOAD, profile="quick", values=["34"],
                               workloads=["li_like"]), "alice")
        # First drain takes only the head job's profile (tiny).
        assert dispatcher.drain_once() == 1
        assert dispatcher.queue.depth() == 1
        assert dispatcher.drain_once() == 1
        assert dispatcher.queue.depth() == 0


class TestHTTPService:
    def test_concurrent_submissions_one_computation(
        self, tmp_path, expected_document
    ):
        """Eight racing HTTP clients; one simulation; identical bytes."""
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            receipts = [None] * 8
            errors = []

            def post(slot):
                try:
                    receipts[slot] = submit_job(
                        service.url, dict(PAYLOAD), client=f"client-{slot}"
                    )
                except Exception as error:  # surface in the main thread
                    errors.append(error)

            threads = [
                threading.Thread(target=post, args=(slot,))
                for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            # All eight submissions share one job id.
            assert len({r["id"] for r in receipts}) == 1

            documents = [
                submit_and_wait(
                    service.url, dict(PAYLOAD), client=f"client-{slot}",
                    timeout=120,
                )[1]
                for slot in range(8)
            ]
            assert all(doc == expected_document for doc in documents)

            stats = get_stats(service.url)
            assert stats["dispatcher"]["batches"] == 1
            assert stats["dispatcher"]["cells_executed"] == 1
            assert stats["dispatcher"]["jobs_completed"] == 1
            # 8 racing POSTs + 8 submit_and_wait re-submissions = 16
            # submissions total, 15 coalesced onto the one real job.
            assert stats["dispatcher"]["submissions"] == 16
            assert stats["dispatcher"]["coalesced"] == 15

    def test_warm_restart_serves_from_cache_over_http(
        self, tmp_path, expected_document
    ):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            submit_and_wait(service.url, dict(PAYLOAD), timeout=120)

        with ServerThread(tmp_path / "queue2", tmp_path / "cache") as warm:
            job, document = submit_and_wait(
                warm.url, dict(PAYLOAD), timeout=30
            )
            assert job["source"] == "cache"
            assert document == expected_document
            stats = get_stats(warm.url)
            assert stats["dispatcher"]["jobs_from_cache"] == 1
            assert stats["dispatcher"]["batches"] == 0
            assert stats["dispatcher"]["cells_executed"] == 0

    def test_job_record_and_result_endpoints(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            job, _ = submit_and_wait(service.url, dict(PAYLOAD), timeout=120)
            record = get_job(service.url, job["id"])
            assert record["state"] == "done"
            assert record["request"]["values"] == [34]
            assert record["result_location"].startswith("/v1/results/")
            assert json.loads(
                get_result(service.url, record["result_key"])
            )["profile"] == "tiny"

    def test_http_error_paths(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            with pytest.raises(ServiceError, match="sweep axis"):
                submit_job(service.url, {"axis": "bogus", "profile": "tiny"})
            with pytest.raises(ServiceError, match="HTTP 404"):
                get_job(service.url, "job-000099-deadbeef")
            with pytest.raises(ServiceError, match="HTTP 404"):
                get_result(service.url, "ab" * 32)
            # Non-digest keys (path traversal in particular) never
            # reach the filesystem layer.
            with pytest.raises(ServiceError, match="HTTP 404"):
                get_result(service.url, "no-such-digest")
            with pytest.raises(ServiceError, match="HTTP 404"):
                get_result(service.url, "../../../../etc/passwd")
            # A failed job reports its error through the record.
            stats = get_stats(service.url)
            assert stats["queue"]["depth"] == 0

    def test_journal_survives_service_restart(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            job, _ = submit_and_wait(service.url, dict(PAYLOAD), timeout=120)

        # Same queue dir: the finished job is still known after restart.
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as again:
            record = get_job(again.url, job["id"])
            assert record["state"] == "done"
            assert record["result_key"] == job["result_key"]

    def test_stats_expose_worker_and_compaction_counters(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            stats = get_stats(service.url)
            assert stats["workers"]["active"] == 0
            compaction = stats["queue"]["compaction"]
            assert compaction["generation"] == 0
            assert compaction["compactions"] == 0

    def test_stats_read_mid_flush_counts_each_tally_once(self, tmp_path):
        """A stats read racing the drain thread's per-batch counter
        flush sees every cache tally once, not both in the session
        totals and in the live counters the flush has yet to
        subtract."""
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(queue, tmp_path / "cache")
        dispatcher.submit(dict(PAYLOAD), "alice")
        seen = []
        reader = threading.Thread(target=lambda: seen.append(
            dispatcher.snapshot()["cache"]["session"]
        ))
        flush = dispatcher.cache.flush_counters

        def racing_flush():
            reader.start()
            reader.join(timeout=0.5)  # the reader waits for the flush
            flush()

        dispatcher.cache.flush_counters = racing_flush
        assert dispatcher.drain_once() == 1
        reader.join(timeout=10.0)
        assert seen == [dispatcher.snapshot()["cache"]["session"]]
        assert seen[0]["timed"]["misses"] == 1
        queue.close()

    def test_compact_endpoint_snapshots_live_queue(self, tmp_path):
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            job, _ = submit_and_wait(service.url, dict(PAYLOAD), timeout=120)
            report = compact_queue(service.url)
            assert report["generation"] == 1
            assert report["jobs_kept"] == 1
            assert get_stats(
                service.url
            )["queue"]["compaction"]["generation"] == 1
            # The retained job's record survives live compaction ...
            assert get_job(service.url, job["id"])["state"] == "done"

        # ... and a restart replays it from the snapshot.
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as again:
            record = get_job(again.url, job["id"])
            assert record["state"] == "done"
            assert record["result_key"] == job["result_key"]

    def test_compact_endpoint_is_post_only(self, tmp_path):
        import urllib.request

        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{service.url}/v1/compact")
            assert caught.value.code == 405

    def test_compact_endpoint_retain_override(self, tmp_path):
        """retain_terminal forwarded through POST /v1/compact: a zero
        retention drops the finished job, whose result then lives on in
        the artifact cache (resubmission instant-completes)."""
        import urllib.request

        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            job, document = submit_and_wait(
                service.url, dict(PAYLOAD), timeout=120
            )
            report = compact_queue(service.url, retain_terminal=0)
            assert report["jobs_dropped"] == 1 and report["jobs_kept"] == 0
            with pytest.raises(ServiceError, match="HTTP 404"):
                get_job(service.url, job["id"])
            warm_job, warm_document = submit_and_wait(
                service.url, dict(PAYLOAD), timeout=30
            )
            assert warm_job["id"] != job["id"]
            assert warm_job["source"] == "cache"
            assert warm_document == document

            # A malformed retention override is a 400, not a crash.
            request = urllib.request.Request(
                f"{service.url}/v1/compact",
                data=b'{"retain_terminal": -1}', method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request)
            assert caught.value.code == 400
