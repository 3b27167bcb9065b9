"""End-to-end tests for the live operations surface.

Real sockets against :class:`ServerThread`: the SSE stream shows a full
job lifecycle without polling, ``?trace=1`` returns a span timeline
that telescopes to wall time, ``/v1/metrics`` renders valid Prometheus
text and a JSON mirror, ``/dashboard`` serves the self-contained page,
a slow SSE consumer is bounded and marked (never blocking the
dispatcher), and the ``watch`` CLI / ``--log-json`` plumbing both speak
the same event records.
"""

import contextlib
import io
import json
import logging
import socket
import struct
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.__main__ import main
from repro.service.client import (
    compact_queue,
    get_job,
    get_metrics,
    get_stats,
    stream_events,
    submit_job,
    poll_job,
)
from repro.service.dispatcher import Dispatcher
from repro.service.metrics import _GAUGE_KEYS, parse_prometheus
from repro.service.queue import JobQueue, JobState
from repro.service.server import ServerThread

PAYLOAD = {
    "kind": "sweep", "axis": "regfile", "values": ["34"],
    "workloads": ["li_like"], "profile": "tiny",
}


@pytest.fixture
def service(tmp_path):
    with ServerThread(tmp_path / "queue", tmp_path / "cache") as thread:
        yield thread


def _tail(url, events, count, **kwargs):
    """Collect up to *count* SSE events into *events* (thread target)."""
    with contextlib.suppress(Exception):
        for event in stream_events(url, max_events=count, **kwargs):
            events.append(event)


class TestEventStream:
    def test_full_lifecycle_over_sse_without_polling(self, service):
        events = []
        tailer = threading.Thread(
            target=_tail, args=(service.url, events, 40),
            kwargs={"timeout": 10.0}, daemon=True,
        )
        tailer.start()
        time.sleep(0.2)  # let the subscription attach
        receipt = submit_job(service.url, PAYLOAD, client="sse")
        job = poll_job(service.url, receipt["id"], timeout=120.0)
        assert job["state"] == "done"
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            states = [e.get("state") for e in events
                      if e.get("event") == "job"
                      and e.get("id") == receipt["id"]]
            if "done" in states:
                break
            time.sleep(0.05)
        assert events[0]["event"] == "hello"
        assert "stats" in events[0]
        states = [e.get("state") for e in events
                  if e.get("event") == "job"
                  and e.get("id") == receipt["id"]]
        # The whole lifecycle arrived as push events, in order.
        assert states[0] == "queued"
        assert states[-1] == "done"
        assert "running" in states
        kinds = {e.get("event") for e in events}
        assert "batch" in kinds

    def test_events_carry_seq_and_ts(self, service):
        events = []
        tailer = threading.Thread(
            target=_tail, args=(service.url, events, 5),
            kwargs={"timeout": 10.0}, daemon=True,
        )
        tailer.start()
        time.sleep(0.2)
        submit_job(service.url, PAYLOAD, client="seq")
        tailer.join(timeout=15.0)
        published = [e for e in events if e.get("event") != "hello"]
        assert published, "no bus events arrived"
        seqs = [e["seq"] for e in published]
        assert seqs == sorted(seqs)
        assert all(e["ts"] > 0 for e in published)


class TestTrace:
    def test_trace_timeline_sums_to_wall_time(self, service):
        receipt = submit_job(service.url, PAYLOAD, client="trace")
        job = poll_job(service.url, receipt["id"], timeout=120.0)
        assert job["state"] == "done"
        record = get_job(service.url, receipt["id"] + "?trace=1")
        trace = record["trace"]
        stages = [span["stage"] for span in trace["spans"]]
        assert stages[0] == "queued"
        assert stages[-1] == "done"
        assert {"claimed", "batched", "executed", "assembled"} \
            <= set(stages)
        total = sum(span["duration_ms"] for span in trace["spans"])
        assert total == pytest.approx(trace["total_ms"], abs=0.01)
        assert trace["total_ms"] > 0

    def test_cache_hit_short_circuit_is_traced(self, service):
        first = submit_job(service.url, PAYLOAD, client="warm")
        poll_job(service.url, first["id"], timeout=120.0)
        # Compact away the terminal record so the resubmission makes a
        # NEW job (an identical submission against a retained record
        # would coalesce to the old id); the artifact cache still holds
        # the result, so the new job takes the cache-hit span, never
        # the execution pipeline.
        compact_queue(service.url, retain_terminal=0)
        second = submit_job(service.url, PAYLOAD, client="warm")
        assert second["id"] != first["id"]
        job = poll_job(service.url, second["id"], timeout=60.0)
        assert job["state"] == "done"
        record = get_job(service.url, second["id"] + "?trace=1")
        stages = [span["stage"] for span in record["trace"]["spans"]]
        assert "cache_hit" in stages
        assert "executed" not in stages

    def test_cache_hit_submit_leaves_nothing_to_claim(self, tmp_path):
        """A cached resubmission is queued and completed in one step.

        The drain thread may run between any two journal writes of the
        submit path.  Here it runs the moment ``queue.submit`` returns,
        and still finds nothing to claim: the job reads queued ->
        cache_hit -> done, from the cache, and no cell runs again.
        """
        queue = JobQueue(tmp_path / "queue")
        dispatcher = Dispatcher(queue, tmp_path / "cache")
        first = dispatcher.submit(dict(PAYLOAD), "warm")
        while dispatcher.drain_once():
            pass
        assert queue.get(first.id).state is JobState.DONE
        queue.compact(retain_terminal=0)
        executed = dispatcher.stats.cells_executed
        submit = queue.submit

        def submit_then_drain(*args, **kwargs):
            submitted = submit(*args, **kwargs)
            dispatcher.drain_once()
            return submitted

        queue.submit = submit_then_drain
        second = dispatcher.submit(dict(PAYLOAD), "warm")
        assert second.id != first.id
        assert (second.state, second.source) == (JobState.DONE, "cache")
        spans = dispatcher.tracer.trace(second.id)["spans"]
        assert [span["stage"] for span in spans] == [
            "queued", "cache_hit", "done",
        ]
        assert dispatcher.stats.cells_executed == executed
        assert dispatcher.stats.jobs_from_cache == 1
        queue.close()

    def test_record_without_trace_param_has_no_trace(self, service):
        receipt = submit_job(service.url, PAYLOAD, client="plain")
        poll_job(service.url, receipt["id"], timeout=120.0)
        record = get_job(service.url, receipt["id"])
        assert "trace" not in record


class TestMetricsEndpoint:
    def test_prometheus_text_parses_and_has_percentiles(self, service):
        receipt = submit_job(service.url, PAYLOAD, client="prom")
        poll_job(service.url, receipt["id"], timeout=120.0)
        text = get_metrics(service.url)
        parsed = parse_prometheus(text)
        assert parsed["repro_queue_depth"] == 0.0
        assert parsed["repro_schema_version"] == 4.0
        assert parsed['repro_queue_jobs{state="done"}'] >= 1.0
        assert any(
            name.startswith("repro_stage_latency_seconds_bucket")
            for name in parsed
        )
        # The JSON mirror carries the quantile summaries.
        document = get_metrics(service.url, fmt="json")
        executed = document["stages"]["executed"]
        assert executed["count"] >= 1
        assert executed["p99_ms"] >= executed["p50_ms"] >= 0

    def test_content_type_is_prometheus_text(self, service):
        response = urllib.request.urlopen(service.url + "/v1/metrics")
        assert response.headers["Content-Type"].startswith("text/plain")
        assert "version=0.0.4" in response.headers["Content-Type"]

    def test_series_that_can_go_down_are_gauges(self, tmp_path):
        """Every ``_GAUGE_KEYS`` name is rendered and typed ``gauge``,
        and so are the values that drop and the configured limits: a
        counter that goes down reads as a reset to ``rate()``."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=2, quota=4, max_queue_depth=8, job_timeout=60,
        ) as service:
            text = get_metrics(service.url)
        types = dict(
            line.split()[2:4] for line in text.splitlines()
            if line.startswith("# TYPE ")
        )
        for name in sorted(_GAUGE_KEYS):
            assert types.get(name) == "gauge", name
        for name in (
            "repro_queue_compaction_journal_events",
            "repro_workers_utilization",
            "repro_containment_breaker_open",
            "repro_workers_warm_pool_live",
            "repro_workers_max_batch",
            "repro_workers_pool_size",
            "repro_workers_warm_pool_workers",
            "repro_containment_max_attempts",
            "repro_admission_max_body_bytes",
            "repro_admission_quota",
            "repro_admission_max_queue_depth",
            "repro_containment_job_timeout",
        ):
            assert types[name] == "gauge", name
        assert types["repro_dispatcher_cells_executed"] == "counter"

    def test_stats_satellite_fields(self, service):
        stats = get_stats(service.url)
        assert stats["schema_version"] == 4
        assert stats["started_at"] > 0
        assert stats["uptime_seconds"] >= 0
        time.sleep(0.05)
        later = get_stats(service.url)
        assert later["uptime_seconds"] > stats["uptime_seconds"]
        assert later["started_at"] == stats["started_at"]


class TestDashboard:
    def test_dashboard_serves_self_contained_page(self, service):
        response = urllib.request.urlopen(service.url + "/dashboard")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/html")
        html = response.read().decode("utf-8")
        assert "EventSource" in html
        assert "/v1/events" in html
        assert "<script>" in html
        # Zero dependencies: nothing fetched from anywhere but the
        # serving origin.
        assert "http://" not in html.replace(service.url, "")
        assert "https://" not in html
        assert "src=" not in html  # no external scripts/images


class TestSlowConsumer:
    def test_slow_subscriber_is_bounded_and_marked(self, service):
        # A tiny SSE buffer against a burst of publishes: the stream
        # must stay bounded, deliver an explicit dropped marker, and
        # the dispatcher must keep completing jobs at full rate.
        events = []
        tailer = threading.Thread(
            target=_tail, args=(service.url, events, 2000),
            kwargs={"timeout": 10.0, "buffer": 2}, daemon=True,
        )
        tailer.start()
        time.sleep(0.2)
        # Flood the bus faster than the 20 Hz SSE poll loop drains it.
        for index in range(12):
            values = [str(33 + (index % 32))]
            payload = dict(PAYLOAD, values=values)
            receipt = submit_job(service.url, payload, client="flood")
        poll_job(service.url, receipt["id"], timeout=180.0)
        time.sleep(0.5)
        bus_stats = get_stats(service.url)["events"]
        assert bus_stats["dropped"] > 0, (
            "flood did not overrun the size-2 buffer"
        )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not any(
            e.get("event") == "dropped" for e in events
        ):
            time.sleep(0.05)
        markers = [e for e in events if e.get("event") == "dropped"]
        assert markers, "no dropped marker delivered to the consumer"
        assert all(m["count"] >= 1 for m in markers)
        # Dispatcher throughput was unaffected: every submission
        # reached a terminal verdict despite the stalled-ish consumer.
        stats = get_stats(service.url)
        assert stats["dispatcher"]["jobs_completed"] \
            + stats["dispatcher"]["jobs_from_cache"] >= 1
        assert stats["queue"]["depth"] == 0

    @pytest.mark.parametrize("reset", [False, True], ids=["fin", "rst"])
    def test_departed_subscriber_is_logged_499_without_dead_writes(
            self, service, caplog, reset):
        # A subscriber hangs up while a backlog is pending.  After a FIN
        # the first frame written to the dead socket closes the
        # transport, and the rest of the backlog must stop there
        # instead of piling onto it (asyncio warns once per write past
        # the fifth).  An RST closes the transport before any write.
        # Either way the access record says the client went away.
        caplog.set_level(logging.WARNING, logger="asyncio")
        bus = service.server.events
        url = urllib.parse.urlsplit(service.url)
        with bus.subscribe(maxsize=4096) as records:
            with socket.create_connection(
                (url.hostname, url.port), timeout=10.0
            ) as subscriber:
                subscriber.sendall(
                    b"GET /v1/events HTTP/1.1\r\nHost: test\r\n\r\n")
                seen = b""
                while not (b"data: " in seen and seen.endswith(b"\n\n")):
                    chunk = subscriber.recv(65536)
                    assert chunk, "stream closed before the hello frame"
                    seen += chunk
                if reset:
                    subscriber.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                          struct.pack("ii", 1, 0))
            access = None
            deadline = time.monotonic() + 10.0
            while access is None and time.monotonic() < deadline:
                for index in range(20):  # published within one poll tick
                    bus.publish({"event": "probe", "index": index})
                settle = time.monotonic() + 0.5
                while access is None and time.monotonic() < settle:
                    event = records.pop(timeout=0.05)
                    if event is not None and event.get("event") == "http" \
                            and event.get("path") == "/v1/events":
                        access = event
        assert access is not None, "the stream never logged its end"
        assert access["status"] == 499
        dead_writes = [
            record for record in caplog.records
            if record.name == "asyncio"
            and "socket.send() raised exception" in record.getMessage()
        ]
        assert dead_writes == []

    def test_buffer_param_is_clamped(self, service):
        # Absurd values must not allocate absurd buffers or error.
        events = []
        tailer = threading.Thread(
            target=_tail, args=(service.url, events, 2),
            kwargs={"timeout": 5.0, "buffer": 10_000_000}, daemon=True,
        )
        tailer.start()
        time.sleep(0.2)
        submit_job(service.url, PAYLOAD, client="clamp")
        tailer.join(timeout=10.0)
        assert events and events[0]["event"] == "hello"


class TestWatchCLI:
    def test_watch_renders_lifecycle(self, service):
        out = io.StringIO()

        def run():
            with contextlib.redirect_stdout(out):
                main(["watch", "--url", service.url,
                      "--max-events", "6"])

        watcher = threading.Thread(target=run, daemon=True)
        watcher.start()
        time.sleep(0.2)
        receipt = submit_job(service.url, PAYLOAD, client="cli")
        poll_job(service.url, receipt["id"], timeout=120.0)
        watcher.join(timeout=30.0)
        text = out.getvalue()
        assert "connected" in text
        assert receipt["id"] in text
        assert "queued" in text

    def test_watch_json_mode_emits_parseable_lines(self, service):
        out = io.StringIO()

        def run():
            with contextlib.redirect_stdout(out):
                main(["watch", "--url", service.url, "--json",
                      "--max-events", "4"])

        watcher = threading.Thread(target=run, daemon=True)
        watcher.start()
        time.sleep(0.2)
        submit_job(service.url, PAYLOAD, client="cli-json")
        watcher.join(timeout=30.0)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 4
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["event"] == "hello"


class TestStatusCLI:
    def test_status_prints_every_section(self, service):
        receipt = submit_job(service.url, PAYLOAD, client="status")
        poll_job(service.url, receipt["id"], timeout=120.0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["status", "--url", service.url]) == 0
        lines = out.getvalue().splitlines()
        for prefix in ("queue depth:", "journal:", "submissions:",
                       "batches:", "containment:", "pool size:"):
            assert any(line.startswith(prefix) for line in lines), prefix
        assert "cells executed: 1" in out.getvalue()

    def test_status_job_prints_the_record(self, service):
        receipt = submit_job(service.url, PAYLOAD, client="status")
        poll_job(service.url, receipt["id"], timeout=120.0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["status", "--url", service.url,
                         "--job", receipt["id"]]) == 0
        record = json.loads(out.getvalue())
        assert record["id"] == receipt["id"]
        assert record["state"] == "done"


class TestLogJson:
    def test_log_thread_prints_event_records(self, tmp_path, capfd):
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", log_json=True
        ) as service:
            receipt = submit_job(service.url, PAYLOAD, client="logs")
            poll_job(service.url, receipt["id"], timeout=120.0)
            time.sleep(0.5)
        captured = capfd.readouterr().out
        records = [
            json.loads(line) for line in captured.splitlines() if line
        ]
        kinds = [record["event"] for record in records]
        assert "serving" in kinds
        assert "job" in kinds
        http = [r for r in records if r["event"] == "http"]
        assert http, "no access records logged"
        sample = http[0]
        assert {"method", "path", "status", "duration_ms", "ts"} \
            <= set(sample)
        post = [r for r in http
                if r["method"] == "POST" and r["path"] == "/v1/jobs"]
        assert post and post[0]["client"] == "logs"
        assert "stopped" in kinds
