"""Unit tests for the observability core: bus, tracer, metrics.

Everything here runs in-process with no server — the event bus's
drop/marker contract, the tracer's telescoping span timeline, the
histogram's fixed-bucket quantiles, and the Prometheus renderer/parser
round trip.  The end-to-end surface (SSE over a real socket, /v1/metrics
over HTTP) lives in test_observability.py.
"""

import threading

import pytest

from repro.service.events import (
    LATENCY_BUCKETS,
    SPAN_STAGES,
    EventBus,
    JobTracer,
    StageHistogram,
)
from repro.service.metrics import (
    parse_prometheus,
    render_json,
    render_prometheus,
)


class TestEventBus:
    def test_publish_without_subscribers_is_counted_not_stored(self):
        bus = EventBus()
        assert not bus.active
        bus.publish({"event": "x"})
        stats = bus.stats()
        assert stats["published"] == 1
        assert stats["subscribers"] == 0
        assert stats["dropped"] == 0

    def test_publish_stamps_seq_and_ts(self):
        bus = EventBus()
        with bus.subscribe() as sub:
            bus.publish({"event": "a"})
            bus.publish({"event": "b"})
            first = sub.pop_nowait()
            second = sub.pop_nowait()
        assert first["seq"] == 1
        assert second["seq"] == 2
        assert first["ts"] <= second["ts"]

    def test_subscriber_sees_events_in_order(self):
        bus = EventBus()
        with bus.subscribe() as sub:
            for index in range(10):
                bus.publish({"event": "tick", "index": index})
            seen = [sub.pop_nowait()["index"] for _ in range(10)]
        assert seen == list(range(10))

    def test_active_tracks_subscriptions(self):
        bus = EventBus()
        sub = bus.subscribe()
        assert bus.active
        sub.close()
        assert not bus.active
        assert sub.closed

    def test_closed_subscriber_receives_nothing(self):
        bus = EventBus()
        sub = bus.subscribe()
        sub.close()
        bus.publish({"event": "late"})
        assert sub.pop_nowait() is None

    def test_slow_consumer_drops_newest_and_marks_the_gap(self):
        bus = EventBus()
        sub = bus.subscribe(maxsize=4)
        for index in range(10):
            bus.publish({"event": "tick", "index": index})
        # Backlog is bounded: the four oldest delivered, the six
        # overflow events dropped, then one explicit marker.
        backlog = [sub.pop_nowait() for _ in range(4)]
        assert [event["index"] for event in backlog] == [0, 1, 2, 3]
        marker = sub.pop_nowait()
        assert marker["event"] == "dropped"
        assert marker["count"] == 6
        assert sub.pop_nowait() is None
        assert bus.stats()["dropped"] == 6

    def test_live_events_resume_after_the_marker(self):
        bus = EventBus()
        sub = bus.subscribe(maxsize=1)
        bus.publish({"event": "kept"})
        bus.publish({"event": "lost"})
        assert sub.pop_nowait()["event"] == "kept"
        assert sub.pop_nowait()["event"] == "dropped"
        bus.publish({"event": "fresh"})
        assert sub.pop_nowait()["event"] == "fresh"

    def test_memory_stays_bounded_under_flood(self):
        bus = EventBus()
        sub = bus.subscribe(maxsize=8)
        for index in range(10_000):
            bus.publish({"event": "flood", "index": index})
        assert sub.backlog() <= 8
        assert bus.stats()["dropped"] == 10_000 - 8

    def test_publish_never_blocks_with_stalled_subscriber(self):
        # The real contract behind "a slow consumer never blocks the
        # dispatcher": a full subscription must not slow publish below
        # flood rate.  10k publishes against a size-1 buffer completes
        # (drops recorded), rather than deadlocking or erroring.
        bus = EventBus()
        bus.subscribe(maxsize=1)
        done = threading.Event()

        def flood():
            for index in range(10_000):
                bus.publish({"event": "x", "index": index})
            done.set()

        thread = threading.Thread(target=flood, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert done.is_set(), "publish stalled against a full subscriber"

    def test_pop_timeout_returns_none_on_quiet_bus(self):
        bus = EventBus()
        sub = bus.subscribe()
        assert sub.pop(timeout=0.05) is None

    def test_pop_wakes_on_publish(self):
        bus = EventBus()
        sub = bus.subscribe()
        received = []

        def consume():
            received.append(sub.pop(timeout=5.0))

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        bus.publish({"event": "wake"})
        thread.join(timeout=5.0)
        assert received and received[0]["event"] == "wake"


class TestStageHistogram:
    def test_quantiles_land_in_the_crossing_bucket(self):
        hist = StageHistogram()
        for _ in range(100):
            hist.observe(0.003)  # falls in the (0.0025, 0.005] bucket
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == 5.0
        assert summary["p99_ms"] == 5.0

    def test_quantiles_split_across_buckets(self):
        hist = StageHistogram()
        for _ in range(90):
            hist.observe(0.003)
        for _ in range(10):
            hist.observe(0.4)
        summary = hist.summary()
        assert summary["p50_ms"] == 5.0
        assert summary["p95_ms"] == 500.0

    def test_overflow_lands_in_infinity(self):
        hist = StageHistogram()
        hist.observe(10_000.0)  # beyond the last finite bucket
        counts = hist.cumulative_counts()
        assert counts[-1] == 1
        assert counts[-2] == 0

    def test_empty_summary_is_all_zero(self):
        summary = StageHistogram().summary()
        assert summary["count"] == 0
        assert summary["p50_ms"] == 0.0

    def test_buckets_are_strictly_increasing(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
        assert len(set(LATENCY_BUCKETS)) == len(LATENCY_BUCKETS)


class TestJobTracer:
    def test_span_durations_telescope_to_total(self):
        tracer = JobTracer()
        for stage in ("queued", "claimed", "batched", "executed"):
            tracer.stamp("job-1", stage)
        trace = tracer.trace("job-1")
        assert [span["stage"] for span in trace["spans"]] == [
            "queued", "claimed", "batched", "executed",
        ]
        total = sum(span["duration_ms"] for span in trace["spans"])
        assert total == pytest.approx(trace["total_ms"])
        assert trace["spans"][-1]["duration_ms"] == 0.0

    def test_annotations_ride_on_the_span(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "batched", cells=7)
        trace = tracer.trace("job-1")
        assert trace["spans"][0]["cells"] == 7

    def test_unknown_job_traces_none(self):
        # An unknown (or LRU-evicted) job has no timeline; the API
        # serializes this as JSON null rather than inventing one.
        assert JobTracer().trace("missing") is None

    def test_closed_stages_feed_their_histograms(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "queued")
        tracer.stamp("job-1", "claimed")
        histograms = tracer.histograms()
        assert histograms["queued"].summary()["count"] == 1
        # "claimed" is still the open span: no duration observed yet,
        # so its histogram has not been created at all.
        assert "claimed" not in histograms

    def test_lru_retention_evicts_oldest(self):
        tracer = JobTracer(retain=16)
        for index in range(32):
            tracer.stamp(f"job-{index}", "queued")
        stats = tracer.stats()
        assert stats["jobs_traced"] == 32
        assert stats["jobs_retained"] == 16
        assert tracer.trace("job-0") is None
        assert tracer.trace("job-31")["spans"]

    def test_histogram_order_matches_span_stages(self):
        tracer = JobTracer()
        # Stamp stages in reverse so insertion order disagrees with the
        # canonical order; histograms() must still sort by SPAN_STAGES.
        for index, stage in enumerate(reversed(SPAN_STAGES)):
            tracer.stamp(f"job-{index}", stage)
            tracer.stamp(f"job-{index}", "done")
        observed = tuple(tracer.histograms())
        canonical = [s for s in SPAN_STAGES if s in observed]
        assert list(observed) == canonical


def _sample_snapshot():
    """A minimal but shape-faithful dispatcher snapshot."""
    return {
        "schema_version": 4,
        "started_at": 1000.0,
        "uptime_seconds": 12.5,
        "queue": {
            "depth": 3,
            "states": {"queued": 3, "running": 0, "done": 5,
                       "failed": 1, "quarantined": 0},
            "compaction": {"generation": 2, "compactions": 1,
                           "events_folded": 10, "jobs_dropped": 0,
                           "journal_events": 4},
        },
        "dispatcher": {"submissions": 9, "coalesced": 2},
        "cache": {
            "session": {"sim": {"hits": 4, "misses": 5}},
            "lifetime": {},
        },
        "workers": {"active": 0, "inflight_cells": 0,
                    "utilization": 0.25},
        "events": {"published": 40, "dropped": 0, "subscribers": 1,
                   "jobs_traced": 9, "jobs_retained": 9},
    }


class TestPrometheusRendering:
    def test_render_parse_round_trip(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "queued")
        tracer.stamp("job-1", "claimed")
        text = render_prometheus(_sample_snapshot(), tracer)
        parsed = parse_prometheus(text)
        assert parsed["repro_queue_depth"] == 3.0
        assert parsed["repro_uptime_seconds"] == 12.5
        assert parsed['repro_queue_jobs{state="queued"}'] == 3.0
        assert parsed["repro_dispatcher_submissions"] == 9.0
        assert parsed["repro_workers_utilization"] == 0.25
        assert parsed['repro_stage_latency_seconds_count{stage="queued"}'] \
            == 1.0

    def test_histogram_buckets_are_cumulative_and_capped_by_inf(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "queued")
        tracer.stamp("job-1", "done")
        parsed = parse_prometheus(
            render_prometheus(_sample_snapshot(), tracer)
        )
        series = [
            value for name, value in sorted(parsed.items())
            if name.startswith('repro_stage_latency_seconds_bucket')
            and 'stage="queued"' in name
        ]
        assert series, "no bucket series rendered"
        inf_key = ('repro_stage_latency_seconds_bucket'
                   '{stage="queued",le="+Inf"}')
        assert parsed[inf_key] == 1.0

    def test_counter_and_gauge_type_lines(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "queued")
        tracer.stamp("job-1", "done")
        text = render_prometheus(_sample_snapshot(), tracer)
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_dispatcher_submissions counter" in text
        assert "# TYPE repro_stage_latency_seconds histogram" in text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not prometheus text\n")

    def test_json_mirror_carries_stage_summaries(self):
        tracer = JobTracer()
        tracer.stamp("job-1", "queued")
        tracer.stamp("job-1", "claimed")
        document = render_json(_sample_snapshot(), tracer)
        assert document["stats"]["queue"]["depth"] == 3
        queued = document["stages"]["queued"]
        assert queued["count"] == 1
        assert set(queued) >= {"count", "sum_seconds", "p50_ms",
                               "p95_ms", "p99_ms"}
        assert document["buckets_le_seconds"] == list(LATENCY_BUCKETS)
