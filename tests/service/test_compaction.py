"""Journal compaction: snapshot semantics, corruption detection, scale.

Covers the compaction protocol end to end — snapshot + generation
handshake, retention policy, dedup across a compaction boundary, the
loud-failure contract for torn snapshots (a torn *journal* line is a
normal crash artifact and is truncated; a torn *snapshot* means the
atomic-rename invariant was violated and must never be silently
"recovered" into stale state) — and the headline scale property: a
10,000-job history restarts in O(live jobs), not O(history).
"""

import json

import pytest

from repro.service.queue import (
    JobQueue,
    JobState,
    SnapshotCorruptError,
)

VERSION = "compact-test"


def _req(i: int) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [i],
            "workloads": ["li_like"], "profile": "tiny"}


def _journal_lines(root) -> int:
    return len((root / "journal.jsonl").read_text().splitlines())


class TestCompaction:
    def test_snapshot_prefers_then_tail(self, tmp_path):
        """Replay = snapshot + post-snapshot journal tail."""
        queue = JobQueue(tmp_path, version=VERSION)
        old, _ = queue.submit(_req(1), "alice")
        queue.mark_running(old.id)
        queue.mark_done(old.id, result_key="res-old", source="computed")
        queue.compact()
        fresh, _ = queue.submit(_req(2), "bob")   # lands in the tail
        queue.close()

        replayed = JobQueue(tmp_path, version=VERSION)
        assert replayed.get(old.id).state is JobState.DONE
        assert replayed.get(old.id).result_key == "res-old"
        assert replayed.get(fresh.id).state is JobState.QUEUED
        replayed.close()

    def test_retention_drops_oldest_terminal_jobs_only(self, tmp_path):
        queue = JobQueue(tmp_path, version=VERSION)
        finished = []
        for i in range(6):
            job, _ = queue.submit(_req(i), "alice")
            queue.mark_done(job.id, result_key=f"res-{i}", source="cache")
            finished.append(job.id)
        live, _ = queue.submit(_req(99), "bob")
        report = queue.compact(retain_terminal=2)
        assert report.jobs_dropped == 4
        for job_id in finished[:4]:
            assert queue.get(job_id) is None
        for job_id in finished[4:]:
            assert queue.get(job_id).state is JobState.DONE
        assert queue.get(live.id).state is JobState.QUEUED
        queue.close()

    def test_dedup_across_compaction_boundary(self, tmp_path):
        """A retained done job still coalesces; a dropped one yields a
        fresh job (the artifact cache owns its result now)."""
        queue = JobQueue(tmp_path, version=VERSION)
        dropped, _ = queue.submit(_req(2), "alice")
        kept, _ = queue.submit(_req(1), "alice")
        queue.mark_done(dropped.id, result_key="r2", source="cache")
        queue.mark_done(kept.id, result_key="r1", source="cache")
        # Retention keeps the most recently *submitted* terminal jobs.
        queue.compact(retain_terminal=1)

        again, created = queue.submit(_req(1), "bob")
        assert not created and again.id == kept.id
        fresh, created = queue.submit(_req(2), "bob")
        assert created and fresh.id != dropped.id
        queue.close()

    def test_maybe_compact_fires_on_event_threshold(self, tmp_path):
        """maybe_compact (the drain thread's housekeeping call) is a
        no-op below the threshold and compacts at it."""
        queue = JobQueue(
            tmp_path, version=VERSION, compact_every=10, retain_terminal=1
        )
        for i in range(12):
            job, _ = queue.submit(_req(i), "alice")
            queue.mark_done(job.id, result_key="k", source="cache")
            queue.maybe_compact()  # what drain_once does between batches
        stats = queue.compaction_stats()
        assert stats["compactions"] >= 2
        assert stats["generation"] >= 2
        assert stats["journal_events"] < 10
        assert _journal_lines(tmp_path) < 12  # journal stayed bounded
        assert queue.maybe_compact() is None  # below threshold: no-op
        queue.close()

    def test_drain_workers_trigger_auto_compaction(self, tmp_path):
        """End to end through the dispatcher: draining batches compacts
        the journal once it outgrows compact_every — off the submit
        path, so the HTTP loop never pays for a snapshot."""
        from repro.service.dispatcher import Dispatcher

        queue = JobQueue(
            tmp_path / "queue", compact_every=6, retain_terminal=2
        )
        dispatcher = Dispatcher(queue, tmp_path / "cache")
        payload = {"kind": "sweep", "axis": "regfile", "values": ["34"],
                   "workloads": ["li_like"], "profile": "tiny"}
        for values in (["34"], ["42"], ["34", "42"]):
            dispatcher.submit(dict(payload, values=values), "alice")
            while dispatcher.drain_once():
                pass
        assert queue.compaction_stats()["compactions"] >= 1
        assert queue.compaction_stats()["generation"] >= 1
        queue.close()

    def test_compaction_preserves_running_jobs_as_running(self, tmp_path):
        """A live compact must not demote running work (only a restart
        does); replay of that snapshot then demotes as usual."""
        queue = JobQueue(tmp_path, version=VERSION)
        job, _ = queue.submit(_req(1), "alice")
        queue.mark_running(job.id)
        queue.compact()
        assert queue.get(job.id).state is JobState.RUNNING
        queue.close()

        replayed = JobQueue(tmp_path, version=VERSION)
        assert replayed.get(job.id).state is JobState.QUEUED
        replayed.close()

    def test_failed_journal_reset_refuses_appends_loudly(
        self, tmp_path, monkeypatch
    ):
        """If the journal cannot be reset after the snapshot published,
        further appends would land in a stale-generation journal and be
        silently discarded by the next replay — the queue must refuse
        them loudly instead, and a restart must recover everything."""
        queue = JobQueue(tmp_path, version=VERSION)
        job, _ = queue.submit(_req(1), "alice")
        queue.mark_done(job.id, result_key="r", source="cache")

        def disk_full():
            raise OSError("No space left on device")

        monkeypatch.setattr(queue, "_reset_journal", disk_full)
        with pytest.raises(OSError):
            queue.compact()
        with pytest.raises(RuntimeError, match="journal is unavailable"):
            queue.submit(_req(2), "bob")
        queue.close()

        # The snapshot holds every acknowledged event; restart recovers.
        recovered = JobQueue(tmp_path, version=VERSION)
        assert recovered.get(job.id).state is JobState.DONE
        assert recovered.get(job.id).result_key == "r"
        fresh, created = recovered.submit(_req(2), "bob")
        assert created and fresh.state is JobState.QUEUED
        recovered.close()

    def test_compact_on_empty_queue(self, tmp_path):
        queue = JobQueue(tmp_path, version=VERSION)
        report = queue.compact()
        assert report.jobs_kept == 0 and report.jobs_dropped == 0
        assert report.generation == 1
        queue.close()
        JobQueue(tmp_path, version=VERSION).close()  # replays cleanly


class TestSnapshotCorruption:
    def _compacted_dir(self, tmp_path):
        queue = JobQueue(tmp_path, version=VERSION)
        job, _ = queue.submit(_req(1), "alice")
        queue.mark_done(job.id, result_key="res", source="computed")
        queue.compact()
        queue.close()
        return tmp_path

    def test_torn_snapshot_fails_loudly(self, tmp_path):
        root = self._compacted_dir(tmp_path)
        snapshot = root / JobQueue.SNAPSHOT_FILE
        text = snapshot.read_text()
        snapshot.write_text(text[: len(text) // 2])  # torn mid-file
        with pytest.raises(SnapshotCorruptError, match="does not parse"):
            JobQueue(root, version=VERSION)

    def test_truncated_job_table_fails_loudly(self, tmp_path):
        """Valid JSON whose job list lost rows (job_count mismatch) is
        still a torn snapshot — it must not replay silently."""
        root = self._compacted_dir(tmp_path)
        snapshot = root / JobQueue.SNAPSHOT_FILE
        payload = json.loads(snapshot.read_text())
        payload["jobs"] = []  # rows lost, count says otherwise
        snapshot.write_text(json.dumps(payload))
        with pytest.raises(SnapshotCorruptError, match="truncated"):
            JobQueue(root, version=VERSION)

    def test_malformed_job_record_fails_loudly(self, tmp_path):
        root = self._compacted_dir(tmp_path)
        snapshot = root / JobQueue.SNAPSHOT_FILE
        payload = json.loads(snapshot.read_text())
        del payload["jobs"][0]["digest"]
        snapshot.write_text(json.dumps(payload))
        with pytest.raises(SnapshotCorruptError, match="malformed"):
            JobQueue(root, version=VERSION)

    def test_deleted_snapshot_with_newer_journal_fails_loudly(
        self, tmp_path
    ):
        """A journal stamped generation 1 next to no snapshot means the
        snapshot vanished out-of-band; guessing would lose jobs."""
        root = self._compacted_dir(tmp_path)
        (root / JobQueue.SNAPSHOT_FILE).unlink()
        with pytest.raises(SnapshotCorruptError, match="newer than"):
            JobQueue(root, version=VERSION)

    def test_torn_journal_line_is_still_tolerated(self, tmp_path):
        """Contrast: journal tears are expected crash artifacts."""
        root = self._compacted_dir(tmp_path)
        with open(root / "journal.jsonl", "a", encoding="utf-8") as f:
            f.write('{"event": "state", "id": "torn')
        queue = JobQueue(root, version=VERSION)  # no exception
        assert queue.state_counts()["done"] == 1
        queue.close()


class TestTenThousandJobHistory:
    def test_restart_is_o_live_after_10k_jobs(self, tmp_path):
        """The acceptance bar: 10k submitted-and-finished jobs, then a
        restart that replays from the snapshot in O(live jobs) — the
        journal and snapshot stay bounded by the compaction knobs, not
        by history."""
        compact_every, retain = 512, 16
        queue = JobQueue(
            tmp_path, version=VERSION,
            compact_every=compact_every, retain_terminal=retain,
        )
        for i in range(10_000):
            job, _ = queue.submit(_req(i), "alice")
            queue.mark_done(job.id, result_key=f"res-{i}", source="cache")
            queue.maybe_compact()  # the drain thread's housekeeping call
        live, _ = queue.submit(_req(10_000), "bob")
        stats = queue.compaction_stats()
        queue.close()

        assert stats["compactions"] >= 10_000 * 2 // compact_every - 1
        # Restart cost is what replay *reads*: the snapshot's job table
        # plus the journal tail — both bounded by knobs, not history.
        snapshot = json.loads(
            (tmp_path / JobQueue.SNAPSHOT_FILE).read_text()
        )
        assert snapshot["job_count"] <= retain + 2
        assert _journal_lines(tmp_path) <= compact_every + 1

        replayed = JobQueue(
            tmp_path, version=VERSION,
            compact_every=compact_every, retain_terminal=retain,
        )
        # O(live): the table holds the live job + bounded terminal tail,
        # three orders of magnitude below the 10k history.
        assert len(replayed.jobs) <= retain + compact_every // 2 + 1
        assert replayed.get(live.id).state is JobState.QUEUED
        assert replayed.has_pending()
        # Sequence numbers survived every compaction: new submissions
        # never collide with the 10k dropped ids.
        fresh, created = replayed.submit(_req(7), "carol")  # long dropped
        assert created and fresh.seq > 10_000
        replayed.close()
