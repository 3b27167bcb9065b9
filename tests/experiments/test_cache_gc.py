"""Tests for the artifact cache's inventory, gc, and counter persistence."""

import os
import time

from repro.__main__ import main
from repro.experiments.cache import ArtifactCache


def _fill(cache, kind, count, payload="x"):
    """Store ``count`` artifacts of ``kind``; returns their digests."""
    return [
        cache.store(kind, (kind, index), payload * 100)
        for index in range(count)
    ]


class TestInventory:
    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        _fill(cache, "trace", 3)
        _fill(cache, "timed", 2)
        stats = cache.disk_stats()
        assert stats["trace"][0] == 3
        assert stats["timed"][0] == 2
        assert all(size > 0 for _, size in stats.values())

    def test_store_returns_digest_and_load_digest_round_trips(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("key",), "document")
        hit, value = cache.load_digest("service", digest)
        assert hit and value == "document"
        hit, value = cache.load_digest("service", "0" * 64)
        assert not hit and value is None

    def test_racing_writers_of_same_key_coexist(self, tmp_path):
        a = ArtifactCache(tmp_path, version="v1")
        b = ArtifactCache(tmp_path, version="v1")
        digest_a = a.store("binary", ("k",), "same-bytes")
        digest_b = b.store("binary", ("k",), "same-bytes")
        assert digest_a == digest_b
        assert a.lookup("binary", ("k",)) == (True, "same-bytes")
        # Exactly one artifact on disk, no temp droppings.
        assert [e.digest for e in a.entries()] == [digest_a]
        assert list(tmp_path.glob("**/*.tmp")) == []


class TestGC:
    def test_max_age_prunes_old_artifacts(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        old = cache.store("trace", ("old",), "data")
        new = cache.store("trace", ("new",), "data")
        old_path = cache._path("trace", old)
        past = time.time() - 1000.0
        os.utime(old_path, (past, past))

        report = cache.gc(max_age=500.0)
        assert report.removed == 1
        digests = {entry.digest for entry in cache.entries()}
        assert digests == {new}

    def test_max_bytes_prunes_oldest_first(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digests = _fill(cache, "trace", 4)
        now = time.time()
        for age, digest in enumerate(digests):
            path = cache._path("trace", digest)
            stamp = now - (len(digests) - age) * 100.0
            os.utime(path, (stamp, stamp))
        total = sum(entry.size for entry in cache.entries())
        keep_two = total // 2

        report = cache.gc(max_bytes=keep_two)
        assert report.removed == 2
        assert {entry.digest for entry in cache.entries()} == set(digests[2:])
        assert report.freed_bytes > 0

    def test_stale_tmp_files_swept(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("trace", ("k",), "data")
        # A writer's temp file sits beside the artifact it replaces.
        crashed = cache._path("trace", digest).with_name("crashed-writer.tmp")
        crashed.write_bytes(b"partial")
        past = time.time() - 7200.0
        os.utime(crashed, (past, past))
        fresh = crashed.with_name("live-writer.tmp")
        fresh.write_bytes(b"in-flight")

        report = cache.gc(max_age=10 ** 9)
        assert report.swept_tmp == 1
        assert not crashed.exists()
        assert fresh.exists()  # a live writer's temp file is left alone

    def test_gc_on_missing_root_is_harmless(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created", version="v1")
        report = cache.gc(max_age=1.0, max_bytes=0)
        assert (report.removed, report.swept_tmp) == (0, 0)


class TestPersistentCounters:
    def test_flush_accumulates_across_processes(self, tmp_path):
        first = ArtifactCache(tmp_path, version="v1")
        first.store("timed", ("k",), "data")
        first.lookup("timed", ("k",))
        first.flush_counters()
        # Drained into the file; live counter objects are zeroed (not
        # replaced) so concurrent increments mid-flush are never lost.
        assert all(
            (c.hits, c.misses, c.stores) == (0, 0, 0)
            for c in first.counters.values()
        )

        second = ArtifactCache(tmp_path, version="v1")
        second.lookup("timed", ("k",))
        second.lookup("timed", ("missing",))
        second.flush_counters()

        lifetime = ArtifactCache(tmp_path, version="v1").persistent_counters()
        assert lifetime["timed"] == {
            "hits": 2, "misses": 1, "stores": 1, "corrupt": 0,
        }

    def test_flush_with_no_activity_writes_nothing(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        cache.flush_counters()
        assert not (tmp_path / "counters.json").exists()

    def test_corrupt_counters_file_is_tolerated(self, tmp_path):
        (tmp_path / "counters.json").write_text("{not json", encoding="utf-8")
        cache = ArtifactCache(tmp_path, version="v1")
        assert cache.persistent_counters() == {}
        cache.store("timed", ("k",), "data")
        cache.flush_counters()  # overwrites the corrupt file
        assert cache.persistent_counters()["timed"]["stores"] == 1


class TestCacheCLI:
    def test_stats_reports_kinds_and_lifetime(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path, version="v1")
        _fill(cache, "trace", 2)
        cache.flush_counters()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and "2 entries" in out
        assert "lifetime counters:" in out

    def test_stats_on_empty_cache(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir",
                     str(tmp_path / "none")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_gc_prunes_and_reports(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path, version="v1")
        _fill(cache, "trace", 3)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "0"]) == 0
        assert "removed 3 artifact(s)" in capsys.readouterr().out
        assert list(cache.entries()) == []

    def test_gc_without_bounds_is_an_error(self, tmp_path):
        import pytest

        with pytest.raises(SystemExit):
            main(["cache", "gc", "--cache-dir", str(tmp_path)])
