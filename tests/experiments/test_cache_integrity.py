"""Cache-integrity regressions: corrupt-artifact healing and numeric
canonicalization.

Two latent bugs blocked multi-writer (sharded) caching:

* a torn/corrupt ``.pkl`` was counted as a miss by ``load_digest`` but
  left on disk, while the pure path probe (``exists_digest``) kept
  saying "hit" — so the key was poisoned forever;
* ``canonical(1)`` was ``'1'`` while ``canonical(1.0)`` was ``'1.0'``,
  so numerically equal requests got distinct fingerprints and escaped
  every dedup layer.

These tests pin the fixes: unreadable artifacts are *healed* (unlinked
+ tallied ``corrupt``) by both ``load_digest`` and the new
``readable_digest`` probe, and integral floats canonicalize like ints.
"""

import pickle

import pytest

from repro.experiments.cache import ArtifactCache, canonical, fingerprint


def _artifact_path(cache, kind, digest):
    return cache._path(kind, digest)


def _corrupt(cache, kind, digest, payload=b"\x80\x04 torn"):
    """Overwrite a stored artifact with bytes pickle cannot load."""
    path = _artifact_path(cache, kind, digest)
    path.write_bytes(payload)
    return path


class TestCorruptHealing:
    def test_load_digest_unlinks_corrupt_file_and_counts(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        path = _corrupt(cache, "service", digest)

        hit, value = cache.load_digest("service", digest)
        assert not hit and value is None
        assert not path.exists(), "corrupt artifact must be unlinked"
        counter = cache.counters["service"]
        assert counter.corrupt == 1
        assert counter.misses == 1

    def test_healed_key_recomputes_instead_of_wedging(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        _corrupt(cache, "service", digest)
        assert cache.load_digest("service", digest) == (False, None)
        # The poison is gone: a re-store round-trips cleanly.
        assert cache.store("service", ("k",), "document") == digest
        assert cache.load_digest("service", digest) == (True, "document")

    def test_truncated_pickle_is_healed(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "x" * 4096)
        path = _artifact_path(cache, "service", digest)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])  # torn write

        assert cache.load_digest("service", digest) == (False, None)
        assert not path.exists()
        assert cache.counters["service"].corrupt == 1

    def test_undecodable_document_is_healed(self, tmp_path):
        """One byte of a document set to 0xff leaves the final STOP byte,
        so the structural probe passes, but unpickling the string raises
        UnicodeDecodeError: the load must heal it like a torn pickle."""
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), '{"rows": "document"}')
        path = _artifact_path(cache, "service", digest)
        payload = bytearray(path.read_bytes())
        payload[payload.index(b"document")] = 0xFF
        path.write_bytes(bytes(payload))
        assert cache.readable_digest("service", digest)

        assert cache.load_digest("service", digest) == (False, None)
        assert cache.counters["service"].corrupt == 1
        assert not path.exists(), "corrupt artifact must be unlinked"

    def test_plain_miss_is_not_corrupt(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        assert cache.load_digest("service", "0" * 64) == (False, None)
        assert cache.counters["service"].corrupt == 0

    def test_racing_unlink_is_tolerated(self, tmp_path):
        cache_a = ArtifactCache(tmp_path, version="v1")
        cache_b = ArtifactCache(tmp_path, version="v1")
        digest = cache_a.store("service", ("k",), "document")
        path = _corrupt(cache_a, "service", digest)
        # B heals first; A's load must still degrade to a clean miss.
        assert cache_b.load_digest("service", digest) == (False, None)
        assert not path.exists()
        assert cache_a.load_digest("service", digest) == (False, None)


class TestReadableDigest:
    def test_readable_true_for_good_artifact(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        assert cache.readable_digest("service", digest)

    def test_readable_false_for_missing(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        assert not cache.readable_digest("service", "0" * 64)
        assert cache.counters.get("service") is None or \
            cache.counters["service"].corrupt == 0

    def test_readable_heals_corrupt_where_exists_lied(self, tmp_path):
        """The dispatcher instant-complete bug in miniature: the path
        probe says hit, the structural probe heals and says miss."""
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        path = _corrupt(cache, "service", digest, b"no stop opcode")
        assert cache.exists_digest("service", digest)  # the lie
        assert not cache.readable_digest("service", digest)
        assert not path.exists()
        assert cache.counters["service"].corrupt == 1

    def test_readable_rejects_empty_file(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        path = _artifact_path(cache, "service", digest)
        path.write_bytes(b"")
        assert not cache.readable_digest("service", digest)
        assert not path.exists()

    def test_readable_does_not_unpickle(self, tmp_path):
        """The probe is structural (size + STOP opcode), cheap enough
        for the event loop: a payload whose *class* is unimportable
        still probes readable — only a real load pays the unpickle."""
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        # Any valid pickle ends with STOP; swap in a different one.
        path = _artifact_path(cache, "service", digest)
        path.write_bytes(pickle.dumps({"other": "value"}))
        assert cache.readable_digest("service", digest)


class TestCounterPersistence:
    def test_flush_includes_corrupt_and_drains_session(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        _corrupt(cache, "service", digest)
        cache.load_digest("service", digest)
        cache.flush_counters()
        lifetime = cache.persistent_counters()
        assert lifetime["service"]["corrupt"] == 1
        assert cache.counters["service"].corrupt == 0
        # A second flush must not double-count.
        cache.flush_counters()
        assert cache.persistent_counters()["service"]["corrupt"] == 1

    def test_summary_mentions_corrupt_only_when_nonzero(self, tmp_path):
        cache = ArtifactCache(tmp_path, version="v1")
        digest = cache.store("service", ("k",), "document")
        cache.load_digest("service", digest)
        assert "corrupt" not in cache.summary()
        _corrupt(cache, "service", digest)
        cache.load_digest("service", digest)
        assert "1 corrupt healed" in cache.summary()


class TestNumericCanonicalization:
    @pytest.mark.parametrize("a, b", [
        (1, 1.0),
        (0, 0.0),
        (-3, -3.0),
        (10**6, 1e6),
    ])
    def test_integral_float_aliases_int(self, a, b):
        assert canonical(a) == canonical(b)
        assert fingerprint(a) == fingerprint(b)

    def test_non_integral_floats_unchanged(self):
        assert canonical(1.5) == repr(1.5)
        assert canonical(1.5) != canonical(1)

    def test_bools_do_not_alias_ints(self):
        # bool is an int subclass but not a float: the integral-float
        # branch must not collapse True onto 1 or onto 1.0.
        assert canonical(True) == "True"
        assert canonical(True) != canonical(1)
        assert canonical(True) != canonical(1.0)

    def test_special_floats_unchanged(self):
        for value in (float("inf"), float("-inf")):
            assert canonical(value) == repr(value)

    def test_nested_structures_alias(self):
        assert canonical({"scale": [1.0, 2.0]}) == \
            canonical({"scale": [1, 2]})
