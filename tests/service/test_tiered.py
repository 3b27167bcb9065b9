"""Unit tests for the tiered artifact cache and consistent-hash routing.

Covers the satellite checklist directly: tier promotion order
(local → shared → peer, promote on hit), peer-fetch timeout/refusal
fallback (a dead peer is a miss, never an error), consistent-hash
stability (adding a shard remaps ~1/N fingerprints), and shared-tier
crash injection (a writer killed between tmp-write and rename leaves
the local tier intact and never publishes a torn artifact peers could
read).
"""

import pickle

import pytest

from repro.experiments.cache import ArtifactCache, set_store_hook
from repro.service.routing import (
    VNODES,
    ConsistentHashRing,
    parse_shard_spec,
    route_request,
)
from repro.service.tiered import TieredArtifactCache

VERSION = "tiered-test"


def _tiered(tmp_path, name="a", **kwargs):
    kwargs.setdefault("shared_root", tmp_path / "shared")
    return TieredArtifactCache(
        tmp_path / f"local-{name}", version=VERSION, **kwargs
    )


class InjectedCrash(BaseException):
    """Simulated process death (BaseException so nothing swallows it)."""


class TestTierPromotion:
    def test_store_writes_through_to_shared(self, tmp_path):
        cache = _tiered(tmp_path)
        digest = cache.store("service", ("k",), "document")
        shared = ArtifactCache(tmp_path / "shared", version=VERSION)
        assert shared.load_digest("service", digest) == (True, "document")
        assert cache.tiers["local"].stores == 1
        assert cache.tiers["shared"].stores == 1

    def test_shared_hit_promotes_to_local(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")

        assert reader.load_digest("service", digest) == (True, "document")
        assert reader.tiers["local"].misses == 1
        assert reader.tiers["shared"].hits == 1
        assert reader.tiers["shared"].promotes == 1
        # Promoted: the next probe never leaves the local tier.
        assert reader.load_digest("service", digest) == (True, "document")
        assert reader.tiers["local"].hits == 1
        assert reader.tiers["shared"].hits == 1

    def test_local_hit_never_probes_shared(self, tmp_path):
        cache = _tiered(tmp_path)
        digest = cache.store("service", ("k",), "document")
        assert cache.load_digest("service", digest)[0]
        assert cache.tiers["shared"].hits == 0
        assert cache.tiers["shared"].misses == 0

    def test_readable_digest_walks_tiers(self, tmp_path):
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        reader = _tiered(tmp_path, "reader")
        assert reader.readable_digest("service", digest)
        assert reader.tiers["shared"].hits == 1
        assert not reader.readable_digest("service", "0" * 64)

    def test_double_miss_without_peers_is_clean(self, tmp_path):
        cache = _tiered(tmp_path)
        assert cache.load_digest("service", "0" * 64) == (False, None)
        assert cache.tiers["local"].misses == 1
        assert cache.tiers["shared"].misses == 1
        assert cache.tiers["peer"].misses == 0  # no peers configured

    def test_no_shared_root_degrades_to_plain_cache(self, tmp_path):
        cache = TieredArtifactCache(tmp_path / "solo", version=VERSION)
        digest = cache.store("service", ("k",), "document")
        assert cache.load_digest("service", digest) == (True, "document")
        assert cache.tier_stats()["shared_root"] is None


class TestPeerFetch:
    def _peer_cache(self, tmp_path, fetcher):
        return TieredArtifactCache(
            tmp_path / "local", version=VERSION,
            shared_root=tmp_path / "shared",
            peers=("http://peer-a:1", "http://peer-b:2"),
            fetcher=fetcher,
        )

    def test_peer_hit_promotes_to_local_and_shared(self, tmp_path):
        calls = []

        def fetcher(url, timeout):
            calls.append(url)
            return b"remote-document"

        cache = self._peer_cache(tmp_path, fetcher)
        digest = "ab" * 32
        hit, value = cache.load_digest("service", digest)
        assert (hit, value) == (True, "remote-document")
        assert calls == [f"http://peer-a:1/v1/results/{digest}"]
        assert cache.tiers["peer"].hits == 1
        assert cache.tiers["peer"].promotes == 1
        # Promoted into both directory tiers: local serves next time,
        # and the shared dir now covers every other shard too.
        assert ArtifactCache(
            tmp_path / "local", version=VERSION
        ).load_digest("service", digest) == (True, "remote-document")
        assert ArtifactCache(
            tmp_path / "shared", version=VERSION
        ).load_digest("service", digest) == (True, "remote-document")

    def test_dead_peer_is_a_miss_not_an_error(self, tmp_path):
        def fetcher(url, timeout):
            raise ConnectionRefusedError("peer down")

        cache = self._peer_cache(tmp_path, fetcher)
        assert cache.load_digest("service", "cd" * 32) == (False, None)
        assert cache.tiers["peer"].errors == 2  # both peers tried
        assert cache.tiers["peer"].hits == 0

    def test_timeout_falls_through_to_next_peer(self, tmp_path):
        def fetcher(url, timeout):
            if "peer-a" in url:
                raise TimeoutError("slow peer")
            return b"from-b"

        cache = self._peer_cache(tmp_path, fetcher)
        assert cache.load_digest("service", "ef" * 32) == (True, "from-b")
        assert cache.tiers["peer"].errors == 1
        assert cache.tiers["peer"].hits == 1

    def test_undecodable_peer_body_is_a_peer_error(self, tmp_path):
        """A body that is not UTF-8 falls through like a dead peer."""
        cache = TieredArtifactCache(
            tmp_path / "local", version=VERSION,
            peers=("http://peer-a:1",),
            fetcher=lambda url, timeout: b"\xff\xfe not utf-8",
        )
        assert cache.readable_digest("service", "89" * 32) is False
        assert cache.tiers["peer"].errors == 1
        assert cache.tiers["peer"].hits == 0

    def test_peer_404_is_a_miss(self, tmp_path):
        cache = self._peer_cache(tmp_path, lambda url, timeout: None)
        assert cache.load_digest("service", "01" * 32) == (False, None)
        assert cache.tiers["peer"].misses == 1
        assert cache.tiers["peer"].errors == 0

    def test_only_service_kind_dials_peers(self, tmp_path):
        calls = []

        def fetcher(url, timeout):
            calls.append(url)
            return b"x"

        cache = self._peer_cache(tmp_path, fetcher)
        assert cache.load_digest("trace", "23" * 32) == (False, None)
        assert cache.load_digest("timed", "45" * 32) == (False, None)
        assert calls == []

    def test_allow_peer_false_never_dials(self, tmp_path):
        """The /v1/results handler's anti-ping-pong contract."""
        calls = []

        def fetcher(url, timeout):
            calls.append(url)
            return b"x"

        cache = self._peer_cache(tmp_path, fetcher)
        hit, _ = cache.load_digest("service", "67" * 32, allow_peer=False)
        assert not hit
        assert calls == []


class TestSharedTierCrashInjection:
    """A writer dying mid-write-through must never publish torn bytes."""

    def _crash_in_shared(self, tmp_path, stage):
        cache = _tiered(tmp_path, "writer")
        shared_root = str(tmp_path / "shared")
        fired = []

        def hook(hook_stage, path):
            if hook_stage == stage and str(path).startswith(shared_root):
                fired.append(str(path))
                raise InjectedCrash(f"{stage} in shared tier")

        set_store_hook(hook)
        try:
            with pytest.raises(InjectedCrash):
                cache.store("service", ("k",), "document")
        finally:
            set_store_hook(None)
        assert fired, "trap never fired"
        return cache

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_local_tier_survives_shared_crash(self, tmp_path, stage):
        cache = self._crash_in_shared(tmp_path, stage)
        digest = cache.digest("service", (("k",)))
        # The local store completed before the shared write-through
        # began, so this shard still serves its own work.
        local = ArtifactCache(tmp_path / "local-writer", version=VERSION)
        assert local.load_digest("service", digest) == (True, "document")

    @pytest.mark.parametrize("stage", ["write", "rename"])
    def test_no_torn_artifact_visible_to_peers(self, tmp_path, stage):
        cache = self._crash_in_shared(tmp_path, stage)
        digest = cache.digest("service", (("k",)))
        shared = ArtifactCache(tmp_path / "shared", version=VERSION)
        # The shared tier has either nothing at all or nothing readable
        # under the digest — never torn bytes another shard would trust.
        assert not shared.exists_digest("service", digest)
        reader = _tiered(tmp_path, "reader")
        assert reader.load_digest("service", digest) == (False, None)

    def test_torn_shared_artifact_is_healed_by_reader(self, tmp_path):
        """Belt and braces: even if torn bytes *did* land in the shared
        dir (a real kill mid-``write(2)``, no atomic rename), a reader
        heals them and recomputes instead of serving garbage."""
        writer = _tiered(tmp_path, "writer")
        digest = writer.store("service", ("k",), "document")
        torn = writer.shared._path("service", digest)
        torn.write_bytes(pickle.dumps("document")[:7])

        reader = _tiered(tmp_path, "reader")
        assert reader.load_digest("service", digest) == (False, None)
        assert not torn.exists()
        assert reader.tiers["shared"].corrupt == 1

    def test_crash_leaves_no_tmp_behind_on_rename_stage(self, tmp_path):
        # The store path's BaseException cleanup sweeps its tmp file;
        # real kills leave droppings for gc — either way no ``.pkl``.
        self._crash_in_shared(tmp_path, "rename")
        assert list((tmp_path / "shared").glob("**/*.pkl")) == []


class TestConsistentHashRing:
    def _keys(self, count=2000):
        return [f"request-fingerprint-{i:05d}" for i in range(count)]

    def test_deterministic_and_total(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        again = ConsistentHashRing(["a", "b", "c"])
        for key in self._keys(200):
            owner = ring.owner(key)
            assert owner in ("a", "b", "c")
            assert again.owner(key) == owner

    def test_reasonably_balanced(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        shares = ring.shares(self._keys())
        for node, count in shares.items():
            # 64 vnodes/node keeps every share within ~2x of fair.
            assert 2000 / 3 / 2 < count < 2000 / 3 * 2, shares

    def test_adding_a_node_remaps_about_one_over_n(self):
        keys = self._keys()
        before = ConsistentHashRing(["a", "b", "c"])
        after = ConsistentHashRing(["a", "b", "c", "d"])
        moved = sum(
            1 for key in keys if before.owner(key) != after.owner(key)
        )
        # Ideal is 1/4 of keys; allow generous slack but pin the order
        # of magnitude (modulo hashing would move ~3/4 of them).
        assert 0.10 * len(keys) < moved < 0.45 * len(keys), moved
        # Every moved key moved *to* the new node — nothing shuffles
        # between surviving nodes.
        for key in keys:
            if before.owner(key) != after.owner(key):
                assert after.owner(key) == "d"

    def test_removing_a_node_only_reassigns_its_keys(self):
        keys = self._keys()
        full = ConsistentHashRing(["a", "b", "c"])
        reduced = ConsistentHashRing(["a", "b"])
        for key in keys:
            if full.owner(key) != "c":
                assert reduced.owner(key) == full.owner(key)

    def test_rejects_empty_and_duplicate_nodes(self):
        with pytest.raises(ValueError):
            ConsistentHashRing([])
        with pytest.raises(ValueError):
            ConsistentHashRing(["a", "a"])

    def test_vnode_count(self):
        ring = ConsistentHashRing(["a", "b"])
        assert len(ring._points) == 2 * VNODES


class TestShardSpec:
    @pytest.mark.parametrize("spec, expected", [
        ("0/1", (0, 1)),
        ("0/2", (0, 2)),
        ("1/2", (1, 2)),
        ("3/4", (3, 4)),
    ])
    def test_valid(self, spec, expected):
        assert parse_shard_spec(spec) == expected

    @pytest.mark.parametrize("spec", [
        "2/2", "-1/2", "0/0", "1", "a/b", "1/2/3x", "",
    ])
    def test_invalid(self, spec):
        with pytest.raises(ValueError):
            parse_shard_spec(spec)


class TestRouteRequest:
    URLS = ["http://127.0.0.1:9101", "http://127.0.0.1:9102"]

    def _payload(self, **overrides):
        payload = {"kind": "sweep", "axis": "regfile", "values": [34, 42],
                   "workloads": ["li_like"], "profile": "tiny"}
        payload.update(overrides)
        return payload

    def test_equivalent_spellings_share_a_shard(self):
        base = route_request(self.URLS, self._payload())
        # Integral-float values and trailing-slash URLs are the same
        # logical request over the same fleet.
        assert route_request(
            self.URLS, self._payload(values=[34.0, 42.0])
        ) == base
        assert route_request(
            [u + "/" for u in self.URLS], self._payload()
        ) == base

    def test_different_requests_spread(self):
        owners = {
            route_request(self.URLS, self._payload(values=[v]))
            for v in (16, 24, 34, 42, 50, 64, 80, 128)
        }
        assert owners == set(self.URLS)  # both shards get work

    def test_malformed_payload_fails_at_the_client(self):
        from repro.service.dispatcher import RequestError

        with pytest.raises(RequestError):
            route_request(self.URLS, {"kind": "sweep", "axis": "no-such"})
