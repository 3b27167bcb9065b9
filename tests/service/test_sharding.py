"""Cross-shard integration: N server processes, one logical service.

The contract the tentpole must demonstrate end to end:

* a sweep split across 2 shard servers produces documents
  byte-identical to the direct serial :func:`run_sweep`;
* a shard that never computed a result instant-completes from a
  sibling's artifact — through the shared directory tier and, with no
  shared dir, over HTTP peer fetch against ``/v1/results``;
* numerically equal request spellings (``1`` vs ``1.0``) route to the
  same shard and collapse onto one computation;
* a misrouted submission is accepted (counted, not rejected).

The "processes" here are :class:`ServerThread` instances — same server
object the CLI runs, in-thread for test speed; ``scripts/shard_smoke.py``
covers the real multi-process spawn.
"""

import socket
from contextlib import ExitStack

from repro.experiments.cache import ArtifactCache
from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import adhoc_spec, run_sweep
from repro.service.client import get_stats, route_url, submit_and_wait
from repro.service.dispatcher import Dispatcher, sweep_title
from repro.service.queue import JobQueue, JobState
from repro.service.server import ServerThread
from repro.service.tiered import TieredArtifactCache

TINY = ExperimentProfile.tiny()

SWEEP_VALUES = ("34", "42")


def _payload(values):
    return {"kind": "sweep", "axis": "regfile", "values": list(values),
            "workloads": ["li_like"], "profile": "tiny"}


_serial_cache = {}


def _serial_document(values) -> bytes:
    """The direct serial run_sweep manifest for ``values``."""
    key = tuple(values)
    if key not in _serial_cache:
        spec = adhoc_spec(
            "regfile", TINY, values=list(values), workloads=["li_like"]
        )
        result = run_sweep(
            spec, TINY, ExperimentContext(TINY),
            title=sweep_title("regfile", TINY),
        )
        _serial_cache[key] = render_manifest(
            TINY.name, {spec.name: result}
        ).encode("utf-8")
    return _serial_cache[key]


def _free_ports(count):
    """Reserve ``count`` distinct ports (bind, record, release)."""
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


class _Fleet:
    """N ShardThreads over one shared cache dir + the fleet URL string."""

    def __init__(self, tmp_path, count=2, shared=True, peer_fetch=True):
        ports = _free_ports(count)
        self.urls = [f"http://127.0.0.1:{port}" for port in ports]
        self.fleet = ",".join(self.urls)
        shared_dir = (tmp_path / "shared-cache") if shared else None
        self.servers = [
            ServerThread(
                tmp_path / f"queue-{index}", tmp_path / f"cache-{index}",
                port=ports[index],
                shard=f"{index}/{count}", peers=tuple(self.urls),
                shared_cache_dir=shared_dir, peer_fetch=peer_fetch,
            )
            for index in range(count)
        ]

    def __enter__(self):
        self._stack = ExitStack()
        for server in self.servers:
            self._stack.enter_context(server)
        return self

    def __exit__(self, *exc_info):
        self._stack.close()

    def owner(self, payload) -> str:
        return route_url(self.fleet, payload)

    def stats(self, url):
        return get_stats(url)


class TestShardedFleet:
    def test_split_sweep_is_byte_identical_to_serial(self, tmp_path):
        with _Fleet(tmp_path) as fleet:
            # The two single-value jobs land wherever the ring says;
            # the combined sweep must still reassemble bit-for-bit.
            for values in (["34"], ["42"], list(SWEEP_VALUES)):
                job, document = submit_and_wait(
                    fleet.fleet, _payload(values), timeout=300,
                )
                assert job["state"] == "done"
                assert document == _serial_document(values)

            # Both shards expose the shard section; placement agrees.
            for index, url in enumerate(fleet.urls):
                stats = fleet.stats(url)
                assert stats["shard"]["index"] == index
                assert stats["shard"]["count"] == 2
                assert stats["shard"]["url"] == url
                assert stats["shard"]["misrouted"] == 0

    def test_cold_shard_instant_completes_via_shared_tier(self, tmp_path):
        payload = _payload(["34"])
        with _Fleet(tmp_path) as fleet:
            warm = fleet.owner(payload)
            cold = next(u for u in fleet.urls if u != warm)

            job, document = submit_and_wait(warm, payload, timeout=300)
            assert job["state"] == "done"

            # Deliberately bypass routing: the *other* shard never ran
            # this sweep, yet completes it instantly from the shared
            # directory tier (and counts the bypass as misrouted).
            job, again = submit_and_wait(cold, payload, timeout=60)
            assert job["source"] == "cache"
            assert again == document == _serial_document(["34"])

            stats = fleet.stats(cold)
            assert stats["dispatcher"]["jobs_from_cache"] == 1
            assert stats["dispatcher"]["batches"] == 0
            assert stats["shard"]["misrouted"] == 1
            tiers = stats["tiered"]
            assert tiers["shared"]["hits"] >= 1
            assert tiers["shared"]["promotes"] >= 1
            assert tiers["peer"]["hits"] == 0  # never needed to dial

    def test_cold_shard_instant_completes_via_peer_fetch(self, tmp_path):
        """No shared directory at all: the artifact travels over HTTP
        through the sibling's ``/v1/results`` endpoint."""
        payload = _payload(["42"])
        with _Fleet(tmp_path, shared=False) as fleet:
            warm = fleet.owner(payload)
            cold = next(u for u in fleet.urls if u != warm)

            _, document = submit_and_wait(warm, payload, timeout=300)
            job, again = submit_and_wait(cold, payload, timeout=60)
            assert job["source"] == "cache"
            assert again == document == _serial_document(["42"])

            tiers = fleet.stats(cold)["tiered"]
            assert tiers["peer"]["hits"] >= 1
            assert tiers["peer"]["promotes"] >= 1
            assert tiers["shared_root"] is None

    def test_peer_fetch_disabled_recomputes_locally(self, tmp_path):
        payload = _payload(["34"])
        with _Fleet(tmp_path, shared=False, peer_fetch=False) as fleet:
            warm = fleet.owner(payload)
            cold = next(u for u in fleet.urls if u != warm)

            _, document = submit_and_wait(warm, payload, timeout=300)
            job, again = submit_and_wait(cold, payload, timeout=300)
            # Same bytes — but computed, not fetched.
            assert again == document
            assert job["source"] != "cache"
            stats = fleet.stats(cold)
            assert stats["dispatcher"]["cells_executed"] >= 1
            assert stats["tiered"]["peer"]["hits"] == 0
            assert stats["tiered"]["peer_count"] == 0

    def test_numeric_spellings_collapse_across_the_fleet(self, tmp_path):
        with _Fleet(tmp_path) as fleet:
            int_spelling = _payload([34])
            float_spelling = _payload([34.0])
            assert fleet.owner(int_spelling) == fleet.owner(float_spelling)

            job_a, doc_a = submit_and_wait(
                fleet.fleet, int_spelling, timeout=300
            )
            job_b, doc_b = submit_and_wait(
                fleet.fleet, float_spelling, timeout=60
            )
            assert job_b["id"] == job_a["id"]  # one job, two spellings
            assert doc_a == doc_b
            total_cells = sum(
                fleet.stats(url)["dispatcher"]["cells_executed"]
                for url in fleet.urls
            )
            assert total_cells == 1  # one computation fleet-wide


class TestRouting:
    def test_route_url_is_stable_and_member_of_fleet(self, tmp_path):
        urls = ["http://127.0.0.1:9201", "http://127.0.0.1:9202"]
        fleet = ",".join(urls)
        payload = _payload(["34"])
        first = route_url(fleet, payload)
        assert first in urls
        assert all(route_url(fleet, payload) == first for _ in range(5))

    def test_single_url_short_circuits(self):
        assert route_url(
            "http://127.0.0.1:9201/", _payload(["34"])
        ) == "http://127.0.0.1:9201"

    def test_values_spread_over_shards(self):
        urls = [f"http://127.0.0.1:92{i:02d}" for i in range(4)]
        owners = {
            route_url(",".join(urls), _payload([v]))
            for v in (16, 24, 34, 42, 50, 64, 80, 128, 7, 9)
        }
        assert len(owners) > 1  # the ring actually spreads work


class TestPoolWorkersUseSharedTier:
    """Cells computed in pool workers read and write the shared tier
    exactly as in-process cells do (workers open the dispatcher's local
    root *and* shared root)."""

    def _drain(self, tmp_path, local, values):
        cache = TieredArtifactCache(
            tmp_path / local, shared_root=tmp_path / "shared"
        )
        dispatcher = Dispatcher(
            JobQueue(tmp_path / f"{local}-queue"), cache.root,
            cache=cache, jobs=2,
        )
        try:
            job = dispatcher.submit(_payload(values), "alice")
            assert dispatcher.drain_once() == 1
            assert dispatcher.queue.get(job.id).state is JobState.DONE
            return dispatcher.snapshot()["cache"]["session"]
        finally:
            dispatcher.shutdown_pool()
            dispatcher.queue.close()

    def test_worker_artifacts_reach_and_serve_from_shared_tier(
        self, tmp_path
    ):
        self._drain(tmp_path, "local-a", SWEEP_VALUES)
        shared = ArtifactCache(tmp_path / "shared").disk_stats()
        assert {kind: count for kind, (count, _) in shared.items()} == {
            "binary": 1, "trace": 1, "timed": 2, "service": 1,
        }

        # A fresh local dir over the same shared tier: only the cell
        # the first dispatcher never saw is a timed miss.
        session = self._drain(tmp_path, "local-b", SWEEP_VALUES + ("50",))
        assert session["timed"]["misses"] == 1
        assert session["timed"]["hits"] == len(SWEEP_VALUES)
