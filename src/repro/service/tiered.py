"""Tiered artifact cache: local disk → shared directory → HTTP peers.

The multi-process sharding step needs N server processes to share one
body of computed work without sharing a filesystem lock, a journal, or
a coordinator.  The tiered cache is that seam.  It *is* an
:class:`~repro.experiments.cache.ArtifactCache` (the local tier — same
root layout, same digests, same counters), extended with two read
fallbacks and one write echo:

* **shared tier** — a second cache directory (NFS mount, bind mount,
  or plain shared disk) probed read-through on a local miss and written
  write-through on every store.  A shared hit is *promoted*: copied
  into the local tier via the atomic ``store_digest`` path, so the next
  probe never leaves local disk.
* **peer tier** — on a local+shared miss of a peer-fetchable kind
  (rendered ``service`` documents — the one kind the existing
  ``GET /v1/results/<digest>`` endpoint serves), each configured peer
  is asked over HTTP.  A fetched document is promoted into the local
  *and* shared tiers.  A refused/timed-out/erroring peer is a miss,
  never an error surfaced to the caller: the contract is "compute
  locally when alone", so a dead peer costs one bounded probe and
  nothing else.

Tier order is strict — local, then shared, then peers — and every
probe/outcome is tallied per tier (:class:`TierCounters`), surfaced by
``/v1/stats`` (``tiered`` section) and ``/v1/metrics``
(``repro_tiered_<tier>_<counter>``).

Integrity: both directory tiers inherit the corruption-healing contract
from :class:`ArtifactCache` — an unreadable artifact is unlinked and
tallied ``corrupt`` rather than poisoning its key — which matters
doubly here because a shared tier sees other hosts' torn writes.  The
write-through to the shared directory uses the same tmp-file +
``os.replace`` idiom as every store, so a writer killed mid-copy leaves
a ``.tmp`` dropping (swept by gc), never a torn ``.pkl`` a peer could
read.  A peer-fetched artifact is only ever republished through that
same atomic path.

Byte identity is preserved by construction: tiers move *pickled
values*, and every digest covers kind, key, and code version, so a
document fetched from any tier unpickles to the identical string a
local computation would have rendered.
"""

from __future__ import annotations

import urllib.request
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.experiments.cache import ArtifactCache

__all__ = [
    "DEFAULT_PEER_TIMEOUT",
    "PEER_FETCH_KINDS",
    "TierCounters",
    "TieredArtifactCache",
]

#: Artifact kinds eligible for HTTP peer fetch.  Only the rendered
#: service documents are, because ``GET /v1/results/<digest>`` (the
#: transport) serves exactly that kind; simulation intermediates
#: (traces, binaries, timing stats) travel through the shared tier.
PEER_FETCH_KINDS = ("service",)

#: Per-request deadline for one peer probe.  Deliberately short: a dead
#: peer must degrade a cold submit by at most this much before the
#: shard computes locally.
DEFAULT_PEER_TIMEOUT = 2.0


@dataclass
class TierCounters:
    """Observability tallies for one tier of the cache.

    ``hits``/``misses`` count probes that reached this tier (a local
    hit never probes shared, so tier misses are not request misses);
    ``promotes`` counts artifacts copied *from* this tier into faster
    tiers; ``stores`` counts write-throughs landing here; ``errors``
    counts I/O or transport failures swallowed by the fallback
    contract; ``corrupt`` counts unreadable artifacts healed here.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    promotes: int = 0
    errors: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits, "misses": self.misses,
            "stores": self.stores, "promotes": self.promotes,
            "errors": self.errors, "corrupt": self.corrupt,
        }


class _SharedTierCache(ArtifactCache):
    """The shared-directory tier: a plain cache that reports heals."""

    def __init__(self, root, *, version: str, tier: TierCounters) -> None:
        super().__init__(root, version=version)
        self._tier = tier

    def _heal(self, kind: str, digest: str) -> bool:
        healed = super()._heal(kind, digest)
        if healed:
            self._tier.corrupt += 1
        return healed


def _http_fetch(url: str, timeout: float) -> Optional[bytes]:
    """GET one peer URL; the document bytes on 200, ``None`` otherwise.

    Raises nothing: every transport or HTTP failure is the caller's
    "this peer has no answer" signal, tallied but never propagated.
    """
    request = urllib.request.Request(url, method="GET")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        if response.status != 200:
            return None
        return response.read()


class TieredArtifactCache(ArtifactCache):
    """Local cache with shared-directory and HTTP-peer read fallbacks.

    Drop-in for :class:`ArtifactCache` wherever one is used (the
    dispatcher, the experiment context, the CLI): with no
    ``shared_root`` and no ``peers`` it behaves identically to the
    plain cache apart from keeping tier tallies.  ``fetcher`` is the
    peer transport (``fetcher(url, timeout) -> bytes | None``),
    injectable for tests; any exception it raises counts as a peer
    error and falls through.
    """

    def __init__(
        self,
        root,
        *,
        shared_root=None,
        peers: Sequence[str] = (),
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
        peer_kinds: Sequence[str] = PEER_FETCH_KINDS,
        version: str = None,
        fetcher: Callable[[str, float], Optional[bytes]] = _http_fetch,
    ) -> None:
        super().__init__(root, version=version)
        self.tiers: Dict[str, TierCounters] = {
            "local": TierCounters(),
            "shared": TierCounters(),
            "peer": TierCounters(),
        }
        self.shared: Optional[_SharedTierCache] = (
            _SharedTierCache(
                Path(shared_root), version=self.version,
                tier=self.tiers["shared"],
            )
            if shared_root else None
        )
        self.peers = tuple(str(p).rstrip("/") for p in peers)
        self.peer_timeout = float(peer_timeout)
        self.peer_kinds = frozenset(peer_kinds)
        self._fetch = fetcher

    def factory(self) -> Callable[[], "TieredArtifactCache"]:
        """The local and shared roots, for worker processes.

        Peers are left out: only ``service`` documents are peer-fetched,
        and workers never load those.
        """
        return partial(
            TieredArtifactCache, self.root,
            shared_root=self.shared.root if self.shared is not None else None,
            version=self.version,
        )

    # -- reads ----------------------------------------------------------

    def exists_digest(self, kind: str, digest: str) -> bool:
        """Path probe across the directory tiers (no HTTP, no tallies)."""
        if super().exists_digest(kind, digest):
            return True
        return (self.shared is not None
                and self.shared.exists_digest(kind, digest))

    def readable_digest(self, kind: str, digest: str) -> bool:
        """Tier-walking form of the dispatcher's instant-complete probe.

        Local and shared tiers are structurally verified (and healed on
        failure) with the cheap STOP-opcode check; on a double miss, a
        peer-fetchable kind is fetched *now* and promoted, so a ``True``
        answer always means a subsequent :meth:`load_digest` can be
        served from a directory tier.
        """
        if super().readable_digest(kind, digest):
            self.tiers["local"].hits += 1
            return True
        self.tiers["local"].misses += 1
        if self.shared is not None:
            if self.shared.readable_digest(kind, digest):
                self.tiers["shared"].hits += 1
                return True
            self.tiers["shared"].misses += 1
        return self._fetch_and_promote(kind, digest) is not None

    def load_digest(
        self, kind: str, digest: str, *, allow_peer: bool = True
    ) -> Tuple[bool, Any]:
        """Tier-walking load.  ``allow_peer=False`` restricts the walk
        to the directory tiers — required when the caller *is* the
        ``/v1/results`` handler, i.e. the peer-fetch transport itself
        (two shards missing one digest must 404, not ping-pong).

        The per-kind counters tally the walk's outcome — a hit in any
        tier is one hit, and its promotion is not a store — while the
        per-tier tallies record where it was found."""
        hit, value = self._read(kind, digest)
        if hit:
            self.tiers["local"].hits += 1
        else:
            self.tiers["local"].misses += 1
            hit, value = self._load_outer(kind, digest, allow_peer)
        self._tally(kind, hit)
        return hit, value

    def _load_outer(
        self, kind: str, digest: str, allow_peer: bool
    ) -> Tuple[bool, Any]:
        """The shared-then-peer half of :meth:`load_digest`."""
        if self.shared is not None:
            hit, value = self.shared.load_digest(kind, digest)
            if hit:
                self.tiers["shared"].hits += 1
                self._promote_local(kind, digest, value, "shared")
                return True, value
            self.tiers["shared"].misses += 1
        if allow_peer:
            value = self._fetch_and_promote(kind, digest)
            if value is not None:
                return True, value
        return False, None

    # -- writes ---------------------------------------------------------

    def store_digest(self, kind: str, digest: str, value: Any) -> str:
        """Local store plus best-effort write-through to the shared tier.

        The local store keeps the full atomicity/raciness contract of
        the base class; the shared echo may fail (mount gone, quota,
        permissions) without failing the caller — the artifact is
        durable locally and the failure is tallied, so sharding degrades
        to per-shard caching rather than erroring jobs.
        """
        super().store_digest(kind, digest, value)
        if self.shared is not None:
            try:
                self.shared.store_digest(kind, digest, value)
                self.tiers["shared"].stores += 1
            except OSError:
                self.tiers["shared"].errors += 1
        self.tiers["local"].stores += 1
        return digest

    # -- promotion ------------------------------------------------------

    def _promote_local(
        self, kind: str, digest: str, value: Any, source: str
    ) -> None:
        """Copy a slower tier's artifact into the local tier."""
        try:
            self._write(kind, digest, value)
        except OSError:
            self.tiers["local"].errors += 1
            return
        self.tiers[source].promotes += 1

    def _fetch_and_promote(self, kind: str, digest: str) -> Optional[Any]:
        """Ask each peer for a fetchable artifact; promote on success.

        Returns the artifact value, or ``None`` when no peer answered
        (not configured, wrong kind, down, or a genuine miss) — the
        caller computes locally, which is the whole fallback contract.
        """
        if kind not in self.peer_kinds or not self.peers:
            return None
        for peer in self.peers:
            url = f"{peer}/v1/results/{digest}"
            try:
                raw = self._fetch(url, self.peer_timeout)
                if raw is None:
                    continue
                value = raw.decode("utf-8") if isinstance(raw, bytes) else raw
            except Exception:
                self.tiers["peer"].errors += 1
                continue
            self.tiers["peer"].hits += 1
            self._promote_local(kind, digest, value, "peer")
            if self.shared is not None:
                try:
                    self.shared.store_digest(kind, digest, value)
                    self.tiers["shared"].stores += 1
                except OSError:
                    self.tiers["shared"].errors += 1
            return value
        self.tiers["peer"].misses += 1
        return None

    # -- reporting ------------------------------------------------------

    def tier_stats(self) -> dict:
        """The ``tiered`` section of ``/v1/stats`` (stable key order)."""
        return {
            "local": self.tiers["local"].as_dict(),
            "shared": self.tiers["shared"].as_dict(),
            "peer": self.tiers["peer"].as_dict(),
            "shared_root": (
                str(self.shared.root) if self.shared is not None else None
            ),
            "peer_count": len(self.peers),
        }
