"""Content-addressed on-disk artifact cache for the experiment pipeline.

Every expensive artifact an experiment produces — built binaries, dynamic
traces, functional-run results, timing-simulation stats — is addressable
by a deterministic *cache key*: the SHA-256 digest of

* the artifact **kind** (``binary`` / ``trace`` / ``functional`` /
  ``timed`` / experiment-specific kinds),
* a canonical rendering of the **key tuple** (workload name, profile
  scale, :class:`~repro.dvi.config.DVIConfig`,
  :class:`~repro.sim.config.MachineConfig`, flags), and
* the **code version** — a digest of every ``.py`` and ``.c`` file
  under ``src/repro`` — so any source change invalidates the whole
  store rather than serving stale simulations.

DESIGN.md documents the key/invalidation scheme; the short version is
that a key canonicalizes *values*, never object identities, so two
processes (or two runs on different days) that request the same cell
produce the same digest and share one artifact file.

Artifacts are pickled to ``<root>/<kind>/<digest>.pkl``, one flat
directory per kind.
Writes go through a temporary file followed by :func:`os.replace`, so
concurrent writers (the :mod:`repro.experiments.parallel` worker pool,
or several service worker processes) race benignly: both compute the
same bytes and the last rename wins.  A writer whose rename fails
because another process holds the destination open (``PermissionError``
on Windows) treats the other writer's identical artifact as its own
store.
:meth:`ArtifactCache.gc` prunes by age/size and sweeps the ``.tmp``
droppings a crashed writer can leave behind.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

__all__ = [
    "ArtifactCache",
    "CacheCounters",
    "CacheEntry",
    "GCReport",
    "canonical",
    "code_version",
    "fingerprint",
    "set_store_hook",
    "write_json_atomic",
]


# ----------------------------------------------------------------------
# Canonicalization and fingerprinting.
# ----------------------------------------------------------------------

#: The renderer table: type -> the function that renders its instances.
#: :func:`canonical` builds a class's renderer the first time it meets
#: one; two threads racing on a first use build equal renderers, and
#: either may win.
_RENDERERS: Dict[type, Callable[[Any], str]] = {}


def canonical(obj: Any) -> str:
    """A deterministic, value-based rendering of ``obj``.

    Handles the types experiment keys are built from: primitives,
    tuples/lists, dicts (sorted by canonical key), enums (by class and
    member name), and dataclasses (by class name and field values, which
    covers ``DVIConfig``, ``MachineConfig``, ``ABI``, and
    ``HierarchyConfig`` recursively).  Object identity, dict insertion
    order, and float formatting quirks never leak into the result.
    A key's text is part of every cache address, so it changes only
    with a deliberate update of the golden key digest
    (``tests/experiments/test_key_rendering.py``).
    """
    render = _RENDERERS.get(type(obj))
    if render is None:
        render = _RENDERERS[type(obj)] = _renderer(type(obj))
    return render(obj)


def _renderer(cls: type) -> Callable[[Any], str]:
    """The renderer for instances of ``cls``.

    Precedence: dataclass, then enum (so an ``IntEnum`` or a
    ``str``-mixin enum renders by name), dict, list/tuple, float, and
    the ``repr`` primitives last (``True`` renders as ``'True'``).
    """
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_renderer(cls)
    if issubclass(cls, Enum):
        prefix = cls.__qualname__ + "."
        return lambda member: prefix + member._name_
    if issubclass(cls, dict):
        return _render_dict
    if issubclass(cls, (list, tuple)):
        return _render_sequence
    if issubclass(cls, float):
        return _render_float
    if issubclass(cls, (str, int)) or cls is type(None):
        return repr
    raise TypeError(f"cannot canonicalize {cls.__name__} for a cache key")


def _dataclass_renderer(cls: type) -> Callable[[Any], str]:
    """``Class(name=value,...)``, the class's fields read once."""
    head = cls.__qualname__ + "("
    fields = [(f.name + "=", f.name) for f in dataclasses.fields(cls)]

    def render(obj: Any) -> str:
        return head + ",".join([
            label + canonical(getattr(obj, name)) for label, name in fields
        ]) + ")"

    return render


def _render_dict(obj: dict) -> str:
    entries = sorted([(canonical(key), canonical(value))
                      for key, value in obj.items()])
    return "{" + ",".join([key + ":" + value for key, value in entries]) + "}"


def _render_sequence(obj: Any) -> str:
    return "[" + ",".join(map(canonical, obj)) + "]"


def _render_float(obj: float) -> str:
    if obj.is_integer() and math.isfinite(obj):
        # Numeric aliasing: ``1`` and ``1.0`` are the same value, so
        # they must render identically or every dedup layer keyed on a
        # fingerprint (live jobs, artifacts, cells) treats equal JSON
        # requests as distinct work.  Integral floats collapse to the
        # int rendering; the change is covered by code_version, so no
        # stale artifact keyed under the old rendering can be served.
        return repr(int(obj))
    return repr(obj)


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical rendering of ``parts``."""
    payload = "|".join(map(canonical, parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``.py`` and ``.c`` source file under ``src/repro``.

    Baked into every cache key so that editing *any* simulator, workload,
    or experiment source — both native engines included —
    invalidates previously stored artifacts: the coarse-but-safe
    invalidation rule DESIGN.md motivates.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    sources = [*package_root.rglob("*.py"), *package_root.rglob("*.c")]
    for path in sorted(sources):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def write_json_atomic(
    path: os.PathLike,
    payload: Any,
    *,
    indent: Optional[int] = None,
    checkpoint: Optional[Any] = None,
) -> None:
    """Write ``payload`` as JSON to ``path`` crash-safely.

    The durable-replace idiom every JSON state file in this repo uses:
    a private temp file in the destination directory, flushed and
    fsynced, then :func:`os.replace`\\ d into place — a reader sees
    either the old complete file or the new complete file, never a torn
    one.  ``checkpoint``, when given, is called with ``"write"`` /
    ``"fsync"`` / ``"rename"`` immediately before each primitive — the
    seam the service queue's crash-injection harness interposes on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if checkpoint is not None:
                checkpoint("write")
            json.dump(payload, handle, indent=indent, sort_keys=True)
            handle.write("\n")
            handle.flush()
            if checkpoint is not None:
                checkpoint("fsync")
            os.fsync(handle.fileno())
        if checkpoint is not None:
            checkpoint("rename")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# The store.
# ----------------------------------------------------------------------

#: Final byte of every complete pickle stream (the STOP opcode) — the
#: cheap structural probe :meth:`ArtifactCache.readable_digest` uses to
#: reject truncated artifacts without unpickling them.
_PICKLE_STOP = b"."

#: Optional failpoint hook around the two store primitives, called as
#: ``hook(stage, path)`` with ``stage`` in ``("write", "rename")``
#: immediately before each.  The seam the shared-tier crash-injection
#: tests interpose on (a writer killed between tmp-write and rename
#: must never publish a torn artifact); ``None`` (the default) costs
#: one global read per store.
_STORE_HOOK = None


def set_store_hook(hook) -> None:
    """Install (or with ``None`` remove) the store failpoint hook."""
    global _STORE_HOOK
    _STORE_HOOK = hook

@dataclass
class CacheCounters:
    """Hit/miss/store tallies for one artifact kind.

    ``corrupt`` counts unreadable artifacts *healed* (unlinked so the
    key recomputes) — a torn shared-filesystem write, a partial copy, a
    flipped bit.  Every corrupt observation is also a miss; the
    dedicated counter exists so operators can tell "cold" from
    "something is damaging the store".
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    @staticmethod
    def merge(
        into: Dict[str, "CacheCounters"], source: Dict[str, "CacheCounters"]
    ) -> None:
        """Add every per-kind tally of ``source`` onto ``into``.

        ``list()`` materializes ``source`` in one C-level step, so a
        thread inserting into it concurrently cannot perturb the walk.
        """
        for kind, counter in list(source.items()):
            slot = into.setdefault(kind, CacheCounters())
            slot.hits += counter.hits
            slot.misses += counter.misses
            slot.stores += counter.stores
            slot.corrupt += counter.corrupt


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk artifact, as the inventory scan reports it."""

    kind: str
    digest: str
    size: int
    mtime: float


@dataclass
class GCReport:
    """What one :meth:`ArtifactCache.gc` pass removed."""

    removed: int = 0
    freed_bytes: int = 0
    swept_tmp: int = 0

    def summary(self) -> str:
        return (
            f"gc: removed {self.removed} artifact(s), "
            f"freed {self.freed_bytes:,} bytes, "
            f"swept {self.swept_tmp} stale temp file(s)"
        )


class ArtifactCache:
    """A content-addressed pickle store rooted at a directory.

    ``lookup``/``store`` take an artifact *kind* plus a key tuple; the
    digest additionally covers :func:`code_version` (overridable for
    tests).  Counters are kept per kind so callers can assert properties
    like "a warm run performs zero functional or timing misses".
    """

    def __init__(self, root: os.PathLike, *, version: str = None) -> None:
        self.root = Path(root)
        self.version = version if version is not None else code_version()
        self.counters: Dict[str, CacheCounters] = {}

    # -- key handling ---------------------------------------------------

    def digest(self, kind: str, key: Tuple) -> str:
        return fingerprint(kind, key, self.version)

    def _path(self, kind: str, digest: str) -> Path:
        return self.root / kind / f"{digest}.pkl"

    def _counter(self, kind: str) -> CacheCounters:
        return self.counters.setdefault(kind, CacheCounters())

    def factory(self) -> Callable[[], "ArtifactCache"]:
        """A picklable callable that opens this store in another process.

        Worker pools hand it to their initializer, so every worker reads
        and writes the same store, under the same code version, as the
        process that owns the work.
        """
        return partial(ArtifactCache, self.root, version=self.version)

    # -- store/lookup ---------------------------------------------------

    def lookup(self, kind: str, key: Tuple) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        return self.load_digest(kind, self.digest(kind, key))

    def exists(self, kind: str, key: Tuple) -> bool:
        """Whether an artifact is on disk, without loading or counting.

        A pure path probe: no unpickling (cheap enough for a server's
        event loop) and no hit/miss counter side effects.
        """
        return self.exists_digest(kind, self.digest(kind, key))

    def exists_digest(self, kind: str, digest: str) -> bool:
        """Path-probe form of :meth:`exists` for a digest already in hand."""
        return self._path(kind, digest).is_file()

    def readable_digest(self, kind: str, digest: str) -> bool:
        """Whether an artifact is on disk *and* structurally complete.

        The probe the dispatcher's instant-complete path uses instead
        of the bare path probe: a torn artifact (crashed copy into a
        shared tier, flipped disk) would otherwise let the server
        complete jobs whose results can never be read.  The check stays
        event-loop cheap — open, stat, read the final byte, require the
        pickle STOP opcode — and never unpickles.  An artifact that
        fails the probe is *healed* on the spot (unlinked + ``corrupt``
        tallied) so the key recomputes instead of wedging forever.  A
        complete-but-garbage pickle can still pass; the full unpickle
        in :meth:`load_digest` heals that residue the same way.
        """
        path = self._path(kind, digest)
        try:
            with open(path, "rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) == _PICKLE_STOP:
                        return True
        except FileNotFoundError:
            return False
        except OSError:
            pass  # unreadable for any other reason: heal below
        self._heal(kind, digest)
        return False

    def load_digest(self, kind: str, digest: str) -> Tuple[bool, Any]:
        """Like :meth:`lookup`, addressed by a digest already in hand.

        This is how the service layer serves ``GET /v1/results/<key>``:
        the key a completed job advertises *is* the artifact digest, so
        the read needs no key-tuple reconstruction.

        A load that fails with the file *present* (torn or garbled
        pickle, I/O error, a payload its class refuses) heals the
        entry: the unreadable file is unlinked (tolerating a racing
        unlink or gc) and tallied under the ``corrupt`` counter, so the
        next probe misses cleanly and the key is recomputed instead of
        poisoned forever.
        """
        hit, value = self._read(kind, digest)
        self._tally(kind, hit)
        return hit, value

    def _tally(self, kind: str, hit: bool) -> None:
        counter = self._counter(kind)
        if hit:
            counter.hits += 1
        else:
            counter.misses += 1

    def _read(self, kind: str, digest: str) -> Tuple[bool, Any]:
        """:meth:`load_digest` without the hit/miss tally."""
        try:
            with open(self._path(kind, digest), "rb") as handle:
                return True, pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:
            # Anything the file's presence promised but its bytes could
            # not deliver: damaged bytes surface as a dozen exception
            # types (UnicodeDecodeError, MemoryError, ...), not just
            # UnpicklingError, and a payload's __setstate__ may refuse.
            self._heal(kind, digest)
            return False, None

    def _heal(self, kind: str, digest: str) -> bool:
        """Unlink an unreadable artifact so its key can recompute.

        A racing heal/gc/re-store is benign: missing means someone else
        already cleared (or atomically replaced) it.  The ``corrupt``
        tally counts only files *we* removed; returns whether this call
        did the unlinking (the tiered cache's per-tier tally hooks in
        here).
        """
        try:
            os.unlink(self._path(kind, digest))
        except OSError:
            return False
        self._counter(kind).corrupt += 1
        return True

    def store(self, kind: str, key: Tuple, value: Any) -> str:
        """Persist ``value`` atomically under the key's digest.

        Safe against concurrent writers of the same key: the pickle is
        written to a private temp file in the destination directory and
        renamed into place (``os.replace`` overwrites atomically).  If
        the rename fails because another process holds the destination
        open (Windows semantics), the racing writer's artifact (same
        key, hence same bytes) is accepted as this store's result.
        Returns the artifact digest.
        """
        digest = self.digest(kind, key)
        self.store_digest(kind, digest, value)
        return digest

    def store_digest(self, kind: str, digest: str, value: Any) -> str:
        """Persist ``value`` under a digest already in hand.

        The write path :meth:`store` bottoms out in, exposed for tier
        promotion: a tiered cache that fetched an artifact from a
        shared directory or a peer already knows the digest and has no
        key tuple to recompute it from.  Same atomicity contract as
        :meth:`store`.
        """
        self._write(kind, digest, value)
        self._counter(kind).stores += 1
        return digest

    def _write(self, kind: str, digest: str, value: Any) -> None:
        """:meth:`store_digest` without the store tally."""
        path = self._path(kind, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            if _STORE_HOOK is not None:
                _STORE_HOOK("write", path)
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            if _STORE_HOOK is not None:
                _STORE_HOOK("rename", path)
            try:
                os.replace(tmp_name, path)
            except PermissionError:
                if not os.path.exists(path):
                    raise  # not a racing writer; a real permission fault
                # a racing process stored the identical artifact and a
                # reader holds it open (Windows); theirs is ours
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        if os.path.exists(tmp_name):
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    # -- inventory and pruning ------------------------------------------

    def entries(self) -> Iterator["CacheEntry"]:
        """Every artifact on disk, as ``(kind, digest, bytes, mtime)``."""
        if not self.root.is_dir():
            return
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for path in sorted(kind_dir.glob("*.pkl")):
                try:
                    stat = path.stat()
                except OSError:
                    continue  # pruned by a racing gc
                yield CacheEntry(
                    kind=kind_dir.name,
                    digest=path.stem,
                    size=stat.st_size,
                    mtime=stat.st_mtime,
                )

    def disk_stats(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(entry count, total bytes)`` from a disk scan."""
        stats: Dict[str, Tuple[int, int]] = {}
        for entry in self.entries():
            count, size = stats.get(entry.kind, (0, 0))
            stats[entry.kind] = (count + 1, size + entry.size)
        return stats

    def gc(
        self,
        *,
        max_age: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> "GCReport":
        """Prune artifacts by age and/or total size; sweep stale temp files.

        ``max_age`` removes artifacts whose mtime is older than that many
        seconds; ``max_bytes`` then removes oldest-first until the store
        fits the budget.  Orphaned ``.tmp`` files (left by a writer that
        crashed mid-store) older than an hour are always swept.  Safe to
        run while readers/writers are active: a concurrently re-stored
        artifact simply reappears as a fresh entry.
        """
        now = time.time() if now is None else now
        report = GCReport()
        if self.root.is_dir():
            # Artifact-dir droppings (crashed store) and root-level ones
            # (crashed flush_counters) alike.
            for pattern in ("*/*.tmp", "*.tmp"):
                for tmp in self.root.glob(pattern):
                    try:
                        if now - tmp.stat().st_mtime > 3600.0:
                            tmp.unlink()
                            report.swept_tmp += 1
                    except OSError:
                        pass
        survivors = []
        for entry in self.entries():
            if max_age is not None and now - entry.mtime > max_age:
                self._remove(entry, report)
            else:
                survivors.append(entry)
        if max_bytes is not None:
            total = sum(entry.size for entry in survivors)
            for entry in sorted(survivors, key=lambda e: (e.mtime, e.digest)):
                if total <= max_bytes:
                    break
                self._remove(entry, report)
                total -= entry.size
        return report

    def _remove(self, entry: "CacheEntry", report: "GCReport") -> None:
        try:
            self._path(entry.kind, entry.digest).unlink()
        except OSError:
            return  # already gone (racing gc or writer) — not freed by us
        report.removed += 1
        report.freed_bytes += entry.size

    # -- persistent counters --------------------------------------------
    #
    # In-memory counters die with the process; the service's /v1/stats
    # and the ``repro cache stats`` CLI want lifetime hit/miss tallies
    # for a cache *directory*.  ``flush_counters`` folds this process's
    # tallies into ``<root>/counters.json`` (atomic replace; concurrent
    # flushes may lose each other's increments, which keeps the file
    # best-effort/approximate by design) and resets the in-memory side.

    _COUNTERS_FILE = "counters.json"

    def persistent_counters(self) -> Dict[str, Dict[str, int]]:
        """Lifetime per-kind tallies previously flushed to this root."""
        try:
            with open(self.root / self._COUNTERS_FILE, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def flush_counters(self) -> None:
        """Fold this process's counters into the root's lifetime tallies.

        Concurrency-friendly drain: the flushed amounts are snapshotted
        first and *subtracted* from the live counter objects afterwards
        (rather than swapping in a fresh dict), so increments arriving
        from other threads mid-flush are carried to the next flush
        instead of being dropped with an orphaned object.
        """
        snapshot = [
            (kind, counter, counter.hits, counter.misses, counter.stores,
             counter.corrupt)
            for kind, counter in list(self.counters.items())
        ]
        if not any(h or m or s or c for _, _, h, m, s, c in snapshot):
            return
        merged = self.persistent_counters()
        for kind, _, hits, misses, stores, corrupt in snapshot:
            slot = merged.setdefault(
                kind, {"hits": 0, "misses": 0, "stores": 0, "corrupt": 0}
            )
            slot["hits"] = slot.get("hits", 0) + hits
            slot["misses"] = slot.get("misses", 0) + misses
            slot["stores"] = slot.get("stores", 0) + stores
            slot["corrupt"] = slot.get("corrupt", 0) + corrupt
        write_json_atomic(self.root / self._COUNTERS_FILE, merged, indent=2)
        for _, counter, hits, misses, stores, corrupt in snapshot:
            counter.hits -= hits
            counter.misses -= misses
            counter.stores -= stores
            counter.corrupt -= corrupt

    # -- reporting ------------------------------------------------------

    def misses(self, *kinds: str) -> int:
        """Total misses, optionally restricted to the given kinds."""
        selected = kinds or tuple(self.counters)
        return sum(self._counter(kind).misses for kind in selected)

    def hits(self, *kinds: str) -> int:
        """Total hits, optionally restricted to the given kinds."""
        selected = kinds or tuple(self.counters)
        return sum(self._counter(kind).hits for kind in selected)

    def summary(self) -> str:
        """One line per kind, for the CLI's stderr report."""
        if not self.counters:
            return "cache: idle"
        parts = [
            f"{kind}: {c.hits} hit / {c.misses} miss / {c.stores} stored"
            + (f" / {c.corrupt} corrupt healed" if c.corrupt else "")
            for kind, c in sorted(self.counters.items())
        ]
        return "cache [" + "; ".join(parts) + "]"
