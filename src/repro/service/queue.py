"""Persistent, crash-safe job queue for the simulation service.

Every submitted experiment request becomes a :class:`ServiceJob` with a
tiny state machine (``queued -> running -> done | failed |
quarantined``).  All state lives in two files under ``<root>``:

* **journal** (``journal.jsonl``) — submits, duplicate attachments, and
  state transitions are each one appended, fsynced JSON line, and the
  in-memory table mutates only *after* the journal line is durable — so
  a crash at any instant loses at most the event being written.
* **snapshot** (``snapshot.json``) — a periodic :meth:`~JobQueue.compact`
  writes the whole live table atomically (temp file + fsync +
  ``os.replace``) and resets the journal, so a long-lived queue's
  restart cost is O(live jobs), not O(journal history).

Snapshot and journal are stitched together by a **generation** counter:
every compaction bumps it, stamps the new snapshot with it, and starts
the fresh journal with a ``{"event": "journal", "generation": G}``
header line.  Replay loads the snapshot (generation ``S``), then applies
the journal tail only when its header generation matches ``S`` — a
journal left behind by a crash *between* the snapshot rename and the
journal reset carries the previous generation and is correctly ignored
(every event in it is already folded into the snapshot).  A journal
*newer* than the snapshot, or a snapshot that fails to parse (a torn or
truncated file), fails loudly with :class:`SnapshotCorruptError` —
silently replaying stale state would be worse than refusing to start.
Jobs that were ``running`` when the process died are demoted back to
``queued`` (their work is repeatable and cache-backed, so re-execution
is safe), and a torn trailing journal line from a mid-write crash is
truncated away.

Compaction retains every live (queued/running) job plus the
``retain_terminal`` most recent finished ones (so pollers of a
just-completed job keep getting its record); older terminal jobs are
dropped from the table.  Dropping them is safe because their results
live in the content-addressed artifact cache: a resubmission creates a
fresh job that the dispatcher instantly completes from the store.

Deduplication happens at submit time: a job's identity is the
value-based fingerprint of its normalized request, and submitting an
identical request while a live job for it exists *attaches* to that job
instead of creating a new one.  Failed jobs do not absorb duplicates —
resubmitting a failed request queues a fresh attempt.  Quarantined jobs
*do* absorb duplicates: the request is poisonous under the current code
version, so resubmitting the same bytes would only repeat the crash —
the resubmission path out of quarantine is a ``code_version`` bump,
which changes the request digest and therefore the job identity.

Failure containment (see the dispatcher for policy): ``attempts``
counts *failed executions* — :meth:`JobQueue.retry` journals a
``running -> queued`` transition that charges one attempt, distinct
from crash demotion (which is free: the work never misbehaved, the
process hosting it died).  :meth:`JobQueue.quarantine` is the terminal
escalation, carrying a ``failure_reason`` diagnostic.  Both journal the
*absolute* new attempt count, so replay is exact without arithmetic.
``lease_deadline`` (set by :meth:`mark_running` when the dispatcher
enforces deadlines) bounds how long a RUNNING claim is trusted; the
dispatcher reclaims expired leases through the same retry/quarantine
policy.

The queue is thread-safe (the HTTP server submits from the asyncio
thread while the dispatcher's drain thread claims) but single-process;
multi-process sharing would shard queue directories, not this file.

Crash-injection seams: every fsync/rename/append/truncate boundary in
this module calls :func:`_fp` with a site name from
:data:`FAILPOINT_SITES`.  The default hook is ``None`` (zero overhead
beyond a global read); ``tests/service/crashsim.py`` installs a hook
that raises at a chosen site occurrence and then asserts the replay
invariants hold.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.cache import code_version, fingerprint, write_json_atomic

from .events import EventBus, JobTracer

__all__ = [
    "AdmissionError",
    "CompactionReport",
    "FAILPOINT_SITES",
    "JobQueue",
    "JobState",
    "QueueFullError",
    "QuotaExceededError",
    "ServiceJob",
    "SnapshotCorruptError",
    "TransitionError",
    "set_failpoint_hook",
]


# ----------------------------------------------------------------------
# Failpoints: the crash-injection seam.
# ----------------------------------------------------------------------

#: Every durability boundary in queue + compaction code, in the order a
#: full submit/compact/recover cycle visits them.  The crash harness
#: asserts it covered all of them.
FAILPOINT_SITES = (
    "journal.append.write",   # before the journal line is written
    "journal.append.fsync",   # line written+flushed, before fsync
    "journal.append.done",    # line durable, before memory mutates
    "journal.truncate",       # before a torn tail is truncated away
    "journal.reset.write",    # before the fresh journal's header is written
    "journal.reset.fsync",    # header written, before fsync
    "journal.reset.rename",   # header durable, before it replaces the journal
    "snapshot.write",         # before the snapshot temp file is written
    "snapshot.fsync",         # snapshot written, before fsync
    "snapshot.rename",        # snapshot durable, before it replaces snapshot.json
    "snapshot.replaced",      # snapshot live, before the journal resets
    "compact.done",           # journal reset, before memory drops old jobs
)

#: Test-only hook; ``None`` in production.
_FAILPOINT_HOOK: Optional[Callable[[str], None]] = None


def set_failpoint_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with ``None``) the global failpoint hook."""
    global _FAILPOINT_HOOK
    _FAILPOINT_HOOK = hook


def _fp(site: str) -> None:
    hook = _FAILPOINT_HOOK
    if hook is not None:
        hook(site)


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    QUARANTINED = "quarantined"


#: Legal state transitions.  ``QUEUED -> DONE`` is the instant-cache-hit
#: path (no execution phase); ``RUNNING -> QUEUED`` is crash recovery
#: (journal replay demotes interrupted work) *and* the bounded-retry
#: path (same transition, but journaled with an attempt charge);
#: ``DONE -> QUEUED`` is result eviction (a gc pruned the artifact out
#: from under the job, so it must recompute).  ``RUNNING ->
#: QUARANTINED`` is the terminal escalation for a job that keeps
#: failing its executions — like FAILED, nothing leaves it.
_TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.DONE, JobState.FAILED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.QUEUED,
                       JobState.QUARANTINED},
    JobState.DONE: {JobState.QUEUED},
    JobState.FAILED: set(),
    JobState.QUARANTINED: set(),
}

#: States compaction treats as finished (droppable beyond retention).
_TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.QUARANTINED)


class TransitionError(RuntimeError):
    """An illegal job state transition was requested."""


class AdmissionError(RuntimeError):
    """A submission was refused at admission (overload protection).

    Refusal happens *before* anything is journaled: a refused request
    costs one in-memory check, never an fsync, and leaves no job record
    behind.  Subclasses name the breached limit; the HTTP layer maps
    them to 429/503 with a ``Retry-After`` hint.
    """


class QuotaExceededError(AdmissionError):
    """The client already has its full quota of live jobs (HTTP 429)."""


class QueueFullError(AdmissionError):
    """The queue is at its configured depth bound (HTTP 503)."""


class SnapshotCorruptError(RuntimeError):
    """The on-disk snapshot/journal pair is unusable.

    Raised instead of silently replaying stale state: a snapshot that
    fails to parse (torn or truncated), a snapshot whose job table does
    not match its own ``job_count``, or a journal whose generation is
    *newer* than the snapshot next to it (the snapshot was deleted or
    replaced out-of-band) all mean the queue directory no longer tells a
    consistent story, and starting from a guess would resurrect or lose
    acknowledged jobs.
    """


@dataclass
class ServiceJob:
    """One submitted experiment request and its lifecycle."""

    id: str
    #: Value-based identity of the normalized request (dedup key).
    digest: str
    request: dict
    client: str
    #: Monotonic submission sequence number (fairness/ordering source).
    seq: int
    state: JobState = JobState.QUEUED
    #: Extra submissions coalesced onto this job (dedup hits).
    attached: int = 0
    #: Artifact digest of the stored result (``service`` kind), when done.
    result_key: Optional[str] = None
    #: ``"computed"`` or ``"cache"``, when done.
    source: Optional[str] = None
    error: Optional[str] = None
    #: Failed executions charged so far (retry/quarantine transitions
    #: journal the absolute value; crash demotion leaves it untouched).
    attempts: int = 0
    #: Diagnostic carried by the quarantine transition: what kept
    #: failing (pool crash, deadline, exception) and at which attempt.
    failure_reason: Optional[str] = None
    #: Wall-clock (``time.time``) instant after which a RUNNING claim
    #: is no longer trusted; ``None`` when deadlines are not enforced.
    lease_deadline: Optional[float] = None

    def public(self) -> dict:
        """The JSON shape ``GET /v1/jobs/<id>`` serves."""
        record = asdict(self)
        record["state"] = self.state.value
        return record


def request_digest(request: dict, version: str = None) -> str:
    """Value-based identity of a normalized request payload.

    ``version`` (default: the live :func:`code_version`) is part of the
    identity so that a queue journal surviving a source change never
    coalesces a fresh submission onto a job computed by old code — the
    same invalidation rule the artifact cache applies to its keys.
    """
    return fingerprint(
        "service-request", request,
        code_version() if version is None else version,
    )


@dataclass
class CompactionReport:
    """What one :meth:`JobQueue.compact` pass did."""

    generation: int
    jobs_kept: int
    jobs_dropped: int
    events_folded: int

    def summary(self) -> str:
        return (
            f"compact: generation {self.generation}, "
            f"kept {self.jobs_kept} job(s), dropped {self.jobs_dropped}, "
            f"folded {self.events_folded} journal event(s) into the snapshot"
        )


class JobQueue:
    """Journal-backed job table with atomic, validated transitions.

    ``compact_every`` (events appended since the last snapshot) arms
    :meth:`maybe_compact`, which the owner's housekeeping loop (the
    dispatcher's drain thread, for the service) calls between batches;
    ``None`` leaves compaction manual.  ``retain_terminal`` bounds how
    many finished jobs a snapshot keeps.
    """

    SNAPSHOT_FILE = "snapshot.json"

    def __init__(
        self,
        root: os.PathLike,
        *,
        version: str = None,
        compact_every: Optional[int] = None,
        retain_terminal: int = 256,
        events: Optional[EventBus] = None,
        tracer: Optional[JobTracer] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        self.snapshot_path = self.root / self.SNAPSHOT_FILE
        self.version = version if version is not None else code_version()
        if compact_every is not None and compact_every < 1:
            raise ValueError("compact_every must be >= 1 (or None)")
        if retain_terminal < 0:
            raise ValueError("retain_terminal must be >= 0")
        self.compact_every = compact_every
        self.retain_terminal = retain_terminal
        self.jobs: Dict[str, ServiceJob] = {}
        self._by_digest: Dict[str, str] = {}
        self._seq = 0
        #: Per-state job tallies, maintained incrementally so depth and
        #: state queries stay O(1) however many jobs the table retains.
        self._counts = {state: 0 for state in JobState}
        #: id -> job for QUEUED jobs only, so draining scales with the
        #: queue, not with the ever-retained job history.
        self._queued: Dict[str, ServiceJob] = {}
        #: client -> live (queued + running) job count, maintained
        #: incrementally so per-client quota checks stay O(1).
        self._client_live: Dict[str, int] = {}
        self._lock = threading.RLock()
        #: Snapshot/journal generation; bumped by every compaction.
        self._generation = 0
        #: Events appended since the last snapshot (auto-compact trigger).
        self._events_since_snapshot = 0
        #: Cumulative compaction tallies for this process (``/v1/stats``).
        self._compactions = 0
        self._compacted_events = 0
        self._dropped_jobs = 0
        self._journal: Optional[object] = None
        #: Observability exhaust.  Every ``_apply`` publishes one bus
        #: record (replay included — live and replayed state share the
        #: emission path), while span stamps are live-only: ``_journal``
        #: opens after replay, and replayed transitions must not pollute
        #: the latency histograms with restart-time gaps.
        self.events = events if events is not None else EventBus()
        self.tracer = tracer if tracer is not None else JobTracer()

        self._truncate_torn_tail()
        self._load_snapshot()
        if not self._replay_tail():
            # The journal predates the snapshot (a crash hit between the
            # snapshot rename and the journal reset): every event in it
            # is already folded into the snapshot, so finish the
            # interrupted reset before anything appends.
            self._reset_journal()
        self._journal = open(self.journal_path, "a", encoding="utf-8")
        self._demote_interrupted()

    # -- journal ---------------------------------------------------------

    def _append(self, event: dict) -> None:
        """One durable journal line; the caller mutates memory after."""
        if self._journal is None:
            # A compaction published its snapshot but could not reset
            # the journal to match (see compact()); an event appended to
            # the stale-generation journal would be silently discarded
            # by the next replay, so refuse it loudly instead.
            raise RuntimeError(
                "queue journal is unavailable (compaction failed between "
                "snapshot publish and journal reset); restart the queue "
                "to recover from the snapshot"
            )
        line = json.dumps(event, sort_keys=True) + "\n"
        _fp("journal.append.write")
        self._journal.write(line)
        self._journal.flush()
        _fp("journal.append.fsync")
        os.fsync(self._journal.fileno())
        _fp("journal.append.done")
        self._events_since_snapshot += 1

    def _truncate_torn_tail(self) -> None:
        """Drop a torn trailing line before anything appends.

        A crash mid-append can leave the journal without a trailing
        newline; appending to that file would glue the next (durably
        acknowledged) event onto the torn fragment and silently lose it
        on the following replay.  Truncating back to the last newline
        restores the append-only invariant: every line is a whole line.
        """
        if not self.journal_path.exists():
            return
        with open(self.journal_path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(size - 1)
            if handle.read(1) == b"\n":  # common path: one-byte peek
                return
            handle.seek(0)
            keep = handle.read().rfind(b"\n") + 1  # 0 if no newline at all
            _fp("journal.truncate")
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())

    def _reset_journal(self) -> None:
        """Atomically replace the journal with a fresh header-only file.

        The fresh journal's single line stamps the current generation;
        the same temp+fsync+rename idiom every JSON state file uses
        (:func:`~repro.experiments.cache.write_json_atomic`), so a
        crash at any point leaves either the old complete journal or
        the new one — never a torn hybrid.  The caller is responsible
        for reopening ``self._journal`` if a handle was open.
        """
        write_json_atomic(
            self.journal_path,
            {"event": "journal", "generation": self._generation},
            checkpoint=lambda step: _fp(f"journal.reset.{step}"),
        )
        self._events_since_snapshot = 0

    # -- snapshot / replay ----------------------------------------------

    @staticmethod
    def _job_record(job: ServiceJob) -> dict:
        record = asdict(job)
        record["state"] = job.state.value
        return record

    def _load_snapshot(self) -> None:
        """Load ``snapshot.json`` into the table; loud on corruption."""
        try:
            raw = self.snapshot_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise SnapshotCorruptError(
                f"{self.snapshot_path}: snapshot does not parse ({error}); "
                f"refusing to silently replay stale state"
            ) from None
        if not isinstance(payload, dict):
            raise SnapshotCorruptError(
                f"{self.snapshot_path}: snapshot is not a JSON object"
            )
        jobs = payload.get("jobs")
        expected = payload.get("job_count")
        if not isinstance(jobs, list) or expected != len(jobs):
            raise SnapshotCorruptError(
                f"{self.snapshot_path}: snapshot job table is truncated "
                f"(job_count {expected!r} != {len(jobs) if isinstance(jobs, list) else 'n/a'})"
            )
        try:
            self._generation = int(payload["generation"])
            self._seq = int(payload["seq"])
            for record in jobs:
                job = ServiceJob(
                    id=record["id"],
                    digest=record["digest"],
                    request=record["request"],
                    client=record["client"],
                    seq=record["seq"],
                    state=JobState(record["state"]),
                    attached=record["attached"],
                    result_key=record["result_key"],
                    source=record["source"],
                    error=record["error"],
                    # Containment fields arrived after the first snapshot
                    # format; default them so older snapshots still load.
                    attempts=int(record.get("attempts", 0)),
                    failure_reason=record.get("failure_reason"),
                    lease_deadline=record.get("lease_deadline"),
                )
                self.jobs[job.id] = job
                self._by_digest[job.digest] = job.id
                self._counts[job.state] += 1
                if job.state is JobState.QUEUED:
                    self._queued[job.id] = job
                if job.state in (JobState.QUEUED, JobState.RUNNING):
                    self._client_live[job.client] = (
                        self._client_live.get(job.client, 0) + 1
                    )
        except (KeyError, TypeError, ValueError) as error:
            raise SnapshotCorruptError(
                f"{self.snapshot_path}: malformed snapshot record "
                f"({type(error).__name__}: {error})"
            ) from None

    def _replay_tail(self) -> bool:
        """Apply the journal on top of the snapshot (crash-tolerant).

        Returns ``True`` when the journal belonged to the current
        generation (its events were applied), ``False`` when it was a
        stale pre-snapshot leftover whose events are already folded into
        the snapshot (the caller then resets it).  A journal from a
        *future* generation is a loud error: its snapshot is missing.
        """
        generation = 0
        events: List[dict] = []
        if self.journal_path.exists():
            first = True
            with open(self.journal_path, encoding="utf-8") as handle:
                for line in handle:
                    try:
                        event = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn write from a crash mid-append
                    if first and event.get("event") == "journal":
                        generation = int(event.get("generation", 0))
                        first = False
                        continue
                    first = False
                    events.append(event)
        if generation > self._generation:
            raise SnapshotCorruptError(
                f"{self.journal_path}: journal generation {generation} is "
                f"newer than snapshot generation {self._generation}; the "
                f"snapshot it was appended after is gone"
            )
        if generation < self._generation:
            return False
        for event in events:
            self._apply(event)
        self._events_since_snapshot = len(events)
        return True

    def _demote_interrupted(self) -> None:
        """Journal + apply ``running -> queued`` for interrupted work."""
        events = [
            {"event": "state", "id": job.id, "state": "queued"}
            for job in self.jobs.values()
            if job.state == JobState.RUNNING
        ]
        for event in events:
            self._append(event)
            self._apply(event)

    #: JobState -> tracing span stage.  RUNNING reads as "claimed"
    #: because that is what the transition *is*: a dispatcher claimed
    #: the job; execution stages are stamped by the dispatcher itself.
    _SPAN_STAGE = {
        "queued": "queued",
        "running": "claimed",
        "done": "done",
        "failed": "failed",
        "quarantined": "quarantined",
    }

    def _emit_job(self, job: ServiceJob, **extra) -> None:
        """Publish one structured bus record for a job mutation.

        A fresh dict every time: the bus stamps ``seq``/``ts`` onto
        whatever it is handed, and journal events must stay pristine.
        """
        record = {
            "event": "job",
            "id": job.id,
            "state": job.state.value,
            "client": job.client,
        }
        for key, value in (
            ("digest", job.digest),
            ("source", job.source),
            ("result_key", job.result_key),
            ("error", job.error),
            ("failure_reason", job.failure_reason),
        ):
            if value is not None:
                record[key] = value
        if job.attempts:
            record["attempts"] = job.attempts
        record.update(extra)
        self.events.publish(record)

    def _apply(self, event: dict) -> None:
        """Apply one journal event to memory.

        The ONLY mutation path: live operations journal an event and
        route it here, exactly as replay does, so a live queue and its
        own journal replay cannot disagree — and so the event bus sees
        one emission path for live and replayed mutations alike.
        """
        kind = event.get("event")
        if kind == "submit":
            job = ServiceJob(
                id=event["id"],
                digest=event["digest"],
                request=event["request"],
                client=event["client"],
                seq=event["seq"],
            )
            self.jobs[job.id] = job
            self._by_digest[job.digest] = job.id
            self._seq = max(self._seq, job.seq)
            self._counts[JobState.QUEUED] += 1
            self._queued[job.id] = job
            self._client_live[job.client] = (
                self._client_live.get(job.client, 0) + 1
            )
            self._emit_job(job)
            if self._journal is not None:
                self.tracer.stamp(job.id, "queued")
        elif kind == "attach":
            job = self.jobs.get(event["id"])
            if job is not None:
                job.attached += 1
                self.events.publish({
                    "event": "attach",
                    "id": job.id,
                    "client": job.client,
                    "attached": job.attached,
                })
        elif kind == "state":
            job = self.jobs.get(event["id"])
            if job is not None:
                state = JobState(event["state"])
                self._count_change(job.state, state)
                self._client_live_change(job, job.state, state)
                # Outcome fields first, state LAST: the HTTP thread
                # reads live job records without the queue lock, and
                # state is its validity signal — a poller that sees
                # "done" must also see the result_key that came with it.
                if state is JobState.QUEUED:
                    # Requeue/demotion/retry: any prior outcome is void.
                    job.result_key = job.source = job.error = None
                    job.failure_reason = None
                job.result_key = event.get("result_key", job.result_key)
                job.source = event.get("source", job.source)
                job.error = event.get("error", job.error)
                # Retry/quarantine events carry the absolute new attempt
                # count (no replay arithmetic); demotion carries none and
                # leaves the tally untouched.
                if "attempts" in event:
                    job.attempts = int(event["attempts"])
                job.failure_reason = event.get(
                    "failure_reason", job.failure_reason
                )
                # A lease belongs to one RUNNING claim: entering RUNNING
                # (re)sets it from the event, leaving RUNNING clears it.
                if state is JobState.RUNNING:
                    job.lease_deadline = event.get("lease_deadline")
                else:
                    job.lease_deadline = None
                job.state = state
                if state is JobState.QUEUED:
                    self._queued[job.id] = job
                else:
                    self._queued.pop(job.id, None)
                self._emit_job(job)
                if self._journal is not None:
                    self.tracer.stamp(job.id, self._SPAN_STAGE[state.value])

    def _count_change(self, old: JobState, new: JobState) -> None:
        self._counts[old] -= 1
        self._counts[new] += 1

    _LIVE_STATES = (JobState.QUEUED, JobState.RUNNING)

    def _client_live_change(
        self, job: ServiceJob, old: JobState, new: JobState
    ) -> None:
        """Keep the per-client live tally in step with a transition."""
        was_live = old in self._LIVE_STATES
        is_live = new in self._LIVE_STATES
        if was_live and not is_live:
            remaining = self._client_live.get(job.client, 0) - 1
            if remaining > 0:
                self._client_live[job.client] = remaining
            else:
                self._client_live.pop(job.client, None)
        elif is_live and not was_live:
            self._client_live[job.client] = (
                self._client_live.get(job.client, 0) + 1
            )

    # -- compaction ------------------------------------------------------

    def compact(self, *, retain_terminal: Optional[int] = None) -> CompactionReport:
        """Fold the journal into an atomic snapshot and reset the journal.

        Ordering (all under the queue lock, so no event can land in the
        about-to-die journal):

        1. write ``snapshot.json`` (temp + fsync + rename) stamped with
           generation ``G+1``, containing every live job plus the
           ``retain_terminal`` most recent finished ones;
        2. replace the journal with a fresh header-only file stamped
           ``G+1`` (temp + fsync + rename) and reopen the append handle;
        3. drop the non-retained terminal jobs from memory.

        A crash before step 1's rename leaves the old snapshot+journal
        pair (generation ``G``) fully intact; a crash between steps 1
        and 2 leaves a generation-``G`` journal next to a
        generation-``G+1`` snapshot, which replay detects and discards
        (its events are all folded into the snapshot); a crash inside
        step 2 leaves either journal file whole, never a hybrid.  Memory
        mutates last, after everything is durable.
        """
        retain = (
            self.retain_terminal if retain_terminal is None else retain_terminal
        )
        if retain < 0:
            raise ValueError("retain_terminal must be >= 0")
        with self._lock:
            live = [
                job for job in self.jobs.values()
                if job.state in (JobState.QUEUED, JobState.RUNNING)
            ]
            terminal = sorted(
                (
                    job for job in self.jobs.values()
                    if job.state in _TERMINAL_STATES
                ),
                key=lambda job: job.seq,
            )
            dropped = terminal[:max(0, len(terminal) - retain)]
            dropped_ids = {job.id for job in dropped}
            kept = sorted(
                (job for job in self.jobs.values()
                 if job.id not in dropped_ids),
                key=lambda job: job.seq,
            )
            generation = self._generation + 1
            folded = self._events_since_snapshot
            payload = {
                "generation": generation,
                "seq": self._seq,
                "job_count": len(kept),
                "jobs": [self._job_record(job) for job in kept],
            }
            write_json_atomic(
                self.snapshot_path, payload,
                checkpoint=lambda step: _fp(f"snapshot.{step}"),
            )
            self._generation = generation
            _fp("snapshot.replaced")
            try:
                self._reset_journal()
                if self._journal is not None and not self._journal.closed:
                    self._journal.close()
                self._journal = open(self.journal_path, "a",
                                     encoding="utf-8")
            except BaseException:
                # The generation-G+1 snapshot is live but the journal
                # could not be reset to match.  If appends kept landing
                # in the stale generation-G journal they would be
                # acknowledged, then silently discarded by the next
                # replay — so close the handle and let _append refuse
                # loudly until a restart recovers from the snapshot.
                if self._journal is not None and not self._journal.closed:
                    try:
                        self._journal.close()
                    except OSError:
                        pass
                self._journal = None
                raise
            _fp("compact.done")
            for job in dropped:
                del self.jobs[job.id]
                self._counts[job.state] -= 1
                if self._by_digest.get(job.digest) == job.id:
                    del self._by_digest[job.digest]
            self._compactions += 1
            self._compacted_events += folded
            self._dropped_jobs += len(dropped)
            return CompactionReport(
                generation=generation,
                jobs_kept=len(kept),
                jobs_dropped=len(dropped),
                events_folded=folded,
            )

    def maybe_compact(self) -> Optional[CompactionReport]:
        """Compact iff the journal has outgrown ``compact_every`` events.

        The auto-compaction entry point — called by the dispatcher's
        drain thread (never from the HTTP event loop: a snapshot write
        is multiple fsyncs, and the submit path runs on the loop), and
        available to any standalone queue owner's housekeeping loop.
        """
        with self._lock:
            if (
                self.compact_every is None
                or self._events_since_snapshot < self.compact_every
            ):
                return None
            return self.compact()

    def compaction_stats(self) -> Dict[str, int]:
        """Generation + compaction tallies, served by ``GET /v1/stats``."""
        with self._lock:
            return {
                "generation": self._generation,
                "compactions": self._compactions,
                "events_folded": self._compacted_events,
                "jobs_dropped": self._dropped_jobs,
                "journal_events": self._events_since_snapshot,
            }

    # -- submission ------------------------------------------------------

    def submit(
        self,
        request: dict,
        client: str,
        *,
        quota: Optional[int] = None,
        max_depth: Optional[int] = None,
        result_key: Optional[str] = None,
    ) -> tuple:
        """Register a request; returns ``(job, created)``.

        An identical in-flight, completed, or quarantined request
        coalesces onto the existing job (``created == False``); only
        failed attempts are eligible for a fresh retry job (quarantined
        jobs need a ``code_version`` bump to get a fresh identity).

        Admission control happens here, inside the queue lock, so the
        check and the journal append are one atomic step.  Coalescing
        is always admitted (an attach is one journal line and zero new
        work); a *new* job is refused with :class:`QuotaExceededError`
        when ``client`` already has ``quota`` live (queued + running)
        jobs, or :class:`QueueFullError` when the queue already holds
        ``max_depth`` live jobs.

        ``result_key`` names a rendered result already in the artifact
        store: the new job bypasses both bounds, since it never occupies
        the queue, and completes on the spot (``queued -> done``,
        ``source == "cache"``, with a ``cache_hit`` span between).  Both
        journal events are written in one hold of the lock, so no drain
        can claim the job between them and execute it again.
        """
        digest = request_digest(request, self.version)
        with self._lock:
            existing_id = self._by_digest.get(digest)
            if existing_id is not None:
                existing = self.jobs[existing_id]
                if existing.state != JobState.FAILED:
                    event = {"event": "attach", "id": existing.id}
                    self._append(event)
                    self._apply(event)
                    return existing, False
            if result_key is None:
                if (max_depth is not None
                        and self._counts[JobState.QUEUED]
                        + self._counts[JobState.RUNNING] >= max_depth):
                    raise QueueFullError(
                        f"queue is full ({max_depth} live job(s)); "
                        f"retry later"
                    )
                if (quota is not None
                        and self._client_live.get(client, 0) >= quota):
                    raise QuotaExceededError(
                        f"client {client!r} already has {quota} live "
                        f"job(s) in flight; retry later"
                    )
            self._seq += 1
            event = {
                "event": "submit",
                "id": f"job-{self._seq:06d}-{digest[:12]}",
                "digest": digest,
                "request": request,
                "client": client,
                "seq": self._seq,
            }
            self._append(event)
            self._apply(event)
            job = self.jobs[event["id"]]
            if result_key is not None:
                self.tracer.stamp(job.id, "cache_hit")
                self._transition(
                    job.id, JobState.DONE, result_key=result_key,
                    source="cache",
                )
            return job, True

    # -- transitions -----------------------------------------------------

    def _transition(self, job_id: str, state: JobState, **details) -> ServiceJob:
        """Validate, journal, then apply — through the same `_apply` the
        replay path uses, so live state and post-replay state cannot
        diverge."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            if state not in _TRANSITIONS[job.state]:
                raise TransitionError(
                    f"job {job_id}: illegal transition "
                    f"{job.state.value} -> {state.value}"
                )
            event = {"event": "state", "id": job_id, "state": state.value}
            event.update({k: v for k, v in details.items() if v is not None})
            self._append(event)
            self._apply(event)
            return job

    def mark_running(
        self, job_id: str, *, lease_seconds: Optional[float] = None
    ) -> ServiceJob:
        """QUEUED -> RUNNING, optionally stamping a lease deadline.

        With ``lease_seconds`` the journal records the absolute
        wall-clock deadline (``time.time() + lease_seconds``), so replay
        restores exactly the deadline that was promised, not one
        recomputed from a later clock.
        """
        deadline = None
        if lease_seconds is not None:
            deadline = round(time.time() + lease_seconds, 3)
        return self._transition(
            job_id, JobState.RUNNING, lease_deadline=deadline
        )

    def mark_done(self, job_id: str, *, result_key: str,
                  source: str) -> ServiceJob:
        return self._transition(
            job_id, JobState.DONE, result_key=result_key, source=source
        )

    def mark_failed(self, job_id: str, error: str) -> ServiceJob:
        return self._transition(job_id, JobState.FAILED, error=error)

    def retry(self, job_id: str) -> ServiceJob:
        """RUNNING -> QUEUED, charging one failed attempt.

        The bounded-retry transition: unlike :meth:`demote` (crash
        recovery, free), this one records that an *execution misbehaved*
        — the journal event carries ``retry: true`` plus the absolute
        new attempt count, so a replayed queue knows exactly how many
        chances the job has burned.  The attempt *cap* is dispatcher
        policy (``--max-attempts``); the queue is the mechanism.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            return self._transition(
                job_id, JobState.QUEUED, retry=True,
                attempts=job.attempts + 1,
            )

    def quarantine(self, job_id: str, reason: str) -> ServiceJob:
        """RUNNING -> QUARANTINED (terminal), with a diagnostic.

        The escalation for a job that exhausted its attempt budget (or
        is known-poisonous, e.g. isolated by batch bisection as the cell
        that kills the worker pool).  Quarantined jobs absorb duplicate
        submissions like done jobs do — retrying identical bytes under
        the same code version would only repeat the failure; a
        ``code_version`` bump changes the request digest and gets a
        fresh job.
        """
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise KeyError(f"no job {job_id!r}")
            return self._transition(
                job_id, JobState.QUARANTINED, failure_reason=reason,
                attempts=job.attempts + 1,
            )

    def requeue_lost(self, job_id: str) -> ServiceJob:
        """Put a DONE job back in the queue after its result was evicted.

        The path a cache ``gc`` forces: the job record says done but the
        artifact its ``result_key`` names no longer exists, so the next
        identical submission must recompute rather than 404 forever.
        """
        return self._transition(job_id, JobState.QUEUED)

    def demote(self, job_id: str) -> ServiceJob:
        """Best-effort RUNNING -> QUEUED (dispatcher batch-failure path).

        The same transition crash replay performs, available to a live
        dispatcher whose batch died before finishing its jobs — without
        it, a mid-batch journal I/O error would strand them RUNNING (a
        state nothing re-drains) until the next restart.
        """
        return self._transition(job_id, JobState.QUEUED)

    # -- queries ---------------------------------------------------------

    def get(self, job_id: str) -> Optional[ServiceJob]:
        with self._lock:
            return self.jobs.get(job_id)

    def pending_fair(self, limit: int) -> List[ServiceJob]:
        """Up to ``limit`` queued jobs, round-robin across clients.

        Clients take turns (ordered by their oldest queued submission),
        one job per turn — a client that bulk-submits a hundred sweeps
        cannot starve another client's single request.
        """
        with self._lock:
            # The queued index keeps this O(queued), independent of how
            # many terminal jobs the table retains for dedup.
            queued = sorted(
                self._queued.values(), key=lambda job: job.seq
            )
        buckets: Dict[str, List[ServiceJob]] = {}
        for job in queued:
            buckets.setdefault(job.client, []).append(job)
        order = sorted(buckets, key=lambda client: buckets[client][0].seq)
        picked: List[ServiceJob] = []
        round_index = 0
        while len(picked) < limit:
            progressed = False
            for client in order:
                bucket = buckets[client]
                if round_index < len(bucket):
                    picked.append(bucket[round_index])
                    progressed = True
                    if len(picked) >= limit:
                        break
            if not progressed:
                break
            round_index += 1
        return picked

    def has_pending(self) -> bool:
        """O(1) queued-work check (the dispatcher's idle-poll fast path)."""
        with self._lock:
            return self._counts[JobState.QUEUED] > 0

    def depth(self) -> int:
        """Live (queued + running) jobs; O(1)."""
        with self._lock:
            return (self._counts[JobState.QUEUED]
                    + self._counts[JobState.RUNNING])

    def running_jobs(self) -> List[ServiceJob]:
        """Jobs currently RUNNING (drain-time demotion, lease scans)."""
        with self._lock:
            return [job for job in self.jobs.values()
                    if job.state is JobState.RUNNING]

    def expired_leases(self, now: Optional[float] = None) -> List[ServiceJob]:
        """RUNNING jobs whose lease deadline has passed.

        The scan is O(table); RUNNING jobs are bounded by the drain
        slots' batch budget, and the caller (the dispatcher's
        housekeeping step) decides retry vs quarantine — the queue only
        reports.
        """
        instant = time.time() if now is None else now
        with self._lock:
            return [
                job for job in self.jobs.values()
                if job.state is JobState.RUNNING
                and job.lease_deadline is not None
                and job.lease_deadline < instant
            ]

    def client_inflight(self, client: str) -> int:
        """Live (queued + running) jobs charged to one client; O(1)."""
        with self._lock:
            return self._client_live.get(client, 0)

    def state_counts(self) -> Dict[str, int]:
        """Per-state job tallies; O(1)."""
        with self._lock:
            return {
                state.value: self._counts[state] for state in JobState
            }

    def close(self) -> None:
        with self._lock:
            if self._journal is not None and not self._journal.closed:
                self._journal.close()
