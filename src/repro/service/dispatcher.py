"""Batching dispatcher: turns queued service jobs into simulation batches.

The dispatcher sits between the :class:`~repro.service.queue.JobQueue`
and the compute core, and is where the service earns its keep:

* **Request normalization** — an incoming payload is validated against
  the component registries (sweep axes, workloads, experiments,
  profiles) and lowered to a fully explicit, canonical request dict.
  Normalization resolves defaults (axis value sets, the profile's
  workload suite), so two ways of writing the same experiment share one
  identity — the foundation for every dedup layer below.
* **Dedup, three layers** — (1) the queue coalesces a submission onto an
  identical live job; (2) a submission whose *result* is already in the
  content-addressed artifact store completes instantly without touching
  the execution pipeline (``source == "cache"``); (3) within a batch,
  :func:`repro.experiments.parallel.execute` deduplicates shared cells
  by value signature, so eight sweeps over overlapping grids cost one
  union of cells.
* **Batch coalescing** — queued jobs are drained fairly (round-robin
  per client), grouped by compatible profile, and their cells fused
  into one worker-pool batch.  The pool width (``jobs``) and the batch
  size (``max_batch``) bound each batch's concurrency budget.
* **One drain loop** — the server's one drain thread calls
  :meth:`Dispatcher.drain_once`, which claims and executes one fused
  batch at a time.  Batches never overlap, so a cell shared by two
  batches is computed by the first and read from the disk cache by the
  second: queue coalescing, signature dedup within a batch and the
  disk cache across batches are the whole exactly-once story.
* **Assembly from the warmed context** — after the fused batch runs,
  each job's result table is assembled purely from the context's memo
  layer (see :func:`repro.experiments.sweep.assemble_sweep`), rendered
  with the same deterministic manifest writer the CLI uses, and stored
  in the artifact cache under the request's key.  A service response is
  therefore byte-identical to the equivalent local ``repro sweep`` /
  figure run — the property the end-to-end tests pin.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments import EXPERIMENTS
from repro.experiments.cache import ArtifactCache, CacheCounters, fingerprint
from repro.experiments.export import render_manifest
from repro.experiments.parallel import Job, execute
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import (
    SWEEP_AXES,
    adhoc_spec,
    assemble_sweep,
    sweep_title,
)
from repro.registry import UnknownComponentError
from repro.service.routing import ConsistentHashRing
from repro.service.tiered import TieredArtifactCache
from repro.service.queue import (
    JobQueue,
    JobState,
    QueueFullError,
    QuotaExceededError,
    ServiceJob,
    TransitionError,
)
from repro.workloads.suite import get_workload

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "BreakerOpenError",
    "Dispatcher",
    "DispatcherStats",
    "RequestError",
    "normalize_request",
    "request_digest",
    "sweep_title",
]

#: Artifact kind under which rendered job results are stored.
RESULT_KIND = "service"

#: Default POST body cap (the server's transport-level admission bound).
DEFAULT_MAX_BODY_BYTES = 1 << 20


class RequestError(ValueError):
    """A submitted payload failed validation (HTTP 400)."""


def _normalize_value(value):
    """Collapse numerically equal JSON spellings of one axis value.

    JSON has one number type, so ``1`` and ``1.0`` are the same request
    — but ``str(1.0)`` is ``'1.0'``, which either fails an int axis's
    parse or (for float axes) produces a distinct canonical rendering
    that escapes every dedup layer.  Integral floats become ints here,
    *before* ``axis.parse``, so both spellings normalize to one request
    dict, one fingerprint, one computation.  Bools pass through
    untouched (``bool`` is an ``int`` subclass, not a ``float``).
    """
    if (isinstance(value, float) and value.is_integer()
            and math.isfinite(value)):
        return int(value)
    return value


class BreakerOpenError(RuntimeError):
    """New work refused: the pool circuit breaker is open (HTTP 503).

    Raised by :meth:`Dispatcher.submit` while the breaker's cooldown is
    running; ``retry_after`` is the remaining cooldown in whole seconds
    (the server forwards it as the ``Retry-After`` header).
    """

    def __init__(self, message: str, *, retry_after: int) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def normalize_request(payload: dict) -> dict:
    """Validate and canonicalize a submitted request payload.

    Returns a fully explicit request dict: defaults are resolved, names
    are normalized through their registries, and values are parsed to
    their axis types — so payload identity equals experiment identity.
    Raises :class:`RequestError` with a message naming valid choices.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    kind = payload.get("kind", "sweep")
    try:
        profile = ExperimentProfile.by_name(payload.get("profile", "quick"))
    except ValueError as error:
        raise RequestError(str(error)) from None

    if kind == "figure":
        target = payload.get("target")
        if not isinstance(target, str) or target not in EXPERIMENTS:
            raise RequestError(
                f"unknown figure target {target!r}; valid targets: "
                + ", ".join(EXPERIMENTS)
            )
        return {"kind": "figure", "target": target, "profile": profile.name}

    if kind != "sweep":
        raise RequestError(
            f"unknown request kind {kind!r}; valid kinds: sweep, figure"
        )
    axis_name = payload.get("axis")
    try:
        axis = SWEEP_AXES.get(axis_name or "")
    except UnknownComponentError as error:
        raise RequestError(str(error)) from None
    values = payload.get("values")
    if values is not None and not isinstance(values, (list, tuple)):
        raise RequestError("'values' must be a list of axis values")
    try:
        if values is None:
            parsed = list(axis.default_values(profile))
        else:
            parsed = [
                axis.parse(str(_normalize_value(value))) for value in values
            ]
    except UnknownComponentError as error:
        raise RequestError(str(error)) from None
    except ValueError as error:
        raise RequestError(f"bad value for axis {axis.name!r}: {error}") from None
    workloads = payload.get("workloads")
    if workloads is not None and not isinstance(workloads, (list, tuple)):
        raise RequestError("'workloads' must be a list of workload names")
    try:
        if workloads is None:
            resolved_workloads = list(profile.workloads)
        else:
            resolved_workloads = [
                get_workload(str(name)).name for name in workloads
            ]
    except UnknownComponentError as error:
        raise RequestError(str(error)) from None
    return {
        "kind": "sweep",
        "axis": axis.name,
        "values": parsed,
        "workloads": resolved_workloads,
        "profile": profile.name,
    }


def _result_key(request: dict) -> tuple:
    """The artifact-cache key tuple a request's rendered result lives under."""
    return (request,)


def request_digest(request: dict) -> str:
    """The shard-routing fingerprint of a *normalized* request.

    Deliberately version-free (unlike artifact digests, which fold in
    ``code_version``): a code change must invalidate cached artifacts,
    but it must *not* reshuffle which shard owns a request — placement
    stability is what keeps warm caches and live-job coalescing valid
    across deploys.  Every spelling that normalizes to the same request
    dict shares this fingerprint, so it also shares a shard.
    """
    return fingerprint("route", request)


def _spec_for(request: dict, profile: ExperimentProfile):
    """The SweepSpec for a normalized sweep request (CLI-identical path)."""
    return adhoc_spec(
        request["axis"],
        profile,
        values=[str(value) for value in request["values"]],
        workloads=request["workloads"],
    )


@dataclass
class DispatcherStats:
    """Cumulative dispatcher-side tallies, served by ``GET /v1/stats``."""

    submissions: int = 0
    coalesced: int = 0
    jobs_from_cache: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    batches: int = 0
    batched_jobs: int = 0
    cells_executed: int = 0
    #: Submissions this shard accepted although the consistent-hash ring
    #: assigns their fingerprint to a different shard (a client that
    #: skipped routing).  Accepted anyway — correctness never depends on
    #: placement, only dedup convergence does — but a growing count
    #: means clients are defeating cross-shard dedup.
    misrouted: int = 0
    #: Submissions refused at admission (429 quota / 503 depth / 413 size).
    rejected_quota: int = 0
    rejected_depth: int = 0
    rejected_size: int = 0
    #: Containment tallies: bounded retries granted, jobs quarantined,
    #: cell deadline expiries, batch bisection rounds, and worker-pool
    #: deaths observed.
    retries: int = 0
    quarantined: int = 0
    timeouts: int = 0
    bisections: int = 0
    pool_crashes: int = 0
    busy_seconds: float = 0.0
    started_at: float = field(default_factory=time.monotonic)

    def utilization(self) -> float:
        """Seconds spent executing batches per wall second (at most 1)."""
        elapsed = time.monotonic() - self.started_at
        return self.busy_seconds / elapsed if elapsed > 0 else 0.0


class Dispatcher:
    """Drains the queue into fused, bounded worker-pool batches.

    One thread calls :meth:`drain_once` (the server's drain loop), so
    one batch runs at a time; the submit path and the result readers
    run on other threads, which is what the locks below guard.
    """

    def __init__(
        self,
        queue: JobQueue,
        cache_root,
        *,
        jobs: int = 1,
        max_batch: int = 8,
        quota: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_attempts: int = 3,
        job_timeout: Optional[float] = None,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        cache: Optional[ArtifactCache] = None,
        shard_index: int = 0,
        shard_count: int = 1,
        shard_urls: Tuple[str, ...] = (),
    ) -> None:
        self.queue = queue
        #: Observability: the queue owns the event bus + tracer (its
        #: ``_apply`` is the single emission path); the dispatcher
        #: shares them to publish batch-level records and stamp the
        #: execution-phase spans (batched/executed/assembled/cache_hit).
        self.events = queue.events
        self.tracer = queue.tracer
        #: The artifact store.  A tiered cache even when no shared dir or
        #: peers are configured: the tier tallies then just mirror the
        #: local counters, and ``/v1/stats`` keeps one schema either way.
        self.cache = (
            cache if cache is not None else TieredArtifactCache(cache_root)
        )
        #: Shard identity (``repro serve --shard K/N --peers ...``).
        #: ``shard_urls`` is all N announced base URLs in index order —
        #: the ring every client routes over — and ``shard_urls[K]`` is
        #: this process.  Unsharded servers keep the 0/1 defaults and no
        #: ring.
        self.shard_index = int(shard_index)
        self.shard_count = max(1, int(shard_count))
        self.shard_urls = tuple(str(u).rstrip("/") for u in shard_urls)
        self._ring = (
            ConsistentHashRing(self.shard_urls)
            if self.shard_count > 1 and self.shard_urls else None
        )
        self.jobs = max(1, jobs)
        self.max_batch = max(1, max_batch)
        #: Failure containment: how many failed executions a job gets
        #: before quarantine, and the per-cell wall-clock deadline
        #: (``None``/0: no deadline).
        self.max_attempts = max(1, int(max_attempts))
        self.job_timeout = float(job_timeout) if job_timeout else None
        #: The persistent pre-warmed worker pool cells run on whenever
        #: ``jobs > 1`` or a deadline is set (``None``: in-process).
        #: Spawned eagerly via ``warm_up()`` (or on first use), torn
        #: down and rebuilt on crash/hang, shut down with the server.
        self.pool = None
        if self.jobs > 1 or self.job_timeout is not None:
            from repro.experiments.pool import WarmPool

            self.pool = WarmPool(
                self.jobs, self.cache.factory(), on_event=self.events.publish,
            )
        #: How long a RUNNING claim is trusted before lease reclaim.
        #: A batch's worst case is ~log2(max_batch) bisection rounds,
        #: each bounded by the deadline, plus pool spawns — 8x the
        #: deadline + a minute is generously past that, so a live slow
        #: batch is practically never reclaimed out from under the
        #: drain loop (and a false reclaim is safe, just wasteful: the
        #: late verdict loses its transition race and is dropped).
        self.lease_seconds = (
            None if self.job_timeout is None
            else self.job_timeout * 8 + 60.0
        )
        #: Circuit breaker: after ``breaker_threshold`` consecutive
        #: executions with a pool crash, pause draining and refuse
        #: non-cached submissions for ``breaker_cooldown`` seconds.
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown = float(breaker_cooldown)
        self._breaker_failures = 0
        self._breaker_open_until = 0.0
        #: Admission bounds (``None``/0 = unlimited): max live jobs per
        #: client id, max live jobs total, max POST body size.  The
        #: queue enforces the first two at submit; the server enforces
        #: the body cap at the transport layer and reports through
        #: :meth:`reject_size`.
        self.quota = quota or None
        self.max_queue_depth = max_queue_depth or None
        self.max_body_bytes = max_body_bytes
        self.stats = DispatcherStats()
        #: Guards the stats counters (mutated from the drain thread and
        #: the event-loop submit path concurrently).
        self._stats_lock = threading.Lock()
        #: Makes "fold into the session totals, then flush (which
        #: subtracts)" one step for snapshot(): without it a reader
        #: mid-flush sees a tally in both halves and double-counts it.
        self._counters_lock = threading.Lock()
        #: Whether a batch is executing (the drain gate's idle test).
        self._batch_running = False
        #: Distinct cells of the executing batch (the dashboard's
        #: in-flight gauge).
        self._inflight_cells = 0
        #: Wall-clock birth for ``/v1/stats`` (`started_at`); the
        #: monotonic twin lives in ``DispatcherStats`` for utilization.
        self._started_wall = time.time()
        #: Cumulative cache tallies for this server process; survives the
        #: per-batch flush_counters() that drains cache.counters into the
        #: on-disk lifetime file.
        self._session_counters: Dict[str, CacheCounters] = {}

    # -- submission ------------------------------------------------------

    def submit(self, payload: dict, client: str) -> ServiceJob:
        """Normalize, dedup, and enqueue one request.

        A request whose rendered result is already in the artifact store
        is completed on the spot — the instant-response path that makes a
        warm resubmission cost one path probe and zero simulation.  This
        runs on the caller's thread (the server's event loop), so it
        only probes artifact existence — it never unpickles anything.
        The journal append it performs is a deliberate synchronous
        fsync: the 202 receipt promises durability, and serializing
        submits behind the (single-worker) batch executor would be far
        worse than a short disk wait.
        A coalesced hit on a done job re-checks that the job's artifact
        still exists: if a cache gc evicted it, the job is requeued for
        recomputation instead of pointing clients at a permanent 404.

        Admission control: a new job that would push ``client`` past
        ``quota`` live jobs raises
        :class:`~repro.service.queue.QuotaExceededError`; one that would
        push the queue past ``max_queue_depth`` raises
        :class:`~repro.service.queue.QueueFullError`.  Coalescing
        submissions and requests whose rendered result already sits in
        the artifact store are always admitted — both cost one journal
        line and zero simulation, so refusing them would throttle
        exactly the traffic the service handles for free.
        """
        request = normalize_request(payload)
        with self._stats_lock:
            self.stats.submissions += 1
        if (self._ring is not None
                and self._ring.owner(request_digest(request))
                != self.shard_urls[self.shard_index]):
            with self._stats_lock:
                self.stats.misrouted += 1
        digest = self.cache.digest(RESULT_KIND, _result_key(request))
        # readable_digest, not the pure path probe: a torn artifact is
        # healed (unlinked + counted) and the job recomputed instead of
        # instant-completing onto a result_key every GET will 500 on.
        # On a tiered cache this also walks the shared tier and — for a
        # cold key on a non-owner shard — asks peers, which is exactly
        # how shard B instant-completes from shard A's work.
        cached = self.cache.readable_digest(RESULT_KIND, digest)
        if not cached:
            # While the breaker is open, new *work* is refused (503 +
            # Retry-After); cache-backed requests still sail — they cost
            # zero pool time, which is the resource being protected.
            open_for = self.breaker_open_for()
            if open_for > 0:
                raise BreakerOpenError(
                    "not accepting new work: the worker-pool circuit "
                    f"breaker is open after {self.breaker_threshold} "
                    "consecutive pool crashes; retry in "
                    f"{math.ceil(open_for)}s",
                    retry_after=int(math.ceil(open_for)),
                )
        try:
            job, created = self.queue.submit(
                request, client,
                quota=self.quota, max_depth=self.max_queue_depth,
                exempt=cached,
            )
        except QuotaExceededError:
            with self._stats_lock:
                self.stats.rejected_quota += 1
            raise
        except QueueFullError:
            with self._stats_lock:
                self.stats.rejected_depth += 1
            raise
        if not created:
            with self._stats_lock:
                self.stats.coalesced += 1
            if (job.state is JobState.DONE
                    and not (job.result_key
                             and self.cache.readable_digest(
                                 RESULT_KIND, job.result_key))):
                job = self.queue.requeue_lost(job.id)
            return job
        if cached:
            try:
                # Short-circuit span: queued -> cache_hit -> done, with
                # no claim/batch/execute stages in between.
                self.tracer.stamp(job.id, "cache_hit")
                job = self.queue.mark_done(
                    job.id, result_key=digest, source="cache"
                )
                with self._stats_lock:
                    self.stats.jobs_from_cache += 1
            except TransitionError:
                # The drain thread claimed and finished this job
                # between our queue.submit and the existence probe; its
                # result is the same bytes, so just serve its record.
                job = self.queue.get(job.id)
        return job

    def reject_size(self) -> None:
        """Tally one oversize-body refusal (the server's 413 path)."""
        with self._stats_lock:
            self.stats.rejected_size += 1

    def compact(self, retain_terminal: Optional[int] = None) -> dict:
        """Compact the queue journal now (``POST /v1/compact``)."""
        report = self.queue.compact(retain_terminal=retain_terminal)
        return {
            "generation": report.generation,
            "jobs_kept": report.jobs_kept,
            "jobs_dropped": report.jobs_dropped,
            "events_folded": report.events_folded,
        }

    def load_result(self, result_key: str) -> Optional[str]:
        """The rendered JSON document stored under an artifact digest.

        Serves from the *directory* tiers only — never a peer fetch.
        The ``/v1/results`` handler calls this, and that endpoint is
        itself the peer-fetch transport: if serving it could consult
        peers, two shards missing the same digest would request it from
        each other in an unbounded ping-pong.
        """
        if isinstance(self.cache, TieredArtifactCache):
            hit, value = self.cache.load_digest(
                RESULT_KIND, result_key, allow_peer=False
            )
        else:
            hit, value = self.cache.load_digest(RESULT_KIND, result_key)
        return value if hit else None

    # -- execution -------------------------------------------------------

    def _cells_for(
        self, job: ServiceJob, profile: ExperimentProfile
    ) -> List[Job]:
        request = job.request
        if request["kind"] == "figure":
            module, _ = EXPERIMENTS[request["target"]]
            return list(module.jobs(profile))
        return _spec_for(request, profile).jobs(profile)

    def _assemble(
        self, job: ServiceJob, profile: ExperimentProfile,
        context: ExperimentContext,
    ) -> str:
        """Render one job's manifest from the warmed context (no compute)."""
        request = job.request
        if request["kind"] == "figure":
            target = request["target"]
            module, _ = EXPERIMENTS[target]
            result = module.run(profile, context)
            return render_manifest(profile.name, {target: result})
        spec = _spec_for(request, profile)
        result = assemble_sweep(
            spec, profile, context,
            title=sweep_title(request["axis"], profile),
        )
        return render_manifest(profile.name, {spec.name: result})

    def _claim_batch(self) -> List[ServiceJob]:
        """Claim one compatible job group (queued -> running).

        Only the drain thread claims, so no lock is needed.  Jobs of
        other profiles than the head job's stay queued for the next
        batch.
        """
        drained = self.queue.pending_fair(self.max_batch)
        if not drained:
            return []
        profile_name = drained[0].request["profile"]
        claimed: List[ServiceJob] = []
        for job in drained:
            if job.request["profile"] != profile_name:
                continue
            try:
                self.queue.mark_running(
                    job.id, lease_seconds=self.lease_seconds
                )
            except TransitionError:
                # The submit thread instant-completed this job from
                # the cache after the fair drain picked it.
                continue
            claimed.append(job)
        return claimed

    def drain_once(self) -> int:
        """Claim and process one fused batch; returns jobs handled.

        Drains up to ``max_batch`` jobs fairly, keeps the ones sharing
        the head job's profile (the compatibility rule — cells from
        different profiles never share artifacts, so fusing them buys
        nothing), fuses their cells into a single deduplicated
        :func:`~repro.experiments.parallel.execute` batch, then
        assembles and stores each job's result individually.  Called
        from one thread only: batches never overlap.
        """
        # Auto-compaction lives here, on the drain thread — a snapshot
        # write is multiple fsyncs and must never run on the submit
        # path's event loop.  O(1) check when below threshold.
        self.queue.maybe_compact()
        self._reclaim_expired_leases()
        if self.breaker_open_for() > 0:
            # Repeated pool crashes: spawning more pools would burn CPU
            # re-proving the same failure.  Drain pauses until the
            # cooldown passes; submissions get 503 + Retry-After.
            return 0
        if not self.queue.has_pending():  # O(1) idle fast path
            return 0
        group = self._claim_batch()
        if not group:
            return 0
        started = time.monotonic()
        profile = ExperimentProfile.by_name(group[0].request["profile"])
        self.events.publish({
            "event": "batch",
            "jobs": len(group),
            "profile": profile.name,
        })
        # One fresh context per batch: its in-memory memo layer holds
        # exactly the batch's cells and is dropped afterwards, so a
        # long-lived server's footprint is bounded by its largest batch
        # (the shared disk cache keeps cross-batch warmth).
        context = ExperimentContext(profile, cache=self.cache, pool=self.pool)

        with self._stats_lock:
            self._batch_running = True
        try:
            self._run_batch(group, profile, context)
        except Exception:
            # Something escaped the per-job handling (a journal I/O
            # failure, most likely).  RUNNING is a state nothing
            # re-drains, so demote what we marked — best effort; if the
            # journal is truly dead, restart replay demotes instead —
            # then let the drain loop log and back off.
            for job in group:
                current = self.queue.get(job.id)
                if current is not None and current.state is JobState.RUNNING:
                    try:
                        self.queue.demote(job.id)
                    except Exception:
                        pass
            raise
        finally:
            with self._stats_lock:
                self._batch_running = False
                self.stats.busy_seconds += time.monotonic() - started
            self.events.publish({
                "event": "batch_done",
                "jobs": len(group),
                "duration_ms": round((time.monotonic() - started) * 1000, 3),
            })
        try:
            with self._counters_lock:
                # Fold the about-to-be-flushed tallies into the session
                # totals first.
                CacheCounters.merge(self._session_counters, self.cache.counters)
                self.cache.flush_counters()
        except OSError:
            pass  # tallies stay in memory for the next flush attempt
        return len(group)

    def _run_batch(self, group, profile: ExperimentProfile,
                   context: ExperimentContext) -> None:
        """Fuse, execute, and assemble one claimed job group.

        Execution failures are *contained*: a cell that hangs, crashes
        the pool, or raises marks only the jobs that enumerate it, and
        those go through the bounded retry/quarantine policy
        (:meth:`_contain`) — their healthy batchmates assemble and
        complete normally.  Deterministic per-job failures (cell
        enumeration, assembly) still fail the job directly: re-running
        identical bytes cannot change a deterministic outcome.
        """
        cells: List[Job] = []
        runnable: List[Tuple[ServiceJob, List[Job]]] = []
        for job in group:
            try:
                job_cells = self._cells_for(job, profile)
            except Exception as error:  # bad request that survived normalize
                self._finish(job, error=f"{type(error).__name__}: {error}")
                continue
            runnable.append((job, job_cells))
            cells.extend(job_cells)
            self.tracer.stamp(job.id, "batched", cells=len(job_cells))

        #: signature -> reason, for every cell without a usable result.
        failed_cells: Dict[str, str] = {}
        if runnable:
            executed = self._execute_cells(cells, context, failed_cells)
            with self._stats_lock:
                self.stats.batches += 1
                self.stats.batched_jobs += len(runnable)
                self.stats.cells_executed += executed
            for job, _ in runnable:
                self.tracer.stamp(job.id, "executed", batch_cells=executed)

        for job, job_cells in runnable:
            reason = next(
                (failed_cells[cell.signature()] for cell in job_cells
                 if cell.signature() in failed_cells),
                None,
            )
            if reason is not None:
                self._contain(job, reason)
                continue
            try:
                rendered = self._assemble(job, profile, context)
                digest = self.cache.store(
                    RESULT_KIND, _result_key(job.request), rendered
                )
                self.tracer.stamp(job.id, "assembled")
                self._finish(job, result_key=digest)
            except Exception as error:
                self._finish(job, error=f"{type(error).__name__}: {error}")

    def _execute_cells(
        self,
        cells: List[Job],
        context: ExperimentContext,
        failed: Dict[str, str],
    ) -> int:
        """Execute one cell list, recording per-cell failures.

        On the pool, cells run under the contained executor (killable
        workers, optional per-cell deadlines, pool-crash bisection); its
        per-signature failures merge into ``failed``.  In-process, an
        exception names no culprit, so it charges every cell one attempt
        and the retry/quarantine policy bounds the damage.  Returns
        cells actually executed.
        """
        if not cells:
            return 0
        with self._stats_lock:
            self._inflight_cells = len({cell.signature() for cell in cells})
        try:
            report = execute(
                cells, context, job_timeout=self.job_timeout,
                observer=self.events.publish,
            )
        except Exception as error:
            self._breaker_record(crashed=True)
            reason = f"batch execution failed: {type(error).__name__}: {error}"
            for cell in cells:
                failed.setdefault(cell.signature(), reason)
            return 0
        finally:
            with self._stats_lock:
                self._inflight_cells = 0
        for signature, failure in report.failures.items():
            failed[signature] = f"{failure.kind}: {failure.detail}"
        with self._stats_lock:
            self.stats.timeouts += report.timeouts
            self.stats.bisections += report.bisections
            self.stats.pool_crashes += report.pool_crashes
        if report.executed or report.pool_crashes:
            self._breaker_record(crashed=report.pool_crashes > 0)
        return report.executed

    def _contain(self, job: ServiceJob, reason: str) -> None:
        """Route one failed execution through the bounded retry budget.

        Below ``max_attempts`` failed executions the job is retried
        (``running -> queued``, one attempt charged); at the cap it is
        quarantined with the failure diagnostic.  A job no longer
        RUNNING lost a completion race — someone else delivered its
        result, which is success, not failure.
        """
        current = self.queue.get(job.id)
        if current is None or current.state is not JobState.RUNNING:
            return
        try:
            if current.attempts + 1 >= self.max_attempts:
                self.queue.quarantine(
                    job.id,
                    f"{reason} (attempt {current.attempts + 1} of "
                    f"{self.max_attempts})",
                )
                with self._stats_lock:
                    self.stats.quarantined += 1
            else:
                self.queue.retry(job.id)
                with self._stats_lock:
                    self.stats.retries += 1
        except (TransitionError, KeyError):
            pass

    def _reclaim_expired_leases(self) -> None:
        """Heal RUNNING jobs whose lease deadline passed.

        A batch that ended without a verdict (its demotion failed too,
        or it wedged past any reasonable runtime) leaves its jobs
        RUNNING — a state nothing re-drains.  Expired leases route through the same
        retry/quarantine policy as any other failed execution, so a
        repeatedly-wedging job still converges to quarantine.
        """
        if self.lease_seconds is None:
            return
        for job in self.queue.expired_leases():
            self._contain(
                job,
                f"lease expired: no verdict within "
                f"{self.lease_seconds:g}s (worker presumed dead)",
            )

    def _breaker_record(self, *, crashed: bool) -> None:
        """Feed one execution's pool-health verdict to the breaker."""
        with self._stats_lock:
            if not crashed:
                self._breaker_failures = 0
                return
            self._breaker_failures += 1
            if self._breaker_failures >= self.breaker_threshold:
                self._breaker_open_until = (
                    time.monotonic() + self.breaker_cooldown
                )

    def breaker_open_for(self) -> float:
        """Seconds of cooldown remaining (0.0 = breaker closed).

        After the cooldown the breaker is half-open: one batch drains
        as a trial; a crash-free execution resets the failure count, a
        crashing one re-opens immediately (the consecutive count is
        still at threshold).
        """
        with self._stats_lock:
            return max(0.0, self._breaker_open_until - time.monotonic())

    def idle(self) -> bool:
        """True when no batch is executing (drain gate)."""
        with self._stats_lock:
            return not self._batch_running

    def _finish(self, job: ServiceJob, *, result_key: str = None,
                error: str = None) -> None:
        """Complete or fail a job, tolerating completion races.

        A submit-thread instant-cache hit can finish a job between this
        batch's ``mark_running`` and here; the resulting
        :class:`TransitionError` means someone else already delivered
        the (identical) result, which is success, not failure.
        """
        try:
            if error is None:
                self.queue.mark_done(
                    job.id, result_key=result_key, source="computed"
                )
                with self._stats_lock:
                    self.stats.jobs_completed += 1
            else:
                self.queue.mark_failed(job.id, error)
                with self._stats_lock:
                    self.stats.jobs_failed += 1
        except TransitionError:
            pass

    # -- reporting -------------------------------------------------------

    def warm_up(self) -> None:
        """Eagerly spawn the worker pool (no-op without one).

        Called by the server at startup so the first batch never pays
        interpreter spin-up; safe to call repeatedly.
        """
        if self.pool is not None:
            self.pool.ensure()

    def shutdown_pool(self) -> None:
        """Tear down the worker pool (no-op without one)."""
        if self.pool is not None:
            self.pool.shutdown()

    def snapshot(self) -> dict:
        """The ``GET /v1/stats`` document (deterministic key order).

        Runs on the event-loop thread while the drain thread mutates
        the counter dicts; ``list()`` materializes the items atomically
        (a single C-level step under the GIL) before any Python-level
        iteration, so concurrent inserts cannot perturb it.  The
        ``session`` section is cumulative for this server process: the
        per-batch flush into the on-disk lifetime file does not zero
        it.  A read that races that flush waits for it (one small-file
        write) rather than count its tallies twice.
        """
        merged: Dict[str, CacheCounters] = {}
        with self._counters_lock:
            CacheCounters.merge(merged, self._session_counters)
            CacheCounters.merge(merged, self.cache.counters)
        cache_counters = {
            kind: {
                "hits": c.hits, "misses": c.misses,
                "stores": c.stores, "corrupt": c.corrupt,
            }
            for kind, c in sorted(merged.items())
        }
        events = self.events.stats()
        events.update(self.tracer.stats())
        return {
            #: Bumped whenever a section or key is added/renamed, so
            #: monitoring consumers can gate on it.  The pinned schema
            #: test asserts the exact key set at each version.
            "schema_version": 4,
            "started_at": round(self._started_wall, 3),
            "uptime_seconds": round(time.time() - self._started_wall, 3),
            "queue": {
                "depth": self.queue.depth(),
                "states": self.queue.state_counts(),
                "compaction": self.queue.compaction_stats(),
            },
            "dispatcher": {
                "submissions": self.stats.submissions,
                "coalesced": self.stats.coalesced,
                "jobs_from_cache": self.stats.jobs_from_cache,
                "jobs_completed": self.stats.jobs_completed,
                "jobs_failed": self.stats.jobs_failed,
                "batches": self.stats.batches,
                "batched_jobs": self.stats.batched_jobs,
                "cells_executed": self.stats.cells_executed,
            },
            "shard": {
                "index": self.shard_index,
                "count": self.shard_count,
                "url": (
                    self.shard_urls[self.shard_index]
                    if self._ring is not None else None
                ),
                "peers": len(self.shard_urls),
                "misrouted": self.stats.misrouted,
            },
            "admission": {
                "quota": self.quota,
                "max_queue_depth": self.max_queue_depth,
                "max_body_bytes": self.max_body_bytes,
                "rejected_quota": self.stats.rejected_quota,
                "rejected_depth": self.stats.rejected_depth,
                "rejected_size": self.stats.rejected_size,
            },
            "containment": {
                "max_attempts": self.max_attempts,
                "job_timeout": self.job_timeout,
                "retries": self.stats.retries,
                "quarantined": self.stats.quarantined,
                "timeouts": self.stats.timeouts,
                "bisections": self.stats.bisections,
                "pool_crashes": self.stats.pool_crashes,
                "breaker_open": self.breaker_open_for() > 0,
            },
            "cache": {
                "session": cache_counters,
                "lifetime": self.cache.persistent_counters(),
            },
            "tiered": (
                self.cache.tier_stats()
                if isinstance(self.cache, TieredArtifactCache) else None
            ),
            "workers": {
                "active": int(self._batch_running),
                "inflight_cells": self._inflight_cells,
                "pool_size": self.jobs,
                "max_batch": self.max_batch,
                "busy_seconds": round(self.stats.busy_seconds, 3),
                "utilization": round(self.stats.utilization(), 4),
                "warm_pool": (
                    self.pool.snapshot() if self.pool is not None else None
                ),
            },
            "events": events,
        }
