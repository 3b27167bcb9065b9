"""The persistent worker pool and the contained executor.

:func:`repro.experiments.parallel.execute` runs cells here whenever the
context carries a pool: the CLI's ``--jobs N`` with N > 1, and the
service whenever ``--jobs > 1`` or ``--job-timeout`` is set.  The
process that owns the work owns the pool — the CLI opens one per
invocation, the dispatcher one for the server's life — and contexts
only ever receive it.

* :class:`WarmPool` wraps a ``concurrent.futures.ProcessPoolExecutor``
  on a spawn context, spawned once and pre-warmed (each worker imports
  the simulator graph at start), then reused batch after batch.  Its
  contract on worker death is exact: futures that completed before the
  death keep their results, every other future raises
  :class:`BrokenProcessPool` — so a pool crash is a *batch-level event
  with an unknown culprit*, never a hang.
* Each future is awaited with the optional wall-clock deadline; a cell
  that blows it is declared hung, the pool's processes are killed (a
  hung worker never exits on its own), and the *other* unfinished
  cells — innocent victims of the kill — are re-run.
* A pool crash triggers **bisection**: the unfinished cells are split
  in half and each half re-executed, recursively, until the poison cell
  is isolated in a singleton group (its healthy batchmates complete
  along the way, each cell at most ``O(log batch)`` re-submissions — and
  re-running an already-completed cell is a cache hit).  Re-runs and
  halves run on the same pool, respawned after each kill: its owner
  runs one batch at a time, so no other caller's futures share it.

The returned :class:`~repro.experiments.parallel.ExecuteReport` maps
every cell that produced no result to a
:class:`~repro.experiments.parallel.CellFailure` (``timeout`` /
``crash`` / ``error`` / ``shutdown``); the CLI raises on any, the
dispatcher turns them into bounded retries or quarantine.

Deterministic fault injection (the faultsim harness) rides the same
zero-overhead pattern as the queue's crash failpoints: when the
``REPRO_FAULTSIM_SPEC`` environment variable names a JSON spec file,
the pool's task function consults it *in the worker process* before
running each cell and can kill the process, hang, or raise at an exact
cell signature — unset (production), the check is one dict probe of
``os.environ`` per worker process.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.cache import ArtifactCache, CacheCounters
from repro.experiments.parallel import CellFailure, ExecuteReport, Job
from repro.experiments.runner import ExperimentContext, ExperimentProfile

__all__ = [
    "FAULTSIM_ENV",
    "InjectedWorkerFault",
    "WarmPool",
    "fault_fires",
    "run_contained",
]

#: Environment variable naming the fault-injection spec file (JSON).
#: Unset in production; ``tests/service/faultsim.py`` writes it.
FAULTSIM_ENV = "REPRO_FAULTSIM_SPEC"


class InjectedWorkerFault(RuntimeError):
    """The exception a ``raise``-mode injected fault throws in a worker."""


# ----------------------------------------------------------------------
# Worker-side fault injection (active only under the faultsim harness).
# ----------------------------------------------------------------------

#: Per-worker-process cache of the parsed spec (spawn re-imports this
#: module in every worker, so the cache is private to each process).
_FAULT_SPEC: Optional[dict] = None
_FAULT_SPEC_LOADED = False


def _fault_spec() -> Optional[dict]:
    global _FAULT_SPEC, _FAULT_SPEC_LOADED
    if not _FAULT_SPEC_LOADED:
        _FAULT_SPEC_LOADED = True
        path = os.environ.get(FAULTSIM_ENV)
        if path:
            with open(path, encoding="utf-8") as handle:
                _FAULT_SPEC = json.load(handle)
    return _FAULT_SPEC


def _fire_file(spec: dict, signature: str) -> str:
    return os.path.join(spec["state_dir"], f"{signature[:32]}.fires")


def fault_fires(spec_path: str, signature: str) -> int:
    """How many times the fault at ``signature`` has fired (harness API).

    Fires are counted as bytes of an append-only file in the spec's
    ``state_dir`` — one ``O_APPEND`` byte per fire — so the count
    survives the worker process that recorded it being killed a
    microsecond later.
    """
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        return os.path.getsize(_fire_file(spec, signature))
    except OSError:
        return 0


def _maybe_inject(job: Job) -> None:
    """Fire a configured fault for this cell, if any remain.

    ``max_fires`` bounds how often a fault fires (transient-failure
    scenarios); the bound is precise for the single-poison configs the
    harness uses — two workers racing the same fault's counter could
    each observe the last remaining fire.
    """
    spec = _fault_spec()
    if not spec:
        return
    fault = spec["faults"].get(job.signature())
    if fault is None:
        return
    path = _fire_file(spec, job.signature())
    max_fires = fault.get("max_fires")
    if max_fires is not None:
        try:
            fired = os.path.getsize(path)
        except OSError:
            fired = 0
        if fired >= max_fires:
            return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x")
    finally:
        os.close(fd)
    mode = fault["mode"]
    if mode == "kill":
        os._exit(137)
    if mode == "hang":
        time.sleep(float(fault.get("hang_seconds", 3600.0)))
        return  # a bounded "hang" degrades to a delay
    if mode == "raise":
        raise InjectedWorkerFault(
            f"injected fault in {job.kind} cell for {job.workload!r}"
        )
    raise ValueError(f"unknown fault mode {mode!r}")


# ----------------------------------------------------------------------
# The worker side: one initializer, one task.
#
# Workers are *profile-agnostic* (the dispatcher serves requests across
# profiles from one pool): each task ships its profile, and the worker
# resolves a per-profile ExperimentContext lazily, cached for the
# process lifetime with bounded memo layers.
# ----------------------------------------------------------------------

#: Worker-process state (private per spawn process).
_WARM_CACHE_FACTORY: Optional[Callable[[], ArtifactCache]] = None
_WARM_CONTEXTS: Dict[str, ExperimentContext] = {}

#: Entries allowed in one per-kind memo layer of a worker's long-lived
#: context before that layer is dropped (the shared disk cache keeps
#: warmth; this only bounds process footprint: a worker lives as long
#: as its pool and must not accumulate every trace it ever computed).
_WARM_MEMO_CAP = 64


def _warm_worker_init(
    cache_factory: Optional[Callable[[], ArtifactCache]]
) -> None:
    """Pool initializer: remember the cache, preload the import graph.

    Runs once per worker process, at spawn.  ``cache_factory`` opens
    the parent's cache configuration (local root plus any shared tier),
    so worker-computed artifacts land where the parent's own stores
    would.  The imports pull in the workload suite, the E-DVI rewriter,
    the experiment registry, the timing entry point and both native
    engines, built or loaded, so the first submitted cell starts
    computing immediately instead of paying the import graph or an
    engine's load.
    """
    global _WARM_CACHE_FACTORY
    _WARM_CACHE_FACTORY = cache_factory
    import repro.experiments  # noqa: F401  (experiment directory)
    import repro.experiments.sweep  # noqa: F401  (sweep assembly)
    import repro.rewrite.edvi  # noqa: F401  (binary rewriting)
    import repro.sim.ooo.core  # noqa: F401  (timing entry point)
    import repro.workloads.suite  # noqa: F401  (workload programs)
    from repro.sim import functional_native
    from repro.sim.ooo import native

    functional_native.ENGINE.load()  # the functional engine
    native.KERNEL.load()  # the timing kernel


def _warm_probe() -> int:
    """No-op task used to force worker spawn + initializer completion."""
    return os.getpid()


def _warm_context(profile: ExperimentProfile) -> ExperimentContext:
    """This worker's context for ``profile`` (created on first use)."""
    context = _WARM_CONTEXTS.get(profile.name)
    if context is None:
        cache = _WARM_CACHE_FACTORY() if _WARM_CACHE_FACTORY is not None else None
        context = ExperimentContext(profile, cache=cache)
        _WARM_CONTEXTS[profile.name] = context
    return context


def _warm_run(
    profile: ExperimentProfile, job: Job
) -> Tuple[Any, Dict[str, CacheCounters]]:
    """The pool's one task: fault check, run one cell, drain counters.

    Each worker's cache keeps its own counters, so the parent would
    otherwise report a near-idle cache; the counters are handed back
    with the result (and reset here) for the parent to merge.
    """
    _maybe_inject(job)
    context = _warm_context(profile)
    value = context.cell(job)
    deltas: Dict[str, CacheCounters] = {}
    if context.cache is not None:
        deltas, context.cache.counters = context.cache.counters, {}
    context.trim_memo(_WARM_MEMO_CAP)
    return value, deltas


# ----------------------------------------------------------------------
# The pool.
# ----------------------------------------------------------------------

class WarmPool:
    """A persistent, pre-warmed spawn pool reused across batches.

    Lifecycle counters are served by ``GET /v1/stats``:

    * ``reuses`` — acquisitions that found the pool already warm;
    * ``rebuilds`` — teardowns after a crash or hang kill (the next
      acquisition re-spawns and re-warms);
    * ``warmup_seconds`` — cumulative spawn+preload time paid, and
      ``last_warmup_seconds`` for the most recent (re)build.

    Its owner runs one batch on it at a time.  Spawn and teardown
    serialize on the lock, because :meth:`shutdown` may come from
    another thread while a batch is running.
    """

    def __init__(
        self,
        max_workers: int,
        cache_factory: Optional[Callable[[], ArtifactCache]] = None,
        on_event: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        #: Opens the owner's cache configuration in each worker
        #: (``None``: workers run uncached, like ``--no-cache``).
        self.cache_factory = cache_factory
        #: Observability callback (the dispatcher wires the event bus's
        #: ``publish``); ``None`` keeps this module bus-agnostic.
        self._on_event = on_event
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        #: Set by :meth:`shutdown`; a closed pool never spawns again.
        self.closed = False
        self.reuses = 0
        self.rebuilds = 0
        self.warmup_seconds = 0.0
        self.last_warmup_seconds = 0.0

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- lifecycle -------------------------------------------------------

    def _spawn_locked(self) -> ProcessPoolExecutor:
        started = time.perf_counter()
        # spawn, not fork: the service calls from a worker thread of a
        # process that also runs an asyncio loop, and forking a
        # multi-threaded process can hand children locks held
        # mid-operation.
        pool = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_warm_worker_init,
            initargs=(self.cache_factory,),
        )
        # The executor spawns processes lazily, one per submit; force
        # every worker up and through the initializer now so no batch
        # ever pays the warmup.
        for future in [
            pool.submit(_warm_probe) for _ in range(self.max_workers)
        ]:
            future.result()
        elapsed = time.perf_counter() - started
        self.last_warmup_seconds = elapsed
        self.warmup_seconds += elapsed
        self._pool = pool
        return pool

    def ensure(self) -> None:
        """Spawn and warm the pool if it is neither live nor closed."""
        with self._lock:
            if self._pool is None and not self.closed:
                self._spawn_locked()

    def acquire(self) -> ProcessPoolExecutor:
        """The live executor, spawning + pre-warming on first use.

        Raises ``RuntimeError`` once the pool is closed.
        """
        with self._lock:
            if self.closed:
                raise RuntimeError("the worker pool is shut down")
            if self._pool is not None:
                self.reuses += 1
                return self._pool
            return self._spawn_locked()

    def invalidate(self) -> None:
        """Tear down a pool whose workers can no longer be trusted.

        Called after a pool crash or a hung-cell kill.  The teardown is
        counted as a rebuild; the actual re-spawn happens lazily on the
        next :meth:`acquire` (or eagerly via :meth:`ensure`).
        """
        with self._lock:
            pool = self._pool
            self._pool = None
            if pool is None:
                return
            self.rebuilds += 1
        if self._on_event is not None:
            self._on_event({
                "event": "pool_rebuild",
                "rebuilds": self.rebuilds,
            })
        _kill_pool(pool)

    def shutdown(self) -> None:
        """Final teardown (owner exit); not counted as a rebuild.

        Kills the workers, as :meth:`invalidate` does: after an unclean
        drain one may be wedged in a hung cell, and a worker holds both
        ends of its call-queue pipe, so it would outlive its owner.  The
        pool is closed for good, so a batch still running on it cannot
        spawn workers nobody would kill.
        """
        with self._lock:
            self.closed = True
            pool = self._pool
            self._pool = None
        if pool is not None:
            _kill_pool(pool)

    def snapshot(self) -> dict:
        """Lifecycle counters for ``/v1/stats`` (stable key order)."""
        with self._lock:
            live = self._pool is not None
        return {
            "workers": self.max_workers,
            "live": live,
            "reuses": self.reuses,
            "rebuilds": self.rebuilds,
            "warmup_ms": round(self.warmup_seconds * 1000.0, 1),
            "last_warmup_ms": round(self.last_warmup_seconds * 1000.0, 1),
        }


# ----------------------------------------------------------------------
# The contained executor.
# ----------------------------------------------------------------------

def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool whose workers cannot be trusted to exit.

    ``shutdown`` alone would join a hung worker forever; killing the
    processes first makes the join immediate and resolves every
    unfinished future to :class:`BrokenProcessPool`.  ``_processes`` is
    private but stable across supported CPythons; if it ever vanishes,
    degrade to an unwaited shutdown (leaks the worker until interpreter
    exit, but never blocks the caller).
    """
    processes = getattr(pool, "_processes", None)
    for process in list((processes or {}).values()):
        process.kill()
    pool.shutdown(wait=processes is not None, cancel_futures=True)


def _run_group(
    group: List[Job],
    pool: WarmPool,
    profile: ExperimentProfile,
    job_timeout: Optional[float],
) -> Tuple[Dict[str, Tuple[Any, dict]], List[Tuple[Job, str]],
           List[Job], List[Job], bool]:
    """Run one cell group on one pool.

    A crash or hung-cell kill invalidates ``pool`` so its next
    acquisition re-spawns.  Returns ``(results, errors, hung, leftover,
    crashed)``: harvested ``signature -> (value, counter deltas)`` for
    completed cells, ``(cell, message)`` for cells that raised ordinary
    exceptions, cells that blew the deadline, cells left without any
    verdict (pool died under them — re-run or bisect), and whether the
    pool died.
    """
    results: Dict[str, Tuple[Any, dict]] = {}
    errors: List[Tuple[Job, str]] = []
    hung: List[Job] = []
    leftover: List[Job] = []
    crashed = False
    killed = False
    futures: List[Tuple[Job, Any]] = []
    try:
        executor = pool.acquire()
    except RuntimeError:
        # The pool was shut down under this batch: no cell ran.
        return results, errors, hung, list(group), False
    try:
        # Submit one at a time, retaining every future already placed: a
        # warm worker is already up, so a poison cell submitted early can
        # kill the pool while later cells are still being submitted, and
        # that mid-loop BrokenProcessPool must not discard the partial
        # futures list — the unsubmitted tail becomes leftover below.
        try:
            for cell in group:
                futures.append(
                    (cell, executor.submit(_warm_run, profile, cell))
                )
        except BrokenProcessPool:
            crashed = True
        for cell, future in futures:
            if crashed or killed:
                break  # pool is gone; harvest pass classifies the rest
            try:
                # The deadline clock starts when the waiter reaches the
                # future, so cells queued behind a busy pool are not
                # charged for their predecessors' runtime.
                results[cell.signature()] = future.result(
                    timeout=job_timeout
                )
            except FutureTimeoutError:
                hung.append(cell)
                killed = True
            except BrokenProcessPool:
                crashed = True
            except Exception as error:
                errors.append((cell, f"{type(error).__name__}: {error}"))
    finally:
        if crashed or killed:
            # Kill now (a hung worker never exits) and make the next
            # acquisition re-spawn rather than submit into a broken
            # executor.
            pool.invalidate()
    # Harvest pass: futures that completed before a crash/kill keep
    # their results; everything else unclassified is leftover —
    # including cells never submitted because the pool died mid-loop
    # (every enumerated cell must leave with a verdict or a re-run).
    classified = {cell.signature() for cell in hung}
    classified.update(cell.signature() for cell, _ in errors)
    leftover.extend(group[len(futures):])
    for cell, future in futures:
        signature = cell.signature()
        if signature in results or signature in classified:
            continue
        if not future.done() or future.cancelled():
            leftover.append(cell)
            continue
        outcome = future.exception()
        if outcome is None:
            results[signature] = future.result()
        elif isinstance(outcome, BrokenProcessPool):
            leftover.append(cell)
        else:
            # Completed with an ordinary exception before the pool
            # died around it — a verdict, not collateral damage.
            errors.append((cell, f"{type(outcome).__name__}: {outcome}"))
    return results, errors, hung, leftover, crashed


def run_contained(
    cells: List[Job],
    context: ExperimentContext,
    *,
    job_timeout: Optional[float] = None,
    observer: Optional[Callable[[dict], None]] = None,
) -> ExecuteReport:
    """Run deduplicated cells on ``context.pool`` with poison isolation.

    Every cell runs in a killable worker process, and a cell that hangs
    past ``job_timeout`` (``None``: no deadline), crashes the pool, or
    raises is *reported* (per-signature in the returned report) instead
    of poisoning the whole batch.  Healthy cells always complete and
    are absorbed into the context in cell order — the same
    deterministic merge as the in-process path.

    Every group runs on ``context.pool``.  A crash or hang invalidates
    it, the next group's acquisition respawns it, and it is re-warmed
    before returning so the next batch finds it live.  Once the pool is
    closed no group runs: the unfinished cells fail as ``shutdown``.
    """
    pool = context.pool
    report = ExecuteReport()
    groups: List[List[Job]] = [cells]
    while groups:
        group = groups.pop(0)
        results, errors, hung, leftover, crashed = _run_group(
            group, pool, context.profile, job_timeout
        )
        for cell in group:
            payload = results.get(cell.signature())
            if payload is None:
                continue
            value, deltas = payload
            context.remember(cell, value)
            if context.cache is not None:
                CacheCounters.merge(context.cache.counters, deltas)
            report.executed += 1
        for cell, message in errors:
            report.failures[cell.signature()] = CellFailure(
                cell, "error", message
            )
        for cell in hung:
            report.timeouts += 1
            report.failures[cell.signature()] = CellFailure(
                cell, "timeout",
                f"cell exceeded the {job_timeout:g}s deadline",
            )
        if pool.closed:
            # The owner shut the pool down under this batch (an
            # unclean drain).  A re-run or a bisection would spawn
            # workers nobody kills, so the unfinished cells fail.
            for cell in leftover + [c for rest in groups for c in rest]:
                report.failures[cell.signature()] = CellFailure(
                    cell, "shutdown", "the worker pool was shut down",
                )
            break
        if crashed:
            report.pool_crashes += 1
            if observer is not None:
                observer({"event": "pool_crash", "cells": len(group)})
            if len(leftover) == 1:
                # Bisection bottomed out: this cell IS the poison.
                report.failures[leftover[0].signature()] = CellFailure(
                    leftover[0], "crash",
                    "worker pool died executing this cell",
                )
            elif leftover:
                report.bisections += 1
                if observer is not None:
                    observer({
                        "event": "bisection",
                        "round": report.bisections,
                        "cells": len(leftover),
                    })
                middle = len(leftover) // 2
                groups.append(leftover[:middle])
                groups.append(leftover[middle:])
        elif leftover:
            # Victims of a hung-cell pool kill: known-innocent, re-run
            # whole.
            groups.append(leftover)
    # Re-warm after any teardown (a no-op when the pool survived).
    pool.ensure()
    return report
