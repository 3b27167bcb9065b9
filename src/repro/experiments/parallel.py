"""Execution of experiment sweeps, in-process or on a worker pool.

Every figure's sweep decomposes into independent *cells*: one functional
or timing simulation of one (workload, DVI configuration, machine
configuration) point.  Experiment modules enumerate their cells as
:class:`Job` lists (their ``jobs(profile)`` functions; a job names a row
of the artifact-kind table,
:data:`~repro.experiments.runner.ARTIFACT_KINDS`); :func:`execute`
runs a job list to completion — serially in-process, or on the
context's persistent worker pool (:mod:`repro.experiments.pool`) when
its owner created one — and merges every result back into the parent
:class:`~repro.experiments.runner.ExperimentContext` caches.  Either
way each cell resolves through
:meth:`~repro.experiments.runner.ExperimentContext.cell`, the context's
one memo → cache → compute path.

Determinism: workers only *compute* cells; the parent merges results in
job-list order and every experiment assembles its figure from the warmed
context afterwards, in plain deterministic Python.  A parallel run is
therefore bit-identical to a serial one (the test suite asserts this),
and the merge order never depends on worker completion order.

Workers open the parent's cache configuration (see
:meth:`~repro.experiments.cache.ArtifactCache.factory`), so all
processes share one content-addressed disk store (writes are atomic;
see :mod:`repro.experiments.cache`) and a warm cache benefits every
worker.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import CellFailedError
from repro.experiments.runner import ExperimentContext, Job

__all__ = [
    "CellFailedError",
    "CellFailure",
    "ExecuteReport",
    "Job",
    "execute",
]


# ----------------------------------------------------------------------
# The scheduler entry point.
# ----------------------------------------------------------------------

@dataclass
class CellFailure:
    """Why one cell produced no result.

    ``kind`` is ``"timeout"`` (blew the wall-clock deadline),
    ``"crash"`` (isolated as the cell whose execution kills the worker
    pool), ``"error"`` (raised an ordinary exception in a worker —
    the pool survived), or ``"shutdown"`` (the pool's owner shut it
    down before the cell finished).
    """

    job: Job
    kind: str
    detail: str


@dataclass
class ExecuteReport:
    """What one :func:`execute` call did."""

    #: Cells that completed and were absorbed into the context.
    executed: int = 0
    #: signature -> failure, for every cell that produced no result.
    failures: Dict[str, CellFailure] = field(default_factory=dict)
    #: Worker-pool deaths observed (>= 1 means at least one bisection
    #: round or an isolated poison cell).
    pool_crashes: int = 0
    #: Group splits performed while isolating poison cells.
    bisections: int = 0
    #: Cells that blew the wall-clock deadline.
    timeouts: int = 0

    def check(self) -> None:
        """Raise :class:`CellFailedError` if any cell failed."""
        if self.failures:
            raise CellFailedError(list(self.failures.values()))


def execute(
    jobs: Sequence[Job],
    context: ExperimentContext,
    *,
    job_timeout: Optional[float] = None,
    observer: Optional[Callable[[dict], None]] = None,
) -> ExecuteReport:
    """Run every cell in ``jobs``, warming the context's caches.

    Cells already present in the context (in memory) are skipped; the
    remainder is deduplicated by value signature and executed either
    in-process (``context.pool`` is ``None``; a raising cell propagates)
    or on the context's worker pool through the contained executor
    (:func:`repro.experiments.pool.run_contained`), which reports every
    cell that hung past ``job_timeout``, crashed its pool, or raised
    instead of raising itself.  Every other cell is resident in the
    context's memo layer on return, so the calling experiment's
    assembly phase runs entirely from cache.

    ``report.executed`` counts the cells actually executed (after
    skip/dedup) — the service dispatcher reports it as its batching
    effectiveness.

    In-process, a trace leaves the memo once its last pending timed
    reader has resolved (:meth:`ExperimentContext.release_trace`, a
    no-op without a disk cache), unless ``jobs`` lists the trace
    itself: assembly reads timed cells, never their traces.
    """
    pending: List[Job] = []
    seen = set()
    for job in jobs:
        signature = job.signature()
        if signature in seen or context.holds(job):
            continue
        seen.add(signature)
        pending.append(job)
    if not pending:
        return ExecuteReport()
    if context.pool is None:
        readers = Counter(filter(None, map(_trace_read_by, pending)))
        for job in jobs:
            if job.kind == "trace":
                readers.pop((job.workload, job.edvi_binary, job.dvi), None)
        for job in pending:
            context.cell(job)
            trace = _trace_read_by(job)
            if trace in readers:
                readers[trace] -= 1
                if not readers[trace]:
                    context.release_trace(
                        job.workload, job.dvi, edvi_binary=job.edvi_binary
                    )
        return ExecuteReport(executed=len(pending))
    # A pool exists only where its creator already imported this module.
    from repro.experiments.pool import run_contained

    return run_contained(
        pending, context, job_timeout=job_timeout, observer=observer
    )


def _trace_read_by(job: Job) -> Optional[tuple]:
    """``(workload, edvi_binary, dvi)`` of the trace a timed cell replays.

    All three fields hash by value, so counting readers costs no
    fingerprint.
    """
    if job.kind != "timed":
        return None
    return (job.workload, job.edvi_binary, job.dvi)
