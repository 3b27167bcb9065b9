"""Execution of experiment sweeps, in-process or on a worker pool.

Every figure's sweep decomposes into independent *cells*: one functional
or timing simulation of one (workload, DVI configuration, machine
configuration) point.  Experiment modules enumerate their cells as
:class:`Job` lists (their ``jobs(profile)`` functions); :func:`execute`
runs a job list to completion — serially in-process, or on the
context's persistent worker pool (:mod:`repro.experiments.pool`) when
its owner created one — and merges every result back into the parent
:class:`~repro.experiments.runner.ExperimentContext` caches.

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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dvi.config import DVIConfig
from repro.experiments.cache import fingerprint
from repro.experiments.runner import ExperimentContext
from repro.sim.config import MachineConfig

__all__ = [
    "CellFailedError",
    "CellFailure",
    "ExecuteReport",
    "Job",
    "execute",
]

#: Job kinds, in the order a cell's dependency chain runs them.
KINDS = ("binary", "functional", "trace", "timed")


@dataclass(frozen=True)
class Job:
    """One independent simulation cell of an experiment sweep.

    ``kind`` selects the artifact the cell produces:

    * ``"binary"`` — build the workload (both E-DVI variants),
    * ``"functional"`` — an architectural run (stats, no trace),
    * ``"trace"`` — a full dynamic trace,
    * ``"timed"`` — an out-of-order timing simulation (requires
      ``machine``; generates the trace as a dependency).
    """

    kind: str
    workload: str
    dvi: Optional[DVIConfig] = None
    edvi_binary: bool = False
    machine: Optional[MachineConfig] = None
    live_hist: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "timed" and self.machine is None:
            raise ValueError("timed jobs need a machine config")
        if self.kind in ("functional", "trace", "timed") and self.dvi is None:
            raise ValueError(f"{self.kind} jobs need a DVI config")

    def signature(self) -> str:
        """Value-based identity, for deduplication across figures."""
        return fingerprint(
            self.kind, self.workload, self.dvi, self.edvi_binary,
            self.machine, self.live_hist,
        )

    def dependencies(self) -> List["Job"]:
        """The implicit upstream cells running this cell materializes.

        A ``timed`` cell generates its trace (and the trace its binary)
        on a cache miss without those cells ever being enumerated in a
        job list.  Cross-batch dedup that only registers enumerated
        cells therefore lets two concurrent batches race the shared
        dependency artifacts; claiming the closure returned here closes
        that gap.  The ``binary`` dependency deliberately uses the
        default field values so its signature matches an enumerated
        ``binary`` cell (one build produces both E-DVI variants).
        """
        if self.kind == "binary":
            return []
        binary = Job("binary", self.workload)
        if self.kind in ("functional", "trace"):
            return [binary]
        return [
            binary,
            Job("trace", self.workload, dvi=self.dvi,
                edvi_binary=self.edvi_binary),
        ]


# ----------------------------------------------------------------------
# Running one job inside a context (used in-process and by pool workers).
# ----------------------------------------------------------------------

def _run_job(job: Job, context: ExperimentContext) -> Any:
    if job.kind == "binary":
        context.binary(job.workload, edvi=True)
        return (
            context.binary(job.workload, edvi=False),
            context.binary(job.workload, edvi=True),
        )
    if job.kind == "functional":
        return context.functional(
            job.workload, job.dvi,
            edvi_binary=job.edvi_binary, live_hist=job.live_hist,
        )
    if job.kind == "trace":
        return context.trace(job.workload, job.dvi, edvi_binary=job.edvi_binary)
    return context.timed(
        job.workload, job.dvi, job.machine, edvi_binary=job.edvi_binary
    )


def _satisfied(job: Job, context: ExperimentContext) -> bool:
    """True if the parent's in-memory caches already hold the cell."""
    if job.kind == "binary":
        return (job.workload, True) in context._binaries
    if job.kind == "functional":
        key = (job.workload, job.edvi_binary, job.dvi, job.live_hist)
        return key in context._functional
    if job.kind == "trace":
        return (job.workload, job.edvi_binary, job.dvi) in context._traces
    return (
        fingerprint(
            context._timed_key(job.workload, job.dvi, job.machine, job.edvi_binary)
        )
        in context._timed
    )


def _absorb(job: Job, value: Any, context: ExperimentContext) -> None:
    """Merge one worker-computed result into the parent's memo layer."""
    if job.kind == "binary":
        plain, annotated = value
        context._binaries[(job.workload, False)] = plain
        context._binaries[(job.workload, True)] = annotated
    elif job.kind == "functional":
        key = (job.workload, job.edvi_binary, job.dvi, job.live_hist)
        context._functional[key] = value
    elif job.kind == "trace":
        context._traces[(job.workload, job.edvi_binary, job.dvi)] = value
    else:
        memo_key = fingerprint(
            context._timed_key(job.workload, job.dvi, job.machine, job.edvi_binary)
        )
        context._timed[memo_key] = value


# ----------------------------------------------------------------------
# The scheduler entry point.
# ----------------------------------------------------------------------

@dataclass
class CellFailure:
    """Why one cell produced no result.

    ``kind`` is ``"timeout"`` (blew the wall-clock deadline),
    ``"crash"`` (isolated as the cell whose execution kills the worker
    pool), or ``"error"`` (raised an ordinary exception in a worker —
    the pool survived).
    """

    job: Job
    kind: str
    detail: str


class CellFailedError(RuntimeError):
    """Cells a caller needs produced no result; the message names them."""

    def __init__(self, failures: List[CellFailure]) -> None:
        super().__init__("; ".join(
            f"{failure.job.kind} cell for {failure.job.workload!r} "
            f"({failure.job.signature()[:12]}) failed: {failure.kind}: "
            f"{failure.detail}"
            for failure in failures
        ))
        self.failures = failures


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
    """
    pending: List[Job] = []
    seen = set()
    for job in jobs:
        signature = job.signature()
        if signature in seen or _satisfied(job, context):
            continue
        seen.add(signature)
        pending.append(job)
    if not pending:
        return ExecuteReport()
    if context.pool is None:
        for job in pending:
            _run_job(job, context)
        return ExecuteReport(executed=len(pending))
    # A pool exists only where its creator already imported this module.
    from repro.experiments.pool import run_contained

    return run_contained(
        pending, context, job_timeout=job_timeout, observer=observer
    )
