"""Shared experiment infrastructure: profiles, artifact caches, tables.

Every experiment module exposes ``run(profile) -> <Fig*Result>`` plus a
``jobs(profile)`` enumerator of the independent simulation cells the
figure sweeps over (see :mod:`repro.experiments.parallel`); the result
objects carry raw rows plus a ``format_table()`` that prints the same rows
or series the paper's figure/table reports.

Profiles size the experiments (:class:`ExperimentProfile`, defined in
:mod:`repro.experiments.profile` and re-exported here).

:data:`ARTIFACT_KINDS` is the artifact-kind table: one row per kind of
simulation artifact (binaries, traces, functional results, timing
stats) giving its cache key, its compute function and its upstream
kinds.  :class:`ExperimentContext` resolves every artifact through one
path over two caches: an in-process memo (keyed by value, not identity)
and an optional :class:`~repro.experiments.cache.ArtifactCache` that
persists artifacts across processes and across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments.cache import ArtifactCache, fingerprint
from repro.experiments.profile import ExperimentProfile
from repro.sim.config import MachineConfig

if TYPE_CHECKING:
    from repro.experiments.pool import WarmPool
    from repro.program.program import Program
    from repro.sim.ooo.stats import PipelineStats
    from repro.sim.result import FunctionalResult
    from repro.sim.trace import Trace


# ----------------------------------------------------------------------
# The artifact-kind table: the one place that knows which simulation
# artifacts exist and how each is keyed and computed.  The compute
# functions import get_program, insert_edvi, run_program and simulate
# from their defining modules at call time: a run that replays every
# cell from the cache never loads the builders or the simulators, and
# a wrapper installed on those module attributes (a tracer, a test
# double) sees every call.  The trace key reads TRACE_FORMAT at call
# time too, so a run that loads no trace never imports the trace module.
# ----------------------------------------------------------------------

def _build(cell: "Job", scale: int) -> Tuple[Program, Program]:
    from repro.rewrite.edvi import insert_edvi
    from repro.workloads.suite import get_program

    plain = get_program(cell.workload, scale)
    return plain, insert_edvi(plain).program


def _trace_key(cell: "Job", scale: int) -> tuple:
    # TRACE_FORMAT keeps traces of different storage formats distinct
    # cache cells even if the code version were ever held fixed.
    from repro.sim.trace import TRACE_FORMAT

    return (cell.workload, scale, cell.edvi_binary, cell.dvi, TRACE_FORMAT)


def _trace(cell: "Job", scale: int, binaries: Tuple[Program, Program]) -> Trace:
    from repro.sim.functional import run_program

    result = run_program(binaries[cell.edvi_binary], cell.dvi, collect_trace=True)
    if not result.stats.completed:
        raise RuntimeError(f"workload {cell.workload} did not complete")
    assert result.trace is not None
    return result.trace


def _functional(
    cell: "Job", scale: int, binaries: Tuple[Program, Program]
) -> FunctionalResult:
    from repro.sim.functional import run_program

    return run_program(
        binaries[cell.edvi_binary], cell.dvi,
        collect_trace=False, collect_live_hist=cell.live_hist,
    )


def _timed(cell: "Job", scale: int, trace: Trace) -> PipelineStats:
    from repro.sim.ooo.core import simulate

    return simulate(cell.machine, trace)


@dataclass(frozen=True)
class ArtifactKind:
    """One row of the artifact-kind table.

    ``fields``: the :class:`Job` fields besides ``workload`` that key
    the kind (a cell must set each).  ``key(cell, scale)``: the
    disk-cache key tuple.  ``compute(cell, scale, *inputs)``: builds the
    artifact from those of the ``upstream`` kinds.  ``shared``: whether
    :meth:`ExperimentContext.with_fresh_timing` views share the kind's
    memo layer.
    """

    fields: Tuple[str, ...]
    key: Callable[["Job", int], tuple]
    compute: Callable[..., Any]
    upstream: Tuple[str, ...] = ()
    shared: bool = True


#: Artifact kind -> its row; the kind names are also the cache's counter names.
ARTIFACT_KINDS: Dict[str, ArtifactKind] = {
    # Per section 3, baselines run the annotation-free binary and the
    # DVI configurations the E-DVI-rewritten one; the rewrite starts
    # from the plain binary, so the pair is one ``(plain, annotated)``
    # artifact.
    "binary": ArtifactKind(
        fields=(), key=lambda c, s: (c.workload, s), compute=_build,
    ),
    "trace": ArtifactKind(
        fields=("dvi", "edvi_binary"), key=_trace_key,
        compute=_trace, upstream=("binary",),
    ),
    "functional": ArtifactKind(
        fields=("dvi", "edvi_binary", "live_hist"),
        key=lambda c, s: (c.workload, s, c.edvi_binary, c.dvi, c.live_hist),
        compute=_functional, upstream=("binary",),
    ),
    # Timing is what fresh-timing views re-execute, so it is not shared.
    "timed": ArtifactKind(
        fields=("dvi", "edvi_binary", "machine"),
        key=lambda c, s: (c.workload, s, c.edvi_binary, c.dvi, c.machine),
        compute=_timed, upstream=("trace",), shared=False,
    ),
}


@dataclass(frozen=True)
class Job:
    """One independent simulation cell of an experiment sweep.

    ``kind`` names the artifact the cell produces — a row of
    :data:`ARTIFACT_KINDS`, whose ``fields`` say which of the other
    fields the cell needs (a ``timed`` cell, for one, needs ``dvi`` and
    ``machine``).
    """

    kind: str
    workload: str
    dvi: Optional[DVIConfig] = None
    edvi_binary: bool = False
    machine: Optional[MachineConfig] = None
    live_hist: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        for name in ARTIFACT_KINDS[self.kind].fields:
            if getattr(self, name) is None:
                raise ValueError(f"{self.kind} jobs need a {name} config")
        # Computed once: dedup and the context's memo key on it.
        object.__setattr__(self, "_signature", fingerprint(
            self.kind, self.workload, self.dvi, self.edvi_binary,
            self.machine, self.live_hist,
        ))

    @classmethod
    def of(cls, kind: str, workload: str, values: Mapping[str, Any]) -> "Job":
        """The ``kind`` cell for ``workload``, keyed by ``values``."""
        return cls(kind, workload, **{
            name: values[name] for name in ARTIFACT_KINDS[kind].fields
        })

    def signature(self) -> str:
        """Value-based identity, for deduplication across figures."""
        return self._signature

    def inputs(self) -> List["Job"]:
        """The cells whose artifacts computing this cell reads."""
        return [Job.of(kind, self.workload, vars(self))
                for kind in ARTIFACT_KINDS[self.kind].upstream]


class ExperimentContext:
    """Caches simulation artifacts across experiments.

    Two layers: one per-process memo (always on), and an optional
    on-disk :class:`~repro.experiments.cache.ArtifactCache` shared by
    every process and every invocation that points at the same directory.
    Every artifact — the four standard kinds of :data:`ARTIFACT_KINDS`
    and experiment-specific ones — resolves through one path: memo, then
    disk cache, then compute (and store).
    ``pool`` is the :class:`~repro.experiments.pool.WarmPool` the
    :func:`repro.experiments.parallel.execute` scheduler runs cells on
    when an experiment hands it a job list; ``None`` runs them in this
    process.  The context never creates or closes the pool: its owner
    (the CLI invocation, the service dispatcher) does.
    """

    def __init__(
        self,
        profile: ExperimentProfile,
        *,
        cache: Optional[ArtifactCache] = None,
        pool: Optional[WarmPool] = None,
    ) -> None:
        self.profile = profile
        self.cache = cache
        self.pool = pool
        #: kind -> identity -> artifact.  Every standard kind has a layer
        #: from the start, so fresh-timing views can share it.
        self._memo: Dict[str, Dict[str, Any]] = {kind: {} for kind in ARTIFACT_KINDS}

    def cell(self, job: Job) -> Any:
        """The artifact of one cell, computed from its inputs on a miss."""
        row = ARTIFACT_KINDS[job.kind]
        scale = self.profile.scale
        return self._resolve(
            job.kind, job.signature(), row.key(job, scale),
            lambda: row.compute(job, scale, *map(self.cell, job.inputs())),
        )

    def holds(self, job: Job) -> bool:
        """Whether the cell's artifact is already in the memo."""
        return job.signature() in self._memo[job.kind]

    def remember(self, job: Job, value: Any) -> None:
        """Memoize a cell computed elsewhere (by a pool worker)."""
        self._memo[job.kind][job.signature()] = value

    def binary(self, workload: str, *, edvi: bool) -> Program:
        """The workload's binary, with or without E-DVI annotations."""
        return self.cell(Job("binary", workload))[edvi]

    def trace(self, workload: str, dvi: DVIConfig, *, edvi_binary: bool) -> Trace:
        """A dynamic trace of the workload under a DVI configuration."""
        return self.cell(Job("trace", workload, dvi=dvi, edvi_binary=edvi_binary))

    def functional(
        self,
        workload: str,
        dvi: DVIConfig,
        *,
        edvi_binary: bool,
        live_hist: bool = False,
    ) -> FunctionalResult:
        """A trace-free functional run (for figures 3, 9, 12)."""
        return self.cell(Job("functional", workload, dvi=dvi,
                             edvi_binary=edvi_binary, live_hist=live_hist))

    def timed(
        self,
        workload: str,
        dvi: DVIConfig,
        config: MachineConfig,
        *,
        edvi_binary: bool,
    ) -> PipelineStats:
        """One out-of-order timing run (machine config in the key)."""
        return self.cell(Job("timed", workload, dvi=dvi,
                             edvi_binary=edvi_binary, machine=config))

    def artifact(self, kind: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """Read-through memoization for experiment-specific artifacts.

        Used by measurements that are not one of the four standard cell
        kinds — e.g. Figure 12's preemptive-scheduler run.  ``key`` must be
        canonicalizable by :func:`repro.experiments.cache.canonical`; the
        profile scale is appended automatically.
        """
        full_key = key + (self.profile.scale,)
        return self._resolve(kind, fingerprint(full_key), full_key, compute)

    def _resolve(
        self, kind: str, identity: str, key: tuple, compute: Callable[[], Any]
    ) -> Any:
        """Memo, then disk cache, then ``compute`` (stored on return)."""
        layer = self._memo.setdefault(kind, {})
        if identity in layer:
            return layer[identity]
        if self.cache is None:
            value = compute()
        else:
            digest = self.cache.digest(kind, key)
            hit, value = self.cache.load_digest(kind, digest)
            if not hit:
                value = compute()
                self.cache.store_digest(kind, digest, value)
        layer[identity] = value
        return value

    def release_trace(
        self, workload: str, dvi: DVIConfig, *, edvi_binary: bool
    ) -> None:
        """Drop a trace from the memo once no pending cell reads it.

        :func:`repro.experiments.parallel.execute` calls this after a
        trace's last timed reader in its batch.  Only a context with a
        disk cache drops it: a later reader reloads it from there, where
        a cache-less context would have to compute it again.  A memo
        holding no trace (a warm run) costs no fingerprint.
        """
        layer = self._memo["trace"]
        if self.cache is not None and layer:
            job = Job("trace", workload, dvi=dvi, edvi_binary=edvi_binary)
            layer.pop(job.signature(), None)

    def trim_memo(self, limit: int) -> None:
        """Empty every memo layer holding more than ``limit`` artifacts.

        Dropping a layer costs no result: with a disk cache the next
        lookup re-reads it, and a cache-less pool worker recomputes.
        Long-lived pool workers bound their footprint so.
        """
        for layer in self._memo.values():
            if len(layer) > limit:
                layer.clear()

    def with_fresh_timing(self) -> "ExperimentContext":
        """A view of this context whose timing memo starts empty.

        Binaries, traces, and functional results are shared (by reference)
        with this context; timing simulations and experiment-specific
        artifacts are not.  The benchmark harness measures figure runs
        through such views so that timing work — the quantity being
        benchmarked — is re-executed rather than replayed from the memo,
        matching what the harness measured before ``timed()`` was
        memoized.
        """
        view = ExperimentContext(self.profile, cache=self.cache, pool=self.pool)
        for kind, row in ARTIFACT_KINDS.items():
            if row.shared:
                view._memo[kind] = self._memo[kind]
        return view


# ----------------------------------------------------------------------
# DVI configuration triple of Figure 5 (register-file experiments isolate
# register reclamation: no save/restore elimination scheme is active).
# ----------------------------------------------------------------------

def regfile_modes() -> List[Tuple[str, DVIConfig, bool]]:
    """(label, dvi config, uses E-DVI binary) for the Figure 5 curves."""
    return [
        ("No DVI", DVIConfig.none(), False),
        ("I-DVI", DVIConfig.idvi_only(), False),
        ("E-DVI and I-DVI",
         DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE), True),
    ]


# ----------------------------------------------------------------------
# Table rendering.
# ----------------------------------------------------------------------

def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str = "",
) -> str:
    """Plain-text table with right-aligned numeric columns."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rendered))
        if rendered else len(headers[col])
        for col in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)
