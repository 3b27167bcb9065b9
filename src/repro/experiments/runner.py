"""Shared experiment infrastructure: profiles, artifact caches, tables.

Every experiment module exposes ``run(profile) -> <Fig*Result>`` plus a
``jobs(profile)`` enumerator of the independent simulation cells the
figure sweeps over (see :mod:`repro.experiments.parallel`); the result
objects carry raw rows plus a ``format_table()`` that prints the same rows
or series the paper's figure/table reports.

Profiles size the experiments: ``full()`` approximates the paper's sweep
densities (scaled-down instruction counts — the substitution DESIGN.md
documents), ``quick()`` is a fast configuration used by the pytest-benchmark
harness and CI, and ``tiny()`` is the smallest sweep that still exhibits
every qualitative effect (used by the test suite and smoke runs).

:class:`ExperimentContext` layers two caches under every experiment:
an in-process memo (dictionaries keyed by value, not identity) and an
optional :class:`~repro.experiments.cache.ArtifactCache` that persists
binaries, traces, functional results, and timing stats across processes
and across invocations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments.cache import ArtifactCache, fingerprint
from repro.program.program import Program
from repro.rewrite.edvi import insert_edvi
from repro.sim.config import MachineConfig
from repro.sim.functional import FunctionalResult, run_program
from repro.sim.ooo.core import simulate
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import TRACE_FORMAT, Trace
from repro.workloads.suite import ALL_ORDER, SAVE_RESTORE_ORDER, get_program

if TYPE_CHECKING:
    from repro.experiments.pool import WarmPool


@dataclass(frozen=True)
class ExperimentProfile:
    """Sizing knobs shared by all experiments."""

    name: str
    #: Workload scale factor (multiplies dynamic instruction counts).
    scale: int = 1
    #: Register file sizes for the Figure 5/6 sweep.
    regfile_sizes: Tuple[int, ...] = tuple(range(34, 99, 4))
    #: Workloads used where the paper uses the full suite.
    workloads: Tuple[str, ...] = tuple(ALL_ORDER)
    #: Workloads used where the paper uses the save/restore-heavy six.
    sr_workloads: Tuple[str, ...] = tuple(SAVE_RESTORE_ORDER)

    @classmethod
    def full(cls) -> "ExperimentProfile":
        """The paper-shaped sweep (all sizes, all workloads)."""
        return cls(name="full")

    @classmethod
    def quick(cls) -> "ExperimentProfile":
        """A reduced sweep for benchmarks and CI."""
        return cls(
            name="quick",
            regfile_sizes=(34, 38, 42, 50, 58, 64, 80, 96),
            workloads=("compress_like", "li_like", "perl_like", "gcc_like"),
            sr_workloads=("li_like", "gcc_like", "perl_like", "vortex_like"),
        )

    @classmethod
    def tiny(cls) -> "ExperimentProfile":
        """The smallest sweep that still shows every qualitative effect."""
        return cls(
            name="tiny",
            regfile_sizes=(34, 42, 50, 64, 96),
            workloads=("li_like", "perl_like"),
            sr_workloads=("li_like", "perl_like"),
        )

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """The selectable profile names, smallest first."""
        return ("tiny", "quick", "full")

    @classmethod
    def by_name(cls, name: str) -> "ExperimentProfile":
        """The named stock profile; ``ValueError`` lists valid names.

        The CLI, the service request schema, and the benchmarks all
        resolve profile strings through this one lookup.
        """
        if name not in cls.names():
            raise ValueError(
                f"unknown profile {name!r}; valid profiles: "
                + ", ".join(cls.names())
            )
        return getattr(cls, name)()


class ExperimentContext:
    """Caches simulation artifacts across experiments.

    Two layers: per-process dictionaries (always on), and an optional
    on-disk :class:`~repro.experiments.cache.ArtifactCache` shared by
    every process and every invocation that points at the same directory.
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
        self._binaries: Dict[Tuple[str, bool], Program] = {}
        self._traces: Dict[Tuple[str, bool, DVIConfig], Trace] = {}
        self._functional: Dict[tuple, FunctionalResult] = {}
        self._timed: Dict[str, PipelineStats] = {}
        self._artifacts: Dict[Tuple[str, str], Any] = {}

    # ------------------------------------------------------------------
    # Disk-cache key tuples (value-canonicalized by ArtifactCache).
    # ------------------------------------------------------------------

    def _binary_key(self, workload: str) -> tuple:
        return (workload, self.profile.scale)

    def _trace_key(self, workload: str, dvi: DVIConfig, edvi_binary: bool) -> tuple:
        # TRACE_FORMAT makes artifacts of different trace storage formats
        # (pre-columnar vs columnar) distinct cache cells even if the code
        # version were ever held fixed across the change.
        return (workload, self.profile.scale, edvi_binary, dvi, TRACE_FORMAT)

    def _functional_key(
        self, workload: str, dvi: DVIConfig, edvi_binary: bool, live_hist: bool
    ) -> tuple:
        return (workload, self.profile.scale, edvi_binary, dvi, live_hist)

    def _timed_key(
        self, workload: str, dvi: DVIConfig, config: MachineConfig, edvi_binary: bool
    ) -> tuple:
        return (workload, self.profile.scale, edvi_binary, dvi, config)

    # ------------------------------------------------------------------

    def binary(self, workload: str, *, edvi: bool) -> Program:
        """The workload's binary, with or without E-DVI annotations.

        Per section 3, baselines always run the annotation-free binary; the
        DVI configurations run the rewritten one.  A miss builds and caches
        *both* variants at once — the E-DVI rewrite starts from the plain
        binary anyway, so the pair is one unit of work and is stored as a
        single ``(plain, annotated)`` artifact on disk.
        """
        key = (workload, edvi)
        if key not in self._binaries:
            pair = None
            if self.cache is not None:
                hit, value = self.cache.lookup("binary", self._binary_key(workload))
                if hit:
                    pair = value
            if pair is None:
                plain = get_program(workload, self.profile.scale)
                pair = (plain, insert_edvi(plain).program)
                if self.cache is not None:
                    self.cache.store("binary", self._binary_key(workload), pair)
            self._binaries[(workload, False)] = pair[0]
            self._binaries[(workload, True)] = pair[1]
        return self._binaries[key]

    def trace(self, workload: str, dvi: DVIConfig, *, edvi_binary: bool) -> Trace:
        """A dynamic trace of the workload under a DVI configuration."""
        key = (workload, edvi_binary, dvi)
        if key not in self._traces:
            trace = None
            if self.cache is not None:
                hit, value = self.cache.lookup(
                    "trace", self._trace_key(workload, dvi, edvi_binary)
                )
                if hit:
                    trace = value
            if trace is None:
                program = self.binary(workload, edvi=edvi_binary)
                result = run_program(program, dvi, collect_trace=True)
                if not result.stats.completed:
                    raise RuntimeError(f"workload {workload} did not complete")
                assert result.trace is not None
                trace = result.trace
                if self.cache is not None:
                    self.cache.store(
                        "trace", self._trace_key(workload, dvi, edvi_binary), trace
                    )
            self._traces[key] = trace
        return self._traces[key]

    def functional(
        self,
        workload: str,
        dvi: DVIConfig,
        *,
        edvi_binary: bool,
        live_hist: bool = False,
    ) -> FunctionalResult:
        """A trace-free functional run (for figures 3, 9, 12)."""
        key = (workload, edvi_binary, dvi, live_hist)
        if key not in self._functional:
            result = None
            if self.cache is not None:
                hit, value = self.cache.lookup(
                    "functional",
                    self._functional_key(workload, dvi, edvi_binary, live_hist),
                )
                if hit:
                    result = value
            if result is None:
                program = self.binary(workload, edvi=edvi_binary)
                result = run_program(
                    program, dvi, collect_trace=False, collect_live_hist=live_hist
                )
                if self.cache is not None:
                    self.cache.store(
                        "functional",
                        self._functional_key(workload, dvi, edvi_binary, live_hist),
                        result,
                    )
            self._functional[key] = result
        return self._functional[key]

    def timed(
        self,
        workload: str,
        dvi: DVIConfig,
        config: MachineConfig,
        *,
        edvi_binary: bool,
    ) -> PipelineStats:
        """One out-of-order timing run (memoized; machine config in the key)."""
        memo_key = fingerprint(self._timed_key(workload, dvi, config, edvi_binary))
        if memo_key not in self._timed:
            stats = None
            if self.cache is not None:
                hit, value = self.cache.lookup(
                    "timed", self._timed_key(workload, dvi, config, edvi_binary)
                )
                if hit:
                    stats = value
            if stats is None:
                trace = self.trace(workload, dvi, edvi_binary=edvi_binary)
                stats = simulate(config, trace)
                if self.cache is not None:
                    self.cache.store(
                        "timed",
                        self._timed_key(workload, dvi, config, edvi_binary),
                        stats,
                    )
            self._timed[memo_key] = stats
        return self._timed[memo_key]

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
        view._binaries = self._binaries
        view._traces = self._traces
        view._functional = self._functional
        return view

    def artifact(self, kind: str, key: tuple, compute: Callable[[], Any]) -> Any:
        """Read-through memoization for experiment-specific artifacts.

        Used by measurements that are not one of the four standard cell
        kinds — e.g. Figure 12's preemptive-scheduler run.  ``key`` must be
        canonicalizable by :func:`repro.experiments.cache.canonical`; the
        profile scale is appended automatically.
        """
        full_key = key + (self.profile.scale,)
        memo_key = (kind, fingerprint(full_key))
        if memo_key not in self._artifacts:
            value = None
            hit = False
            if self.cache is not None:
                hit, value = self.cache.lookup(kind, full_key)
            if not hit:
                value = compute()
                if self.cache is not None:
                    self.cache.store(kind, full_key, value)
            self._artifacts[memo_key] = value
        return self._artifacts[memo_key]


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
