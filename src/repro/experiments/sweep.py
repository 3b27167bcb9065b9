"""Declarative sweep engine: one enumerator for every experiment's cells.

A figure is a *sweep*: modes (DVI settings) x axis points (machine or
scheme knobs) x workloads, each cell being one independent simulation.
Before this module, each ``fig*`` experiment hand-enumerated its own
job list; now an experiment **declares** a :class:`SweepSpec` and the
engine turns it into the :class:`~repro.experiments.parallel.Job` cells
the cache/parallel scheduler consumes.  The CLI's ``sweep`` subcommand
builds ad-hoc specs over any registered component axis (predictors,
hierarchy presets, workloads, register-file sizes) from the same four
pieces, which is what makes new scenarios declarations instead of new
modules.

Cache-key discipline: a spec never invents new key material.  Cells
resolve to the same (workload, DVI config, machine config) tuples the
:class:`~repro.experiments.runner.ExperimentContext` has always keyed
artifacts by, and machine variation is expressed through registered spec
*names* (``predictor_spec`` / ``hierarchy_spec``) or existing config
fields — so sweep-produced cells share artifacts with figure-produced
cells, and a warm cache stays warm across both.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.dvi.config import DVIConfig
from repro.experiments.parallel import Job, execute
from repro.experiments.runner import (
    ExperimentContext,
    ExperimentProfile,
    format_table,
)
from repro.registry import Registry
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.cache.hierarchy import HIERARCHIES
from repro.sim.config import MachineConfig

__all__ = [
    "SWEEP_AXES",
    "Axis",
    "Mode",
    "SweepAxisSpec",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "adhoc_spec",
    "assemble_sweep",
    "run_sweep",
    "sweep_title",
]

#: A point along the sweep's axes: axis name -> value.
Point = Mapping[str, Any]


@dataclass(frozen=True)
class Mode:
    """One DVI curve/bar of a figure.

    ``dvi`` is either a fixed :class:`DVIConfig` or a callable taking the
    axis point (for sweeps whose DVI setting *is* the axis, like the
    LVM-Stack depth ablation).
    """

    label: str
    dvi: Union[DVIConfig, Callable[[Point], DVIConfig]]
    edvi_binary: bool = False
    live_hist: bool = False

    def dvi_at(self, point: Point) -> DVIConfig:
        return self.dvi(point) if callable(self.dvi) else self.dvi


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a name plus where its values come from.

    Values come from exactly one of: a fixed tuple, a zero-argument
    callable (evaluated at enumeration time — how component axes track
    their registry), or a profile attribute (how figure sweeps scale with
    ``tiny``/``quick``/``full``).
    """

    name: str
    values: Union[Tuple[Any, ...], Callable[[], Tuple[Any, ...]], None] = None
    profile_attr: Optional[str] = None

    def resolve(self, profile: ExperimentProfile) -> Tuple[Any, ...]:
        if self.profile_attr is not None:
            return tuple(getattr(profile, self.profile_attr))
        if callable(self.values):
            return tuple(self.values())
        if self.values is None:
            raise ValueError(f"axis {self.name!r} has no value source")
        return tuple(self.values)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment: kind x workloads x modes x axes.

    ``workloads`` selects the swept workload set: the name of a profile
    attribute (``"workloads"`` / ``"sr_workloads"``), an explicit name
    tuple, or a callable over the profile.  ``machine`` maps an axis
    point to the :class:`MachineConfig` timing cells run on — a fixed
    config, a callable, or ``None`` for functional sweeps.

    ``include_binary`` / ``include_traces`` add the build/trace cells a
    figure consumes directly (Figure 13 reads static code sizes and
    annotation counts; Figure 12's scheduler run needs the binaries).
    """

    name: str
    kind: str = "timed"  # "timed" | "functional"
    workloads: Union[str, Tuple[str, ...],
                     Callable[[ExperimentProfile], Sequence[str]]] = "workloads"
    modes: Tuple[Mode, ...] = ()
    axes: Tuple[Axis, ...] = ()
    machine: Union[MachineConfig, Callable[[Point], MachineConfig], None] = None
    include_binary: bool = False
    include_traces: bool = False

    # -- resolution ----------------------------------------------------

    def resolve_workloads(self, profile: ExperimentProfile) -> List[str]:
        if callable(self.workloads):
            return list(self.workloads(profile))
        if isinstance(self.workloads, str):
            return list(getattr(profile, self.workloads))
        return list(self.workloads)

    def points(self, profile: ExperimentProfile) -> Iterator[Dict[str, Any]]:
        """Every axis-value combination, outermost axis varying slowest."""
        if not self.axes:
            yield {}
            return
        resolved = [(axis.name, axis.resolve(profile)) for axis in self.axes]

        def expand(prefix: Dict[str, Any], rest) -> Iterator[Dict[str, Any]]:
            if not rest:
                yield dict(prefix)
                return
            (name, values), tail = rest[0], rest[1:]
            for value in values:
                prefix[name] = value
                yield from expand(prefix, tail)
            prefix.pop(name, None)

        yield from expand({}, resolved)

    def machine_at(self, point: Point) -> Optional[MachineConfig]:
        if callable(self.machine):
            return self.machine(point)
        return self.machine

    # -- cell enumeration ----------------------------------------------

    def cell(self, mode: Mode, workload: str, point: Point = None) -> Job:
        """The spec's one cell at (mode, workload, point).

        Enumeration (:meth:`jobs`) and read-back (:meth:`result`) both
        build cells here, so they cannot name different cells.
        """
        point = point or {}
        return Job.of(self.kind, workload, {
            "dvi": mode.dvi_at(point), "edvi_binary": mode.edvi_binary,
            "machine": self.machine_at(point), "live_hist": mode.live_hist,
        })

    def jobs(self, profile: ExperimentProfile) -> List[Job]:
        """The spec's independent simulation cells, as scheduler jobs.

        A cell missing a field its kind needs (a timed spec without a
        machine source) raises ``ValueError``.
        """
        workloads = self.resolve_workloads(profile)
        plan: List[Job] = []
        if self.include_binary:
            plan.extend(Job(kind="binary", workload=w) for w in workloads)
        if self.include_traces:
            for mode in self.modes:
                seen: List[DVIConfig] = []
                for point in self.points(profile):
                    dvi = mode.dvi_at(point)
                    if dvi in seen:  # trace cells do not vary with machine axes
                        continue
                    seen.append(dvi)
                    for workload in workloads:
                        plan.append(Job(kind="trace", workload=workload,
                                        dvi=dvi,
                                        edvi_binary=mode.edvi_binary))
        for mode in self.modes:
            for point in self.points(profile):
                for workload in workloads:
                    plan.append(self.cell(mode, workload, point))
        return plan

    def execute(self, profile: ExperimentProfile,
                context: ExperimentContext) -> None:
        """Run (or replay from cache) every cell into the context.

        Raises :class:`~repro.experiments.parallel.CellFailedError`,
        naming the cells, if any produced no result on the pool.
        """
        execute(self.jobs(profile), context).check()

    # -- cell results --------------------------------------------------

    def result(self, context: ExperimentContext, mode: Mode, workload: str,
               point: Point = None):
        """The one cell result the context holds for (mode, workload, point).

        ``PipelineStats`` for timed sweeps, ``FunctionalResult`` for
        functional ones.
        """
        return context.cell(self.cell(mode, workload, point))

    # -- declarative tweaks --------------------------------------------

    def with_axis_values(self, name: str, values: Sequence[Any]) -> "SweepSpec":
        """A copy of the spec with one axis pinned to explicit values."""
        axes = tuple(
            dataclasses.replace(axis, values=tuple(values), profile_attr=None)
            if axis.name == name else axis
            for axis in self.axes
        )
        if all(axis.name != name for axis in self.axes):
            raise ValueError(f"spec {self.name!r} has no axis {name!r}")
        return dataclasses.replace(self, axes=axes)

    def with_machine(self, machine) -> "SweepSpec":
        """A copy of the spec with the machine source replaced."""
        return dataclasses.replace(self, machine=machine)

    def with_workloads(self, workloads: Sequence[str]) -> "SweepSpec":
        """A copy of the spec pinned to an explicit workload list."""
        return dataclasses.replace(self, workloads=tuple(workloads))


# ----------------------------------------------------------------------
# Generic sweep assembly: the table the CLI's ``sweep`` subcommand and
# the predictor ablation print.
# ----------------------------------------------------------------------

@dataclass
class SweepRow:
    """One assembled cell of a generic sweep table."""

    workload: str
    mode: str
    point: Dict[str, Any]
    metrics: Dict[str, float]


@dataclass
class SweepResult:
    """Generic sweep output: one row per cell, ordered mode/point/workload."""

    spec_name: str
    kind: str
    axis_names: Tuple[str, ...]
    metric_names: Tuple[str, ...]
    rows: List[SweepRow] = field(default_factory=list)
    title: str = ""

    def metric(self, metric: str, workload: str, mode: str,
               **point: Any) -> float:
        for row in self.rows:
            if (row.workload, row.mode) == (workload, mode) and all(
                row.point.get(k) == v for k, v in point.items()
            ):
                return row.metrics[metric]
        raise KeyError((metric, workload, mode, point))

    def format_table(self) -> str:
        show_mode = len({row.mode for row in self.rows}) > 1
        headers = ["Workload"] + (["Mode"] if show_mode else []) + [
            name for name in self.axis_names
        ] + [name for name in self.metric_names]
        body = [
            [row.workload] + ([row.mode] if show_mode else [])
            + [row.point[axis] for axis in self.axis_names]
            + [row.metrics[metric] for metric in self.metric_names]
            for row in self.rows
        ]
        return format_table(
            headers, body,
            title=self.title or f"Sweep: {self.spec_name}",
        )


#: Sweep kind -> metric name -> extractor.  Single source of truth for
#: both the per-row metric dicts and the table's column order.
_METRICS = {
    "timed": {
        "IPC": lambda stats: stats.ipc,
        "mispredict %": lambda stats: 100.0 * stats.mispredict_rate,
    },
    "functional": {
        "insts": lambda result: float(result.stats.program_insts),
        "eliminated": lambda result: float(
            result.stats.saves_restores_eliminated
        ),
    },
}


# ----------------------------------------------------------------------
# Registered ad-hoc sweep axes: what ``python -m repro sweep --axis X``
# can range over.  Each axis knows its default value set (usually a
# component registry), how to parse a value from the command line, and
# how a value maps onto a machine configuration.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepAxisSpec:
    """One CLI-sweepable machine dimension."""

    name: str
    description: str
    default_values: Callable[[ExperimentProfile], Tuple[Any, ...]]
    parse: Callable[[str], Any]
    machine: Callable[[Any], MachineConfig]


#: Name -> :class:`SweepAxisSpec`; the ``sweep`` subcommand's ``--axis``
#: values resolve here.
SWEEP_AXES: Registry[SweepAxisSpec] = Registry("sweep axis")

SWEEP_AXES.register("predictor", SweepAxisSpec(
    name="predictor",
    description="registered branch predictors (see list --predictors)",
    default_values=lambda profile: tuple(PREDICTORS.names()),
    parse=lambda text: PREDICTORS.get(text).name,
    machine=lambda value: MachineConfig.micro97().with_predictor(value),
))

SWEEP_AXES.register("hierarchy", SweepAxisSpec(
    name="hierarchy",
    description="registered cache-hierarchy presets (see list --hierarchies)",
    default_values=lambda profile: tuple(HIERARCHIES.names()),
    parse=lambda text: HIERARCHIES.get(text).name,
    machine=lambda value: MachineConfig.micro97().with_hierarchy(value),
))

SWEEP_AXES.register("regfile", SweepAxisSpec(
    name="regfile",
    description="physical register file sizes (profile sweep by default)",
    default_values=lambda profile: tuple(profile.regfile_sizes),
    parse=int,
    machine=lambda value: MachineConfig.micro97().with_phys_regs(value),
))

SWEEP_AXES.register("ports", SweepAxisSpec(
    name="ports",
    description="independent cache ports on the Figure 2 machine",
    default_values=lambda profile: (1, 2, 3),
    parse=int,
    machine=lambda value: MachineConfig.micro97().with_ports_and_width(
        value, MachineConfig.micro97().issue_width
    ),
))


def sweep_title(axis_name: str, profile: ExperimentProfile) -> str:
    """The table title an ad-hoc sweep renders.

    One definition shared by the CLI's ``sweep`` subcommand and the
    service dispatcher: a served sweep document must stay byte-identical
    to the local run's ``--json`` output, title included.
    """
    return f"Sweep over {axis_name} ({profile.name} profile)"


def adhoc_spec(
    axis_name: str,
    profile: ExperimentProfile,
    *,
    values: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[str]] = None,
) -> SweepSpec:
    """The ``sweep`` subcommand's spec: one registered axis, no-DVI cells.

    ``values``/``workloads`` are raw command-line strings; each is parsed
    and validated through the owning registry so an unknown name fails
    with the registry's valid-name list.
    """
    axis = SWEEP_AXES.get(axis_name)
    if values is not None:
        resolved = tuple(axis.parse(text) for text in values)
    else:
        resolved = axis.default_values(profile)
    spec = SweepSpec(
        name=f"sweep-{axis_name}",
        kind="timed",
        workloads="workloads",
        modes=(Mode("No DVI", DVIConfig.none()),),
        axes=(Axis(axis.name, values=resolved),),
        machine=lambda point: axis.machine(point[axis.name]),
    )
    if workloads is not None:
        from repro.workloads.suite import get_workload

        spec = spec.with_workloads(
            tuple(get_workload(name).name for name in workloads)
        )
    return spec


def run_sweep(
    spec: SweepSpec,
    profile: ExperimentProfile,
    context: ExperimentContext = None,
    *,
    title: str = "",
) -> SweepResult:
    """Execute a spec and assemble the generic per-cell metric table."""
    context = context or ExperimentContext(profile)
    spec.execute(profile, context)
    return assemble_sweep(spec, profile, context, title=title)


def assemble_sweep(
    spec: SweepSpec,
    profile: ExperimentProfile,
    context: ExperimentContext,
    *,
    title: str = "",
) -> SweepResult:
    """Assemble a spec's metric table from an already-warmed context.

    The execute/assemble split is what lets the service dispatcher fuse
    several submitted sweeps into one :func:`~repro.experiments.parallel
    .execute` batch and then assemble each request's table individually:
    assembly only reads the context's memo layer, so it re-runs nothing.
    """
    metrics = _METRICS[spec.kind]
    result = SweepResult(
        spec_name=spec.name,
        kind=spec.kind,
        axis_names=tuple(axis.name for axis in spec.axes),
        metric_names=tuple(metrics),
        title=title,
    )
    for mode in spec.modes:
        for point in spec.points(profile):
            for workload in spec.resolve_workloads(profile):
                cell = spec.result(context, mode, workload, point)
                result.rows.append(SweepRow(
                    workload=workload,
                    mode=mode.label,
                    point=dict(point),
                    metrics={
                        name: extract(cell)
                        for name, extract in metrics.items()
                    },
                ))
    return result
