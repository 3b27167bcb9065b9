"""Figure 13: E-DVI overhead.

Compares the E-DVI-annotated binary against the annotation-free one *with
all DVI optimizations disabled* (annotations are fetched and decoded as
pure overhead), at two I-cache sizes.  Reported per workload: percentage
overhead in dynamic instructions fetched, in static code size, and in IPC
(negative IPC overhead = the annotated binary ran faster — alignment
noise, which the paper also observes).  Expected shape: all values are
small; the IPC cost is bounded by the fetch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dvi.config import DVIConfig
from repro.experiments.runner import ExperimentContext, ExperimentProfile, format_table
from repro.experiments.sweep import Axis, Mode, SweepSpec
from repro.sim.config import MachineConfig

ICACHE_SIZES = (32 * 1024, 64 * 1024)

#: Binary and per-I-cache-size timing cells for each workload.  Every
#: cell runs the Figure 13 DVI setting (annotations present but
#: unexploited), once with the plain binary and once with the annotated
#: one.
SPEC = SweepSpec(
    name="fig13",
    kind="timed",
    workloads="workloads",
    modes=(
        Mode("plain", DVIConfig.edvi_overhead()),
        Mode("annotated", DVIConfig.edvi_overhead(), edvi_binary=True),
    ),
    axes=(Axis("icache", values=ICACHE_SIZES),),
    machine=lambda point: MachineConfig.micro97_unconstrained()
    .with_icache(point["icache"]),
    include_binary=True,
)

#: One functional cell per workload, the annotated binary under the same
#: setting: its dynamic kill and program instruction counts.
COUNT_SPEC = SweepSpec(
    name="fig13-counts",
    kind="functional",
    workloads="workloads",
    modes=(Mode("annotated", DVIConfig.edvi_overhead(), edvi_binary=True),),
)


def jobs(profile: ExperimentProfile):
    """The timing and binary cells, plus the functional count cells."""
    return SPEC.jobs(profile) + COUNT_SPEC.jobs(profile)


@dataclass
class OverheadRow:
    workload: str
    pct_dynamic: float   # extra dynamic fetches
    pct_static: float    # extra code size
    #: I-cache size (bytes) -> IPC overhead percent (positive = slower).
    pct_ipc: Dict[int, float]


@dataclass
class Fig13Result:
    rows: List[OverheadRow]

    def by_workload(self) -> Dict[str, OverheadRow]:
        return {row.workload: row for row in self.rows}

    def format_table(self) -> str:
        headers = ["Benchmark", "Dyn inst %", "Code size %"] + [
            f"IPC % ({size // 1024}K I$)" for size in ICACHE_SIZES
        ]
        rows = [
            [r.workload, r.pct_dynamic, r.pct_static]
            + [r.pct_ipc[size] for size in ICACHE_SIZES]
            for r in self.rows
        ]
        return format_table(
            headers, rows, title="Figure 13: E-DVI overhead (unexploited annotations)"
        )


def run(profile: ExperimentProfile, context: ExperimentContext = None) -> Fig13Result:
    """Measure dynamic, static, and IPC overheads of the annotations."""
    context = context or ExperimentContext(profile)
    SPEC.execute(profile, context)
    COUNT_SPEC.execute(profile, context)
    plain_mode, annotated_mode = SPEC.modes
    (count_mode,) = COUNT_SPEC.modes
    rows: List[OverheadRow] = []
    for workload in SPEC.resolve_workloads(profile):
        plain = context.binary(workload, edvi=False)
        annotated = context.binary(workload, edvi=True)
        pct_static = 100.0 * (len(annotated.insts) - len(plain.insts)) / len(plain.insts)

        counts = COUNT_SPEC.result(context, count_mode, workload).stats
        pct_dynamic = 100.0 * counts.kill_insts / counts.program_insts

        pct_ipc: Dict[int, float] = {}
        for point in SPEC.points(profile):
            base = SPEC.result(context, plain_mode, workload, point)
            with_edvi = SPEC.result(context, annotated_mode, workload, point)
            pct_ipc[point["icache"]] = 100.0 * (1.0 - with_edvi.ipc / base.ipc)
        rows.append(
            OverheadRow(
                workload=workload,
                pct_dynamic=pct_dynamic,
                pct_static=pct_static,
                pct_ipc=pct_ipc,
            )
        )
    return Fig13Result(rows=rows)
