"""Figure 12: context-switch saves and restores eliminated.

Two measurements, per workload:

* **histogram method** (the paper's): sample the number of live
  architectural registers after every instruction and report the average;
  the reduction vs. saving everything is the fraction of context-switch
  saves+restores a live-aware switch routine skips.  Paper averages:
  I-DVI only 42%, E-DVI + I-DVI 51%.
* **scheduler method** (executable extension): actually run the workloads
  preemptively multiplexed by :mod:`repro.threads` and count the saves and
  restores the switch routine executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments.runner import ExperimentContext, ExperimentProfile, format_table
from repro.experiments.sweep import Mode, SweepSpec

#: Figure 12's benchmark set (ijpeg, gcc, perl, vortex, compress, go —
#: li is not charted in the paper's figure).
FIG12_ORDER = [
    "ijpeg_like", "gcc_like", "perl_like", "vortex_like",
    "compress_like", "go_like",
]

#: Preemption quantum (instructions) of the scheduler measurement.
QUANTUM = 997

def _histogram_workloads(profile: ExperimentProfile) -> List[str]:
    """The charted workloads present in the profile (paper order)."""
    chosen = [w for w in FIG12_ORDER if w in set(profile.workloads)]
    return chosen or list(profile.workloads)


def _mix(profile: ExperimentProfile) -> List[str]:
    """The multiprogrammed mix: charted workloads padded to three threads."""
    mix = _histogram_workloads(profile)
    for extra in profile.sr_workloads:
        if len(mix) >= 3:
            break
        if extra not in mix:
            mix.append(extra)
    return mix[:3]


#: Live-register histogram cells: the two DVI settings the paper charts,
#: sampled over the charted workloads.
HIST_SPEC = SweepSpec(
    name="fig12-histogram",
    kind="functional",
    workloads=_histogram_workloads,
    modes=(
        Mode("I-DVI",
             DVIConfig(use_idvi=True, use_edvi=False, scheme=SRScheme.LVM_STACK),
             live_hist=True),
        Mode("E-DVI and I-DVI", DVIConfig.full(SRScheme.LVM_STACK),
             edvi_binary=True, live_hist=True),
    ),
)

#: The solo-exit and binary cells the preemptive scheduler run needs.
MIX_SPEC = SweepSpec(
    name="fig12-mix",
    kind="functional",
    workloads=_mix,
    modes=(Mode("solo", DVIConfig.none()),),
    include_binary=True,
)


@dataclass
class ContextSwitchRow:
    workload: str
    saveable_regs: int
    avg_live_idvi: float
    avg_live_full: float

    @property
    def pct_eliminated_idvi(self) -> float:
        return 100.0 * (1.0 - self.avg_live_idvi / self.saveable_regs)

    @property
    def pct_eliminated_full(self) -> float:
        return 100.0 * (1.0 - self.avg_live_full / self.saveable_regs)


@dataclass
class SchedulerMeasurement:
    dvi_label: str
    switches: int
    pct_eliminated: float
    all_correct: bool


@dataclass
class Fig12Result:
    rows: List[ContextSwitchRow]
    scheduler: List[SchedulerMeasurement]

    def average(self, metric: str) -> float:
        return sum(getattr(row, metric) for row in self.rows) / len(self.rows)

    def by_workload(self) -> Dict[str, ContextSwitchRow]:
        return {row.workload: row for row in self.rows}

    def format_table(self) -> str:
        table = format_table(
            ["Benchmark", "I-DVI elim %", "E+I-DVI elim %"],
            [
                [r.workload, r.pct_eliminated_idvi, r.pct_eliminated_full]
                for r in self.rows
            ],
            title="Figure 12: Context-switch saves/restores eliminated "
                  "(live-register histogram)",
        )
        summary = (
            f"\nAverages: I-DVI {self.average('pct_eliminated_idvi'):.1f}%, "
            f"E-DVI and I-DVI {self.average('pct_eliminated_full'):.1f}%"
        )
        sched_lines = [
            f"  {m.dvi_label}: {m.pct_eliminated:.1f}% eliminated over "
            f"{m.switches} preemptive switches "
            f"({'all threads correct' if m.all_correct else 'MISMATCH'})"
            for m in self.scheduler
        ]
        return table + summary + "\nPreemptive scheduler measurement:\n" + "\n".join(
            sched_lines
        )


def jobs(profile: ExperimentProfile):
    """Histogram cells + the solo-exit and binary cells the scheduler needs.

    The preemptive-scheduler measurement itself multiplexes threads on one
    simulated machine and is inherently serial, so it is not a cell; it is
    cached whole through ``context.artifact`` instead.
    """
    return HIST_SPEC.jobs(profile) + MIX_SPEC.jobs(profile)


def _scheduler_measurement(
    context: ExperimentContext,
    mix: List[str],
    label: str,
    dvi: DVIConfig,
    edvi_binary: bool,
) -> SchedulerMeasurement:
    """One cached preemptive-scheduler run of the mix under ``dvi``."""
    def compute() -> SchedulerMeasurement:
        # Imported here: a replayed measurement never loads the engine.
        from repro.threads.scheduler import RoundRobinScheduler

        solo_exits = {
            w: context.functional(
                w, DVIConfig.none(), edvi_binary=False
            ).stats.exit_value
            for w in mix
        }
        programs = [context.binary(w, edvi=edvi_binary) for w in mix]
        result = RoundRobinScheduler(programs, dvi, quantum=QUANTUM).run()
        correct = all(
            thread.exit_value == solo_exits[thread.name]
            for thread in result.threads
        )
        return SchedulerMeasurement(
            dvi_label=label,
            switches=result.switch_stats.switches,
            pct_eliminated=result.switch_stats.pct_eliminated,
            all_correct=correct,
        )

    return context.artifact(
        "fig12_scheduler", (tuple(mix), dvi, edvi_binary, QUANTUM), compute
    )


def run(profile: ExperimentProfile, context: ExperimentContext = None) -> Fig12Result:
    """Run both the histogram and scheduler measurements."""
    context = context or ExperimentContext(profile)
    HIST_SPEC.execute(profile, context)
    MIX_SPEC.execute(profile, context)

    idvi_mode, full_mode = HIST_SPEC.modes
    rows: List[ContextSwitchRow] = []
    for workload in HIST_SPEC.resolve_workloads(profile):
        idvi = HIST_SPEC.result(context, idvi_mode, workload).stats
        full = HIST_SPEC.result(context, full_mode, workload).stats
        saveable = bin(DVIConfig.none().abi.saveable_mask()).count("1")
        rows.append(
            ContextSwitchRow(
                workload=workload,
                saveable_regs=saveable,
                avg_live_idvi=idvi.average_live(),
                avg_live_full=full.average_live(),
            )
        )

    # The multiprogrammed mix needs at least two threads to switch between.
    mix = _mix(profile)
    scheduler_rows = [
        _scheduler_measurement(context, mix, label, dvi, edvi_binary)
        for label, dvi, edvi_binary in (
            ("I-DVI", DVIConfig.idvi_only(), False),
            ("E-DVI and I-DVI", DVIConfig.full(SRScheme.LVM_STACK), True),
        )
    ]
    return Fig12Result(rows=rows, scheduler=scheduler_rows)
