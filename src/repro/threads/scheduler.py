"""A preemptive round-robin thread scheduler over the functional emulator.

This is the section 6 substrate: multiple guest programs time-share one
simulated processor, preempted every ``quantum`` instructions.  At each
switch the scheduler behaves exactly like a switch routine built from the
paper's primitives:

* ``lvm_save``: the outgoing thread's LVM is stored in its context block;
* live-stores: only registers the LVM marks live are saved;
* ``lvm_load`` + live-loads: on resume, the saved LVM is reloaded first and
  only registers it marks live are restored.

Preemption points are arbitrary (mid-procedure), which is precisely the
case static techniques cannot optimize — the paper's motivation for doing
this in hardware.  Correctness is checked end-to-end: every thread must
finish with the same exit value and data segment it produces running alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.dvi.config import DVIConfig
from repro.errors import SimulationError
from repro.program.program import Program
from repro.sim.functional import simulator
from repro.sim.result import FunctionalStats
from repro.threads.context import ContextBlock, SwitchStats


@dataclass
class ThreadResult:
    """Outcome of one thread in a multiprogrammed run."""

    name: str
    stats: FunctionalStats
    exit_value: int


@dataclass
class ScheduleResult:
    """Outcome of a multiprogrammed run."""

    threads: List[ThreadResult]
    switch_stats: SwitchStats
    total_steps: int


class RoundRobinScheduler:
    """Preemptively multiplex guest programs on one simulated CPU."""

    def __init__(
        self,
        programs: Sequence[Program],
        dvi: Optional[DVIConfig] = None,
        *,
        quantum: int = 2_000,
        max_total_steps: int = 20_000_000,
    ) -> None:
        if not programs:
            raise ValueError("need at least one program")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.dvi = dvi if dvi is not None else DVIConfig.none()
        self.quantum = quantum
        self.max_total_steps = max_total_steps
        self._sims = [
            simulator(program, self.dvi, collect_trace=False)
            for program in programs
        ]
        self._contexts = [ContextBlock() for _ in programs]
        self._ever_saved = [False] * len(programs)
        self._saveable = self.dvi.abi.saveable_mask()
        self._n_saveable = bin(self._saveable).count("1")

    def run(self) -> ScheduleResult:
        """Run all threads to completion, switching every quantum."""
        switch_stats = SwitchStats()
        total = 0
        current = -1  # no thread loaded yet
        runnable = set(range(len(self._sims)))

        while runnable:
            if total >= self.max_total_steps:
                raise SimulationError(
                    f"scheduler exceeded {self.max_total_steps} total steps"
                )
            # pick the next runnable thread, round-robin from current+1
            n = len(self._sims)
            next_thread = None
            for offset in range(1, n + 1):
                candidate = (current + offset) % n
                if candidate in runnable:
                    next_thread = candidate
                    break
            assert next_thread is not None

            if next_thread != current:
                if current >= 0 and current in runnable:
                    self._switch_out(current, switch_stats)
                self._switch_in(next_thread, switch_stats, first=current < 0)
                if current >= 0:
                    switch_stats.switches += 1
                current = next_thread

            sim = self._sims[current]
            still_running = sim.execute(self.quantum)
            total += self.quantum
            if not still_running:
                runnable.discard(current)

        return ScheduleResult(
            threads=[
                ThreadResult(
                    name=sim.program.name,
                    stats=sim.stats,
                    exit_value=sim.stats.exit_value,
                )
                for sim in self._sims
            ],
            switch_stats=switch_stats,
            total_steps=total,
        )

    # ------------------------------------------------------------------

    def _switch_out(self, thread: int, stats: SwitchStats) -> None:
        sim = self._sims[thread]
        executed = self._contexts[thread].save(
            sim.regs, sim.save_lvm(), self._saveable
        )
        self._ever_saved[thread] = True
        stats.saves_executed += executed
        stats.saves_possible += self._n_saveable

    def _switch_in(self, thread: int, stats: SwitchStats, *, first: bool) -> None:
        if not self._ever_saved[thread]:
            # First dispatch of this thread: nothing to restore.
            return
        sim = self._sims[thread]
        context = self._contexts[thread]
        # lvm_load precedes the restores (section 6.1).
        sim.load_lvm(context.saved_lvm)
        executed = context.restore(sim.regs, self._saveable)
        stats.restores_executed += executed
        stats.restores_possible += self._n_saveable
