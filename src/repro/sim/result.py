"""What a functional run produces: :class:`FunctionalStats` and :class:`FunctionalResult`.

Every functional engine (the per-pc engine in :mod:`repro.sim.functional`,
the native engine, the reference interpreter) and the thread scheduler
return these classes, and a ``functional`` cache artifact pickles to
them.  They live apart from the engines so that unpickling a cached
result imports this module alone, not an engine and what it imports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from repro.sim.trace import Trace


@dataclass
class FunctionalStats:
    """Dynamic statistics of one functional run.

    ``program_insts`` counts original program instructions (saves/restores
    included whether or not they were eliminated; ``kill`` annotations
    excluded), matching the paper's reporting conventions.
    """

    program_insts: int = 0
    kill_insts: int = 0
    calls: int = 0
    returns: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    saves: int = 0
    restores: int = 0
    saves_eliminated: int = 0
    restores_eliminated: int = 0
    #: Histogram of live saveable registers, sampled after each instruction.
    live_hist: Dict[int, int] = field(default_factory=dict)
    exit_value: int = 0
    completed: bool = False

    @property
    def mem_refs(self) -> int:
        """All program memory references, eliminated ones included."""
        return self.loads + self.stores

    @property
    def saves_restores(self) -> int:
        return self.saves + self.restores

    @property
    def saves_restores_eliminated(self) -> int:
        return self.saves_eliminated + self.restores_eliminated

    @property
    def pct_calls(self) -> float:
        return 100.0 * self.calls / self.program_insts if self.program_insts else 0.0

    @property
    def pct_mem(self) -> float:
        return 100.0 * self.mem_refs / self.program_insts if self.program_insts else 0.0

    @property
    def pct_saves_restores(self) -> float:
        if not self.program_insts:
            return 0.0
        return 100.0 * self.saves_restores / self.program_insts

    def average_live(self) -> float:
        """Mean of the live-register histogram (Figure 12's statistic)."""
        total = sum(self.live_hist.values())
        if not total:
            return 0.0
        return sum(count * n for n, count in self.live_hist.items()) / total


@dataclass
class FunctionalResult:
    """Everything a functional run produces."""

    stats: FunctionalStats
    trace: Optional[Trace]
    registers: List[int]
    memory: Dict[int, int]

    def data_segment(self, base: int, limit: int) -> Dict[int, int]:
        """The memory words whose byte addresses lie in ``[base, limit)``.

        ``base`` and ``limit`` are byte addresses; the result is keyed,
        like :attr:`memory`, by word index (byte address ``>> 2``).  The
        data segment is the observable output of a run.
        """
        return {
            word: value
            for word, value in self.memory.items()
            if base <= word * 4 < limit
        }
