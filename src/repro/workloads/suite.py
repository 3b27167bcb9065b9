"""The benchmark suite: the seven SPEC95-integer analogs (Figure 3).

Importing this module registers every workload.  The orderings, defined in
:mod:`repro.workloads` and re-exported here, match the paper's figures:
:func:`all_workloads` is the Figure 3/5 suite;
:func:`save_restore_suite` is the six-benchmark subset of Figures 9 and 10
("the six benchmarks that exhibit significant save and restore activity",
i.e. everything but compress).
"""

from __future__ import annotations

from typing import List

# Importing for side effect: each module registers itself.
from repro.workloads import (  # noqa: F401
    compress_like,
    gcc_like,
    go_like,
    ijpeg_like,
    li_like,
    m88ksim_like,
    perl_like,
    vortex_like,
)
from repro.workloads import ALL_ORDER, SAVE_RESTORE_ORDER
from repro.workloads.common import REGISTRY, Workload
from repro.program.program import Program
from repro.registry import UnknownComponentError


def all_workloads() -> List[Workload]:
    """All seven workloads, in the paper's characterization order."""
    return [REGISTRY.get(name) for name in ALL_ORDER]


def save_restore_suite() -> List[Workload]:
    """The six workloads with significant save/restore activity."""
    return [REGISTRY.get(name) for name in SAVE_RESTORE_ORDER]


def get_workload(name: str) -> Workload:
    """Look a workload up by name (accepts the bare analog name too)."""
    if name in REGISTRY:
        return REGISTRY.get(name)
    if f"{name}_like" in REGISTRY:
        return REGISTRY.get(f"{name}_like")
    raise UnknownComponentError("workload", name, sorted(REGISTRY.names()))


def get_program(name: str, scale: int = 1) -> Program:
    """Build (with caching) a workload program."""
    workload = get_workload(name)
    return REGISTRY.program(workload.name, scale)
