"""Executable checks of the DVI correctness contract.

Section 7 of the paper: "Incorrect E-DVI will almost certainly lead to
incorrect execution ... Errors in E-DVI should be considered compiler
errors."  This module provides two complementary oracles:

* :func:`verify_dvi` runs a program under the *poison* emulator (a
  :class:`~repro.sim.reference.ReferenceSimulator` built with
  ``verify_dvi=True``), which raises
  :class:`~repro.errors.DVIViolationError` the moment any register
  asserted dead (by a ``kill`` or by the ABI's implicit masks) is read
  before being overwritten — over a concrete execution, the strongest
  check available without symbolic reasoning;
* :func:`check_equivalence` runs a program under two DVI configurations
  (typically the no-DVI baseline and an aggressive elimination scheme) and
  compares the *observable* outcomes: exit value and final data segment.
  Save/restore elimination really changes the executed instruction stream,
  so equal observables are a meaningful end-to-end correctness result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dvi.config import DVIConfig
from repro.program.program import DATA_BASE, STACK_TOP, Program
from repro.sim.functional import FunctionalResult, run_program
from repro.sim.reference import ReferenceSimulator


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of an observational-equivalence check."""

    equivalent: bool
    exit_values: Tuple[int, int]
    mismatched_words: List[int]

    def __bool__(self) -> bool:
        return self.equivalent


def verify_dvi(
    program: Program,
    dvi: Optional[DVIConfig] = None,
    *,
    max_steps: int = 5_000_000,
) -> FunctionalResult:
    """Run with dead-value poisoning; raises on any dead-value read."""
    return ReferenceSimulator(
        program,
        dvi if dvi is not None else DVIConfig.full(),
        max_steps=max_steps,
        collect_trace=False,
        verify_dvi=True,
    ).run()


def check_equivalence(
    program_a: Program,
    dvi_a: DVIConfig,
    program_b: Program,
    dvi_b: DVIConfig,
    *,
    max_steps: int = 5_000_000,
    data_limit: int = STACK_TOP - (1 << 20),
) -> EquivalenceReport:
    """Compare observable outcomes of two (program, DVI config) pairs.

    Typically ``program_a`` is the annotation-free binary with
    ``DVIConfig.none()`` and ``program_b`` the E-DVI-rewritten binary with
    ``DVIConfig.full()``.  Stack memory below ``data_limit`` is excluded:
    eliminated saves legitimately leave stale garbage in dead stack slots.
    """
    result_a = run_program(program_a, dvi_a, max_steps=max_steps, collect_trace=False)
    result_b = run_program(program_b, dvi_b, max_steps=max_steps, collect_trace=False)
    exit_values = (result_a.stats.exit_value, result_b.stats.exit_value)

    # Jump-table words hold code addresses, which legitimately differ
    # between an original binary and its rewritten twin.
    relocated = {
        addr >> 2
        for program in (program_a, program_b)
        for addr, _ in program.relocations
    }
    words_a = result_a.data_segment(DATA_BASE, data_limit)
    words_b = result_b.data_segment(DATA_BASE, data_limit)
    mismatched = sorted(
        addr
        for addr in (set(words_a) | set(words_b)) - relocated
        if words_a.get(addr, 0) != words_b.get(addr, 0)
    )
    equivalent = (
        exit_values[0] == exit_values[1]
        and not mismatched
        and result_a.stats.completed
        and result_b.stats.completed
    )
    return EquivalenceReport(
        equivalent=equivalent,
        exit_values=exit_values,
        mismatched_words=mismatched,
    )
