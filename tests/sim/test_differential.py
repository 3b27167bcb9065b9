"""Differential tests: specialized dispatch vs the reference interpreter.

The functional emulator has two execution engines — the decode-time
specialized dispatch (:class:`repro.sim.functional.FunctionalSimulator`)
and the retained monolithic interpreter
(:mod:`repro.sim.reference`, pinned via
:class:`repro.sim.functional.ReferenceSimulator`).  These tests run the
same programs through both, across the DVI configuration space, and
assert that everything observable is identical: dynamic statistics, the
data segment, the exit value, and every trace row.
"""

import dataclasses
import random

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.program.program import DATA_BASE, STACK_TOP
from repro.rewrite.edvi import insert_edvi
from repro.sim.functional import FunctionalSimulator, ReferenceSimulator
from repro.workloads.fuzz import FuzzConfig, generate_program
from repro.workloads.suite import get_program

#: The DVI configuration space the fuzz programs sweep: nothing, I-DVI
#: alone, E-DVI+I-DVI without elimination, both elimination schemes, and
#: constrained LVM-Stack depths (the ablation's regime).
DVI_CONFIGS = [
    DVIConfig.none(),
    DVIConfig.idvi_only(),
    DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE),
    DVIConfig.full(SRScheme.LVM),
    DVIConfig.full(SRScheme.LVM_STACK),
    dataclasses.replace(DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=1),
    dataclasses.replace(DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=2),
    dataclasses.replace(
        DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=None
    ),
]

_DATA_LIMIT = STACK_TOP - (1 << 20)


def run_both(program, dvi, **kwargs):
    fast = FunctionalSimulator(program, dvi, **kwargs).run()
    slow = ReferenceSimulator(program, dvi, **kwargs).run()
    return fast, slow


def assert_equivalent(fast, slow, *, compare_traces=True):
    assert fast.stats == slow.stats  # dataclass: field-by-field equality
    assert fast.registers == slow.registers
    assert fast.memory == slow.memory
    if compare_traces:
        assert fast.trace is not None and slow.trace is not None
        assert fast.trace.completed == slow.trace.completed
        assert fast.trace.end_pc == slow.trace.end_pc
        fast_rows = fast.trace.records
        slow_rows = slow.trace.records
        assert len(fast_rows) == len(slow_rows)
        for mine, theirs in zip(fast_rows, slow_rows):
            for field in (
                "seq", "pc", "op", "cls", "dst", "srcs", "addr", "taken",
                "next_pc", "free_mask", "eliminated", "is_program",
            ):
                assert getattr(mine, field) == getattr(theirs, field), (
                    f"row {mine.seq} differs in {field!r}: "
                    f"{getattr(mine, field)!r} != {getattr(theirs, field)!r}"
                )


class TestFuzzDifferential:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "dvi", DVI_CONFIGS, ids=lambda c: f"{c.label()}-{c.scheme.name}"
                                          f"-d{c.lvm_stack_depth}"
    )
    def test_fuzz_programs_identical(self, seed, dvi):
        program = generate_program(seed, FuzzConfig(n_procs=4))
        if dvi.use_edvi:
            program = insert_edvi(program).program
        fast, slow = run_both(program, dvi, max_steps=200_000)
        assert fast.stats.completed
        assert_equivalent(fast, slow)

    @pytest.mark.parametrize("seed", (100, 101))
    def test_fuzz_without_trace(self, seed):
        program = generate_program(seed)
        fast, slow = run_both(
            program, DVIConfig.full(), max_steps=200_000, collect_trace=False
        )
        assert fast.trace is None and slow.trace is None
        assert_equivalent(fast, slow, compare_traces=False)

    def test_live_histogram_identical(self):
        program = generate_program(7)
        fast, slow = run_both(
            program,
            DVIConfig.full(SRScheme.LVM_STACK),
            max_steps=200_000,
            collect_trace=False,
            collect_live_hist=True,
        )
        assert fast.stats.live_hist  # non-trivial histogram
        assert fast.stats.live_hist == slow.stats.live_hist
        assert_equivalent(fast, slow, compare_traces=False)


class TestCutDifferential:
    """Runs cut by ``max_steps`` mid-run: the last row's successor comes
    from ``end_pc``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "dvi",
        [DVIConfig.none(), DVIConfig.full(SRScheme.LVM_STACK)],
        ids=("none", "lvm-stack"),
    )
    def test_cut_fuzz_programs_identical(self, seed, dvi):
        program = generate_program(seed, FuzzConfig(n_procs=4))
        if dvi.use_edvi:
            program = insert_edvi(program).program
        total = FunctionalSimulator(program, dvi, max_steps=200_000).run()
        assert total.stats.completed
        rows = len(total.trace)
        for cut in sorted(random.Random(seed).sample(range(1, rows), 6)):
            fast, slow = run_both(program, dvi, max_steps=cut)
            assert not fast.stats.completed
            assert len(fast.trace) == cut
            assert fast.trace.records[-1].next_pc == fast.trace.end_pc
            assert_equivalent(fast, slow)


class TestWorkloadDifferential:
    """One real workload end-to-end per elimination scheme."""

    @pytest.mark.parametrize(
        "dvi",
        [DVIConfig.none(), DVIConfig.full(SRScheme.LVM_STACK)],
        ids=("none", "lvm-stack"),
    )
    def test_li_like_identical(self, dvi):
        program = get_program("li_like", 1)
        if dvi.use_edvi:
            program = insert_edvi(program).program
        fast, slow = run_both(program, dvi)
        assert fast.stats.completed
        assert_equivalent(fast, slow)

    def test_observable_data_segment_matches(self):
        program = insert_edvi(get_program("perl_like", 1)).program
        fast, slow = run_both(program, DVIConfig.full(SRScheme.LVM_STACK))
        assert fast.data_segment(DATA_BASE, _DATA_LIMIT)
        assert (fast.data_segment(DATA_BASE, _DATA_LIMIT)
                == slow.data_segment(DATA_BASE, _DATA_LIMIT))
        assert fast.stats.exit_value == slow.stats.exit_value


class TestResumableDifferential:
    def test_chunked_execution_matches_reference(self):
        program = generate_program(42)
        fast = FunctionalSimulator(program, DVIConfig.full())
        while fast.execute(137):
            pass
        slow = ReferenceSimulator(program, DVIConfig.full())
        while slow.execute(137):
            pass
        assert_equivalent(fast.result(), slow.result())
