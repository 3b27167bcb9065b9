"""Adversarial control-flow shapes, on every functional engine.

The fuzz differential suite (test_differential.py) runs random call
DAGs.  This file runs the control-flow shapes most likely to trip a
dispatch loop that keeps anything per pc or per straight-line run:

* computed jumps that land **inside a straight-line run** (a jump table
  entering one run at offsets 0, 2 and 5);
* **one-instruction runs** (alternating op/branch code, and
  branch-to-branch chains where every run is one control transfer);
* **backward branches and tight loops** (2-3 instruction loop bodies
  executed thousands of times);
* **long straight runs** of 63 to 197 instructions, re-entered by a
  backward branch.

Every program runs on the per-pc Python engine and on the reference
interpreter, whose statistics, registers, memory and trace rows must be
identical, and on the native engine, whose result must pickle to the
Python engine's bytes.
"""

import pickle

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.isa import registers as regs
from repro.program.builder import ProgramBuilder
from repro.rewrite.edvi import insert_edvi
from repro.sim import functional_native
from repro.sim.functional import FunctionalSimulator, ReferenceSimulator

#: The nodvi fast path, I-DVI alone, and the full engine with both
#: elimination schemes.
DVI_CONFIGS = [
    DVIConfig.none(),
    DVIConfig.idvi_only(),
    DVIConfig.full(SRScheme.LVM),
    DVIConfig.full(SRScheme.LVM_STACK),
]
_IDS = [f"{c.label()}-{c.scheme.name}" for c in DVI_CONFIGS]


def run_both(program, dvi, **kwargs):
    fast = FunctionalSimulator(program, dvi, **kwargs).run()
    slow = ReferenceSimulator(program, dvi, **kwargs).run()
    return fast, slow


def assert_equivalent(fast, slow):
    assert fast.stats == slow.stats  # dataclass: field-by-field equality
    assert fast.registers == slow.registers
    assert fast.memory == slow.memory
    assert fast.trace is not None and slow.trace is not None
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


def check(program, dvi, **kwargs):
    fast, slow = run_both(program, dvi, **kwargs)
    assert fast.stats.completed
    assert_equivalent(fast, slow)
    if functional_native.ENGINE.load() is not None:
        native = functional_native.native_simulator(program, dvi, **kwargs)
        assert native is not None
        assert pickle.dumps(native.run()) == pickle.dumps(fast)
    return fast


# ----------------------------------------------------------------------
# Adversarial program constructors.
# ----------------------------------------------------------------------

def interior_entry_program() -> ProgramBuilder:
    """A jump table whose entries land *inside* a straight-line run.

    No static branch targets the run's interior; the ``jr`` dispatches
    through data-segment addresses, entering the run at offsets 0, 2,
    and 5, and every entry must produce identical traces.
    """
    b = ProgramBuilder("interior_entry")
    b.zeros("out", 4)
    b.label_words("table", ["blk", "mid", "late"])
    b.label("main")
    b.li(regs.S0, 0)            # table index
    b.li(regs.S1, 0)            # accumulator
    b.label("dispatch")
    b.la(regs.T0, "table")
    b.slli(regs.T1, regs.S0, 2)
    b.add(regs.T0, regs.T0, regs.T1)
    b.lw(regs.T1, 0, regs.T0)
    b.jr(regs.T1)               # computed entry: blk+0 / blk+2 / blk+5
    # One long straight-line run; "mid" and "late" are plain labels,
    # never static branch targets.
    b.label("blk")
    b.addi(regs.S1, regs.S1, 1)
    b.xori(regs.S1, regs.S1, 0x15)
    b.label("mid")
    b.addi(regs.S1, regs.S1, 3)
    b.slli(regs.T2, regs.S1, 1)
    b.add(regs.S1, regs.S1, regs.T2)
    b.label("late")
    b.andi(regs.S1, regs.S1, 0x3FFF)
    b.addi(regs.S1, regs.S1, 7)
    b.la(regs.T3, "out")
    b.sw(regs.S1, 0, regs.T3)
    b.addi(regs.S0, regs.S0, 1)
    b.slti(regs.T4, regs.S0, 3)
    b.bgtz(regs.T4, "dispatch")
    b.move(regs.V0, regs.S1)
    b.halt()
    return b


def single_inst_blocks_program() -> ProgramBuilder:
    """Every straight-line run is one instruction: op/branch alternation
    plus a branch-to-branch chain (a control transfer whose fall-through
    is another control transfer)."""
    b = ProgramBuilder("single_inst")
    b.label("main")
    b.li(regs.T0, 6)
    b.li(regs.S0, 0)
    b.label("top")                    # branch target: a 1-inst run
    b.addi(regs.S0, regs.S0, 5)
    b.bne(regs.T0, regs.ZERO, "step")  # branch: a 1-inst run
    b.j("fin")                       # fall-through of a branch
    b.label("step")
    b.addi(regs.T0, regs.T0, -1)
    b.bgtz(regs.T0, "top")           # backward branch
    b.beq(regs.S0, regs.S0, "fin")   # branch directly after a branch
    b.label("fin")
    b.move(regs.V0, regs.S0)
    b.halt()
    return b


def tight_loop_program(trips: int) -> ProgramBuilder:
    """A 2-instruction backward loop executed ``trips`` times, then a
    3-instruction loop with a store (memory traffic every iteration)."""
    b = ProgramBuilder("tight_loop")
    b.zeros("cell", 1)
    b.label("main")
    b.li(regs.T0, trips)
    b.li(regs.S0, 0)
    b.label("spin")                      # 2-inst loop: add + branch
    b.addi(regs.T0, regs.T0, -1)
    b.bgtz(regs.T0, "spin")
    b.li(regs.T1, trips)
    b.la(regs.T2, "cell")
    b.label("spin2")                     # 3-inst loop with a store
    b.addi(regs.S0, regs.S0, 3)
    b.sw(regs.S0, 0, regs.T2)
    b.addi(regs.T1, regs.T1, -1)
    b.bgtz(regs.T1, "spin2")
    b.move(regs.V0, regs.S0)
    b.halt()
    return b


def straight_run_program(length: int) -> ProgramBuilder:
    """One straight-line run of ``length`` ALU ops (no interior branch
    target), executed twice via a backward branch."""
    b = ProgramBuilder(f"run_{length}")
    b.label("main")
    b.li(regs.T0, 2)
    b.li(regs.S0, 1)
    b.label("again")
    for i in range(length):
        if i % 3 == 0:
            b.addi(regs.S0, regs.S0, i + 1)
        elif i % 3 == 1:
            b.xori(regs.S0, regs.S0, (i * 7) & 0x7FFF)
        else:
            b.andi(regs.S0, regs.S0, 0xFFFF)
    b.addi(regs.T0, regs.T0, -1)
    b.bgtz(regs.T0, "again")
    b.move(regs.V0, regs.S0)
    b.halt()
    return b


def _build(builder: ProgramBuilder, dvi: DVIConfig):
    program = builder.build()
    if dvi.use_edvi:
        program = insert_edvi(program).program
    return program


# ----------------------------------------------------------------------
# The scenarios.
# ----------------------------------------------------------------------

class TestInteriorEntry:
    # E-DVI insertion requires an analyzable CFG, and a jr through a
    # non-ra register is exactly what it rejects — so the computed-entry
    # adversary runs under the non-rewriting configurations (the other
    # scenarios cover the DVI mechanisms).
    @pytest.mark.parametrize(
        "dvi", [DVIConfig.none(), DVIConfig.idvi_only()],
        ids=["none", "idvi"],
    )
    def test_computed_jump_into_block_interior(self, dvi):
        program = _build(interior_entry_program(), dvi)
        fast = check(program, dvi, max_steps=100_000)
        assert fast.stats.exit_value == check(
            program, dvi, max_steps=100_000
        ).stats.exit_value


class TestSingleInstBlocks:
    @pytest.mark.parametrize("dvi", DVI_CONFIGS, ids=_IDS)
    def test_alternating_ops_and_branches(self, dvi):
        program = _build(single_inst_blocks_program(), dvi)
        check(program, dvi, max_steps=100_000)


class TestTightLoops:
    @pytest.mark.parametrize("dvi", DVI_CONFIGS, ids=_IDS)
    @pytest.mark.parametrize("trips", [1, 2, 1000])
    def test_backward_branch_loops(self, dvi, trips):
        program = _build(tight_loop_program(trips), dvi)
        check(program, dvi, max_steps=100_000)


class TestLongRuns:
    @pytest.mark.parametrize("length", [63, 64, 65, 197])
    def test_long_straight_runs(self, length):
        dvi = DVIConfig.full(SRScheme.LVM_STACK)
        program = _build(straight_run_program(length), dvi)
        check(program, dvi, max_steps=100_000)
