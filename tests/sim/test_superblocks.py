"""Superblock-adversarial differential tests.

The fuzz differential suite (test_differential.py) already runs the
specialized engine — superblocks included — against the reference
interpreter over random call DAGs.  This file attacks the *block
machinery itself* with the control-flow shapes most likely to break
fused dispatch:

* computed jumps that land in a **block interior** (a pc that is not a
  leader, so dispatch must fall back to per-pc closures until the next
  leader);
* **single-instruction blocks** (alternating op/branch code, and
  branch-to-branch chains where every block is one control transfer);
* **backward branches and tight loops** (2-3 instruction loop bodies
  executed thousands of times — the worst case for per-block counter
  batching);
* **maximum-length runs** around :data:`MAX_BLOCK_LEN` (63/64/65/200),
  where capped blocks must chain into their successors.

Every program runs through both engines across representative DVI
configurations; statistics, registers, memory, and every trace row
must be identical.  A final guard pins that fused dispatch was
actually engaged (a broken ``_install_superblocks`` that silently
falls back per-pc would otherwise vacuously pass this whole file).
"""

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.isa import registers as regs
from repro.program.builder import ProgramBuilder
from repro.rewrite.edvi import insert_edvi
from repro.sim.compile import MAX_BLOCK_LEN, compile_program
from repro.sim.functional import FunctionalSimulator, ReferenceSimulator

#: The configurations that exercise distinct codegen variants: the
#: nodvi fast path, I-DVI alone, and the full engine with both
#: elimination schemes (hooks + LVM masks in the generated bodies).
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
    return fast


# ----------------------------------------------------------------------
# Adversarial program constructors.
# ----------------------------------------------------------------------

def interior_entry_program() -> ProgramBuilder:
    """A jump table whose entries land *inside* a fused block.

    The straight-line run below compiles into one superblock (none of
    its pcs except the leader start a block); the ``jr`` dispatches
    through data-segment addresses the compiler cannot see, entering
    the block at offsets 0, 2, and 5.  Dispatch must execute the
    interior suffixes per-pc and still produce identical traces.
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
    # One long straight-line block; "mid" and "late" are plain labels
    # (never static branch targets), so they are NOT leaders.
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
    """Every block is one instruction: op/branch alternation plus a
    branch-to-branch chain (a control transfer whose fall-through is
    another control transfer)."""
    b = ProgramBuilder("single_inst")
    b.label("main")
    b.li(regs.T0, 6)
    b.li(regs.S0, 0)
    b.label("top")                    # leader: single addi block
    b.addi(regs.S0, regs.S0, 5)      # (next pc is the branch leader)
    b.bne(regs.T0, regs.ZERO, "step")  # branch: 1-inst block
    b.j("fin")                       # fall-through of a branch: leader
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
    """One straight-line run of ``length`` ALU ops (no interior leader),
    executed twice via a backward branch so chained blocks re-enter."""
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
    # adversary runs under the non-rewriting configurations (the hooked
    # codegen variants are covered by the other scenarios).
    @pytest.mark.parametrize(
        "dvi", [DVIConfig.none(), DVIConfig.idvi_only()],
        ids=["none", "idvi"],
    )
    def test_computed_jump_into_block_interior(self, dvi):
        program = _build(interior_entry_program(), dvi)
        fast = check(program, dvi, max_steps=100_000)
        # The adversary premise: the interior labels must NOT be block
        # leaders, or this test degrades into plain block dispatch.
        compiled = compile_program(program)
        for label in ("mid", "late"):
            assert compiled.len_by_pc[program.labels[label]] == 0
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


class TestMaxLengthRuns:
    @pytest.mark.parametrize(
        "length",
        [MAX_BLOCK_LEN - 1, MAX_BLOCK_LEN, MAX_BLOCK_LEN + 1,
         3 * MAX_BLOCK_LEN + 5],
    )
    def test_capped_blocks_chain(self, length):
        dvi = DVIConfig.full(SRScheme.LVM_STACK)
        program = _build(straight_run_program(length), dvi)
        check(program, dvi, max_steps=100_000)

    def test_long_run_splits_at_cap(self):
        program = straight_run_program(3 * MAX_BLOCK_LEN + 5).build()
        compiled = compile_program(program)
        assert all(ln <= MAX_BLOCK_LEN for _, ln in compiled.blocks)
        assert any(ln == MAX_BLOCK_LEN for _, ln in compiled.blocks)


class TestDispatchEngaged:
    """Guards against the vacuous-pass failure mode."""

    def test_superblocks_actually_compiled_and_dispatched(self):
        program = tight_loop_program(50).build()
        dvi = DVIConfig.none()
        sim = FunctionalSimulator(program, dvi)
        sim.run()
        assert compile_program(program).n_blocks > 0
        assert any(blk is not None for blk in sim._blk_fns), (
            "fused dispatch was not installed"
        )
        assert sum(sim._bcounts) > 0, "no block function ever executed"
        assert "_superblocks" in program.__dict__

    def test_live_histogram_runs_step_per_pc(self):
        """The histogram samples the LVM after every instruction, so a
        live-hist run executes no block and matches the reference; the
        same program without it executes blocks."""
        dvi = DVIConfig.full(SRScheme.LVM_STACK)
        program = _build(tight_loop_program(50), dvi)
        sim = FunctionalSimulator(program, dvi, collect_live_hist=True)
        fast = sim.run()
        assert all(blk is None for blk in sim._blk_fns)
        assert sum(sim._bcounts) == 0
        slow = ReferenceSimulator(program, dvi, collect_live_hist=True).run()
        assert fast.stats.live_hist
        assert fast.stats.live_hist == slow.stats.live_hist
        assert_equivalent(fast, slow)

        fused = FunctionalSimulator(program, dvi)
        fused.run()
        assert sum(fused._bcounts) > 0
