"""Tests for the functional emulator: instruction semantics and execution."""

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.errors import SimulationError
from repro.isa import registers as R
from repro.program.builder import ProgramBuilder
from repro.program.program import DATA_BASE, STACK_TOP
from repro.sim.functional import FunctionalSimulator, run_program


def run_asm(body, dvi=None, **kwargs):
    """Build main: <body>; halt and return the result."""
    b = ProgramBuilder("t")
    b.label("main")
    body(b)
    b.halt()
    return run_program(b.build(), dvi, collect_trace=True, **kwargs)


def exit_value(body, **kwargs):
    return run_asm(body, **kwargs).stats.exit_value


class TestArithmetic:
    def test_add_wraps_32_bits(self):
        def body(b):
            b.li(R.T0, 0x7FFFFFFF)
            b.addi(R.T1, R.ZERO, 1)
            b.add(R.V0, R.T0, R.T1)
        assert exit_value(body) == 0x80000000

    def test_sub(self):
        def body(b):
            b.li(R.T0, 5)
            b.li(R.T1, 9)
            b.sub(R.V0, R.T0, R.T1)
        assert exit_value(body) == (5 - 9) & 0xFFFFFFFF

    def test_mul_signed_wrap(self):
        def body(b):
            b.li(R.T0, -3)
            b.li(R.T1, 7)
            b.mul(R.V0, R.T0, R.T1)
        assert exit_value(body) == (-21) & 0xFFFFFFFF

    @pytest.mark.parametrize("a,b_,q,r", [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),   # truncating division
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (5, 0, 0, 5),      # division by zero: defined as q=0, r=a
    ])
    def test_div_rem(self, a, b_, q, r):
        def body_div(b):
            b.li(R.T0, a)
            b.li(R.T1, b_)
            b.div(R.V0, R.T0, R.T1)
        def body_rem(b):
            b.li(R.T0, a)
            b.li(R.T1, b_)
            b.rem(R.V0, R.T0, R.T1)
        assert exit_value(body_div) == q & 0xFFFFFFFF
        assert exit_value(body_rem) == r & 0xFFFFFFFF

    def test_logic_ops(self):
        def body(b):
            b.li(R.T0, 0b1100)
            b.li(R.T1, 0b1010)
            b.and_(R.T2, R.T0, R.T1)
            b.or_(R.T3, R.T0, R.T1)
            b.xor(R.T4, R.T0, R.T1)
            b.slli(R.T2, R.T2, 8)
            b.slli(R.T3, R.T3, 4)
            b.or_(R.V0, R.T2, R.T3)
            b.or_(R.V0, R.V0, R.T4)
        assert exit_value(body) == (0b1000 << 8) | (0b1110 << 4) | 0b0110

    def test_nor(self):
        def body(b):
            b.li(R.T0, 0)
            b.nor(R.V0, R.T0, R.T0)
        assert exit_value(body) == 0xFFFFFFFF

    def test_shifts(self):
        def body(b):
            b.li(R.T0, -8)
            b.srai(R.T1, R.T0, 1)   # arithmetic: -4
            b.srli(R.T2, R.T0, 28)  # logical: 0xF
            b.add(R.V0, R.T1, R.T2)
        assert exit_value(body) == ((-4) + 0xF) & 0xFFFFFFFF

    def test_variable_shift_uses_low_5_bits(self):
        def body(b):
            b.li(R.T0, 1)
            b.li(R.T1, 33)          # shift by 33 & 31 == 1
            b.sll(R.V0, R.T0, R.T1)
        assert exit_value(body) == 2

    def test_slt_signed_sltu_unsigned(self):
        def body(b):
            b.li(R.T0, -1)
            b.li(R.T1, 1)
            b.slt(R.T2, R.T0, R.T1)    # -1 < 1 -> 1
            b.sltu(R.T3, R.T0, R.T1)   # 0xFFFFFFFF < 1 -> 0
            b.slli(R.T2, R.T2, 1)
            b.or_(R.V0, R.T2, R.T3)
        assert exit_value(body) == 2

    def test_zero_register_is_immutable(self):
        def body(b):
            b.addi(R.ZERO, R.ZERO, 99)
            b.move(R.V0, R.ZERO)
        assert exit_value(body) == 0

    def test_andi_ori_zero_extend(self):
        def body(b):
            b.li(R.T0, -1)
            b.andi(R.V0, R.T0, -1)  # imm treated as 0xFFFF
        assert exit_value(body) == 0xFFFF


class TestMemory:
    def test_word_store_load(self):
        def body(b):
            addr = b.zeros("x", 1)
            b.li(R.T0, addr)
            b.li(R.T1, 0xABCD)
            b.sw(R.T1, 0, R.T0)
            b.lw(R.V0, 0, R.T0)
        assert exit_value(body) == 0xABCD

    def test_byte_store_load_little_endian(self):
        def body(b):
            addr = b.zeros("x", 1)
            b.li(R.T0, addr)
            b.li(R.T1, 0x7F)
            b.sb(R.T1, 1, R.T0)      # byte 1
            b.lw(R.V0, 0, R.T0)
        assert exit_value(body) == 0x7F00

    def test_lb_sign_extends(self):
        def body(b):
            addr = b.zeros("x", 1)
            b.li(R.T0, addr)
            b.li(R.T1, 0x80)
            b.sb(R.T1, 0, R.T0)
            b.lb(R.V0, 0, R.T0)
        assert exit_value(body) == (-128) & 0xFFFFFFFF

    def test_unaligned_word_access_rejected(self):
        def body(b):
            b.li(R.T0, 0x100002)
            b.lw(R.V0, 0, R.T0)
        with pytest.raises(SimulationError, match="unaligned"):
            exit_value(body)

    def test_initial_data_visible(self):
        def body(b):
            addr = b.words("arr", [5, 6, 7])
            b.li(R.T0, addr)
            b.lw(R.V0, 8, R.T0)
        assert exit_value(body) == 7

    def test_stack_pointer_initialized(self):
        def body(b):
            b.move(R.V0, R.SP)
        assert exit_value(body) == STACK_TOP

    def test_data_segment_takes_byte_bounds(self):
        """``data_segment`` bounds are byte addresses; memory is keyed by
        word index.  Stack words stay out, every data word is in."""
        def body(b):
            addr = b.words("arr", [5, 6])
            b.li(R.T0, addr)
            b.li(R.T1, 9)
            b.sw(R.T1, 4, R.T0)
            b.addi(R.SP, R.SP, -8)
            b.sw(R.T1, 0, R.SP)
            b.sw(R.T1, 4, R.SP)
        result = run_asm(body)
        data = DATA_BASE >> 2
        assert result.data_segment(DATA_BASE, STACK_TOP - (1 << 20)) == {
            data: 5, data + 1: 9,
        }
        stack = result.data_segment(STACK_TOP - 8, STACK_TOP)
        assert stack == {(STACK_TOP - 8) >> 2: 9, (STACK_TOP - 4) >> 2: 9}


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        def body(b):
            b.li(R.T0, 1)
            b.beq(R.T0, R.ZERO, "never")
            b.bne(R.T0, R.ZERO, "yes")
            b.label("never")
            b.li(R.V0, 111)
            b.halt()
            b.label("yes")
            b.li(R.V0, 222)
        assert exit_value(body) == 222

    def test_signed_compare_branches(self):
        def body(b):
            b.li(R.T0, -5)
            b.blt(R.T0, R.ZERO, "neg")
            b.li(R.V0, 1)
            b.halt()
            b.label("neg")
            b.li(R.V0, 2)
        assert exit_value(body) == 2

    def test_loop_executes_n_times(self):
        def body(b):
            b.li(R.T0, 0)
            b.li(R.T1, 10)
            b.label("top")
            b.addi(R.T0, R.T0, 1)
            b.blt(R.T0, R.T1, "top")
            b.move(R.V0, R.T0)
        assert exit_value(body) == 10

    def test_call_and_return(self):
        b = ProgramBuilder("t")
        with b.proc("main", save_ra=True):
            b.li(R.A0, 4)
            b.jal("double")
            b.halt()
        with b.proc("double"):
            b.add(R.V0, R.A0, R.A0)
            b.epilogue()
        assert run_program(b.build(), collect_trace=False).stats.exit_value == 8

    def test_top_level_return_acts_as_halt(self):
        b = ProgramBuilder("t")
        with b.proc("main"):
            b.li(R.V0, 3)
            b.epilogue()   # returns to the sentinel ra
        result = run_program(b.build(), collect_trace=False)
        assert result.stats.completed
        assert result.stats.exit_value == 3

    def test_indirect_call_through_table(self):
        b = ProgramBuilder("t")
        b.label_words("tbl", ["fn"])
        b.label("main")
        b.la(R.T0, "tbl")
        b.lw(R.T1, 0, R.T0)
        b.jalr(R.T1)
        b.halt()
        b.label("fn")
        b.li(R.V0, 77)
        b.jr(R.RA)
        assert run_program(b.build(), collect_trace=False).stats.exit_value == 77

    def test_step_budget(self):
        def infinite(b):
            b.label("spin")
            b.j("spin")
        result = run_asm(infinite, max_steps=100)
        assert not result.stats.completed
        assert result.stats.program_insts == 100

    def test_pc_out_of_range_rejected(self):
        b = ProgramBuilder("t")
        b.label("main")
        b.li(R.T0, 0x4000)
        b.jr(R.T0)
        with pytest.raises(SimulationError, match="pc out of range"):
            run_program(b.build(), collect_trace=False)


class TestResumability:
    def test_execute_in_chunks_matches_single_run(self):
        def make():
            b = ProgramBuilder("t")
            b.label("main")
            b.li(R.T0, 0)
            b.li(R.T1, 500)
            b.label("top")
            b.addi(R.T0, R.T0, 3)
            b.blt(R.T0, R.T1, "top")
            b.move(R.V0, R.T0)
            b.halt()
            return b.build()

        whole = run_program(make(), collect_trace=False)
        chunked = FunctionalSimulator(make(), collect_trace=False)
        while chunked.execute(17):
            pass
        assert chunked.stats.exit_value == whole.stats.exit_value
        assert chunked.stats.program_insts == whole.stats.program_insts

    def test_execute_after_halt_is_noop(self):
        b = ProgramBuilder("t")
        b.label("main")
        b.halt()
        sim = FunctionalSimulator(b.build(), collect_trace=False)
        assert sim.execute(10) is False
        assert sim.execute(10) is False
        assert sim.stats.program_insts == 1


class TestTraceGeneration:
    def test_trace_covers_every_instruction(self):
        def body(b):
            b.li(R.T0, 2)
            b.add(R.V0, R.T0, R.T0)
        result = run_asm(body)
        assert len(result.trace.records) == result.stats.program_insts
        assert [r.seq for r in result.trace.records] == list(
            range(len(result.trace.records))
        )

    def test_records_carry_addresses_and_outcomes(self):
        def body(b):
            addr = b.zeros("x", 1)
            b.li(R.T0, addr)
            b.sw(R.T0, 0, R.T0)
            b.beq(R.ZERO, R.ZERO, "next")
            b.label("next")
        result = run_asm(body)
        store = next(r for r in result.trace.records if r.is_store)
        assert store.addr == 0x100000
        branch = next(r for r in result.trace.records if r.is_branch)
        assert branch.taken
        assert branch.next_pc == branch.pc + 1

    def test_kill_records_not_program_insts(self):
        def body(b):
            b.li(R.S0, 1)
            b.kill(R.S0)
            b.li(R.V0, 0)
        result = run_asm(body, dvi=DVIConfig.full())
        kills = [r for r in result.trace.records if not r.is_program]
        assert len(kills) == 1
        assert kills[0].free_mask == 1 << R.S0
        assert result.trace.annotation_insts == 1

    def test_idvi_free_masks_on_call_and_return(self):
        b = ProgramBuilder("t")
        with b.proc("main", save_ra=True):
            b.jal("f")
            b.halt()
        with b.proc("f"):
            b.li(R.V0, 0)
            b.epilogue()
        result = run_program(b.build(), DVIConfig.idvi_only())
        call = next(r for r in result.trace.records if r.is_call)
        ret = next(r for r in result.trace.records if r.is_return)
        assert call.free_mask  # caller-saved registers freed
        assert ret.free_mask
        assert not call.free_mask & (1 << R.A0)

    def test_elimination_flags_in_trace(self):
        b = ProgramBuilder("t")
        with b.proc("main", saves=(R.S0,), save_ra=True):
            b.li(R.S0, 5)
            b.move(R.A0, R.S0)
            b.kill(R.S0)
            b.jal("f")
            b.halt()
        with b.proc("f", saves=(R.S0,)):
            b.addi(R.S0, R.A0, 1)
            b.move(R.V0, R.S0)
            b.epilogue()
        result = run_program(b.build(), DVIConfig.full(SRScheme.LVM_STACK))
        eliminated = [r for r in result.trace.records if r.eliminated]
        assert len(eliminated) == 2  # f's save and restore of s0
        assert {r.op.name for r in eliminated} == {"LIVE_SW", "LIVE_LW"}
