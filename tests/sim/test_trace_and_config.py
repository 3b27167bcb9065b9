"""Tests for the trace container, machine config, and opcode tables."""

from array import array

import pytest

from repro.dvi.config import DVIConfig
from repro.isa.opcodes import (
    DEFAULT_LATENCY,
    OP_CLASS,
    OpClass,
    Opcode,
    op_class,
)
from repro.isa.registers import T0, V0
from repro.program.builder import ProgramBuilder
from repro.sim.config import MIN_PHYS_REGS, MachineConfig
from repro.sim.functional import run_program
from repro.sim.trace import FLAG_FREES, FLAG_PROGRAM, Trace, TraceRecord


class TestOpcodeTables:
    def test_every_opcode_has_a_class(self):
        assert set(OP_CLASS) == set(Opcode)

    def test_every_class_has_a_latency(self):
        assert set(DEFAULT_LATENCY) == set(OpClass)

    def test_op_class_examples(self):
        assert op_class(Opcode.ADD) is OpClass.IALU
        assert op_class(Opcode.MUL) is OpClass.IMUL
        assert op_class(Opcode.DIV) is OpClass.IDIV
        assert op_class(Opcode.LIVE_SW) is OpClass.STORE
        assert op_class(Opcode.LIVE_LW) is OpClass.LOAD
        assert op_class(Opcode.KILL) is OpClass.NOP

    def test_division_slower_than_multiply_slower_than_alu(self):
        assert (DEFAULT_LATENCY[OpClass.IDIV]
                > DEFAULT_LATENCY[OpClass.IMUL]
                > DEFAULT_LATENCY[OpClass.IALU])


class TestTraceRecord:
    def make(self, op=Opcode.ADD, cls=OpClass.IALU, **kw):
        defaults = dict(seq=0, pc=0, op=op, cls=cls, dst=1, srcs=(2,),
                        addr=-1, taken=False, next_pc=1, free_mask=0,
                        eliminated=False, is_program=True)
        defaults.update(kw)
        return TraceRecord(**defaults)

    def test_predicates(self):
        assert self.make(op=Opcode.JAL, cls=OpClass.JUMP).is_call
        assert self.make(op=Opcode.JR, cls=OpClass.JUMP).is_return
        assert self.make(op=Opcode.BEQ, cls=OpClass.BRANCH).is_branch
        assert self.make(op=Opcode.LW, cls=OpClass.LOAD).is_load
        assert self.make(op=Opcode.SW, cls=OpClass.STORE).is_store
        assert not self.make().is_mem

    def test_repr_mentions_elimination(self):
        assert "elim" in repr(self.make(eliminated=True))

    def test_trace_counts(self):
        # A kill (not a program instruction, freeing a register) between
        # two program instructions.
        trace = Trace(
            "t", DVIConfig.none(),
            pcs=array("i", [0, 1, 2]),
            flags=array("B", [FLAG_PROGRAM, FLAG_FREES, FLAG_PROGRAM]),
        )
        assert trace.program_insts == 2
        assert trace.annotation_insts == 1
        assert len(trace) == 3

    def test_op_histogram(self):
        b = ProgramBuilder("t")
        b.label("main")
        b.addi(T0, T0, 1)
        b.addi(V0, T0, 1)
        b.halt()
        trace = run_program(b.build()).trace
        hist = trace.op_histogram()
        assert hist[Opcode.ADDI] == 2
        assert hist[Opcode.HALT] == 1


class TestMachineConfig:
    def test_micro97_matches_figure2(self):
        config = MachineConfig.micro97()
        assert config.issue_width == 4
        assert config.window_size == 64
        assert config.int_alus == 4
        assert config.int_muldiv == 2
        assert config.cache_ports == 2
        assert config.hierarchy.l1d_size == 64 * 1024
        assert config.hierarchy.l2_size == 512 * 1024
        assert config.history_bits == 16

    def test_unconstrained_cannot_rename_stall(self):
        config = MachineConfig.micro97_unconstrained()
        assert config.phys_regs >= 31 + config.window_size + 1

    def test_with_phys_regs_validation(self):
        with pytest.raises(ValueError):
            MachineConfig.micro97().with_phys_regs(MIN_PHYS_REGS - 1)

    def test_with_ports_and_width(self):
        config = MachineConfig.micro97().with_ports_and_width(1, 8)
        assert config.cache_ports == 1
        assert config.issue_width == 8
        assert config.fetch_width == 16
        assert config.window_size == 128

    def test_with_icache(self):
        config = MachineConfig.micro97().with_icache(32 * 1024)
        assert config.hierarchy.l1i_size == 32 * 1024
        assert config.hierarchy.l1d_size == 64 * 1024  # untouched

    def test_describe_is_figure2_style(self):
        text = MachineConfig.micro97().describe()
        assert "Issue Width" in text and "gshare" in text

    def test_bad_widths_rejected(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(MachineConfig.micro97(), issue_width=0)

    @pytest.mark.parametrize("field", [
        "bimodal_entries", "gshare_entries", "chooser_entries",
        "local_entries", "btb_sets",
    ])
    def test_predictor_tables_must_be_powers_of_two(self, field):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: 1000})
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: 0})
        assert getattr(MachineConfig(**{field: 1}), field) == 1

    @pytest.mark.parametrize("field", [
        "history_bits", "local_history_bits", "btb_assoc", "ras_depth",
    ])
    def test_predictor_depths_must_be_positive(self, field):
        with pytest.raises(ValueError, match=field):
            MachineConfig(**{field: 0})
        assert getattr(MachineConfig(**{field: 1}), field) == 1

    def test_local_history_fits_the_kernels_table(self):
        """62 bits is the widest pattern table the timing kernel sizes;
        wider is refused before it reaches a cache key."""
        with pytest.raises(ValueError, match="local_history_bits"):
            MachineConfig(local_history_bits=63)
        assert MachineConfig(local_history_bits=62).local_history_bits == 62


class TestCLI:
    def test_list_and_machine(self, capsys):
        from repro.__main__ import main
        assert main(["list"]) == 0
        assert "fig9" in capsys.readouterr().out
        assert main(["machine"]) == 0
        assert "Issue Width" in capsys.readouterr().out

    def test_unknown_target_rejected(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])
