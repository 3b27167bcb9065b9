"""The reference interpreter (slow, obviously-correct path).

:class:`ReferenceSimulator` is the original monolithic ``if/elif``
interpreter the per-pc engine (:mod:`repro.sim.functional`) replaced.
It is its own engine: its own decode (:class:`_Decoded`), state, loop,
inline statistics and :class:`~repro.dvi.engine.DVIEngine`.  It shares
only the result types with the two fast engines, and never reads their
:class:`~repro.sim.functional.ProgramTables`, so the differential tests
check those tables too.  It has two jobs:

* **the semantic oracle** — ``tests/sim/test_differential.py`` and
  ``tests/sim/test_control_shapes.py`` hold the per-pc engine's result
  pickles (statistics, registers, memory and trace) to this engine's
  bytes across the DVI configuration space;
* **the poison verifier** — with ``verify_dvi=True`` it raises
  :class:`~repro.errors.DVIViolationError` the moment a register
  asserted dead is read, a per-step check that would burden every fast
  handler.  :func:`repro.rewrite.verify.verify_dvi` builds one.

Nothing selects it: it is reached only by its class name.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.dvi.config import DVIConfig
from repro.dvi.engine import DVIEngine
from repro.errors import DVIViolationError, SimulationError
from repro.isa import registers as regs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_CLASS_TABLE, Opcode
from repro.program.program import STACK_TOP, Program
from repro.sim.result import FunctionalResult, FunctionalStats
from repro.sim.trace import (
    FLAG_ELIMINATED,
    FLAG_FREES,
    FLAG_PROGRAM,
    FLAG_TAKEN,
    MEMORY_CLASSES,
    Trace,
    pack_srcs,
)

_MASK32 = 0xFFFF_FFFF
_SIGN32 = 0x8000_0000


def _s32(value: int) -> int:
    """Signed reinterpretation of an unsigned 32-bit value."""
    return value - 0x1_0000_0000 if value & _SIGN32 else value


class _Decoded:
    """Pre-decoded static instruction (hoists per-step work out of the loop)."""

    __slots__ = (
        "inst", "op", "cls", "dst", "srcs", "use_check_mask",
        "rd", "rs1", "rs2", "imm", "target", "kill_mask",
    )

    def __init__(self, inst: Instruction) -> None:
        self.inst = inst
        self.op = inst.op
        self.cls = OP_CLASS_TABLE[inst.op]
        defs = inst.defs()
        self.dst = defs[0] if defs else -1
        self.srcs = inst.uses()
        # Poison verification exempts the data register of a live-store:
        # saving a dead value is explicitly permitted (its bits are
        # irrelevant), and the LVM squashes exactly those saves.
        check = inst.use_mask()
        if inst.op is Opcode.LIVE_SW:
            check &= ~(1 << inst.rs2)
        self.use_check_mask = check
        self.rd = inst.rd
        self.rs1 = inst.rs1
        self.rs2 = inst.rs2
        self.imm = inst.imm
        self.target = inst.target if isinstance(inst.target, int) else -1
        self.kill_mask = inst.kill_mask


class ReferenceSimulator:
    """The reference interpreter for one program under one DVI configuration.

    Takes the per-pc engine's keywords, plus ``verify_dvi`` (poison
    checking), and exposes ``execute``/``run``/``result``.
    """

    def __init__(
        self,
        program: Program,
        dvi: Optional[DVIConfig] = None,
        *,
        max_steps: int = 5_000_000,
        collect_trace: bool = True,
        collect_live_hist: bool = False,
        verify_dvi: bool = False,
    ) -> None:
        program.require_linked()
        self.program = program
        self.dvi_config = dvi if dvi is not None else DVIConfig.none()
        self.engine = DVIEngine(self.dvi_config)
        self.max_steps = max_steps
        self.collect_trace = collect_trace
        self.collect_live_hist = collect_live_hist
        self.verify_dvi = verify_dvi

        self._decoded = [_Decoded(inst) for inst in program.insts]
        self._sentinel = len(program.insts)

        self.regs: List[int] = [0] * regs.NUM_REGS
        self.regs[regs.SP] = STACK_TOP
        self.regs[regs.GP] = 0x0010_0000
        self.regs[regs.RA] = self._sentinel * 4
        self.mem: Dict[int, int] = {
            addr >> 2: value & _MASK32 for addr, value in program.data.items()
        }
        self.pc = program.entry_index
        self.stats = FunctionalStats()
        self.halted = False
        self._seq = 0
        self._poison = 0  # registers currently asserted dead (verify mode)
        self._saveable = self.dvi_config.abi.saveable_mask()
        # The dynamic trace columns (:data:`repro.sim.trace.COLUMNS`).
        self._pcs = array("i")
        self._addrs = array("I")
        self._free_masks = array("I")
        self._flags = array("B")

    def execute(self, budget: int) -> bool:
        """Run up to ``budget`` further instructions from the current state.

        Returns True while the program can still make progress, False
        once it has halted (or returned from the top level).
        """
        if self.halted:
            return False
        stats = self.stats
        engine = self.engine
        decoded = self._decoded
        reg_file = self.regs
        mem = self.mem
        sentinel = self._sentinel
        abi = self.dvi_config.abi
        collect_trace = self.collect_trace
        collect_hist = self.collect_live_hist
        verify = self.verify_dvi
        hist = stats.live_hist
        saveable = self._saveable
        append_pc = self._pcs.append
        append_addr = self._addrs.append
        append_free = self._free_masks.append
        append_flags = self._flags.append

        pc = self.pc
        seq = self._seq
        end_seq = seq + budget
        completed = False

        while seq < end_seq:
            if pc == sentinel:
                completed = True
                break
            if not 0 <= pc < sentinel:
                raise SimulationError(f"pc out of range: {pc}")
            d = decoded[pc]
            op = d.op

            if verify and self._poison & d.use_check_mask:
                bad = self._poison & d.use_check_mask
                reg = bad.bit_length() - 1
                raise DVIViolationError(pc, reg, f"op {op.name}")

            next_pc = pc + 1
            addr = -1
            taken = False
            free_mask = 0
            eliminated = False
            is_program = True
            dst = d.dst

            # --- execute ---------------------------------------------
            if op is Opcode.ADDI:
                reg_file[d.rd] = (reg_file[d.rs1] + d.imm) & _MASK32
            elif op is Opcode.ADD:
                reg_file[d.rd] = (reg_file[d.rs1] + reg_file[d.rs2]) & _MASK32
            elif op is Opcode.LW:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                if addr & 3:
                    raise SimulationError(f"unaligned lw at pc={pc}: {addr:#x}")
                reg_file[d.rd] = mem.get(addr >> 2, 0)
                stats.loads += 1
            elif op is Opcode.SW:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                if addr & 3:
                    raise SimulationError(f"unaligned sw at pc={pc}: {addr:#x}")
                mem[addr >> 2] = reg_file[d.rs2]
                stats.stores += 1
            elif op is Opcode.LIVE_LW:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                if addr & 3:
                    raise SimulationError(f"unaligned live_lw at pc={pc}: {addr:#x}")
                stats.loads += 1
                stats.restores += 1
                eliminated = engine.on_restore(d.rd)
                if eliminated:
                    stats.restores_eliminated += 1
                    dst = -1  # not dispatched: no rename, no definition
                else:
                    reg_file[d.rd] = mem.get(addr >> 2, 0)
            elif op is Opcode.LIVE_SW:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                if addr & 3:
                    raise SimulationError(f"unaligned live_sw at pc={pc}: {addr:#x}")
                stats.stores += 1
                stats.saves += 1
                eliminated = engine.on_save(d.rs2)
                if eliminated:
                    stats.saves_eliminated += 1
                else:
                    mem[addr >> 2] = reg_file[d.rs2]
            elif op is Opcode.BEQ:
                taken = reg_file[d.rs1] == reg_file[d.rs2]
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.BNE:
                taken = reg_file[d.rs1] != reg_file[d.rs2]
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.BLT:
                taken = _s32(reg_file[d.rs1]) < _s32(reg_file[d.rs2])
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.BGE:
                taken = _s32(reg_file[d.rs1]) >= _s32(reg_file[d.rs2])
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.BLEZ:
                taken = _s32(reg_file[d.rs1]) <= 0
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.BGTZ:
                taken = _s32(reg_file[d.rs1]) > 0
                stats.branches += 1
                if taken:
                    next_pc = d.target
            elif op is Opcode.SUB:
                reg_file[d.rd] = (reg_file[d.rs1] - reg_file[d.rs2]) & _MASK32
            elif op is Opcode.MUL:
                reg_file[d.rd] = (
                    _s32(reg_file[d.rs1]) * _s32(reg_file[d.rs2])
                ) & _MASK32
            elif op is Opcode.DIV:
                a, b = _s32(reg_file[d.rs1]), _s32(reg_file[d.rs2])
                if b == 0:
                    quotient = 0
                else:
                    quotient = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        quotient = -quotient
                reg_file[d.rd] = quotient & _MASK32
            elif op is Opcode.REM:
                a, b = _s32(reg_file[d.rs1]), _s32(reg_file[d.rs2])
                if b == 0:
                    remainder = a
                else:
                    quotient = abs(a) // abs(b)
                    if (a < 0) != (b < 0):
                        quotient = -quotient
                    remainder = a - quotient * b
                reg_file[d.rd] = remainder & _MASK32
            elif op is Opcode.AND:
                reg_file[d.rd] = reg_file[d.rs1] & reg_file[d.rs2]
            elif op is Opcode.OR:
                reg_file[d.rd] = reg_file[d.rs1] | reg_file[d.rs2]
            elif op is Opcode.XOR:
                reg_file[d.rd] = reg_file[d.rs1] ^ reg_file[d.rs2]
            elif op is Opcode.NOR:
                reg_file[d.rd] = ~(reg_file[d.rs1] | reg_file[d.rs2]) & _MASK32
            elif op is Opcode.SLL:
                reg_file[d.rd] = (reg_file[d.rs1] << (reg_file[d.rs2] & 31)) & _MASK32
            elif op is Opcode.SRL:
                reg_file[d.rd] = reg_file[d.rs1] >> (reg_file[d.rs2] & 31)
            elif op is Opcode.SRA:
                reg_file[d.rd] = (_s32(reg_file[d.rs1]) >> (reg_file[d.rs2] & 31)) & _MASK32
            elif op is Opcode.SLT:
                reg_file[d.rd] = 1 if _s32(reg_file[d.rs1]) < _s32(reg_file[d.rs2]) else 0
            elif op is Opcode.SLTU:
                reg_file[d.rd] = 1 if reg_file[d.rs1] < reg_file[d.rs2] else 0
            elif op is Opcode.ANDI:
                reg_file[d.rd] = reg_file[d.rs1] & (d.imm & 0xFFFF)
            elif op is Opcode.ORI:
                reg_file[d.rd] = reg_file[d.rs1] | (d.imm & 0xFFFF)
            elif op is Opcode.XORI:
                reg_file[d.rd] = reg_file[d.rs1] ^ (d.imm & 0xFFFF)
            elif op is Opcode.SLLI:
                reg_file[d.rd] = (reg_file[d.rs1] << (d.imm & 31)) & _MASK32
            elif op is Opcode.SRLI:
                reg_file[d.rd] = reg_file[d.rs1] >> (d.imm & 31)
            elif op is Opcode.SRAI:
                reg_file[d.rd] = (_s32(reg_file[d.rs1]) >> (d.imm & 31)) & _MASK32
            elif op is Opcode.SLTI:
                reg_file[d.rd] = 1 if _s32(reg_file[d.rs1]) < d.imm else 0
            elif op is Opcode.LUI:
                reg_file[d.rd] = (d.imm << 16) & _MASK32
            elif op is Opcode.LB:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                word = mem.get(addr >> 2, 0)
                byte = (word >> (8 * (addr & 3))) & 0xFF
                reg_file[d.rd] = (byte - 0x100 if byte & 0x80 else byte) & _MASK32
                stats.loads += 1
            elif op is Opcode.SB:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                shift = 8 * (addr & 3)
                word = mem.get(addr >> 2, 0)
                mem[addr >> 2] = (word & ~(0xFF << shift)) | (
                    (reg_file[d.rs2] & 0xFF) << shift
                )
                stats.stores += 1
            elif op is Opcode.J:
                taken = True
                next_pc = d.target
            elif op is Opcode.JAL:
                taken = True
                reg_file[regs.RA] = (pc + 1) * 4
                next_pc = d.target
                stats.calls += 1
                free_mask = engine.on_call()
            elif op is Opcode.JALR:
                taken = True
                callee = reg_file[d.rs1]
                if callee & 3:
                    raise SimulationError(f"unaligned jalr target: {callee:#x}")
                reg_file[d.rd] = (pc + 1) * 4
                next_pc = callee >> 2
                stats.calls += 1
                free_mask = engine.on_call()
            elif op is Opcode.JR:
                taken = True
                dest = reg_file[d.rs1]
                if dest & 3:
                    raise SimulationError(f"unaligned jr target: {dest:#x}")
                next_pc = dest >> 2
                if d.rs1 == regs.RA:
                    stats.returns += 1
                    free_mask = engine.on_return()
            elif op is Opcode.KILL:
                free_mask = engine.on_kill(d.kill_mask)
                is_program = False
                stats.kill_insts += 1
                if verify:
                    self._poison |= d.kill_mask
            elif op is Opcode.NOP:
                pass
            elif op is Opcode.HALT:
                next_pc = -1
            elif op is Opcode.LVM_SAVE:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                mem[addr >> 2] = engine.save_lvm()
            elif op is Opcode.LVM_LOAD:
                addr = (reg_file[d.rs1] + d.imm) & _MASK32
                engine.load_lvm(mem.get(addr >> 2, 0))
            else:  # pragma: no cover - the opcode set is closed
                raise SimulationError(f"unimplemented opcode {op.name}")

            reg_file[regs.ZERO] = 0

            # --- DVI bookkeeping --------------------------------------
            if dst >= 0:
                engine.on_def(dst)
                if verify:
                    self._poison &= ~(1 << dst)
            if verify and free_mask:
                self._poison |= free_mask
            if verify and op is Opcode.JAL or verify and op is Opcode.JALR:
                self._poison |= abi.idvi_call_mask()
            if verify and op is Opcode.JR and d.rs1 == regs.RA:
                self._poison |= abi.idvi_return_mask()

            if is_program:
                stats.program_insts += 1
            if collect_trace:
                append_pc(pc)
                if d.cls in MEMORY_CLASSES:
                    append_addr(addr)
                if free_mask:
                    append_free(free_mask)
                append_flags(
                    (FLAG_TAKEN if taken else 0)
                    | (FLAG_ELIMINATED if eliminated else 0)
                    | (FLAG_PROGRAM if is_program else 0)
                    | (FLAG_FREES if free_mask else 0)
                )
            if collect_hist:
                count = bin(engine.lvm.mask & saveable).count("1")
                hist[count] = hist.get(count, 0) + 1

            seq += 1
            if next_pc < 0:
                completed = True
                break
            pc = next_pc

        self.pc = pc
        self._seq = seq
        if completed:
            self.halted = True
            stats.completed = True
            stats.exit_value = reg_file[regs.V0]
        return not self.halted

    def run(self) -> FunctionalResult:
        """Execute until halt / top-level return / step budget."""
        self.execute(self.max_steps - self._seq)
        return self.result()

    def result(self) -> FunctionalResult:
        """Package the current architectural state and statistics.

        The trace's static side-tables come from this engine's own
        decode of every pc, executed or not.
        """
        trace = None
        if self.collect_trace:
            decoded = self._decoded
            # The pc stays on a halt that ends a run; any other run ends
            # at the pc it would resume from.
            at_halt = self.halted and self.pc != self._sentinel
            trace = Trace(
                self.program.name,
                self.dvi_config,
                self.halted,
                -1 if at_halt else self.pc,
                pcs=self._pcs[:],
                addrs=self._addrs[:],
                free_masks=self._free_masks[:],
                flags=self._flags[:],
                s_op=array("b", [d.op for d in decoded]),
                s_cls=array("b", [d.cls for d in decoded]),
                s_dst=array("b", [d.dst for d in decoded]),
                s_srcs=array("h", [pack_srcs(d.srcs) for d in decoded]),
            )
        return FunctionalResult(
            stats=self.stats,
            trace=trace,
            registers=list(self.regs),
            memory=dict(self.mem),
        )
