"""Functional (architectural) emulator and trace generator.

Executes a linked program instruction by instruction, driving a
:class:`~repro.dvi.engine.DVIEngine` in program order, and optionally
records a :class:`~repro.sim.trace.Trace` for the timing model and a
live-register histogram for the context-switch experiment.

Architectural conventions:

* registers hold 32-bit values (stored unsigned; signed ops reinterpret),
* memory is a sparse word-addressed store, little-endian for byte ops,
* ``sp`` starts at :data:`~repro.program.program.STACK_TOP`, and ``ra``
  starts at a sentinel return address so a top-level ``return`` ends the
  run just like ``halt``,
* the program's exit value is whatever ``v0`` holds at the end.

Save/restore elimination is performed *architecturally*: an eliminated
``live_sw`` writes nothing to memory and an eliminated ``live_lw`` loads
nothing, so a run under an aggressive DVI configuration genuinely executes
differently from the baseline — the observational-equivalence tests
(identical data segment and exit value) are therefore a real check of the
paper's correctness argument, not a tautology.

Execution engines
-----------------

Every run goes through :func:`simulator`, which picks one of two
engines, with no switch:

* the **native functional engine** (:mod:`repro.sim.functional_native`,
  ``functional.c``), a C port of this module's per-pc loop, whenever it
  loaded and the program encodes exactly;
* :class:`FunctionalSimulator`, the per-pc Python engine, otherwise.  It
  is the fallback (no compiler, a failed build, a program with a field
  the encoding cannot hold) and the native engine's byte-level oracle:
  the differential tests hold the two to identical result pickles.

The reference interpreter (:mod:`repro.sim.reference`), the semantic
oracle and the poison verifier, is a separate engine that nothing
selects: it is constructed by its class name.

The per-pc engine uses **decode-time specialization** (threaded-code
style): :meth:`FunctionalSimulator._specialize` builds a table of
per-instruction closures with every static operand — immediates,
register indices, shift amounts, branch targets, even the pre-masked
``lui`` value and the pre-built fall-through result tuple — bound at
decode time.  The inner loop then does no opcode dispatch at all: it
calls ``handlers[pc]()``, bumps a per-pc execution counter, appends the
dynamic facts to the columnar trace, and folds the destination's
liveness bit into the LVM.  Dynamic statistics are reconstructed from
the per-pc counters (every category of interest — loads, calls,
branches, saves — is a static property of the instruction), so the loop
maintains no per-category counters.  Both engines share that
reconstruction and the static side-tables, which :func:`program_tables`
builds once per program.

Each handler returns ``(next_pc, addr, flags, free_mask)`` with
``flags`` using the :mod:`repro.sim.trace` bit encoding; non-memory,
non-control handlers return one pre-built constant tuple, branch
handlers pick between two.  ``addr`` is -1 except on the LOAD and STORE
classes, whose rows are the ones the trace's sparse ``addrs`` column
holds an entry for (``lvm_save``/``lvm_load`` touch memory but are
NOP-class, so they report none).
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, List, Optional, Tuple

from repro.dvi.config import DVIConfig
from repro.dvi.engine import DVIEngine
from repro.errors import SimulationError
from repro.isa import registers as regs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_CLASS_CODE, Opcode
from repro.program.program import STACK_TOP, Program
from repro.sim.result import FunctionalResult, FunctionalStats
from repro.sim.trace import (
    FLAG_ELIMINATED,
    FLAG_FREES,
    FLAG_PROGRAM,
    FLAG_TAKEN,
    Trace,
    pack_srcs,
)

_MASK32 = 0xFFFF_FFFF
_SIGN32 = 0x8000_0000

#: Pre-composed handler result flags.
_F_PLAIN = FLAG_PROGRAM
_F_TAKEN = FLAG_PROGRAM | FLAG_TAKEN
_F_ELIM = FLAG_PROGRAM | FLAG_ELIMINATED


def _s32(value: int) -> int:
    """Signed reinterpretation of an unsigned 32-bit value."""
    return value - 0x1_0000_0000 if value & _SIGN32 else value


# ----------------------------------------------------------------------
# Handler factories.  One small closure per static instruction; every
# static operand is bound at decode time.  ``R`` is the register file,
# ``mem`` the sparse word store — both mutated in place for the lifetime
# of the simulator, so binding the objects themselves is safe.
# ----------------------------------------------------------------------

_Handler = Callable[[], Tuple[int, int, int, int]]


def _build_handler(
    inst: Instruction, pc: int, R: List[int], mem: Dict[int, int],
    engine: DVIEngine,
) -> _Handler:
    op = inst.op
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    pc1 = pc + 1
    ret = (pc1, -1, _F_PLAIN, 0)  # the fall-through result, pre-built

    # --- register-register ALU ---------------------------------------
    if op == Opcode.ADD:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = (R[rs1] + R[rs2]) & _MASK32
            return ret
        return run
    if op == Opcode.SUB:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = (R[rs1] - R[rs2]) & _MASK32
            return ret
        return run
    if op == Opcode.MUL:
        if not rd:
            return lambda: ret
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            R[rd] = (a * b) & _MASK32
            return ret
        return run
    if op == Opcode.DIV:
        if not rd:
            return lambda: ret
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            if b == 0:
                quotient = 0
            else:
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
            R[rd] = quotient & _MASK32
            return ret
        return run
    if op == Opcode.REM:
        if not rd:
            return lambda: ret
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            if b == 0:
                remainder = a
            else:
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                remainder = a - quotient * b
            R[rd] = remainder & _MASK32
            return ret
        return run
    if op == Opcode.AND:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] & R[rs2]
            return ret
        return run
    if op == Opcode.OR:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] | R[rs2]
            return ret
        return run
    if op == Opcode.XOR:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] ^ R[rs2]
            return ret
        return run
    if op == Opcode.NOR:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = ~(R[rs1] | R[rs2]) & _MASK32
            return ret
        return run
    if op == Opcode.SLL:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = (R[rs1] << (R[rs2] & 31)) & _MASK32
            return ret
        return run
    if op == Opcode.SRL:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] >> (R[rs2] & 31)
            return ret
        return run
    if op == Opcode.SRA:
        if not rd:
            return lambda: ret
        def run():
            v = R[rs1]
            if v & _SIGN32:
                v -= 0x1_0000_0000
            R[rd] = (v >> (R[rs2] & 31)) & _MASK32
            return ret
        return run
    if op == Opcode.SLT:
        if not rd:
            return lambda: ret
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            R[rd] = 1 if a < b else 0
            return ret
        return run
    if op == Opcode.SLTU:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = 1 if R[rs1] < R[rs2] else 0
            return ret
        return run

    # --- register-immediate ALU --------------------------------------
    if op == Opcode.ADDI:
        if not rd:
            return lambda: ret
        def run():
            R[rd] = (R[rs1] + imm) & _MASK32
            return ret
        return run
    if op == Opcode.ANDI:
        immz = imm & 0xFFFF
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] & immz
            return ret
        return run
    if op == Opcode.ORI:
        immz = imm & 0xFFFF
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] | immz
            return ret
        return run
    if op == Opcode.XORI:
        immz = imm & 0xFFFF
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] ^ immz
            return ret
        return run
    if op == Opcode.SLLI:
        sh = imm & 31
        if not rd:
            return lambda: ret
        def run():
            R[rd] = (R[rs1] << sh) & _MASK32
            return ret
        return run
    if op == Opcode.SRLI:
        sh = imm & 31
        if not rd:
            return lambda: ret
        def run():
            R[rd] = R[rs1] >> sh
            return ret
        return run
    if op == Opcode.SRAI:
        sh = imm & 31
        if not rd:
            return lambda: ret
        def run():
            v = R[rs1]
            if v & _SIGN32:
                v -= 0x1_0000_0000
            R[rd] = (v >> sh) & _MASK32
            return ret
        return run
    if op == Opcode.SLTI:
        if not rd:
            return lambda: ret
        def run():
            a = R[rs1]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            R[rd] = 1 if a < imm else 0
            return ret
        return run
    if op == Opcode.LUI:
        value = (imm << 16) & _MASK32
        if not rd:
            return lambda: ret
        def run():
            R[rd] = value
            return ret
        return run

    # --- memory ------------------------------------------------------
    if op == Opcode.LW:
        mem_get = mem.get
        if not rd:
            def run():
                addr = (R[rs1] + imm) & _MASK32
                if addr & 3:
                    raise SimulationError(f"unaligned lw at pc={pc}: {addr:#x}")
                return (pc1, addr, _F_PLAIN, 0)
            return run
        def run():
            addr = (R[rs1] + imm) & _MASK32
            if addr & 3:
                raise SimulationError(f"unaligned lw at pc={pc}: {addr:#x}")
            R[rd] = mem_get(addr >> 2, 0)
            return (pc1, addr, _F_PLAIN, 0)
        return run
    if op == Opcode.SW:
        def run():
            addr = (R[rs1] + imm) & _MASK32
            if addr & 3:
                raise SimulationError(f"unaligned sw at pc={pc}: {addr:#x}")
            mem[addr >> 2] = R[rs2]
            return (pc1, addr, _F_PLAIN, 0)
        return run
    if op == Opcode.LB:
        mem_get = mem.get
        def run():
            addr = (R[rs1] + imm) & _MASK32
            byte = (mem_get(addr >> 2, 0) >> (8 * (addr & 3))) & 0xFF
            if rd:
                R[rd] = (byte - 0x100 if byte & 0x80 else byte) & _MASK32
            return (pc1, addr, _F_PLAIN, 0)
        return run
    if op == Opcode.SB:
        mem_get = mem.get
        def run():
            addr = (R[rs1] + imm) & _MASK32
            shift = 8 * (addr & 3)
            word = mem_get(addr >> 2, 0)
            mem[addr >> 2] = (word & ~(0xFF << shift)) | (
                (R[rs2] & 0xFF) << shift
            )
            return (pc1, addr, _F_PLAIN, 0)
        return run
    if op == Opcode.LIVE_LW:
        mem_get = mem.get
        on_restore = engine.on_restore
        def run():
            addr = (R[rs1] + imm) & _MASK32
            if addr & 3:
                raise SimulationError(f"unaligned live_lw at pc={pc}: {addr:#x}")
            if on_restore(rd):
                return (pc1, addr, _F_ELIM, 0)
            if rd:
                R[rd] = mem_get(addr >> 2, 0)
            return (pc1, addr, _F_PLAIN, 0)
        return run
    if op == Opcode.LIVE_SW:
        on_save = engine.on_save
        def run():
            addr = (R[rs1] + imm) & _MASK32
            if addr & 3:
                raise SimulationError(f"unaligned live_sw at pc={pc}: {addr:#x}")
            if on_save(rs2):
                return (pc1, addr, _F_ELIM, 0)
            mem[addr >> 2] = R[rs2]
            return (pc1, addr, _F_PLAIN, 0)
        return run

    # --- control -----------------------------------------------------
    target = inst.target if isinstance(inst.target, int) else -1
    ret_taken = (target, -1, _F_TAKEN, 0)
    if op == Opcode.BEQ:
        def run():
            return ret_taken if R[rs1] == R[rs2] else ret
        return run
    if op == Opcode.BNE:
        def run():
            return ret_taken if R[rs1] != R[rs2] else ret
        return run
    if op == Opcode.BLT:
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            return ret_taken if a < b else ret
        return run
    if op == Opcode.BGE:
        def run():
            a = R[rs1]
            b = R[rs2]
            if a & _SIGN32:
                a -= 0x1_0000_0000
            if b & _SIGN32:
                b -= 0x1_0000_0000
            return ret_taken if a >= b else ret
        return run
    if op == Opcode.BLEZ:
        def run():
            a = R[rs1]
            return ret_taken if a == 0 or a & _SIGN32 else ret
        return run
    if op == Opcode.BGTZ:
        def run():
            a = R[rs1]
            return ret_taken if a and not a & _SIGN32 else ret
        return run
    if op == Opcode.J:
        return lambda: ret_taken
    if op == Opcode.JAL:
        ra_value = pc1 * 4
        ra = regs.RA
        on_call = engine.on_call
        def run():
            R[ra] = ra_value
            return (target, -1, _F_TAKEN, on_call())
        return run
    if op == Opcode.JALR:
        ra_value = pc1 * 4
        on_call = engine.on_call
        def run():
            callee = R[rs1]
            if callee & 3:
                raise SimulationError(f"unaligned jalr target: {callee:#x}")
            if rd:
                R[rd] = ra_value
            return (callee >> 2, -1, _F_TAKEN, on_call())
        return run
    if op == Opcode.JR:
        if rs1 == regs.RA:
            on_return = engine.on_return
            def run():
                dest = R[rs1]
                if dest & 3:
                    raise SimulationError(f"unaligned jr target: {dest:#x}")
                return (dest >> 2, -1, _F_TAKEN, on_return())
            return run
        def run():
            dest = R[rs1]
            if dest & 3:
                raise SimulationError(f"unaligned jr target: {dest:#x}")
            return (dest >> 2, -1, _F_TAKEN, 0)
        return run

    # --- environment and DVI annotations -----------------------------
    if op == Opcode.NOP:
        return lambda: ret
    if op == Opcode.HALT:
        ret_halt = (-1, -1, _F_PLAIN, 0)
        return lambda: ret_halt
    if op == Opcode.KILL:
        kill_mask = inst.kill_mask
        on_kill = engine.on_kill
        def run():
            return (pc1, -1, 0, on_kill(kill_mask))  # not a program inst
        return run
    if op == Opcode.LVM_SAVE:
        save_lvm = engine.save_lvm
        def run():
            mem[((R[rs1] + imm) & _MASK32) >> 2] = save_lvm()
            return ret
        return run
    if op == Opcode.LVM_LOAD:
        mem_get = mem.get
        load_lvm = engine.load_lvm
        def run():
            load_lvm(mem_get(((R[rs1] + imm) & _MASK32) >> 2, 0))
            return ret
        return run
    raise SimulationError(f"unimplemented opcode {op.name}")  # pragma: no cover


class ProgramTables:
    """The per-program facts both engines read, built once per program.

    The static trace side-tables (every trace gets its own copies), the
    LVM bit each pc defines, and the per-category pc lists the dynamic
    statistics are rebuilt from.  The native engine adds its encoding
    (:mod:`repro.sim.functional_native`) under :attr:`code`.
    """

    __slots__ = (
        "insts", "s_op", "s_cls", "s_dst", "s_srcs", "dbits",
        "kill_pcs", "call_pcs", "return_pcs", "branch_pcs", "load_pcs",
        "store_pcs", "save_pcs", "restore_pcs", "code",
    )

    def __init__(self, insts: List[Instruction]) -> None:
        n = len(insts)
        #: The instruction list these tables describe.
        self.insts = insts
        self.s_op = array("b", bytes(n))
        self.s_cls = array("b", bytes(n))
        self.s_dst = array("b", bytes(n))
        self.s_srcs = array("h", [0] * n)
        #: Per-pc LVM bit of the destination register (0 if none / r0).
        self.dbits: List[int] = []
        self.kill_pcs: List[int] = []
        self.call_pcs: List[int] = []
        self.return_pcs: List[int] = []
        self.branch_pcs: List[int] = []
        self.load_pcs: List[int] = []
        self.store_pcs: List[int] = []
        self.save_pcs: List[int] = []
        self.restore_pcs: List[int] = []
        #: The native engine's code vector, set by its encoder (None
        #: until then, and for a program that does not encode).
        self.code: Optional[array] = None
        for pc, inst in enumerate(insts):
            op = inst.op
            defs = inst.defs()
            dst = defs[0] if defs else -1
            self.s_op[pc] = op
            self.s_cls[pc] = OP_CLASS_CODE[op]
            self.s_dst[pc] = dst
            self.s_srcs[pc] = pack_srcs(inst.uses())
            self.dbits.append((1 << dst) if dst > 0 else 0)
            if op == Opcode.KILL:
                self.kill_pcs.append(pc)
            elif op == Opcode.JAL or op == Opcode.JALR:
                self.call_pcs.append(pc)
            elif op == Opcode.JR and inst.rs1 == regs.RA:
                self.return_pcs.append(pc)
            elif inst.is_branch:
                self.branch_pcs.append(pc)
            if inst.is_load:
                self.load_pcs.append(pc)
            elif inst.is_store:
                self.store_pcs.append(pc)
            if op == Opcode.LIVE_SW:
                self.save_pcs.append(pc)
            elif op == Opcode.LIVE_LW:
                self.restore_pcs.append(pc)

    def sync_stats(
        self, stats: FunctionalStats, counts, seq: int,
        saves_eliminated: int, restores_eliminated: int,
    ) -> None:
        """Reconstruct the dynamic statistics from per-pc counters."""
        def total(pcs: List[int]) -> int:
            return sum(map(counts.__getitem__, pcs))

        kills = total(self.kill_pcs)
        stats.kill_insts = kills
        stats.program_insts = seq - kills
        stats.calls = total(self.call_pcs)
        stats.returns = total(self.return_pcs)
        stats.branches = total(self.branch_pcs)
        stats.loads = total(self.load_pcs)
        stats.stores = total(self.store_pcs)
        stats.saves = total(self.save_pcs)
        stats.restores = total(self.restore_pcs)
        stats.saves_eliminated = saves_eliminated
        stats.restores_eliminated = restores_eliminated

    def trace(self, sim, pcs: array, addrs: array, free_masks: array,
              flags: array) -> Trace:
        """``sim``'s trace from its dynamic columns.

        The pc stays on a halt that ends a run, and nothing follows it;
        any other run ends at the pc it would resume from (the sentinel
        after a top-level return).
        """
        at_halt = sim.halted and sim.pc != len(self.insts)
        return Trace(
            sim.program.name,
            sim.dvi_config,
            sim.halted,
            -1 if at_halt else sim.pc,
            pcs=pcs,
            addrs=addrs,
            free_masks=free_masks,
            flags=flags,
            s_op=self.s_op[:],
            s_cls=self.s_cls[:],
            s_dst=self.s_dst[:],
            s_srcs=self.s_srcs[:],
        )


def program_tables(program: Program) -> ProgramTables:
    """``program``'s :class:`ProgramTables`, cached on the instance.

    Workloads are built once and simulated many times, so the tables
    (and the native encoding) are computed once per program object;
    ``Program.__getstate__`` leaves them out of pickles.  A re-linked
    program has a new instruction list and gets new tables.
    """
    tables = program.__dict__.get("_tables")
    if tables is None or tables.insts is not program.insts:
        tables = program.__dict__["_tables"] = ProgramTables(program.insts)
    return tables


class FunctionalSimulator:
    """Architectural emulator for one program under one DVI configuration.

    The per-pc Python engine: the fallback of :func:`simulator` and the
    native engine's oracle.
    """

    def __init__(
        self,
        program: Program,
        dvi: Optional[DVIConfig] = None,
        *,
        max_steps: int = 5_000_000,
        collect_trace: bool = True,
        collect_live_hist: bool = False,
    ) -> None:
        program.require_linked()
        self.program = program
        self.dvi_config = dvi if dvi is not None else DVIConfig.none()
        self.engine = DVIEngine(self.dvi_config)
        self.max_steps = max_steps
        self.collect_trace = collect_trace
        self.collect_live_hist = collect_live_hist

        self._sentinel = len(program.insts)

        self.regs: List[int] = [0] * regs.NUM_REGS
        self.regs[regs.SP] = STACK_TOP
        self.regs[regs.GP] = 0x0010_0000
        self.regs[regs.RA] = self._sentinel * 4
        self.mem: Dict[int, int] = {
            addr >> 2: value & _MASK32 for addr, value in program.data.items()
        }
        self.pc = program.entry_index
        self._saveable = self.dvi_config.abi.saveable_mask()
        self.stats = FunctionalStats()
        self.halted = False
        self._seq = 0
        self._specialize()

    # ------------------------------------------------------------------
    # Decode-time specialization.
    # ------------------------------------------------------------------

    def _specialize(self) -> None:
        R = self.regs
        mem = self.mem
        engine = self.engine

        self._handlers: List[_Handler] = [
            _build_handler(inst, pc, R, mem, engine)
            for pc, inst in enumerate(self.program.insts)
        ]
        self._tables = program_tables(self.program)
        #: Dynamic execution count per static instruction; every per-category
        #: statistic is reconstructed from these (see :meth:`_sync_stats`).
        self._counts: List[int] = [0] * self._sentinel

        # Dynamic trace columns: plain lists while executing (list.append
        # beats array.append), converted to arrays by :meth:`result`.
        # ``_c_addrs`` and ``_c_free`` are sparse (see repro.sim.trace).
        self._c_pcs: List[int] = []
        self._c_addrs: List[int] = []
        self._c_free: List[int] = []
        self._c_flags: List[int] = []

    # ------------------------------------------------------------------

    def execute(self, budget: int) -> bool:
        """Run up to ``budget`` further instructions from the current state.

        Returns True while the program can still make progress, False once
        it has halted (or returned from the top level).  This is the
        resumable core that the thread scheduler time-slices; :meth:`run`
        drives it once to completion.
        """
        if self.halted:
            return False

        handlers = self._handlers
        counts = self._counts
        dbits = self._tables.dbits
        sentinel = self._sentinel
        collect = self.collect_trace
        collect_hist = self.collect_live_hist
        lvm = self.engine.lvm
        saveable = self._saveable
        hist = self.stats.live_hist
        if collect:
            ap_pc = self._c_pcs.append
            ap_addr = self._c_addrs.append
            ap_free = self._c_free.append
            ap_flags = self._c_flags.append

        pc = self.pc
        seq = self._seq
        end_seq = seq + budget
        completed = False

        while seq < end_seq:
            if pc >= sentinel:
                if pc == sentinel:
                    completed = True
                    break
                raise SimulationError(f"pc out of range: {pc}")
            next_pc, addr, fl, free_mask = handlers[pc]()
            counts[pc] += 1
            if collect:
                ap_pc(pc)
                if addr >= 0:
                    ap_addr(addr)
                if free_mask:
                    fl |= FLAG_FREES
                    ap_free(free_mask)
                ap_flags(fl)
            bit = dbits[pc]
            if bit and not fl & FLAG_ELIMINATED:
                # engine.on_def, inlined: a renamed destination is live.
                lvm._mask |= bit
            if collect_hist:
                count = bin(lvm._mask & saveable).count("1")
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
        self._sync_stats()
        return not self.halted

    def _sync_stats(self) -> None:
        """Reconstruct the dynamic statistics from the per-pc counters."""
        counters = self.engine.counters
        self._tables.sync_stats(
            self.stats, self._counts, self._seq,
            counters.saves_eliminated, counters.restores_eliminated,
        )
        if self.halted:
            self.stats.completed = True
            self.stats.exit_value = self.regs[regs.V0]

    def save_lvm(self) -> int:
        """``lvm_save``: the LVM a context switch stores."""
        return self.engine.save_lvm()

    def load_lvm(self, mask: int) -> None:
        """``lvm_load``: reload a context's LVM before its restores."""
        self.engine.load_lvm(mask)

    def run(self) -> FunctionalResult:
        """Execute until halt / top-level return / step budget."""
        self.execute(self.max_steps - self._seq)
        return self.result()

    def result(self) -> FunctionalResult:
        """Package the current architectural state and statistics."""
        trace = None
        if self.collect_trace:
            trace = self._tables.trace(
                self,
                array("i", self._c_pcs),
                array("I", self._c_addrs),
                array("I", self._c_free),
                array("B", self._c_flags),
            )
        return FunctionalResult(
            stats=self.stats,
            trace=trace,
            registers=list(self.regs),
            memory=dict(self.mem),
        )


def simulator(
    program: Program,
    dvi: Optional[DVIConfig] = None,
    **options,
):
    """The simulator for one run of ``program``, with no switch.

    The native engine (:mod:`repro.sim.functional_native`) when it
    loaded and the program encodes; otherwise a
    :class:`FunctionalSimulator`.  ``options`` are the
    :class:`FunctionalSimulator` keywords; both engines take them and
    expose ``execute``/``run``/``result``, ``regs``, ``stats``,
    ``save_lvm``/``load_lvm`` and ``halted``.
    """
    program.require_linked()
    from repro.sim import functional_native

    native = functional_native.native_simulator(program, dvi, **options)
    if native is not None:
        return native
    return FunctionalSimulator(program, dvi, **options)


def run_program(
    program: Program,
    dvi: Optional[DVIConfig] = None,
    *,
    max_steps: int = 5_000_000,
    collect_trace: bool = True,
    collect_live_hist: bool = False,
) -> FunctionalResult:
    """Convenience wrapper: build a simulator and run it once."""
    sim = simulator(
        program,
        dvi,
        max_steps=max_steps,
        collect_trace=collect_trace,
        collect_live_hist=collect_live_hist,
    )
    return sim.run()
