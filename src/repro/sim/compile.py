"""Superinstruction (basic-block) compilation for the functional engine.

Decode-time specialization puts one closure behind every static
instruction; stepping one still pays one Python call, one result-tuple
unpack, one per-pc counter bump, and four column appends *per executed
instruction*.  This module removes the per-instruction tax for
straight-line code by compiling each **basic block** into a single
generated Python function — a "superinstruction":

* **Block discovery** — leaders are the program entry point, every
  static branch/jump target, and every post-control (and post-``halt``)
  fall-through; a block is a maximal run of non-control instructions
  starting at a leader, split at interior leaders and capped at
  :data:`MAX_BLOCK_LEN` (capped runs chain into the next block).  A
  block absorbs the control transfer that terminates it — the generated
  function evaluates the branch/jump and returns the dynamic next pc —
  and every control instruction that is itself a potential entry point
  also gets a single-instruction block, so steady-state dispatch never
  leaves compiled code.  Only ``halt``, unlinked targets, budget
  slivers, and block-interior entry pcs take the per-pc fallback.
* **Codegen** — every static operand (register indices, immediates,
  shift amounts, the pre-masked ``lui`` value, kill masks) is constant-
  folded into the body, so an ``addi`` becomes one statement with no
  dispatch at all.  Engine hooks (``on_save``/``on_restore``/
  ``on_kill``/LVM save/load) are called in program order exactly as the
  per-pc handlers would; destination-liveness bits of plain definitions
  are OR-folded into single ``lvm._mask |=`` constants between hook
  calls.
* **Bulk trace appends** — the four dynamic columns are appended once
  per block via ``list.extend`` with tuples whose static positions
  (pcs, most flags/frees/addrs) are compile-time constants.
* **Batched counters** — the dispatch loop bumps one block-level
  counter per execution; :meth:`repro.sim.functional.FunctionalSimulator
  ._sync_stats` folds block counts back into per-pc counts.

The generated source is ``exec``-compiled once per program (per trace
mode) and cached on the :class:`~repro.program.program.Program`
instance; the factory it defines is then called once per simulator to
bind the mutable state (register file, memory, DVI engine, trace
columns).  Dispatch falls back to the per-pc closures at block
boundaries, for control transfers, for budget slivers smaller than a
block, and for computed jumps that land in a block interior — so any
entry pc executes correctly, just without fusion until the next leader.

Fault caveat: a :class:`~repro.errors.SimulationError` raised mid-block
(unaligned access) leaves the trace columns and counters without the
block's partially-executed prefix, whereas per-pc dispatch records up
to the faulting instruction.  Completed runs — the only ones whose
state is observable through the public API — are bit-identical.

:data:`SUPERBLOCK_VERSION` is folded into
:func:`repro.experiments.cache.code_version`, so artifact-cache keys
change whenever the superblock codegen changes and stale artifacts can
never be served.  There is no switch to turn the blocks off: the
dispatch loop uses a block wherever one starts, and the per-pc closures
everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import SimulationError
from repro.isa import registers as regs
from repro.isa.opcodes import OP_IS_CONTROL, Opcode

if TYPE_CHECKING:  # pragma: no cover
    from repro.program.program import Program

#: Bump when the generated code's semantics or layout change; folded into
#: the artifact-cache ``code_version`` digest.
SUPERBLOCK_VERSION = 2

#: Longest straight-line run fused into one function; longer runs chain.
MAX_BLOCK_LEN = 64

_MASK32 = 0xFFFF_FFFF

#: Opcodes that may appear inside a fused block: everything that always
#: falls through.  Control transfers and ``halt`` terminate blocks and
#: stay on the per-pc handlers.
_HALT = int(Opcode.HALT)


def _fusable(op: int) -> bool:
    return not OP_IS_CONTROL[op] and op != _HALT


def _terminator(inst, n: int) -> bool:
    """Whether ``inst`` can terminate a fused block.

    Indirect transfers (``jr``/``jalr``) compute their target at run
    time; direct ones need a linked (integer) target.
    """
    op = inst.op
    if not OP_IS_CONTROL[op]:
        return False
    if op == Opcode.JR or op == Opcode.JALR:
        return True
    target = inst.target
    return isinstance(target, int) and 0 <= target <= n


# ----------------------------------------------------------------------
# Per-instruction code emission.
# ----------------------------------------------------------------------

_M = "4294967295"       # _MASK32
_S = "2147483648"       # _SIGN32
_W = "4294967296"       # 2**32


def _sign(var: str, src: str) -> List[str]:
    return [f"{var} = {src}", f"if {var} & {_S}:", f"    {var} -= {_W}"]


@dataclass
class _Emitted:
    """One instruction's contribution to the block body."""

    lines: List[str] = field(default_factory=list)
    addr: str = "-1"     # addr-column expression (literal or local name)
    flags: str = "4"     # flags-column expression (_F_PLAIN)
    free: str = "0"      # free-mask-column expression
    dbit: int = 0        # liveness bit set unconditionally after this inst
    hook: bool = False   # calls a DVI-engine hook (forces a dbit flush)
    next: str = ""       # next-pc expression (terminators only)


def _emit_inst(inst, pc: int, i: int, nodvi: bool) -> _Emitted:
    """Generate the statements executing ``inst`` (at static ``pc``).

    ``i`` is the instruction's index within the block, used to name the
    locals holding its dynamic column values.  ``nodvi`` is the
    configuration-specialized variant for engines with every DVI
    mechanism disabled: the engine hooks are provably constant (saves
    and restores never eliminate, kills never free), so ``live_sw``/
    ``live_lw`` compile to plain stores/loads, ``kill`` to nothing, and
    the engine's "seen" counters are batch-updated per block.
    """
    op = inst.op
    rd = inst.rd
    rs1 = inst.rs1
    rs2 = inst.rs2
    imm = inst.imm
    e = _Emitted()
    L = e.lines

    def def_bit() -> None:
        if rd > 0:
            e.dbit = 1 << rd

    # --- register-register / register-immediate ALU -------------------
    if op == Opcode.ADD:
        if rd:
            L.append(f"R[{rd}] = (R[{rs1}] + R[{rs2}]) & {_M}")
        def_bit()
    elif op == Opcode.SUB:
        if rd:
            L.append(f"R[{rd}] = (R[{rs1}] - R[{rs2}]) & {_M}")
        def_bit()
    elif op == Opcode.MUL:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.extend(_sign("b", f"R[{rs2}]"))
            L.append(f"R[{rd}] = (a * b) & {_M}")
        def_bit()
    elif op == Opcode.DIV:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.extend(_sign("b", f"R[{rs2}]"))
            L.extend([
                "if b == 0:",
                "    t = 0",
                "else:",
                "    t = abs(a) // abs(b)",
                "    if (a < 0) != (b < 0):",
                "        t = -t",
                f"R[{rd}] = t & {_M}",
            ])
        def_bit()
    elif op == Opcode.REM:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.extend(_sign("b", f"R[{rs2}]"))
            L.extend([
                "if b == 0:",
                "    t = a",
                "else:",
                "    t = abs(a) // abs(b)",
                "    if (a < 0) != (b < 0):",
                "        t = -t",
                "    t = a - t * b",
                f"R[{rd}] = t & {_M}",
            ])
        def_bit()
    elif op == Opcode.AND:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] & R[{rs2}]")
        def_bit()
    elif op == Opcode.OR:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] | R[{rs2}]")
        def_bit()
    elif op == Opcode.XOR:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] ^ R[{rs2}]")
        def_bit()
    elif op == Opcode.NOR:
        if rd:
            L.append(f"R[{rd}] = ~(R[{rs1}] | R[{rs2}]) & {_M}")
        def_bit()
    elif op == Opcode.SLL:
        if rd:
            L.append(f"R[{rd}] = (R[{rs1}] << (R[{rs2}] & 31)) & {_M}")
        def_bit()
    elif op == Opcode.SRL:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] >> (R[{rs2}] & 31)")
        def_bit()
    elif op == Opcode.SRA:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.append(f"R[{rd}] = (a >> (R[{rs2}] & 31)) & {_M}")
        def_bit()
    elif op == Opcode.SLT:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.extend(_sign("b", f"R[{rs2}]"))
            L.append(f"R[{rd}] = 1 if a < b else 0")
        def_bit()
    elif op == Opcode.SLTU:
        if rd:
            L.append(f"R[{rd}] = 1 if R[{rs1}] < R[{rs2}] else 0")
        def_bit()
    elif op == Opcode.ADDI:
        if rd:
            L.append(f"R[{rd}] = (R[{rs1}] + {imm}) & {_M}")
        def_bit()
    elif op == Opcode.ANDI:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] & {imm & 0xFFFF}")
        def_bit()
    elif op == Opcode.ORI:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] | {imm & 0xFFFF}")
        def_bit()
    elif op == Opcode.XORI:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] ^ {imm & 0xFFFF}")
        def_bit()
    elif op == Opcode.SLLI:
        if rd:
            L.append(f"R[{rd}] = (R[{rs1}] << {imm & 31}) & {_M}")
        def_bit()
    elif op == Opcode.SRLI:
        if rd:
            L.append(f"R[{rd}] = R[{rs1}] >> {imm & 31}")
        def_bit()
    elif op == Opcode.SRAI:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.append(f"R[{rd}] = (a >> {imm & 31}) & {_M}")
        def_bit()
    elif op == Opcode.SLTI:
        if rd:
            L.extend(_sign("a", f"R[{rs1}]"))
            L.append(f"R[{rd}] = 1 if a < {imm} else 0")
        def_bit()
    elif op == Opcode.LUI:
        if rd:
            L.append(f"R[{rd}] = {(imm << 16) & _MASK32}")
        def_bit()

    # --- memory --------------------------------------------------------
    elif op == Opcode.LW:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"if {a} & 3:")
        L.append(
            f"    raise SimulationError(f\"unaligned lw at pc={pc}: "
            f"{{{a}:#x}}\")"
        )
        if rd:
            L.append(f"R[{rd}] = mg({a} >> 2, 0)")
        def_bit()
    elif op == Opcode.SW:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"if {a} & 3:")
        L.append(
            f"    raise SimulationError(f\"unaligned sw at pc={pc}: "
            f"{{{a}:#x}}\")"
        )
        L.append(f"mem[{a} >> 2] = R[{rs2}]")
    elif op == Opcode.LB:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        if rd:
            L.append(f"t = (mg({a} >> 2, 0) >> (8 * ({a} & 3))) & 255")
            L.append(f"R[{rd}] = (t - 256 if t & 128 else t) & {_M}")
        def_bit()
    elif op == Opcode.SB:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"t = 8 * ({a} & 3)")
        L.append(
            f"mem[{a} >> 2] = (mg({a} >> 2, 0) & ~(255 << t)) | "
            f"((R[{rs2}] & 255) << t)"
        )
    elif op == Opcode.LIVE_LW:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"if {a} & 3:")
        L.append(
            f"    raise SimulationError(f\"unaligned live_lw at pc={pc}: "
            f"{{{a}:#x}}\")"
        )
        if nodvi:
            if rd:
                L.append(f"R[{rd}] = mg({a} >> 2, 0)")
            def_bit()
        else:
            f = f"f{i}"
            e.flags = f
            e.hook = True
            L.append(f"if on_restore({rd}):")
            L.append(f"    {f} = 6")      # _F_ELIM
            L.append("else:")
            L.append(f"    {f} = 4")      # _F_PLAIN
            if rd:
                L.append(f"    R[{rd}] = mg({a} >> 2, 0)")
                L.append(f"    lvm._mask |= {1 << rd}")
    elif op == Opcode.LIVE_SW:
        a = f"a{i}"
        e.addr = a
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"if {a} & 3:")
        L.append(
            f"    raise SimulationError(f\"unaligned live_sw at pc={pc}: "
            f"{{{a}:#x}}\")"
        )
        if nodvi:
            L.append(f"mem[{a} >> 2] = R[{rs2}]")
        else:
            f = f"f{i}"
            e.flags = f
            e.hook = True
            L.append(f"if on_save({rs2}):")
            L.append(f"    {f} = 6")
            L.append("else:")
            L.append(f"    {f} = 4")
            L.append(f"    mem[{a} >> 2] = R[{rs2}]")

    # --- environment and DVI annotations -------------------------------
    elif op == Opcode.NOP:
        pass
    elif op == Opcode.KILL:
        if nodvi:
            e.flags = "0"                 # on_kill returns 0: no FLAG_FREES
        else:
            k = f"k{i}"
            e.free = k
            e.flags = f"(8 if {k} else 0)"  # FLAG_FREES; not a program inst
            e.hook = True
            L.append(f"{k} = on_kill({inst.kill_mask})")
    elif op == Opcode.LVM_SAVE:
        a = f"a{i}"
        e.addr = a
        e.hook = True
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"mem[{a} >> 2] = save_lvm()")
    elif op == Opcode.LVM_LOAD:
        a = f"a{i}"
        e.addr = a
        e.hook = True
        L.append(f"{a} = (R[{rs1}] + {imm}) & {_M}")
        L.append(f"load_lvm(mg({a} >> 2, 0))")
    else:  # pragma: no cover - discovery only fuses the ops above
        raise SimulationError(f"superblock codegen: unexpected {op!r}")
    return e


def _branch_cond(inst) -> List[str]:
    """Condition setup + the ``if <cond>:`` line for a branch opcode."""
    op = inst.op
    rs1 = inst.rs1
    rs2 = inst.rs2
    if op == Opcode.BEQ:
        return [f"if R[{rs1}] == R[{rs2}]:"]
    if op == Opcode.BNE:
        return [f"if R[{rs1}] != R[{rs2}]:"]
    if op == Opcode.BLT:
        return (_sign("a", f"R[{rs1}]") + _sign("b", f"R[{rs2}]")
                + ["if a < b:"])
    if op == Opcode.BGE:
        return (_sign("a", f"R[{rs1}]") + _sign("b", f"R[{rs2}]")
                + ["if a >= b:"])
    if op == Opcode.BLEZ:
        return [f"a = R[{rs1}]", f"if a == 0 or a & {_S}:"]
    if op == Opcode.BGTZ:
        return [f"a = R[{rs1}]", f"if a and not a & {_S}:"]
    raise SimulationError(f"not a branch: {op!r}")  # pragma: no cover


def _emit_term(inst, pc: int, nodvi: bool) -> _Emitted:
    """Generate the block-terminating control transfer.

    Mirrors the per-pc control handlers exactly: same evaluation order,
    same engine hooks, same flags (``taken | FLAG_FREES`` composition is
    done here since the block appends its own columns).  Under ``nodvi``
    the call/return hooks are constant (no stack tracking, never free),
    so they vanish and the flags fold to plain-taken.
    """
    op = inst.op
    pc1 = pc + 1
    e = _Emitted()
    L = e.lines
    if op == Opcode.J:
        e.next = str(inst.target)
        e.flags = "5"                      # _F_TAKEN
        return e
    if op == Opcode.JAL:
        e.next = str(inst.target)
        L.append(f"R[{regs.RA}] = {pc1 * 4}")
        if nodvi:
            e.flags = "5"
            e.dbit = 1 << regs.RA
        else:
            e.hook = True
            e.free = "k"
            e.flags = "(13 if k else 5)"   # _F_TAKEN | FLAG_FREES
            L.append("k = on_call()")
            L.append(f"lvm._mask |= {1 << regs.RA}")
        return e
    if op == Opcode.JALR:
        e.next = "nx"
        L.append(f"t = R[{inst.rs1}]")
        L.append("if t & 3:")
        L.append("    raise SimulationError("
                 "f\"unaligned jalr target: {t:#x}\")")
        if inst.rd:
            L.append(f"R[{inst.rd}] = {pc1 * 4}")
        if nodvi:
            e.flags = "5"
            if inst.rd:
                e.dbit = 1 << inst.rd
        else:
            e.hook = True
            e.free = "k"
            e.flags = "(13 if k else 5)"
            L.append("k = on_call()")
            if inst.rd:
                L.append(f"lvm._mask |= {1 << inst.rd}")
        L.append("nx = t >> 2")
        return e
    if op == Opcode.JR:
        e.next = "nx"
        L.append(f"t = R[{inst.rs1}]")
        L.append("if t & 3:")
        L.append("    raise SimulationError("
                 "f\"unaligned jr target: {t:#x}\")")
        if inst.rs1 == regs.RA and not nodvi:
            e.hook = True
            e.free = "k"
            e.flags = "(13 if k else 5)"
            L.append("k = on_return()")
        else:
            e.flags = "5"
        L.append("nx = t >> 2")
        return e
    # Conditional branches.
    e.next = "nx"
    e.flags = "f"
    L.extend(_branch_cond(inst))
    L.append(f"    nx = {inst.target}")
    L.append("    f = 5")
    L.append("else:")
    L.append(f"    nx = {pc1}")
    L.append("    f = 4")
    return e


# ----------------------------------------------------------------------
# Program-level compilation.
# ----------------------------------------------------------------------

_Factory = Callable[..., List[Optional[Callable[[], int]]]]


@dataclass
class CompiledProgram:
    """Discovered blocks plus lazily ``exec``-compiled factories."""

    name: str
    n: int
    #: Per-block (start pc, length), ordered by start.
    blocks: List[tuple]
    #: pc -> block length (0 when pc doesn't start a block).
    len_by_pc: List[int]
    #: pc -> block id (-1 when pc doesn't start a block).
    bid_by_pc: List[int]
    _insts: Sequence = ()
    #: (trace, nodvi) -> exec-compiled factory.
    _factories: Dict[tuple, _Factory] = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def fused_insts(self) -> int:
        return sum(ln for _, ln in self.blocks)

    @property
    def mean_block_len(self) -> float:
        return self.fused_insts / len(self.blocks) if self.blocks else 0.0

    def source(self, trace: bool, nodvi: bool = False) -> str:
        """The generated factory source (compiled lazily, cached)."""
        return _generate_source(self.name, self.n, self.blocks, self._insts,
                                trace, nodvi)

    def factory(self, trace: bool, nodvi: bool = False) -> _Factory:
        """The ``make(R, mem, engine, cols)`` factory for one variant."""
        key = (trace, nodvi)
        made = self._factories.get(key)
        if made is None:
            src = self.source(trace, nodvi)
            namespace = {"SimulationError": SimulationError}
            exec(compile(src, f"<superblocks:{self.name}>", "exec"),
                 namespace)
            made = namespace["_make"]
            self._factories[key] = made
        return made

    def summary(self) -> Dict[str, float]:
        """Block statistics for benchmarks and diagnostics."""
        return {
            "blocks": self.n_blocks,
            "fused_insts": self.fused_insts,
            "mean_block_len": round(self.mean_block_len, 2),
            "static_insts": self.n,
        }


def discover_blocks(program: "Program") -> List[tuple]:
    """Basic blocks as (start, length) pairs, ordered by start pc.

    A block is a straight-line run plus — when the instruction that
    stops the run is a linkable control transfer — that terminator.
    Every terminator-eligible control instruction additionally anchors a
    single-instruction block of its own (unless it already starts one),
    so branch-to-branch targets and tight self-loops dispatch into
    compiled code no matter which pc the flow enters at.  Blocks may
    therefore overlap by one instruction; per-pc execution counts stay
    exact because each block folds its own counter into its own pc
    range.
    """
    insts = program.insts
    n = len(insts)
    leaders = bytearray(n + 1)
    if n:
        leaders[program.entry_index] = 1
    for pc, inst in enumerate(insts):
        op = inst.op
        if OP_IS_CONTROL[op]:
            target = inst.target
            if isinstance(target, int) and 0 <= target < n:
                leaders[target] = 1
            leaders[pc + 1] = 1
        elif op == _HALT:
            leaders[pc + 1] = 1

    blocks: List[tuple] = []
    starts = bytearray(n + 1)
    pc = 0
    while pc < n:
        if not _fusable(insts[pc].op):
            pc += 1
            continue
        start = pc
        pc += 1
        while (pc < n and _fusable(insts[pc].op) and not leaders[pc]
               and pc - start < MAX_BLOCK_LEN):
            pc += 1
        if (pc < n and pc - start < MAX_BLOCK_LEN
                and _terminator(insts[pc], n)):
            pc += 1
        blocks.append((start, pc - start))
        starts[start] = 1
    for pc, inst in enumerate(insts):
        if not starts[pc] and _terminator(inst, n):
            blocks.append((pc, 1))
            starts[pc] = 1
    blocks.sort()
    return blocks


#: DVICounters attribute bumped per occurrence of each opcode when the
#: engine hooks are compiled away (``nodvi``); ``jr`` only counts as a
#: return when it reads ``ra`` (the only case ``on_return`` fires).
_NODVI_COUNTERS = {
    int(Opcode.LIVE_SW): "saves_seen",
    int(Opcode.LIVE_LW): "restores_seen",
    int(Opcode.KILL): "kills_seen",
    int(Opcode.JAL): "calls",
    int(Opcode.JALR): "calls",
}


def _generate_source(name: str, n: int, blocks: List[tuple],
                     insts: Sequence, trace: bool, nodvi: bool) -> str:
    out: List[str] = [
        f"# superblocks v{SUPERBLOCK_VERSION} for {name!r} "
        f"(trace={'on' if trace else 'off'}, nodvi={nodvi})",
        "def _make(R, mem, engine, cols):",
        "    mg = mem.get",
        "    lvm = engine.lvm",
        "    save_lvm = engine.save_lvm",
        "    load_lvm = engine.load_lvm",
    ]
    if nodvi:
        out.append("    ctr = engine.counters")
    else:
        out.extend([
            "    on_save = engine.on_save",
            "    on_restore = engine.on_restore",
            "    on_kill = engine.on_kill",
            "    on_call = engine.on_call",
            "    on_return = engine.on_return",
        ])
    if trace:
        out.append("    xp, xa, xfree, xflag = cols")
    out.append(f"    blocks = [None] * {n + 1}")
    for start, length in blocks:
        end = start + length
        out.append(f"    def _b{start}():")
        body: List[str] = []
        emitted: List[_Emitted] = []
        pending = 0  # dbits accumulated since the last engine hook
        tally: Dict[str, int] = {}
        for i, pc in enumerate(range(start, end)):
            inst = insts[pc]
            if OP_IS_CONTROL[inst.op]:
                e = _emit_term(inst, pc, nodvi)
            else:
                e = _emit_inst(inst, pc, i, nodvi)
            if e.hook and pending:
                body.append(f"lvm._mask |= {pending}")
                pending = 0
            body.extend(e.lines)
            pending |= e.dbit
            emitted.append(e)
            if nodvi:
                field_name = _NODVI_COUNTERS.get(inst.op)
                if inst.op == Opcode.JR and inst.rs1 == regs.RA:
                    field_name = "returns"
                if field_name:
                    tally[field_name] = tally.get(field_name, 0) + 1
        if pending:
            body.append(f"lvm._mask |= {pending}")
        for field_name, count in tally.items():
            body.append(f"ctr.{field_name} += {count}")
        tail = emitted[-1]
        if trace:
            pcs = ", ".join(str(pc) for pc in range(start, end))
            addrs = ", ".join(e.addr for e in emitted)
            flags = ", ".join(e.flags for e in emitted)
            frees = ", ".join(e.free for e in emitted)
            comma = "," if length == 1 else ""
            body.append(f"xp(({pcs}{comma}))")
            body.append(f"xa(({addrs}{comma}))")
            body.append(f"xfree(({frees}{comma}))")
            body.append(f"xflag(({flags}{comma}))")
        body.append(f"return {tail.next or str(end)}")
        out.extend("        " + line for line in body)
        out.append(f"    blocks[{start}] = _b{start}")
    out.append("    return blocks")
    out.append("")
    return "\n".join(out)


def compile_program(program: "Program") -> CompiledProgram:
    """Discover and (lazily) compile ``program``'s superblocks.

    The result is cached on the program instance: workloads are built
    once and simulated many times (sweep cells, repeated runs), so the
    discovery and the per-trace-mode ``exec`` happen once per program
    object.
    """
    cached = program.__dict__.get("_superblocks")
    if cached is not None:
        return cached
    blocks = discover_blocks(program)
    n = len(program.insts)
    len_by_pc = [0] * (n + 1)
    bid_by_pc = [-1] * (n + 1)
    for bid, (start, length) in enumerate(blocks):
        len_by_pc[start] = length
        bid_by_pc[start] = bid
    compiled = CompiledProgram(
        name=program.name,
        n=n,
        blocks=blocks,
        len_by_pc=len_by_pc,
        bid_by_pc=bid_by_pc,
        _insts=program.insts,
    )
    program.__dict__["_superblocks"] = compiled
    return compiled
