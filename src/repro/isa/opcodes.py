"""Opcode and operation-class definitions.

Each opcode belongs to an :class:`OpClass`, which is what the timing model
cares about (which functional unit executes it, and with what latency), and
an operand *format*, which is what the assembler, encoder, and formatter
care about.  Both attributes live in one specification table (`_OP_SPEC`)
from which every other view is derived:

* **int-indexed tuples** (``OP_CLASS_CODE``, ``OP_FORMAT``,
  ``OP_IS_LOAD``, ...) — O(1) lookups by raw opcode integer, used on the
  simulators' hot paths and by the assembler/encoder/rewriter;
* the **enum-keyed dict** ``OP_CLASS`` and the membership
  **frozensets** the instruction predicates read (``LOAD_OPS``,
  ``STORE_OPS``, ``BRANCH_OPS``).

There is deliberately no second place where an opcode's class or format is
written down; adding an opcode means adding one `_OP_SPEC` row.
"""

from __future__ import annotations

from enum import IntEnum, unique


@unique
class OpClass(IntEnum):
    """Functional classes of operations, used for scheduling and latency."""

    IALU = 0      # integer add/sub/logic/shift/compare
    IMUL = 1      # integer multiply
    IDIV = 2      # integer divide
    LOAD = 3      # memory read
    STORE = 4     # memory write
    BRANCH = 5    # conditional branch
    JUMP = 6      # unconditional jump (incl. call and return)
    NOP = 7       # no work (nop, kill, lvm ops)
    SYSCALL = 8   # halt / environment call


@unique
class Opcode(IntEnum):
    """All opcodes of the MIPS-like ISA, including the DVI extensions."""

    # Arithmetic / logic, register-register.
    ADD = 0
    SUB = 1
    MUL = 2
    DIV = 3
    REM = 4
    AND = 5
    OR = 6
    XOR = 7
    NOR = 8
    SLL = 9
    SRL = 10
    SRA = 11
    SLT = 12
    SLTU = 13
    # Arithmetic / logic, register-immediate.
    ADDI = 14
    ANDI = 15
    ORI = 16
    XORI = 17
    SLLI = 18
    SRLI = 19
    SRAI = 20
    SLTI = 21
    LUI = 22
    # Memory.
    LW = 23
    SW = 24
    LB = 25
    SB = 26
    # Control.
    BEQ = 27
    BNE = 28
    BLT = 29
    BGE = 30
    BLEZ = 31
    BGTZ = 32
    J = 33
    JAL = 34
    JR = 35
    JALR = 36
    # Environment.
    NOP = 37
    HALT = 38
    # --- DVI ISA extensions (paper sections 2 and 5.1, 6.1) ---
    KILL = 39      # E-DVI: kill-mask instruction
    LIVE_SW = 40   # live-store: save of a callee-saved register
    LIVE_LW = 41   # live-load: restore of a callee-saved register
    LVM_SAVE = 42  # store the LVM to memory (context switch support)
    LVM_LOAD = 43  # load the LVM from memory (context switch support)


NUM_OPCODES = len(Opcode)
NUM_OP_CLASSES = len(OpClass)

# Operand-format codes (the encoder/decoder/formatter dispatch key).
FMT_RRR = 0     # op rd, rs1, rs2
FMT_RRI = 1     # op rd, rs1, imm
FMT_LUI = 2     # op rd, imm
FMT_LOAD = 3    # op rd, imm(rs1)
FMT_STORE = 4   # op rs2, imm(rs1)
FMT_BR_RR = 5   # op rs1, rs2, target
FMT_BR_RZ = 6   # op rs1, target
FMT_J = 7       # op target (j / jal)
FMT_JR = 8      # op rs1
FMT_JALR = 9    # op rd, rs1
FMT_KILL = 10   # kill mask
FMT_LVM = 11    # op imm(rs1)
FMT_BARE = 12   # op (nop / halt)

# ----------------------------------------------------------------------
# The single source of truth: opcode -> (class, format), in Opcode order.
# ----------------------------------------------------------------------

_OP_SPEC = (
    (Opcode.ADD, OpClass.IALU, FMT_RRR),
    (Opcode.SUB, OpClass.IALU, FMT_RRR),
    (Opcode.MUL, OpClass.IMUL, FMT_RRR),
    (Opcode.DIV, OpClass.IDIV, FMT_RRR),
    (Opcode.REM, OpClass.IDIV, FMT_RRR),
    (Opcode.AND, OpClass.IALU, FMT_RRR),
    (Opcode.OR, OpClass.IALU, FMT_RRR),
    (Opcode.XOR, OpClass.IALU, FMT_RRR),
    (Opcode.NOR, OpClass.IALU, FMT_RRR),
    (Opcode.SLL, OpClass.IALU, FMT_RRR),
    (Opcode.SRL, OpClass.IALU, FMT_RRR),
    (Opcode.SRA, OpClass.IALU, FMT_RRR),
    (Opcode.SLT, OpClass.IALU, FMT_RRR),
    (Opcode.SLTU, OpClass.IALU, FMT_RRR),
    (Opcode.ADDI, OpClass.IALU, FMT_RRI),
    (Opcode.ANDI, OpClass.IALU, FMT_RRI),
    (Opcode.ORI, OpClass.IALU, FMT_RRI),
    (Opcode.XORI, OpClass.IALU, FMT_RRI),
    (Opcode.SLLI, OpClass.IALU, FMT_RRI),
    (Opcode.SRLI, OpClass.IALU, FMT_RRI),
    (Opcode.SRAI, OpClass.IALU, FMT_RRI),
    (Opcode.SLTI, OpClass.IALU, FMT_RRI),
    (Opcode.LUI, OpClass.IALU, FMT_LUI),
    (Opcode.LW, OpClass.LOAD, FMT_LOAD),
    (Opcode.SW, OpClass.STORE, FMT_STORE),
    (Opcode.LB, OpClass.LOAD, FMT_LOAD),
    (Opcode.SB, OpClass.STORE, FMT_STORE),
    (Opcode.BEQ, OpClass.BRANCH, FMT_BR_RR),
    (Opcode.BNE, OpClass.BRANCH, FMT_BR_RR),
    (Opcode.BLT, OpClass.BRANCH, FMT_BR_RR),
    (Opcode.BGE, OpClass.BRANCH, FMT_BR_RR),
    (Opcode.BLEZ, OpClass.BRANCH, FMT_BR_RZ),
    (Opcode.BGTZ, OpClass.BRANCH, FMT_BR_RZ),
    (Opcode.J, OpClass.JUMP, FMT_J),
    (Opcode.JAL, OpClass.JUMP, FMT_J),
    (Opcode.JR, OpClass.JUMP, FMT_JR),
    (Opcode.JALR, OpClass.JUMP, FMT_JALR),
    (Opcode.NOP, OpClass.NOP, FMT_BARE),
    (Opcode.HALT, OpClass.SYSCALL, FMT_BARE),
    (Opcode.KILL, OpClass.NOP, FMT_KILL),
    (Opcode.LIVE_SW, OpClass.STORE, FMT_STORE),
    (Opcode.LIVE_LW, OpClass.LOAD, FMT_LOAD),
    (Opcode.LVM_SAVE, OpClass.NOP, FMT_LVM),
    (Opcode.LVM_LOAD, OpClass.NOP, FMT_LVM),
)

assert tuple(op for op, _, _ in _OP_SPEC) == tuple(Opcode), \
    "_OP_SPEC must list every opcode once, in Opcode order"

# ----------------------------------------------------------------------
# Int-indexed tables (index by ``int(op)`` — or by ``op`` itself, since
# Opcode is an IntEnum).  These are the hot-path views.
# ----------------------------------------------------------------------

#: Opcode int -> OpClass member.
OP_CLASS_TABLE = tuple(cls for _, cls, _ in _OP_SPEC)
#: Opcode int -> raw OpClass int code.
OP_CLASS_CODE = tuple(int(cls) for _, cls, _ in _OP_SPEC)
#: Opcode int -> operand-format code (``FMT_*``).
OP_FORMAT = tuple(fmt for _, _, fmt in _OP_SPEC)

#: Opcode int -> membership flags (derived from class/format).
OP_IS_LOAD = tuple(cls is OpClass.LOAD for _, cls, _ in _OP_SPEC)
OP_IS_STORE = tuple(cls is OpClass.STORE for _, cls, _ in _OP_SPEC)
OP_IS_MEM = tuple(l or s for l, s in zip(OP_IS_LOAD, OP_IS_STORE))
OP_IS_BRANCH = tuple(cls is OpClass.BRANCH for _, cls, _ in _OP_SPEC)
OP_IS_JUMP = tuple(cls is OpClass.JUMP for _, cls, _ in _OP_SPEC)
OP_IS_CONTROL = tuple(b or j for b, j in zip(OP_IS_BRANCH, OP_IS_JUMP))
OP_IS_CALL = tuple(op in (Opcode.JAL, Opcode.JALR) for op in Opcode)
OP_IS_RETURN = tuple(op is Opcode.JR for op in Opcode)

# ----------------------------------------------------------------------
# Derived enum-keyed views.
# ----------------------------------------------------------------------

#: Opcode -> OpClass.
OP_CLASS = {op: cls for op, cls, _ in _OP_SPEC}

#: Loads (rd, imm(rs1)).
LOAD_OPS = frozenset(op for op, _, fmt in _OP_SPEC if fmt == FMT_LOAD)

#: Stores (rs2, imm(rs1)) -- rs2 is the data register.
STORE_OPS = frozenset(op for op, _, fmt in _OP_SPEC if fmt == FMT_STORE)

#: Conditional branches comparing two registers.
BRANCH_RR_OPS = frozenset(op for op, _, fmt in _OP_SPEC if fmt == FMT_BR_RR)

#: Conditional branches comparing one register against zero.
BRANCH_RZ_OPS = frozenset(op for op, _, fmt in _OP_SPEC if fmt == FMT_BR_RZ)

#: All conditional branches.
BRANCH_OPS = BRANCH_RR_OPS | BRANCH_RZ_OPS

#: Execution latency (cycles) by op class, SimpleScalar-like defaults.
DEFAULT_LATENCY = {
    OpClass.IALU: 1,
    OpClass.IMUL: 3,
    OpClass.IDIV: 12,
    OpClass.LOAD: 1,   # plus cache access time
    OpClass.STORE: 1,
    OpClass.BRANCH: 1,
    OpClass.JUMP: 1,
    OpClass.NOP: 1,
    OpClass.SYSCALL: 1,
}


def op_class(op: Opcode) -> OpClass:
    """The :class:`OpClass` of opcode ``op``."""
    return OP_CLASS_TABLE[op]
