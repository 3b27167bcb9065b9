"""The native functional engine: ``functional.c`` built once, loaded with ctypes.

:class:`NativeFunctionalSimulator` runs a program on ``functional.c``, a
C port of :meth:`FunctionalSimulator.execute
<repro.sim.functional.FunctionalSimulator.execute>` and of the DVI
engine it drives, and returns the same
:class:`~repro.sim.functional.FunctionalResult`, to identical bytes once
pickled.  :func:`repro.sim.functional.simulator` returns one whenever
the engine loaded and the program encodes; the per-pc Python engine
stays the fallback and the byte-level oracle.

**Encoding.**  :func:`encode` packs every instruction into the
:data:`FIELDS` int64 words, once per program, and refuses any program
the C engine could not run exactly as the Python engine does: an
opcode that is not an :class:`~repro.isa.opcodes.Opcode`, a register
outside 0–31, an immediate, target or kill mask that is not an int, an
immediate or target that does not fit 64 bits, or more instructions
than a return address can reach.  A run also needs a non-negative
entry point, data words inside the 32-bit address space, and a DVI
configuration the C engine models.  Anything else runs on the Python
engine, whatever that engine does with it.  Only the low 32 bits of a
kill mask can matter (the LVM has 32), so only those are encoded.

**Resumable state.**  The handle owns the memory, the LVM-Stack and the
trace buffers; the registers, the per-pc counts, the histogram and the
:data:`STATE` vector are Python arrays every :meth:`execute
<NativeFunctionalSimulator.execute>` call passes in, so the thread
scheduler can edit registers and the LVM between quanta.

**Faults.**  A run-time fault returns a status with the pc and the
address, and :meth:`~NativeFunctionalSimulator.execute` raises the
Python engine's exact :class:`~repro.errors.SimulationError` text.

Every vector's layout is declared once, here (:data:`FIELDS`,
:data:`CONFIG`, :data:`STATE`, :data:`STATUSES`); ``functional.c``
names each entry the same, upper-cased behind its prefix, and a test
holds the two to the same names in the same order.
"""

from __future__ import annotations

import weakref
from array import array
from itertools import chain, repeat
from pathlib import Path
from typing import Dict, Optional

from repro.dvi.config import DVIConfig, SRScheme
from repro.dvi.lvm import ALL_LIVE
from repro.errors import SimulationError
from repro.isa import registers as regs
from repro.isa.opcodes import NUM_OPCODES
from repro.program.program import STACK_TOP, Program
from repro.sim.functional import (
    FunctionalResult,
    FunctionalStats,
    ProgramTables,
    program_tables,
)
from repro.sim.loader import KernelLoader

__all__ = [
    "CONFIG", "ENGINE", "FIELDS", "NativeFunctionalSimulator", "STATE",
    "STATUSES", "encode", "native_simulator",
]

SOURCE = Path(__file__).with_name("functional.c")

#: The int64 words of one instruction in the code vector (``I_*``).
FIELDS = ("op", "rd", "rs1", "rs2", "imm", "target", "kill_mask", "def_mask")

#: The schemes ``functional.c`` models, by their ``SCHEME_*`` code.
SCHEMES = (SRScheme.NONE, SRScheme.LVM, SRScheme.LVM_STACK)

#: The configuration vector (``CFG_*``): its fields and how to read each
#: off a simulator.
CONFIG = (
    ("collect_trace", lambda sim: bool(sim.collect_trace)),
    ("collect_live_hist", lambda sim: bool(sim.collect_live_hist)),
    ("use_idvi", lambda sim: bool(sim.dvi_config.use_idvi)),
    ("use_edvi", lambda sim: bool(sim.dvi_config.use_edvi)),
    ("scheme", lambda sim: SCHEMES.index(sim.dvi_config.scheme)),
    ("stack_depth", lambda sim: sim.dvi_config.lvm_stack_depth or 0),
    ("call_mask", lambda sim: sim.dvi_config.abi.idvi_call_mask() & ALL_LIVE),
    ("return_mask",
     lambda sim: sim.dvi_config.abi.idvi_return_mask() & ALL_LIVE),
    ("callee_saved", lambda sim: sim.dvi_config.abi.callee_saved & ALL_LIVE),
    ("saveable", lambda sim: sim.dvi_config.abi.saveable_mask() & ALL_LIVE),
)

#: The state vector (``S_*``) every execute call reads and writes.
STATE = (
    "pc", "seq", "lvm", "halted", "saves_eliminated", "restores_eliminated",
    "hist_seen", "fault_pc", "fault_addr",
)

#: ``functional.c``'s return codes (``ST_*``).
STATUSES = (
    "ok", "no_memory", "bad_arguments", "pc_out_of_range",
    "unaligned_lw", "unaligned_sw", "unaligned_live_lw",
    "unaligned_live_sw", "unaligned_jalr", "unaligned_jr",
)

#: The Python engine's message for each run-time fault status.
_FAULTS = {
    "pc_out_of_range": "pc out of range: {pc}",
    "unaligned_lw": "unaligned lw at pc={pc}: {addr:#x}",
    "unaligned_sw": "unaligned sw at pc={pc}: {addr:#x}",
    "unaligned_live_lw": "unaligned live_lw at pc={pc}: {addr:#x}",
    "unaligned_live_sw": "unaligned live_sw at pc={pc}: {addr:#x}",
    "unaligned_jalr": "unaligned jalr target: {addr:#x}",
    "unaligned_jr": "unaligned jr target: {addr:#x}",
}

_PC = STATE.index("pc")
_SEQ = STATE.index("seq")
_LVM = STATE.index("lvm")
_HALTED = STATE.index("halted")
_SAVES_ELIMINATED = STATE.index("saves_eliminated")
_RESTORES_ELIMINATED = STATE.index("restores_eliminated")
_HIST_SEEN = STATE.index("hist_seen")
_FAULT_PC = STATE.index("fault_pc")
_FAULT_ADDR = STATE.index("fault_addr")

#: Live-register counts run 0..32.
_HIST_SLOTS = regs.NUM_REGS + 1
#: Code sizes whose return addresses fit a 32-bit register.
_MAX_INSTS = 1 << 28
#: A step budget no run reaches.
_MAX_BUDGET = 1 << 62
_INT64 = (-(1 << 63), 1 << 63)

_POINTER = "void_p"
_SIZE = "int64"

#: The process's loader; :func:`native_simulator` asks it for the engine.
ENGINE = KernelLoader(SOURCE, "functional-engine", "the native functional engine", {
    "repro_fe_new": (_POINTER, [
        _POINTER, _SIZE,
        _POINTER, _SIZE, _SIZE,
        _POINTER, _SIZE, _POINTER,
    ]),
    "repro_fe_execute": ("int", [
        _POINTER, _SIZE,
        _POINTER, _SIZE, _POINTER, _SIZE,
        _POINTER, _POINTER, _SIZE,
        _POINTER, _SIZE,
    ]),
    "repro_fe_sizes": (None, [_POINTER, _POINTER]),
    "repro_fe_export": (None, [_POINTER] * 7),
    "repro_fe_free": (None, [_POINTER]),
})


def _ints(column, low: Optional[int] = None, high: Optional[int] = None) -> bool:
    """Whether every value in ``column`` is an int (not a bool), and in
    ``[low, high)`` when the bounds are given."""
    if (not all(map(isinstance, column, repeat(int)))
            or any(map(isinstance, column, repeat(bool)))):
        return False
    return low is None or not column or low <= min(column) and max(column) < high


def encode(program: Program) -> Optional[ProgramTables]:
    """``program``'s tables with the code vector, or None if it does not
    encode.  The encoding is cached with the tables."""
    tables = program.__dict__.get("_tables")
    if tables is not None and tables.insts is program.insts \
            and tables.code is not None:
        return tables
    insts = program.insts
    if len(insts) >= _MAX_INSTS:
        return None
    ops, rds, rs1s, rs2s, imms, targets, kills = zip(*(
        (inst.op, inst.rd, inst.rs1, inst.rs2, inst.imm, inst.target,
         inst.kill_mask)
        for inst in insts
    )) if insts else ((),) * 7
    # An unlinked target ends the run when taken, as the Python engine's.
    targets = [target if isinstance(target, int) else -1 for target in targets]
    if not (_ints(ops, 0, NUM_OPCODES) and _ints(rds, 0, regs.NUM_REGS)
            and _ints(rs1s, 0, regs.NUM_REGS) and _ints(rs2s, 0, regs.NUM_REGS)
            and _ints(imms, *_INT64) and _ints(targets, *_INT64)
            and _ints(kills)):
        return None
    tables = program_tables(program)
    tables.code = array("q", chain.from_iterable(zip(
        ops, rds, rs1s, rs2s, imms, targets,
        [mask & ALL_LIVE for mask in kills], tables.dbits,
    )))
    return tables


def _encode_data(data: Dict[int, int]) -> Optional[array]:
    """The initial memory as (word, value) pairs, or None if a data word
    lies outside the 32-bit address space."""
    addrs, values = list(data), list(data.values())
    if not (_ints(addrs, 0, 1 << 32) and _ints(values)):
        return None
    return array("q", chain.from_iterable(zip(
        [addr >> 2 for addr in addrs], [value & ALL_LIVE for value in values]
    )))


def _runs_natively(dvi: DVIConfig) -> bool:
    """Whether ``functional.c`` models ``dvi`` (the LVM-Stack depth is
    None or 1..2**32-1, and the scheme one of :data:`SCHEMES`)."""
    depth = dvi.lvm_stack_depth
    return (dvi.scheme in SCHEMES
            and (depth is None or _ints([depth], 1, ALL_LIVE + 1)))


def native_simulator(
    program: Program,
    dvi: Optional[DVIConfig] = None,
    *,
    max_steps: int = 5_000_000,
    collect_trace: bool = True,
    collect_live_hist: bool = False,
) -> Optional["NativeFunctionalSimulator"]:
    """A native simulator for this run, or None when the engine did not
    load (warning once) or the run does not encode."""
    library = ENGINE.load_or_warn()
    if library is None:
        return None
    dvi = dvi if dvi is not None else DVIConfig.none()
    entry = program.labels.get(program.entry)
    if not (_runs_natively(dvi) and _ints([entry], 0, _INT64[1])):
        return None
    data = _encode_data(program.data)
    tables = encode(program) if data is not None else None
    if tables is None:
        return None
    return NativeFunctionalSimulator(
        library, program, dvi, tables, data, entry, max_steps=max_steps,
        collect_trace=collect_trace, collect_live_hist=collect_live_hist,
    )


def _address(column: array) -> int:
    return column.buffer_info()[0]


def _zeros(typecode: str, length: int) -> array:
    return array(typecode, [0]) * length


class NativeFunctionalSimulator:
    """:class:`~repro.sim.functional.FunctionalSimulator`'s surface on
    the C engine; build one through :func:`native_simulator`."""

    def __init__(
        self, library, program: Program, dvi: DVIConfig,
        tables: ProgramTables, data: array, entry: int, *,
        max_steps: int, collect_trace: bool, collect_live_hist: bool,
    ) -> None:
        import ctypes

        self.program = program
        self.dvi_config = dvi
        self.max_steps = max_steps
        self.collect_trace = collect_trace
        self.collect_live_hist = collect_live_hist
        self.stats = FunctionalStats()
        self._library = library
        self._tables = tables
        n = len(program.insts)

        self._regs = _zeros("I", regs.NUM_REGS)
        self._regs[regs.SP] = STACK_TOP
        self._regs[regs.GP] = 0x0010_0000
        self._regs[regs.RA] = n * 4
        self._counts = _zeros("q", n)
        self._hist = _zeros("q", _HIST_SLOTS)
        self._hist_order = _zeros("q", _HIST_SLOTS)
        self._state = _zeros("q", len(STATE))
        self._state[_PC] = entry
        self._state[_LVM] = ALL_LIVE

        config = array("q", [get(self) for _, get in CONFIG])
        status = ctypes.c_int64()
        handle = library.repro_fe_new(
            _address(config), len(config),
            _address(tables.code), n, len(FIELDS),
            _address(data), len(data) // 2, ctypes.byref(status),
        )
        if not handle:
            self._fail(status.value)
        self._handle = handle
        weakref.finalize(self, library.repro_fe_free, handle)

    @property
    def regs(self) -> array:
        """The register file; its items may be edited between calls, and
        the array itself cannot be replaced."""
        return self._regs

    @property
    def pc(self) -> int:
        return self._state[_PC]

    @property
    def halted(self) -> bool:
        return bool(self._state[_HALTED])

    def execute(self, budget: int) -> bool:
        """Run up to ``budget`` further instructions; see
        :meth:`FunctionalSimulator.execute
        <repro.sim.functional.FunctionalSimulator.execute>`."""
        state = self._state
        if state[_HALTED]:
            return False
        status = self._library.repro_fe_execute(
            self._handle, max(0, min(budget, _MAX_BUDGET)),
            _address(self._regs), len(self._regs),
            _address(self._counts), len(self._counts),
            _address(self._hist), _address(self._hist_order), _HIST_SLOTS,
            _address(state), len(state),
        )
        if status:
            self._fail(status)
        self._sync_stats()
        return not state[_HALTED]

    def _fail(self, status: int) -> None:
        name = STATUSES[status] if 0 <= status < len(STATUSES) else None
        if name == "no_memory":
            raise MemoryError("the functional engine could not allocate its state")
        fault = _FAULTS.get(name)
        if fault is None:
            raise SimulationError(
                f"the functional engine refused its arguments ({status})"
            )
        raise SimulationError(fault.format(
            pc=self._state[_FAULT_PC], addr=self._state[_FAULT_ADDR]
        ))

    def _sync_stats(self) -> None:
        state = self._state
        stats = self.stats
        self._tables.sync_stats(
            stats, self._counts, state[_SEQ],
            state[_SAVES_ELIMINATED], state[_RESTORES_ELIMINATED],
        )
        if self.collect_live_hist:
            hist = self._hist
            stats.live_hist = {
                live: hist[live]
                for live in self._hist_order[:state[_HIST_SEEN]]
            }
        if state[_HALTED]:
            stats.completed = True
            stats.exit_value = self._regs[regs.V0]

    def save_lvm(self) -> int:
        """``lvm_save``: the LVM a context switch stores."""
        return self._state[_LVM]

    def load_lvm(self, mask: int) -> None:
        """``lvm_load``: reload a context's LVM before its restores."""
        self._state[_LVM] = mask & ALL_LIVE

    def run(self) -> FunctionalResult:
        """Execute until halt / top-level return / step budget."""
        self.execute(self.max_steps - self._state[_SEQ])
        return self.result()

    def result(self) -> FunctionalResult:
        """Package the current architectural state and statistics."""
        library, handle = self._library, self._handle
        sizes = _zeros("q", 2)
        library.repro_fe_sizes(handle, _address(sizes))
        rows, words = sizes
        columns = [_zeros("i", rows), _zeros("q", rows), _zeros("q", rows),
                   _zeros("B", rows)]
        keys, values = _zeros("q", words), _zeros("I", words)
        library.repro_fe_export(
            handle, *map(_address, columns), _address(keys), _address(values)
        )
        trace = None
        if self.collect_trace:
            trace = self._tables.trace(self, *columns)
        return FunctionalResult(
            stats=self.stats,
            trace=trace,
            registers=list(self._regs),
            memory=dict(zip(keys, values)),
        )
