"""Dynamic instruction traces, stored columnar.

The functional emulator executes a program in architectural program order
and emits one dynamic-instruction row per step.  The out-of-order timing
model replays these rows through its resource pipeline.  Rows carry
everything the timing model needs and nothing else: registers for
renaming, addresses for the caches, control outcomes for the branch
predictor, and the DVI annotations (register-free masks and elimination
flags) decided in program order by the
:class:`~repro.dvi.engine.DVIEngine`.

Storage layout (the perf-critical part): a :class:`Trace` is **columnar**.
Million-row traces used to be lists of per-row ``TraceRecord`` heap
objects; they are now parallel ``array`` columns — four *dynamic* columns
filled as instructions execute, plus four small *static* side-tables
indexed by ``pc`` for the per-instruction facts that never change between
dynamic instances (opcode, class, destination, sources).  The dynamic
columns are **sparse** where the fact is: ``pcs`` and ``flags`` hold one
entry per row, ``addrs`` one per *memory row* (static class LOAD or
STORE) and ``free_masks`` one per *freeing row* (``FLAG_FREES`` set), so
a row costs about 6.6 bytes instead of the 21 a dense layout spends
mostly on empty slots.  This makes trace generation allocation-free per
step, lets the timing core read plain ints straight out of flat buffers,
and pickles as a handful of compact byte blobs instead of millions of
objects.  :data:`COLUMNS` is the one table of the eight columns, their
array typecodes and what indexes each; construction, pickling, the row
view and the native timing kernel's layout check all read it.

Columns:

==============  ========  ===============  ===================================
column          typecode  one entry per    contents
==============  ========  ===============  ===================================
``pcs``         ``i``     row              static instruction index (byte
                                           address = ``4*pc``)
``addrs``       ``I``     memory row       byte address touched
``free_masks``  ``I``     freeing row      architectural registers whose
                                           physical mappings may be
                                           reclaimed when the row commits
``flags``       ``B``     row              bit 0 taken, bit 1 eliminated,
                                           bit 2 is-program, bit 3 frees
==============  ========  ===============  ===================================

Every memory row has an address: LW/SW/LB/SB/LIVE_SW/LIVE_LW always
compute one, masked to 32 bits, so no row needs a "none" marker.  The
replayers walk ``addrs`` and ``free_masks`` with one cursor each,
advanced on every memory row and every freeing row in row order.

A row's successor is the next row's pc, so no column stores it; the one
scalar ``end_pc`` says what would run after the last row: -1 after
``halt``, the sentinel index after a top-level return, and the resume pc
when the run was cut at its step budget.

Static side-tables, indexed by ``pc``, one entry per instruction of the
program, executed or not:

``s_op`` (``b``) opcode int; ``s_cls`` (``b``) op-class int; ``s_dst``
(``b``) destination register or -1; ``s_srcs`` (``h``) packed sources.

``s_srcs`` packs the 0–2 source registers of this ISA into one short:
``(src1 + 1) | ((src2 + 1) << 6)``, 0 meaning "no source in this slot"
(register numbers are 5 bits, so 6 bits per slot round-trips losslessly).

The **row-view shim**: ``trace.records`` yields a read-only list of
:class:`TraceRecord` objects, materialized lazily from the columns, so
tests and ad-hoc analysis code read rows without the hot paths paying
for per-row objects.  A row view reports every row's ``addr`` (-1 off
the memory rows) and ``free_mask`` (0 off the freeing rows).  A trace
is built once, from its columns, and never re-encoded.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dvi.config import DVIConfig
from repro.isa.opcodes import OpClass, Opcode

#: Bits of the per-row ``flags`` column.
FLAG_TAKEN = 1
FLAG_ELIMINATED = 2
FLAG_PROGRAM = 4
#: Set iff the row's free mask is non-zero, that is iff the row has an
#: entry in the ``free_masks`` column.
FLAG_FREES = 8

#: Trace storage-format version.  Baked into the experiment cache keys so
#: artifacts of an older layout can never be confused with this one, and
#: checked on unpickling, which refuses any other format.
TRACE_FORMAT = 4

#: What a column holds one entry for: every row, every memory row (static
#: class LOAD or STORE), every freeing row (``FLAG_FREES`` set), or every
#: static instruction.
ROW = "row"
MEMORY_ROW = "memory row"
FREEING_ROW = "freeing row"
PC = "pc"

#: The columns, ``(attribute, array typecode, indexed by)``: four dynamic
#: ones, then four static side-tables.
COLUMNS = (
    ("pcs", "i", ROW),
    ("addrs", "I", MEMORY_ROW),
    ("free_masks", "I", FREEING_ROW),
    ("flags", "B", ROW),
    ("s_op", "b", PC),
    ("s_cls", "b", PC),
    ("s_dst", "b", PC),
    ("s_srcs", "h", PC),
)

#: What a sparse column reads, spread over every row, where it skips.
ABSENT = {MEMORY_ROW: -1, FREEING_ROW: 0}
_INDEX = {name: index for name, _, index in COLUMNS}

#: The op classes of the memory rows.
MEMORY_CLASSES = (int(OpClass.LOAD), int(OpClass.STORE))

_OPCODES = tuple(Opcode)
_OP_CLASSES = tuple(OpClass)


def pack_srcs(srcs: Tuple[int, ...]) -> int:
    """Pack a 0/1/2-tuple of source registers into one int."""
    packed = 0
    shift = 0
    for src in srcs:
        packed |= (src + 1) << shift
        shift += 6
    return packed


def unpack_srcs(packed: int) -> Tuple[int, ...]:
    """Inverse of :func:`pack_srcs`."""
    if not packed:
        return ()
    first = (packed & 0x3F) - 1
    second = packed >> 6
    if not second:
        return (first,)
    return (first, second - 1)


class TraceRecord:
    """One dynamic instruction instance (the row view).

    Attributes:
        seq: Dynamic sequence number (0-based, includes kill annotations).
        pc: Static instruction index (byte address = ``4 * pc``).
        op: Opcode.
        cls: Operation class (functional unit / latency selector).
        dst: Destination architectural register, or -1.
        srcs: Source architectural registers (r0 excluded).
        addr: Byte address touched, or -1 off the memory rows (classes
            other than LOAD and STORE).
        taken: For control transfers, whether the transfer was taken.
        next_pc: Static index of the next executed instruction (the next
            row's pc, or the trace's ``end_pc`` on the last row).
        free_mask: Architectural registers whose physical mappings may be
            reclaimed when this record commits (from E-DVI kills or I-DVI at
            calls/returns).
        eliminated: True for saves/restores squashed by the LVM hardware;
            such records are fetched and decoded but never dispatched.
        is_program: False only for ``kill`` annotations, which the paper
            counts as cycle overhead rather than program work.
    """

    __slots__ = (
        "seq", "pc", "op", "cls", "dst", "srcs", "addr",
        "taken", "next_pc", "free_mask", "eliminated", "is_program",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        op: Opcode,
        cls: OpClass,
        dst: int,
        srcs: Tuple[int, ...],
        addr: int,
        taken: bool,
        next_pc: int,
        free_mask: int,
        eliminated: bool,
        is_program: bool,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.op = op
        self.cls = cls
        self.dst = dst
        self.srcs = srcs
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc
        self.free_mask = free_mask
        self.eliminated = eliminated
        self.is_program = is_program

    @property
    def is_control(self) -> bool:
        return self.cls is OpClass.BRANCH or self.cls is OpClass.JUMP

    @property
    def is_branch(self) -> bool:
        return self.cls is OpClass.BRANCH

    @property
    def is_call(self) -> bool:
        return self.op is Opcode.JAL or self.op is Opcode.JALR

    @property
    def is_return(self) -> bool:
        return self.op is Opcode.JR

    @property
    def is_mem(self) -> bool:
        return self.cls is OpClass.LOAD or self.cls is OpClass.STORE

    @property
    def is_load(self) -> bool:
        return self.cls is OpClass.LOAD

    @property
    def is_store(self) -> bool:
        return self.cls is OpClass.STORE

    def __repr__(self) -> str:  # pragma: no cover
        marks = []
        if self.eliminated:
            marks.append("elim")
        if self.free_mask:
            marks.append(f"free={self.free_mask:#x}")
        suffix = (" [" + ", ".join(marks) + "]") if marks else ""
        return f"<{self.seq}: pc={self.pc} {self.op.name}{suffix}>"


class Trace:
    """A complete dynamic trace plus its provenance, stored columnar."""

    __slots__ = (
        "program_name", "dvi", "completed", "end_pc",
        *(name for name, _, _ in COLUMNS),
        "_rows", "_program_insts", "_hot", "_replay",
    )

    def __init__(
        self,
        program_name: str,
        dvi: DVIConfig,
        completed: bool = True,
        end_pc: int = -1,
        **columns: array,
    ) -> None:
        """Adopt ``columns``, one keyword per :data:`COLUMNS` entry; a
        column left out starts empty."""
        self.program_name = program_name
        self.dvi = dvi
        self.completed = completed
        #: What would run after the last row (see the module docstring).
        self.end_pc = end_pc
        for name, typecode, _ in COLUMNS:
            setattr(self, name, columns.pop(name, None) or array(typecode))
        if columns:
            raise TypeError(f"unknown trace columns: {', '.join(columns)}")
        self._rows: Optional[List[TraceRecord]] = None
        self._program_insts: Optional[int] = None
        self._hot: Optional[tuple] = None
        self._replay: Optional[list] = None

    # ------------------------------------------------------------------
    # The row-view shim.
    # ------------------------------------------------------------------

    def per_row(self, name: str) -> List[int]:
        """Sparse column ``name`` with one entry per row.

        Spread over the rows its :data:`COLUMNS` index names, it reads
        :data:`ABSENT` of that index elsewhere (-1 off the memory rows,
        0 off the freeing rows).
        """
        index = _INDEX[name]
        if index == MEMORY_ROW:
            is_memory = [cls in MEMORY_CLASSES for cls in self.s_cls]
            present = [is_memory[pc] for pc in self.pcs]
        elif index == FREEING_ROW:
            present = [fl & FLAG_FREES for fl in self.flags]
        else:
            raise ValueError(f"{name!r} is not a sparse trace column")
        absent = ABSENT[index]
        entries = iter(getattr(self, name))
        take = entries.__next__
        try:
            spread = [take() if hit else absent for hit in present]
        except StopIteration:
            spread = None
        if spread is None or next(entries, None) is not None:
            # Imported here: the CLI imports this module, never the error.
            from repro.errors import SimulationError

            raise SimulationError(
                f"trace {self.program_name!r} columns are not the columnar "
                "layout"
            )
        return spread

    def _materialize(self) -> List[TraceRecord]:
        opcodes = _OPCODES
        classes = _OP_CLASSES
        s_op = self.s_op
        s_cls = self.s_cls
        s_dst = self.s_dst
        s_srcs = self.s_srcs
        pcs = self.pcs
        successors = chain(islice(pcs, 1, None), (self.end_pc,))
        rows: List[TraceRecord] = []
        append = rows.append
        seq = 0
        for pc, addr, next_pc, free_mask, fl in zip(
            pcs, self.per_row("addrs"), successors,
            self.per_row("free_masks"), self.flags,
        ):
            eliminated = bool(fl & FLAG_ELIMINATED)
            append(
                TraceRecord(
                    seq,
                    pc,
                    opcodes[s_op[pc]],
                    classes[s_cls[pc]],
                    -1 if eliminated else s_dst[pc],
                    unpack_srcs(s_srcs[pc]),
                    addr,
                    bool(fl & FLAG_TAKEN),
                    next_pc,
                    free_mask,
                    eliminated,
                    bool(fl & FLAG_PROGRAM),
                )
            )
            seq += 1
        return rows

    @property
    def records(self) -> List[TraceRecord]:
        """The trace as per-row objects (materialized lazily, then cached).

        A read-only *view*: the attribute cannot be assigned, and mutating
        the returned list in place does not update the columns, which
        remain the storage for ``len``, the statistics, replay, and
        pickling.
        """
        if self._rows is None:
            self._rows = self._materialize()
        return self._rows

    # ------------------------------------------------------------------
    # Container protocol and statistics.
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.pcs)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    @property
    def program_insts(self) -> int:
        """Original program instructions (the paper's IPC numerator)."""
        if self._program_insts is None:
            self._program_insts = sum(
                1 for fl in self.flags if fl & FLAG_PROGRAM
            )
        return self._program_insts

    @property
    def annotation_insts(self) -> int:
        """Dynamic ``kill`` annotation instances (cycle overhead only)."""
        return sum(1 for fl in self.flags if not fl & FLAG_PROGRAM)

    def hot_columns(self) -> tuple:
        """The eight columns as plain lists, for replay loops (``addrs``
        and ``free_masks`` as sparse as they are stored).

        ``array`` indexing boxes a fresh int object on every read; the
        timing core reads each row's columns a dozen times, so it replays
        from list views (cached ints, pointer loads).  Built once per
        trace and memoized — timing sweeps replay the same trace under
        many machine configurations.

        Returns the columns in :data:`COLUMNS` order: ``(pcs, addrs,
        free_masks, flags, s_op, s_cls, s_dst, s_srcs)``.
        """
        if self._hot is None:
            self._hot = tuple(
                list(getattr(self, name)) for name, _, _ in COLUMNS
            )
        return self._hot

    def replay_rows(self) -> list:
        """Per-row ``(pc, flags, dst, packed_srcs, cls, addr, free_mask)``
        tuples, ``addr`` -1 and ``free_mask`` 0 where the row has none.

        The timing core's dispatch stage needs these seven facts for
        every row; pre-joining them turns seven column reads per row
        (two of them through the sparse columns' cursors) into one
        subscript plus a tuple unpack.  Built once per trace and
        memoized, like :meth:`hot_columns`, because timing sweeps replay
        the same trace under many machine configurations.
        """
        if self._replay is None:
            (
                pcs, _addrs, _free_masks, flags,
                _s_op, s_cls, s_dst, s_srcs,
            ) = self.hot_columns()
            self._replay = [
                (pc, fl, s_dst[pc], s_srcs[pc], s_cls[pc], addr, free_mask)
                for pc, fl, addr, free_mask in zip(
                    pcs, flags, self.per_row("addrs"),
                    self.per_row("free_masks"),
                )
            ]
        return self._replay

    def op_histogram(self) -> Dict[Opcode, int]:
        by_code = [0] * len(_OPCODES)
        s_op = self.s_op
        for pc in self.pcs:
            by_code[s_op[pc]] += 1
        return {
            _OPCODES[code]: count
            for code, count in enumerate(by_code)
            if count
        }

    # ------------------------------------------------------------------
    # Pickling (explicit, versioned).
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        state = {
            "format": TRACE_FORMAT,
            "program_name": self.program_name,
            "dvi": self.dvi,
            "completed": self.completed,
            "end_pc": self.end_pc,
        }
        for name, _, _ in COLUMNS:
            state[name] = getattr(self, name)
        return state

    def __setstate__(self, state: dict) -> None:
        # A payload of another format, or missing a field, raises, and
        # the artifact cache heals the file instead of serving it.
        if state["format"] != TRACE_FORMAT:
            raise ValueError(
                f"trace format {state['format']} is not {TRACE_FORMAT}"
            )
        self.__init__(
            state["program_name"], state["dvi"], state["completed"],
            state["end_pc"], **{name: state[name] for name, _, _ in COLUMNS},
        )

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Trace({self.program_name!r}, rows={len(self.pcs)}, "
            f"completed={self.completed})"
        )
