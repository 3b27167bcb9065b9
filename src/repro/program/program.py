"""Program container: instructions, labels, data segment, linking.

A :class:`Program` is the unit everything else operates on — the binary
rewriter transforms one, the functional emulator executes one, and the
experiments characterize one.  Control-flow targets are authored as label
strings and resolved to instruction indices by :meth:`Program.link`; most
consumers require a linked program.

Memory layout (byte addresses):

* code starts at address 0; instruction *i* occupies ``[4i, 4i+4)``,
* the data segment starts at :data:`DATA_BASE`,
* the stack starts at :data:`STACK_TOP` and grows down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instruction import INST_BYTES, Instruction

#: First byte address of the data segment.
DATA_BASE = 0x0010_0000

#: Initial stack pointer (grows toward lower addresses).
STACK_TOP = 0x7FFF_F000


class ProgramError(ValueError):
    """A structural problem with a program (bad label, unlinked use, ...)."""


@dataclass(frozen=True)
class ProcedureDecl:
    """A declared procedure: a name and its half-open instruction range."""

    name: str
    start: int
    end: int

    def __contains__(self, index: int) -> bool:
        return self.start <= index < self.end


@dataclass
class Program:
    """A complete guest program.

    Attributes:
        name: Identifier used in reports.
        insts: The instruction list; ``insts[i]`` sits at byte address ``4i``.
        labels: Label name -> instruction index.
        data: Initial data-segment contents, word address -> 32-bit value.
        entry: Label of the first executed instruction.
        procedures: Declared procedure extents (from the builder), used by
            the analyses.  Order follows program layout.
        linked: Whether all control targets have been resolved to indices.
    """

    name: str
    insts: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: Dict[int, int] = field(default_factory=dict)
    entry: str = "main"
    procedures: List[ProcedureDecl] = field(default_factory=list)
    linked: bool = False
    #: Data words that hold *code addresses* (jump/call tables): byte
    #: address -> label whose byte address the word must contain.  A binary
    #: rewriter that moves code must re-resolve these (see
    #: :meth:`apply_relocations`), exactly like relocation entries in a
    #: real object format.
    relocations: List[Tuple[int, str]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Basic queries.
    # ------------------------------------------------------------------

    def __getstate__(self) -> Dict[str, object]:
        # The simulators cache their per-program tables and the native
        # encoding on the instance (repro.sim.functional.program_tables);
        # artifacts and worker IPC ship the program without them, and
        # receivers rebuild them lazily.
        state = self.__dict__.copy()
        state.pop("_tables", None)
        return state

    def __len__(self) -> int:
        return len(self.insts)

    @property
    def code_bytes(self) -> int:
        """Static code size in bytes (the Figure 13 metric)."""
        return len(self.insts) * INST_BYTES

    @property
    def entry_index(self) -> int:
        if self.entry not in self.labels:
            raise ProgramError(f"entry label {self.entry!r} is not defined")
        return self.labels[self.entry]

    def label_at(self, index: int) -> Optional[str]:
        """Some label mapping to instruction ``index``, if any."""
        for name, where in self.labels.items():
            if where == index:
                return name
        return None

    def procedure_at(self, index: int) -> Optional[ProcedureDecl]:
        """The declared procedure containing instruction ``index``, if any."""
        for proc in self.procedures:
            if index in proc:
                return proc
        return None

    def procedure_named(self, name: str) -> ProcedureDecl:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise ProgramError(f"no procedure named {name!r}")

    # ------------------------------------------------------------------
    # Linking.
    # ------------------------------------------------------------------

    def link(self) -> "Program":
        """Resolve all label targets to instruction indices (in place).

        Idempotent; returns ``self`` for chaining.  Raises
        :class:`ProgramError` on undefined labels or out-of-range targets.
        """
        resolved: List[Instruction] = []
        for index, inst in enumerate(self.insts):
            target = inst.target
            if isinstance(target, str):
                if target not in self.labels:
                    raise ProgramError(
                        f"instruction {index} ({inst.op.name}) targets "
                        f"undefined label {target!r}"
                    )
                inst = inst.with_target(self.labels[target])
            elif isinstance(target, int):
                if not 0 <= target < len(self.insts):
                    raise ProgramError(
                        f"instruction {index} targets out-of-range index {target}"
                    )
            resolved.append(inst)
        self.insts = resolved
        self.linked = True
        self.validate()
        return self

    def require_linked(self) -> None:
        if not self.linked:
            raise ProgramError(f"program {self.name!r} must be linked first")

    def validate(self) -> None:
        """Structural sanity checks (labels and procedures in range)."""
        size = len(self.insts)
        for name, index in self.labels.items():
            if not 0 <= index <= size:
                raise ProgramError(f"label {name!r} out of range: {index}")
        for proc in self.procedures:
            if not (0 <= proc.start <= proc.end <= size):
                raise ProgramError(f"procedure {proc.name!r} out of range")

    # ------------------------------------------------------------------
    # Data-segment helpers.
    # ------------------------------------------------------------------

    def set_words(self, addr: int, values: Sequence[int]) -> None:
        """Install ``values`` as consecutive words starting at ``addr``."""
        if addr % 4:
            raise ProgramError(f"unaligned data address: {addr:#x}")
        for offset, value in enumerate(values):
            self.data[addr + 4 * offset] = value & 0xFFFF_FFFF

    # ------------------------------------------------------------------
    # Transformation support (used by the binary rewriter).
    # ------------------------------------------------------------------

    def with_insts(
        self,
        insts: List[Instruction],
        labels: Dict[str, int],
        procedures: List[ProcedureDecl],
        *,
        name: Optional[str] = None,
        linked: bool = False,
    ) -> "Program":
        """A copy of this program with a rewritten text segment."""
        result = Program(
            name=name or self.name,
            insts=list(insts),
            labels=dict(labels),
            data=dict(self.data),
            entry=self.entry,
            procedures=list(procedures),
            linked=linked,
            relocations=list(self.relocations),
        )
        result.apply_relocations()
        return result

    def apply_relocations(self) -> None:
        """Re-resolve jump-table data words against the current labels."""
        for addr, label in self.relocations:
            if label not in self.labels:
                raise ProgramError(
                    f"relocation at {addr:#x} references undefined label {label!r}"
                )
            self.data[addr] = (self.labels[label] * INST_BYTES) & 0xFFFF_FFFF

    def listing(self) -> str:
        """A human-readable disassembly listing with labels."""
        by_index: Dict[int, List[str]] = {}
        for label, index in sorted(self.labels.items(), key=lambda kv: kv[1]):
            by_index.setdefault(index, []).append(label)
        lines: List[str] = []
        for index, inst in enumerate(self.insts):
            for label in by_index.get(index, []):
                lines.append(f"{label}:")
            lines.append(f"  {index * INST_BYTES:#06x}  {inst}")
        return "\n".join(lines)


def call_targets(program: Program) -> Dict[int, Tuple[int, ...]]:
    """Map each direct call-site index to its (single) target index.

    Requires a linked program.  Indirect calls (``jalr``) have no static
    target and are omitted.
    """
    program.require_linked()
    targets: Dict[int, Tuple[int, ...]] = {}
    for index, inst in enumerate(program.insts):
        if inst.is_call and isinstance(inst.target, int):
            targets[index] = (inst.target,)
    return targets
