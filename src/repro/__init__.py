"""repro: a reproduction of "Exploiting Dead Value Information" (MICRO-30, 1997).

The public API re-exports the pieces a downstream user needs to author or
rewrite programs, run them functionally, time them on the out-of-order
model, and regenerate every figure of the paper's evaluation.  See
README.md for a tour and DESIGN.md for the system inventory.

Each name in ``__all__`` is imported from its defining module the first
time it is used (a PEP 562 module ``__getattr__``), so ``import repro``
loads none of those modules until one of their names is asked for.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Defining module -> the public names it supplies.
_SOURCES = {
    "repro.dvi.config": ("DVIConfig", "SRScheme"),
    "repro.dvi.engine": ("DVIEngine",),
    "repro.dvi.lvm": ("LiveValueMask",),
    "repro.dvi.lvm_stack": ("LVMStack",),
    "repro.errors": ("DVIViolationError", "ReproError", "SimulationError"),
    "repro.isa.abi": ("ABI", "DEFAULT_ABI"),
    "repro.isa.instruction": ("Instruction",),
    "repro.isa.opcodes": ("Opcode",),
    "repro.program.assembler": ("assemble",),
    "repro.program.builder": ("ProgramBuilder",),
    "repro.program.disassembler": ("disassemble",),
    "repro.program.program": ("Program",),
    "repro.rewrite.edvi": ("insert_edvi", "strip_edvi"),
    "repro.rewrite.verify": ("check_equivalence", "verify_dvi"),
    "repro.sim.config": ("MachineConfig",),
    "repro.sim.functional": ("run_program",),
    "repro.sim.ooo.core": ("simulate",),
    "repro.sim.ooo.stats": ("PipelineStats",),
    "repro.sim.result": ("FunctionalResult",),
    "repro.sim.trace": ("Trace",),
    "repro.timing.regfile": ("RegFileTimingModel",),
    "repro.timing.system": ("performance_curves",),
}
_HOME = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
