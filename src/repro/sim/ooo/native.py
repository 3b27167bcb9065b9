"""The native timing kernel: ``kernel.c`` built once, loaded with ctypes.

:func:`simulate` runs a trace through ``kernel.c``, a C port of
:meth:`~repro.sim.ooo.core.OutOfOrderCore.run`, and returns the same
:class:`~repro.sim.ooo.stats.PipelineStats`, field for field.  The
Python core stays the oracle: :func:`repro.sim.ooo.core.simulate` falls
back to it whenever the kernel did not load, and the golden grid and
differential tests hold the two to identical results.

Branch prediction stays in Python.  Predictor, BTB and RAS state
advance only at fetch, in trace order, and fetch predicts every control
row exactly once (an I-cache miss stops fetch *before* the row is
consumed, and the refetch finds ``last_line`` already matching, so it
does not probe again).  The outcome is therefore a pure function of the
trace and the predictor configuration: :func:`mispredict_column`
computes it once per trace and predictor configuration, memoized on the
trace, and every regfile, window, port and I-cache cell shares it.

The kernel is built and loaded by :class:`repro.sim.loader.KernelLoader`
(shared with the functional engine): compiled with the system ``cc``
into a per-user cache directory, once per source digest, and loaded
from there by every later process.  ``ctypes`` and ``subprocess`` are
imported on the first simulation, so importing the CLI does not pay for
them.

The parameter and result vectors are declared once, here
(:data:`PARAMS`, :data:`RESULTS`, :data:`STATUSES`); ``kernel.c`` names
each entry the same, upper-cased behind its prefix, and a test holds
the two to the same names in the same order.
"""

from __future__ import annotations

from array import array
from dataclasses import fields
from itertools import compress
from pathlib import Path
from typing import Any, Optional

from repro.errors import SimulationError
from repro.isa.opcodes import OpClass, Opcode
from repro.sim.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.sim.branch.predictors import build_predictor
from repro.sim.cache.cache import CacheGeometry
from repro.sim.config import MachineConfig
from repro.sim.loader import KernelLoader
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import COLUMNS, FLAG_TAKEN, Trace

__all__ = [
    "KERNEL", "PARAMS", "RESULTS", "STATUSES", "mispredict_column",
    "run_kernel", "simulate",
]

SOURCE = Path(__file__).with_name("kernel.c")


def _geometry(config: MachineConfig, level: str) -> CacheGeometry:
    """One cache level's geometry, validated as the oracle's is."""
    hierarchy = config.hierarchy
    return CacheGeometry(
        level.upper(), getattr(hierarchy, f"{level}_size"),
        getattr(hierarchy, f"{level}_assoc"), hierarchy.line_bytes, 0,
    )


def _latency(cls: OpClass) -> tuple:
    return f"latency_{cls.name.lower()}", lambda config: config.latencies[cls]


#: The parameter vector (``P_*``): its fields and how to read each off
#: a MachineConfig.
PARAMS = (
    ("fetch_width", lambda config: config.fetch_width),
    ("decode_width", lambda config: config.decode_width),
    ("issue_width", lambda config: config.issue_width),
    ("commit_width", lambda config: config.commit_width),
    ("window_size", lambda config: config.window_size),
    ("fetch_queue", lambda config: config.fetch_queue),
    ("int_alus", lambda config: config.int_alus),
    ("int_muldiv", lambda config: config.int_muldiv),
    ("cache_ports", lambda config: config.cache_ports),
    ("phys_regs", lambda config: config.phys_regs),
    ("mispredict_penalty", lambda config: config.mispredict_penalty),
    ("l1_latency", lambda config: config.hierarchy.l1_latency),
    ("l2_latency", lambda config: config.hierarchy.l2_latency),
    ("memory_latency", lambda config: config.hierarchy.memory_latency),
    ("line_shift",
     lambda config: config.hierarchy.line_bytes.bit_length() - 1),
    ("l1i_sets", lambda config: _geometry(config, "l1i").num_sets),
    ("l1i_assoc", lambda config: _geometry(config, "l1i").assoc),
    ("l1d_sets", lambda config: _geometry(config, "l1d").num_sets),
    ("l1d_assoc", lambda config: _geometry(config, "l1d").assoc),
    ("l2_sets", lambda config: _geometry(config, "l2").num_sets),
    ("l2_assoc", lambda config: _geometry(config, "l2").assoc),
    # One latency per op class, in OpClass order.
    *map(_latency, OpClass),
)

#: The result vector (``R_*``).  All but the last four are
#: PipelineStats fields; those four are cache-state counts the
#: differential tests compare with the oracle's Cache objects.
RESULTS = (
    "cycles", "program_insts", "committed", "dispatched", "eliminated",
    "rename_stall_cycles", "window_full_stall_cycles", "control_insts",
    "mispredicts", "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "unmapped_reads", "dvi_unmaps", "min_free_phys",
    "l1d_writebacks", "l2_accesses", "l2_misses", "l2_writebacks",
)
_STATS_FIELDS = RESULTS[:-4]

#: ``kernel.c``'s return codes (``ST_*``).
STATUSES = ("ok", "bad_trace", "no_memory", "bad_params")

#: The trace columns ``kernel.c`` reads, in its argument order: the
#: dynamic ones (the mispredict column follows them), then the static.
_KERNEL_DYNAMIC = ("pcs", "addrs", "free_masks", "flags")
_KERNEL_STATIC = ("s_cls", "s_dst", "s_srcs")
_TYPECODES = dict(COLUMNS)

#: MachineConfig fields the predictor, BTB and RAS never read.  Every
#: other field keys the mispredict column, so a field added later can
#: only split the memo, never hand back a stale column.
_TIMING_ONLY = frozenset({
    "fetch_width", "decode_width", "issue_width", "commit_width",
    "window_size", "fetch_queue", "int_alus", "int_muldiv", "cache_ports",
    "phys_regs", "mispredict_penalty", "hierarchy", "latencies",
    "hierarchy_spec",
})

_BRANCH = int(OpClass.BRANCH)
_JUMP = int(OpClass.JUMP)
_OP_J = int(Opcode.J)
_OP_JAL = int(Opcode.JAL)
_OP_JALR = int(Opcode.JALR)


# ----------------------------------------------------------------------
# The mispredict column.
# ----------------------------------------------------------------------

def mispredict_column(trace: Trace, config: MachineConfig) -> array:
    """Per-row 1/0: fetch mispredicts this control row (``array('B')``).

    Memoized on ``trace`` under every MachineConfig field the timing
    stages alone read left out, so configurations that differ only in
    those share one column object.
    """
    key = tuple(
        getattr(config, field.name) for field in fields(config)
        if field.name not in _TIMING_ONLY
    )
    memo = trace._mispredicts
    if memo is None:
        memo = trace._mispredicts = {}
    column = memo.get(key)
    if column is None:
        column = memo[key] = _predict(trace, config)
    return column


def _predict(trace: Trace, config: MachineConfig) -> array:
    """The fetch stage's prediction logic over the control rows, in order."""
    pcs, s_cls, s_op = trace.pcs, trace.s_cls, trace.s_op
    if pcs and (min(pcs) < 0 or max(pcs) >= len(s_cls)):
        raise SimulationError(
            f"trace {trace.program_name!r} has a pc outside its "
            f"{len(s_cls)}-entry static table"
        )
    predict_and_update = build_predictor(config).predict_and_update
    btb = BranchTargetBuffer(config.btb_sets, config.btb_assoc)
    ras = ReturnAddressStack(config.ras_depth)
    btb_lookup, btb_insert = btb.lookup, btb.insert
    flags, end_pc, last = trace.flags, trace.end_pc, len(pcs) - 1
    is_control = [code == _BRANCH or code == _JUMP for code in s_cls]
    column = array("B", bytes(len(pcs)))
    for row in compress(range(len(pcs)), map(is_control.__getitem__, pcs)):
        pc = pcs[row]
        taken = flags[row] & FLAG_TAKEN
        next_pc = pcs[row + 1] if row < last else end_pc
        if s_cls[pc] == _BRANCH:
            mispredicted = not predict_and_update(pc, taken)
            if taken:
                if not mispredicted and btb_lookup(pc) != next_pc:
                    mispredicted = True
                btb_insert(pc, next_pc)
        else:
            op = s_op[pc]
            if op == _OP_J:
                mispredicted = False
            elif op == _OP_JAL:
                ras.push(pc + 1)
                mispredicted = False
            elif op == _OP_JALR:
                ras.push(pc + 1)
                mispredicted = btb_lookup(pc) != next_pc
                btb_insert(pc, next_pc)
            else:
                # jr: predict through the return stack.
                mispredicted = ras.pop() != next_pc
        if mispredicted:
            column[row] = 1
    return column


# ----------------------------------------------------------------------
# Build and load.
# ----------------------------------------------------------------------

_POINTER = "void_p"
_SIZE = "int64"

#: The process's loader; ``simulate`` asks it for the kernel.
KERNEL = KernelLoader(SOURCE, "ooo-kernel", "the native timing kernel", {
    "repro_ooo_run": ("int", [
        _POINTER, _SIZE,
        _POINTER, _POINTER, _POINTER, _POINTER, _POINTER, _SIZE,
        _POINTER, _POINTER, _POINTER, _SIZE,
        _POINTER, _SIZE,
    ]),
})


# ----------------------------------------------------------------------
# Running it.
# ----------------------------------------------------------------------

def run_kernel(
    library: Any, config: MachineConfig, trace: Trace, column: array,
) -> dict:
    """Every ``RESULTS`` count of one kernel run over ``trace``."""
    import ctypes

    values = [get(config) for _, get in PARAMS]
    params = (ctypes.c_int64 * len(values))(*values)
    results = (ctypes.c_int64 * len(RESULTS))()

    dynamic = [getattr(trace, name) for name in _KERNEL_DYNAMIC] + [column]
    static = [getattr(trace, name) for name in _KERNEL_STATIC]
    typecodes = ([_TYPECODES[name] for name in _KERNEL_DYNAMIC] + ["B"]
                 + [_TYPECODES[name] for name in _KERNEL_STATIC])
    total, n_static = len(trace.pcs), len(trace.s_cls)
    if (any(len(col) != total for col in dynamic)
            or any(len(col) != n_static for col in static)
            or [col.typecode for col in dynamic + static] != typecodes):
        raise SimulationError(
            f"trace {trace.program_name!r} columns are not the columnar layout"
        )
    address = [col.buffer_info()[0] for col in dynamic + static]
    status = library.repro_ooo_run(
        params, len(values),
        *address[:5], total,
        *address[5:], n_static,
        results, len(RESULTS),
    )
    name = STATUSES[status] if 0 <= status < len(STATUSES) else None
    if name == "bad_trace":
        raise SimulationError(
            f"trace {trace.program_name!r} row {results[0]} has an "
            "out-of-range pc, class, register or free mask"
        )
    if name == "no_memory":
        raise MemoryError("the timing kernel could not allocate its state")
    if name != "ok":
        raise SimulationError(f"the timing kernel refused its parameters ({status})")
    return dict(zip(RESULTS, results))


def simulate(config: MachineConfig, trace: Trace) -> Optional[PipelineStats]:
    """The kernel's statistics for one run, or ``None`` if it did not load
    (warning once)."""
    library = KERNEL.load_or_warn()
    if library is None:
        return None
    counts = run_kernel(library, config, trace, mispredict_column(trace, config))
    stats = PipelineStats(**{name: counts[name] for name in _STATS_FIELDS})
    stats.annotation_insts = len(trace.pcs) - stats.program_insts
    return stats
