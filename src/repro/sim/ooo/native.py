"""The native timing kernel: ``kernel.c`` built once, loaded with ctypes.

:func:`simulate` runs a trace through ``kernel.c``, a C port of
:meth:`~repro.sim.ooo.core.OutOfOrderCore.run`, and returns the same
:class:`~repro.sim.ooo.stats.PipelineStats`, field for field.  The
Python core stays the oracle: :func:`repro.sim.ooo.core.simulate` falls
back to it whenever :func:`simulate` returns ``None``, and the golden
grid and differential tests hold the two to identical results.

The kernel predicts branches itself, at fetch, as the Python core
does: it ports every predictor named in :data:`PREDICTOR_KINDS`, the
BTB and the RAS, and allocates their state anew in every call.  A
registered predictor missing from that table has no port, so
:func:`simulate` returns ``None`` for it and the caller runs the
Python core.

The kernel is built and loaded by :class:`repro.sim.loader.KernelLoader`
(shared with the functional engine): compiled with the system ``cc``
into a per-user cache directory, once per source digest, and loaded
from there by every later process.  ``ctypes`` and ``subprocess`` are
imported on the first simulation, so importing the CLI does not pay for
them.

The parameter and result vectors are declared once, here
(:data:`PARAMS`, :data:`RESULTS`, :data:`STATUSES`); ``kernel.c`` names
each entry the same, upper-cased behind its prefix, and a test holds
the two to the same names in the same order, as it holds the kernel's
``PK_*`` predictor kinds to :data:`PREDICTOR_KINDS` and its ``OP_*``
codes to :class:`~repro.isa.opcodes.Opcode`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional

from repro.errors import SimulationError
from repro.isa.opcodes import OpClass
from repro.sim.cache.cache import CacheGeometry
from repro.sim.config import MachineConfig
from repro.sim.loader import KernelLoader
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import COLUMNS, PC, ROW, Trace

__all__ = [
    "KERNEL", "PARAMS", "PREDICTOR_KINDS", "RESULTS", "STATUSES",
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


#: The registered predictors ``kernel.c`` ports, in ``PK_*`` order
#: (each name upper-cased, ``-`` as ``_``).
PREDICTOR_KINDS = ("comb", "bimodal", "gshare", "local", "static-taken")


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
    ("predictor_kind",
     lambda config: PREDICTOR_KINDS.index(config.predictor_spec)),
    ("bimodal_entries", lambda config: config.bimodal_entries),
    ("gshare_entries", lambda config: config.gshare_entries),
    ("chooser_entries", lambda config: config.chooser_entries),
    ("history_bits", lambda config: config.history_bits),
    ("local_entries", lambda config: config.local_entries),
    ("local_history_bits", lambda config: config.local_history_bits),
    ("btb_sets", lambda config: config.btb_sets),
    ("btb_assoc", lambda config: config.btb_assoc),
    ("ras_depth", lambda config: config.ras_depth),
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


# ----------------------------------------------------------------------
# Build and load.
# ----------------------------------------------------------------------

_POINTER = "void_p"
_SIZE = "int64"

#: The process's loader; ``simulate`` asks it for the kernel.
KERNEL = KernelLoader(SOURCE, "ooo-kernel", "the native timing kernel", {
    "repro_ooo_run": ("int", [
        _POINTER, _SIZE,
        _POINTER, _POINTER, _SIZE, _POINTER, _SIZE, _POINTER, _SIZE, _SIZE,
        _POINTER, _POINTER, _POINTER, _POINTER, _SIZE,
        _POINTER, _SIZE,
    ]),
})


# ----------------------------------------------------------------------
# Running it.
# ----------------------------------------------------------------------

def run_kernel(library: Any, config: MachineConfig, trace: Trace) -> dict:
    """Every ``RESULTS`` count of one kernel run over ``trace``."""
    import ctypes

    values = [get(config) for _, get in PARAMS]
    params = (ctypes.c_int64 * len(values))(*values)
    results = (ctypes.c_int64 * len(RESULTS))()

    # The kernel takes every column's address in COLUMNS order, a sparse
    # column's length after its address, the row count and end_pc after
    # the dynamic columns, and the pc count after the static ones.  Each
    # typecode is checked here, and each length a count in hand fixes; a
    # sparse column's exact length needs its memory or freeing rows
    # counted, which the kernel does in the pass that checks every row.
    total, n_static = len(trace.pcs), len(trace.s_cls)
    lengths = {ROW: total, PC: n_static}
    dynamic, static = [], []
    for name, typecode, index in COLUMNS:
        column = getattr(trace, name)
        size = len(column)
        sparse = index not in lengths
        if (column.typecode != typecode
                or (size > total if sparse else size != lengths[index])):
            raise _not_columnar(trace)
        arguments = static if index == PC else dynamic
        arguments.append(column.buffer_info()[0])
        if sparse:
            arguments.append(size)
    status = library.repro_ooo_run(
        params, len(values),
        *dynamic, total, trace.end_pc,
        *static, n_static,
        results, len(RESULTS),
    )
    name = STATUSES[status] if 0 <= status < len(STATUSES) else None
    if name == "bad_trace" and results[0] == total:
        raise _not_columnar(trace)
    if name == "bad_trace":
        raise SimulationError(
            f"trace {trace.program_name!r} row {results[0]} has an "
            "out-of-range pc, class, register or free mask"
        )
    if name == "no_memory":
        raise MemoryError("the timing kernel could not allocate its state")
    if name != "ok":
        raise SimulationError(
            f"the timing kernel refused its parameters ({name or status})"
        )
    return dict(zip(RESULTS, results))


def _not_columnar(trace: Trace) -> SimulationError:
    return SimulationError(
        f"trace {trace.program_name!r} columns are not the columnar layout"
    )


def simulate(config: MachineConfig, trace: Trace) -> Optional[PipelineStats]:
    """The kernel's statistics for one run, or ``None`` if it has no port
    of the configured predictor or did not load (warning once)."""
    if config.predictor_spec not in PREDICTOR_KINDS:
        return None
    library = KERNEL.load_or_warn()
    if library is None:
        return None
    counts = run_kernel(library, config, trace)
    stats = PipelineStats(**{name: counts[name] for name in _STATS_FIELDS})
    stats.annotation_insts = len(trace.pcs) - stats.program_insts
    return stats
