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

The kernel is compiled with the system ``cc`` into a per-user cache
directory, named by a digest of the source, the compiler and the flags,
and loaded from there by every later process.  ``ctypes`` and
``subprocess`` are imported on the first simulation, so importing the
CLI does not pay for them.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from array import array
from dataclasses import fields
from itertools import compress
from pathlib import Path
from typing import Callable, Optional

from repro.errors import SimulationError
from repro.isa.opcodes import NUM_OP_CLASSES, OpClass, Opcode
from repro.sim.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.sim.branch.predictors import build_predictor
from repro.sim.cache.cache import CacheGeometry
from repro.sim.config import MachineConfig
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import COLUMNS, FLAG_TAKEN, Trace

__all__ = ["KERNEL", "KernelLoader", "mispredict_column", "run_kernel", "simulate"]

SOURCE = Path(__file__).with_name("kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")

#: The result vector, in ``kernel.c``'s ``R_*`` order.  All but the
#: last four are PipelineStats fields; those four are cache-state counts
#: the differential tests compare with the oracle's Cache objects.
RESULTS = (
    "cycles", "program_insts", "committed", "dispatched", "eliminated",
    "rename_stall_cycles", "window_full_stall_cycles", "control_insts",
    "mispredicts", "dcache_accesses", "dcache_misses", "icache_accesses",
    "icache_misses", "unmapped_reads", "dvi_unmaps", "min_free_phys",
    "l1d_writebacks", "l2_accesses", "l2_misses", "l2_writebacks",
)
_STATS_FIELDS = RESULTS[:-4]

#: The item sizes ``kernel.c`` assumes for each trace column typecode.
_ITEM_SIZES = {"i": 4, "q": 8, "h": 2, "b": 1, "B": 1}

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

class KernelLoader:
    """Builds ``kernel.c`` once per digest and loads it with ctypes.

    :meth:`load` returns the kernel's entry point, or ``None`` when the
    kernel is unavailable, with :attr:`reason` saying why (no compiler,
    a failed build or load, or array item sizes the kernel does not
    assume).  The outcome is decided once per loader.
    """

    def __init__(self, compiler: str = "cc") -> None:
        self.compiler = compiler
        #: Why the kernel is unavailable (``None`` once it loaded).
        self.reason: Optional[str] = "not loaded yet"
        self._entry: Optional[Callable[..., int]] = None
        self._loaded = False
        self._lock = threading.Lock()

    def load(self) -> Optional[Callable[..., int]]:
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._entry = self._load()
                    self._loaded = True
        return self._entry

    def _load(self) -> Optional[Callable[..., int]]:
        import ctypes
        import shutil

        sizes = {code: array(code).itemsize for code in _ITEM_SIZES}
        if sizes != _ITEM_SIZES:
            self.reason = f"array item sizes {sizes} differ from {_ITEM_SIZES}"
            return None
        compiler = shutil.which(self.compiler)
        if compiler is None:
            self.reason = f"no C compiler found at {self.compiler!r}"
            return None
        source = SOURCE.read_bytes()
        digest = hashlib.sha256(
            b"\0".join([source, os.path.realpath(compiler).encode(),
                        " ".join(FLAGS).encode()])
        ).hexdigest()[:16]
        name = f"ooo-kernel-{digest}.so"
        directory = _user_cache_dir()
        scratch = None
        if directory is None:
            # Build privately: never load a file someone else could plant.
            directory = scratch = Path(tempfile.mkdtemp(prefix="repro-native-"))
        path = directory / name
        try:
            if scratch is not None or not path.exists():
                failure = _build(compiler, source, path)
                if failure is not None:
                    self.reason = failure
                    return None
            entry = ctypes.CDLL(str(path)).repro_ooo_run
        except OSError as error:
            self.reason = f"cannot load {path}: {error}"
            return None
        finally:
            if scratch is not None:
                shutil.rmtree(scratch, ignore_errors=True)
        pointer, size = ctypes.c_void_p, ctypes.c_int64
        entry.argtypes = [
            pointer, size,
            pointer, pointer, pointer, pointer, pointer, size,
            pointer, pointer, pointer, size,
            pointer, size,
        ]
        entry.restype = ctypes.c_int
        self.reason = None
        return entry


def _user_cache_dir() -> Optional[Path]:
    """``$XDG_CACHE_HOME/repro/native``, if it is private and writable."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    if not os.path.isabs(base):
        return None
    directory = Path(base) / "repro" / "native"
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = directory.stat()
    except OSError:
        return None
    if (info.st_uid != os.getuid() or info.st_mode & 0o022
            or not os.access(directory, os.W_OK)):
        return None
    return directory


def _build(compiler: str, source: bytes, path: Path) -> Optional[str]:
    """Compile ``source`` to ``path`` atomically; the failure, or None."""
    import subprocess

    handle, temp = tempfile.mkstemp(dir=path.parent, suffix=".so.tmp")
    os.close(handle)
    try:
        result = subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", temp],
            input=source, capture_output=True,
        )
        if result.returncode != 0:
            output = result.stderr.decode("utf-8", "replace").strip()
            return f"{compiler} failed ({result.returncode}): {output[-500:]}"
        os.replace(temp, path)
        return None
    except OSError as error:
        return f"cannot run {compiler}: {error}"
    finally:
        if os.path.exists(temp):
            os.unlink(temp)


#: The process's loader; ``simulate`` asks it for the kernel.
KERNEL = KernelLoader()


# ----------------------------------------------------------------------
# Running it.
# ----------------------------------------------------------------------

def run_kernel(
    entry: Callable[..., int], config: MachineConfig, trace: Trace,
    column: array,
) -> dict:
    """Every ``RESULTS`` count of one kernel run over ``trace``."""
    import ctypes

    hierarchy = config.hierarchy
    geometry = [
        CacheGeometry(name, size, assoc, hierarchy.line_bytes, 0)
        for name, size, assoc in (
            ("L1I", hierarchy.l1i_size, hierarchy.l1i_assoc),
            ("L1D", hierarchy.l1d_size, hierarchy.l1d_assoc),
            ("L2", hierarchy.l2_size, hierarchy.l2_assoc),
        )
    ]
    values = [
        config.fetch_width, config.decode_width, config.issue_width,
        config.commit_width, config.window_size, config.fetch_queue,
        config.int_alus, config.int_muldiv, config.cache_ports,
        config.phys_regs, config.mispredict_penalty,
        hierarchy.l1_latency, hierarchy.l2_latency, hierarchy.memory_latency,
        hierarchy.line_bytes.bit_length() - 1,
    ]
    for cache in geometry:
        values += [cache.num_sets, cache.assoc]
    values += [config.latencies[OpClass(code)] for code in range(NUM_OP_CLASSES)]
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
    status = entry(
        params, len(values),
        *address[:5], total,
        *address[5:], n_static,
        results, len(RESULTS),
    )
    if status == 1:
        raise SimulationError(
            f"trace {trace.program_name!r} row {results[0]} has an "
            "out-of-range pc, class, register or free mask"
        )
    if status == 2:
        raise MemoryError("the timing kernel could not allocate its state")
    if status != 0:
        raise SimulationError(f"the timing kernel refused its parameters ({status})")
    return dict(zip(RESULTS, results))


def simulate(config: MachineConfig, trace: Trace) -> Optional[PipelineStats]:
    """The kernel's statistics for one run, or ``None`` if it did not load."""
    entry = KERNEL.load()
    if entry is None:
        return None
    counts = run_kernel(entry, config, trace, mispredict_column(trace, config))
    stats = PipelineStats(**{name: counts[name] for name in _STATS_FIELDS})
    stats.annotation_insts = len(trace.pcs) - stats.program_insts
    return stats
