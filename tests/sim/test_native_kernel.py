"""The native timing kernel against its oracle, the Python core.

* **Differential**: random fuzz and suite programs × five DVI modes ×
  random machine configurations; the kernel must match
  ``OutOfOrderCore.run`` on every ``PipelineStats`` field and on the
  hidden cache state (write-backs, L2 traffic).
* **Metamorphic**: the register-file saturation identity, and the
  accounting identities every run satisfies.
* **The mispredict column**: shared across timing-only knobs, split by
  predictor knobs, dropped when the rows change, never pickled.
* **Robustness**: bad trace indices raise, a missing compiler falls
  back to the oracle, concurrent runs match serial ones, and the build
  never loads a file from a directory others can write.
"""

import os
import pickle
import shutil
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dvi.config import DVIConfig, SRScheme
from repro.rewrite.edvi import insert_edvi
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.cache.hierarchy import HIERARCHIES
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.loader import KernelLoader
from repro.sim.ooo import native
from repro.sim.ooo.core import OutOfOrderCore, simulate
from repro.workloads.fuzz import generate_program
from repro.workloads.suite import get_program

SRC = Path(__file__).resolve().parents[2] / "src"

#: (DVI configuration, runs the E-DVI-rewritten binary).
MODES = [
    (DVIConfig.none(), False),
    (DVIConfig.idvi_only(), False),
    (DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE), True),
    (DVIConfig.full(SRScheme.LVM), True),
    (DVIConfig.full(SRScheme.LVM_STACK), True),
]


@lru_cache(maxsize=8)
def trace_of(source, mode):
    """The trace of ``("fuzz", seed)`` or ``("suite", workload)``."""
    kind, name = source
    program = generate_program(name) if kind == "fuzz" else get_program(name, 1)
    dvi, edvi_binary = MODES[mode]
    if edvi_binary:
        program = insert_edvi(program).program
    return run_program(program, dvi, collect_trace=True).trace


def unloaded(loader, compiler="cc"):
    """A new, unloaded copy of ``loader`` that builds with ``compiler``."""
    return KernelLoader(loader.source, loader.stem, loader.engine,
                        loader.symbols, compiler)


def kernel():
    entry = native.KERNEL.load()
    if entry is None:
        pytest.skip(f"native kernel unavailable: {native.KERNEL.reason}")
    return entry


sources = st.one_of(
    st.tuples(st.just("fuzz"), st.integers(0, 10_000)),
    st.tuples(st.just("suite"), st.sampled_from(["vortex_like", "compress_like"])),
)


@st.composite
def machines(draw):
    config = MachineConfig(
        fetch_width=draw(st.integers(1, 16)),
        decode_width=draw(st.integers(1, 8)),
        issue_width=draw(st.integers(1, 8)),
        commit_width=draw(st.integers(1, 8)),
        window_size=draw(st.integers(4, 128)),
        fetch_queue=draw(st.integers(1, 16)),
        int_alus=draw(st.integers(1, 4)),
        int_muldiv=draw(st.integers(1, 2)),
        cache_ports=draw(st.integers(1, 3)),
        phys_regs=draw(st.integers(32, 128)),
        mispredict_penalty=draw(st.integers(0, 6)),
    ).with_predictor(draw(st.sampled_from(PREDICTORS.names())))
    config = config.with_hierarchy(draw(st.sampled_from(HIERARCHIES.names())))
    line = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    return replace(config, hierarchy=replace(config.hierarchy, line_bytes=line))


def counters(stats):
    fields = asdict(stats)
    del fields["extra"]
    return fields


class TestDifferential:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=sources, mode=st.integers(0, len(MODES) - 1),
           config=machines())
    def test_kernel_matches_oracle(self, source, mode, config):
        entry = kernel()
        trace = trace_of(source, mode)
        core = OutOfOrderCore(config, trace)
        oracle = core.run()
        hierarchy = core.hierarchy
        expected = {
            **counters(oracle),
            "l1d_writebacks": hierarchy.l1d.writebacks,
            "l2_accesses": hierarchy.l2.accesses,
            "l2_misses": hierarchy.l2.misses,
            "l2_writebacks": hierarchy.l2.writebacks,
        }
        column = native.mispredict_column(trace, config)
        counts = native.run_kernel(entry, config, trace, column)
        assert counts == {name: expected[name] for name in native.RESULTS}
        stats = simulate(config, trace)
        assert stats == oracle
        # Accounting identities of every run.
        assert (stats.dispatched + stats.eliminated + stats.annotation_insts
                == len(trace))
        assert stats.committed == stats.dispatched
        assert stats.cycles * config.commit_width >= stats.committed


class TestMetamorphic:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(source=sources, mode=st.integers(0, len(MODES) - 1),
           window=st.integers(4, 64), width=st.integers(1, 8))
    def test_saturation_identity(self, source, mode, window, width):
        """Past the first size with no rename stall, a larger register
        file changes nothing but the free-list low-water mark."""
        kernel()
        trace = trace_of(source, mode)
        base = replace(MachineConfig.micro97(), window_size=window,
                       decode_width=width, issue_width=width,
                       commit_width=width)
        sizes = range(32, 32 + window + 9, 4)
        runs = [(size, simulate(base.with_phys_regs(size), trace))
                for size in sizes]
        saturated = [
            (size, stats) for size, stats in runs
            if stats.rename_stall_cycles == 0
        ]
        assert saturated, "a window-sized free list never stalls rename"
        first_size, first = saturated[0]
        for size, stats in runs:
            if size <= first_size:
                continue
            assert stats.min_free_phys == first.min_free_phys + size - first_size
            assert replace(stats, min_free_phys=0) == replace(
                first, min_free_phys=0)


class TestMispredictColumn:
    def test_timing_knobs_share_one_column(self):
        trace = trace_of(("suite", "vortex_like"), 1)
        base = MachineConfig.micro97()
        column = native.mispredict_column(trace, base)
        for config in (base.with_phys_regs(40), base.with_icache(1024),
                       replace(base, window_size=16, cache_ports=1)):
            assert native.mispredict_column(trace, config) is column

    def test_predictor_knobs_split_the_column(self):
        trace = trace_of(("suite", "vortex_like"), 1)
        base = MachineConfig.micro97()
        column = native.mispredict_column(trace, base)
        for config in (replace(base, bimodal_entries=256),
                       replace(base, btb_sets=64),
                       base.with_predictor("static-taken")):
            assert native.mispredict_column(trace, config) is not column

    def test_memo_is_not_pickled(self):
        trace = run_program(get_program("vortex_like", 1), DVIConfig.none(),
                            collect_trace=True).trace
        before = pickle.dumps(trace)
        native.mispredict_column(trace, MachineConfig.micro97())
        assert pickle.dumps(trace) == before
        assert pickle.loads(before)._mispredicts is None

    def test_column_counts_the_oracle_mispredicts(self):
        trace = trace_of(("suite", "compress_like"), 4)
        for name in PREDICTORS.names():
            config = MachineConfig.micro97().with_predictor(name)
            oracle = OutOfOrderCore(config, trace).run()
            assert sum(native.mispredict_column(trace, config)) == oracle.mispredicts


_BAD_TRACES = r"""
from array import array
from repro.dvi.config import DVIConfig
from repro.errors import SimulationError
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo import native
from repro.sim.trace import FLAG_FREES
from repro.workloads.suite import get_program

config = MachineConfig.micro97()
entry = native.KERNEL.load()
assert entry is not None, native.KERNEL.reason
program = get_program("vortex_like", 1)


def fresh():
    trace = run_program(program, DVIConfig.none(), collect_trace=True).trace
    for name in ("pcs", "flags", "free_masks", "s_dst", "s_srcs"):
        column = getattr(trace, name)
        setattr(trace, name, array(column.typecode, column))
    return trace


def pc_past_the_table(t):
    t.pcs[7] = len(t.s_cls) + 3

def negative_pc(t):
    t.pcs[7] = -1

def destination_32(t):
    t.s_dst[t.pcs[7]] = 32

def destination_r0(t):
    t.s_dst[t.pcs[7]] = 0

def source_32(t):
    t.s_srcs[t.pcs[7]] = 33

def second_source_32(t):
    t.s_srcs[t.pcs[7]] = 2 | 33 << 6

def free_mask_bit_40(t):
    t.flags[7] |= FLAG_FREES
    t.free_masks[7] = 1 << 40

def free_mask_bit_0(t):
    t.flags[7] |= FLAG_FREES
    t.free_masks[7] = 1

def short_column(t):
    t.free_masks = t.free_masks[:-1]

def foreign_typecode(t):
    t.addrs = array("l", t.addrs)


for corrupt in (pc_past_the_table, negative_pc, destination_32,
                destination_r0, source_32, second_source_32,
                free_mask_bit_40, free_mask_bit_0, short_column,
                foreign_typecode):
    trace = fresh()
    column = array("B", bytes(len(trace)))
    corrupt(trace)
    # Through the kernel's own checks, then through simulate().
    for run in (lambda: native.run_kernel(entry, config, trace, column),
                lambda: native.simulate(config, trace)):
        try:
            run()
        except SimulationError:
            pass
        else:
            raise SystemExit(f"{corrupt.__name__}: no SimulationError")
    print(corrupt.__name__)
"""


class TestRobustness:
    def test_kernel_loads_wherever_a_compiler_exists(self):
        """CI must exercise the kernel, not only the fallback."""
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this machine")
        assert native.KERNEL.load() is not None, native.KERNEL.reason

    def test_bad_trace_indices_raise(self):
        """In a subprocess, so an out-of-bounds access shows as a crash."""
        kernel()
        result = subprocess.run(
            [sys.executable, "-c", _BAD_TRACES],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.split()) == 10

    def test_missing_compiler_falls_back_to_the_oracle(self, monkeypatch):
        loader = unloaded(native.KERNEL, compiler="/nonexistent/cc")
        monkeypatch.setattr(native, "KERNEL", loader)
        trace = trace_of(("suite", "vortex_like"), 2)
        config = MachineConfig.micro97().with_phys_regs(40)
        with pytest.warns(RuntimeWarning, match="native timing kernel"):
            stats = simulate(config, trace)
        assert stats == OutOfOrderCore(config, trace).run()
        assert loader.load() is None
        assert "/nonexistent/cc" in loader.reason

    def test_concurrent_runs_match_serial_runs(self):
        """More threads than cores, racing to fill one trace's memo and
        overlapping inside the kernel, which runs without the GIL."""
        kernel()
        configs = [MachineConfig.micro97().with_phys_regs(size)
                   for size in (36, 48)]
        serial = [simulate(config, trace_of(("suite", "vortex_like"), 1))
                  for config in configs]
        trace = run_program(get_program("vortex_like", 1), DVIConfig.idvi_only(),
                            collect_trace=True).trace
        results = [[] for _ in range(4)]
        start = threading.Barrier(len(results))

        def worker(index):
            start.wait()
            for step in range(6):
                config = configs[(index + step) % 2]
                results[index].append((config, simulate(config, trace)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for runs in results:
            assert len(runs) == 6
            for config, stats in runs:
                assert stats == serial[configs.index(config)]
        assert len(trace._mispredicts) == 1


class TestBuildDirectory:
    def test_a_private_build_is_reused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert unloaded(native.KERNEL).load() is not None
        directory = tmp_path / "repro" / "native"
        [built] = directory.glob("ooo-kernel-*.so")
        assert directory.stat().st_mode & 0o777 == 0o700
        stamp = built.stat().st_mtime_ns
        assert unloaded(native.KERNEL).load() is not None
        assert built.stat().st_mtime_ns == stamp
        assert list(directory.iterdir()) == [built]

    def test_a_shared_directory_is_never_loaded_from(self, tmp_path,
                                                     monkeypatch):
        private = tmp_path / "private"
        monkeypatch.setenv("XDG_CACHE_HOME", str(private))
        assert unloaded(native.KERNEL).load() is not None
        [built] = (private / "repro" / "native").glob("ooo-kernel-*.so")
        shared = tmp_path / "shared" / "repro" / "native"
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        planted = shared / built.name
        planted.write_bytes(b"not a shared object")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "shared"))
        loader = unloaded(native.KERNEL)
        assert loader.load() is not None, loader.reason
        assert list(shared.iterdir()) == [planted]
