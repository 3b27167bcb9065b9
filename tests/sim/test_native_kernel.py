"""The native timing kernel against its oracle, the Python core.

* **Differential**: random fuzz and suite programs × five DVI modes ×
  random machine configurations, predictor and BTB/RAS geometry,
  op-class latencies and the L1 latency included (zero latencies too);
  the kernel must match ``OutOfOrderCore.run`` on every
  ``PipelineStats`` field and on the hidden cache state (write-backs,
  L2 traffic).
* **Metamorphic**: the register-file saturation identity, and the
  accounting identities every run satisfies.
* **Prediction**: every registered predictor has a kernel port that
  mispredicts where the oracle does, down to a BTB and a RAS small
  enough to overflow, and a predictor without a port runs on the
  Python core.
* **Robustness**: bad trace indices and predictor geometries raise, a
  missing compiler falls back to the oracle, concurrent runs match
  serial ones, and the build never loads a file from a directory others
  can write.
"""

import os
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict, replace
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dvi.config import DVIConfig, SRScheme
from repro.isa.opcodes import OpClass
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
    st.tuples(st.just("suite"),
              st.sampled_from(["vortex_like", "compress_like", "li_like"])),
)


table_sizes = st.integers(0, 8).map(lambda bits: 1 << bits)


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
        bimodal_entries=draw(table_sizes),
        gshare_entries=draw(table_sizes),
        chooser_entries=draw(table_sizes),
        local_entries=draw(table_sizes),
        history_bits=draw(st.integers(1, 12)),
        local_history_bits=draw(st.integers(1, 10)),
        btb_sets=draw(st.sampled_from([1, 2, 4, 8, 16, 64, 512])),
        btb_assoc=draw(st.integers(1, 4)),
        ras_depth=draw(st.integers(1, 8)),
        # A zero latency lets a consumer issue in its producer's cycle.
        latencies=draw(st.fixed_dictionaries(
            {cls: st.integers(0, 12) for cls in OpClass})),
    ).with_predictor(draw(st.sampled_from(PREDICTORS.names())))
    config = config.with_hierarchy(draw(st.sampled_from(HIERARCHIES.names())))
    return replace(config, hierarchy=replace(
        config.hierarchy,
        line_bytes=draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
        l1_latency=draw(st.integers(0, 3)),
    ))


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
        counts = native.run_kernel(entry, config, trace)
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


class TestPrediction:
    def test_every_registered_predictor_has_a_port(self):
        """So no in-tree predictor silently runs on the Python core."""
        assert set(PREDICTORS.names()) <= set(native.PREDICTOR_KINDS)

    def test_kernel_matches_the_oracle_under_every_predictor(self):
        kernel()
        trace = trace_of(("suite", "compress_like"), 4)
        for name in PREDICTORS.names():
            config = MachineConfig.micro97().with_predictor(name)
            oracle = OutOfOrderCore(config, trace).run()
            assert simulate(config, trace).mispredicts == oracle.mispredicts

    @pytest.mark.parametrize("workload", ["vortex_like", "li_like"])
    @pytest.mark.parametrize("name", PREDICTORS.names())
    def test_a_small_btb_and_ras_evict_as_the_oracle_does(self, name,
                                                          workload):
        """vortex_like overflows a 4-set, 2-way BTB, and li_like, whose
        calls nest 9 deep, a 2-deep RAS; the default 512 x 4 BTB and
        32-deep RAS never overflow on these programs."""
        kernel()
        trace = trace_of(("suite", workload), 0)
        config = replace(MachineConfig.micro97().with_predictor(name),
                         btb_sets=4, btb_assoc=2, ras_depth=2)
        assert simulate(config, trace) == OutOfOrderCore(config, trace).run()

    def test_a_predictor_without_a_port_runs_on_the_python_core(
            self, monkeypatch):
        kernel()
        monkeypatch.setattr(native, "PREDICTOR_KINDS", ("comb",))
        trace = trace_of(("suite", "vortex_like"), 1)
        config = MachineConfig.micro97().with_predictor("local")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert native.simulate(config, trace) is None
            stats = simulate(config, trace)
        assert stats == OutOfOrderCore(config, trace).run()


_BAD_TRACES = r"""
from array import array
from repro.dvi.config import DVIConfig
from repro.errors import SimulationError
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo import native
from repro.workloads.suite import get_program

config = MachineConfig.micro97()
entry = native.KERNEL.load()
assert entry is not None, native.KERNEL.reason
program = get_program("vortex_like", 1)
ROW = "out-of-range"
LAYOUT = "not the columnar layout"


def fresh():
    # I-DVI frees registers at every call and return.
    trace = run_program(program, DVIConfig.idvi_only(),
                        collect_trace=True).trace
    for name in ("pcs", "addrs", "flags", "free_masks", "s_dst", "s_srcs"):
        column = getattr(trace, name)
        setattr(trace, name, array(column.typecode, column))
    assert trace.addrs and trace.free_masks
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

def free_mask_bit_0(t):
    t.free_masks[len(t.free_masks) // 2] |= 1

def one_address_too_few(t):
    t.addrs = t.addrs[:-1]

def one_address_too_many(t):
    t.addrs.append(0x1000)

def one_mask_too_few(t):
    t.free_masks = t.free_masks[:-1]

def one_mask_too_many(t):
    t.free_masks.append(2)

def short_column(t):
    t.flags = t.flags[:-1]

def foreign_typecode(t):
    t.addrs = array("q", t.addrs)


for corrupt, text in (
        (pc_past_the_table, ROW), (negative_pc, ROW), (destination_32, ROW),
        (destination_r0, ROW), (source_32, ROW), (second_source_32, ROW),
        (free_mask_bit_0, ROW), (one_address_too_few, LAYOUT),
        (one_address_too_many, LAYOUT), (one_mask_too_few, LAYOUT),
        (one_mask_too_many, LAYOUT), (short_column, LAYOUT),
        (foreign_typecode, LAYOUT)):
    trace = fresh()
    corrupt(trace)
    # Through the kernel's own checks, then through simulate().
    for run in (lambda: native.run_kernel(entry, config, trace),
                lambda: native.simulate(config, trace)):
        try:
            run()
        except SimulationError as error:
            if text not in str(error):
                raise SystemExit(f"{corrupt.__name__}: {error}")
        else:
            raise SystemExit(f"{corrupt.__name__}: no SimulationError")
    print(corrupt.__name__)
"""


_BAD_GEOMETRIES = r"""
from repro.dvi.config import DVIConfig
from repro.errors import SimulationError
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo import native
from repro.workloads.suite import get_program

entry = native.KERNEL.load()
assert entry is not None, native.KERNEL.reason
trace = run_program(get_program("vortex_like", 1), DVIConfig.none(),
                    collect_trace=True).trace

for predictor, field, value in (
        ("comb", "btb_sets", 100), ("comb", "btb_assoc", 0),
        ("comb", "ras_depth", 0), ("comb", "bimodal_entries", 1000),
        ("comb", "gshare_entries", 1000), ("comb", "chooser_entries", 0),
        ("comb", "history_bits", 0), ("bimodal", "bimodal_entries", 3),
        ("gshare", "history_bits", -1), ("local", "local_entries", 1000),
        ("local", "local_history_bits", 63)):
    config = MachineConfig.micro97().with_predictor(predictor)
    object.__setattr__(config, field, value)  # past MachineConfig's checks
    try:
        native.run_kernel(entry, config, trace)
    except SimulationError as error:
        assert str(error).endswith("(bad_params)"), error
        print(f"{predictor}:{field}")
    else:
        raise SystemExit(f"{predictor} {field}={value}: no SimulationError")
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
        assert result.returncode == 0, result.stderr + result.stdout
        assert len(result.stdout.split()) == 13

    def test_bad_predictor_geometry_raises(self):
        """The kernel refuses a predictor geometry it cannot index, even
        one that got past MachineConfig; in a subprocess, as above."""
        kernel()
        result = subprocess.run(
            [sys.executable, "-c", _BAD_GEOMETRIES],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.split()) == 11

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
        """More threads than cores on one trace, overlapping inside the
        kernel, which runs without the GIL on predictor state of its
        own call."""
        kernel()
        configs = [MachineConfig.micro97().with_phys_regs(36),
                   MachineConfig.micro97().with_phys_regs(48)
                   .with_predictor("local")]
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
