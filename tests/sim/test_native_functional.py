"""The native functional engine against its oracle, the per-pc Python engine.

* **Pickle identity**: fuzz programs × eight DVI configurations ×
  {trace, no trace, live histogram with and without trace} × step cuts
  (0 and 1 included), and every registered workload: the native result
  must pickle to the Python engine's bytes.
* **Instruction soup**: hypothesis draws raw programs of any opcode,
  registers 0-31, in-range targets, small and 16-bit immediates and
  random kill masks; both engines return the same result pickle or
  raise SimulationError with the same text.
* **Chunks and the scheduler**: a chunked run equals one run, execute
  after a halt does nothing, and Figure 12's preemptive mix gives
  identical ScheduleResults on both engines.
* **Fallback**: a field that does not encode runs on the Python engine,
  and so does every run when the compiler is missing, which warns once
  per engine.
* **Robustness**: concurrent runs match serial ones, and invalid
  encodings fed to the C entry points return their error status.
"""

import dataclasses
import os
import pickle
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dvi.config import DVIConfig, SRScheme
from repro.errors import SimulationError
from repro.experiments.fig12_context_switch import QUANTUM
from repro.isa import registers as regs
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.program.builder import ProgramBuilder
from repro.program.program import DATA_BASE, Program
from repro.rewrite.edvi import insert_edvi
from repro.sim import functional, functional_native
from repro.sim.config import MachineConfig
from repro.sim.functional import FunctionalSimulator, run_program, simulator
from repro.sim.functional_native import NativeFunctionalSimulator
from repro.sim.loader import KernelLoader
from repro.sim.ooo import core, native
from repro.threads import scheduler
from repro.threads.scheduler import RoundRobinScheduler
from repro.workloads.common import REGISTRY
from repro.workloads.fuzz import FuzzConfig, generate_program
from repro.workloads.suite import get_program

SRC = Path(__file__).resolve().parents[2] / "src"

#: The DVI configuration space of test_differential.py.
DVI_CONFIGS = [
    DVIConfig.none(),
    DVIConfig.idvi_only(),
    DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE),
    DVIConfig.full(SRScheme.LVM),
    DVIConfig.full(SRScheme.LVM_STACK),
    dataclasses.replace(DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=1),
    dataclasses.replace(DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=2),
    dataclasses.replace(
        DVIConfig.full(SRScheme.LVM_STACK), lvm_stack_depth=None
    ),
]
_IDS = [f"{c.label()}-{c.scheme.name}-d{c.lvm_stack_depth}" for c in DVI_CONFIGS]

#: {trace, no trace, live histogram with and without trace}.
MODES = [
    dict(collect_trace=True),
    dict(collect_trace=False),
    dict(collect_trace=True, collect_live_hist=True),
    dict(collect_trace=False, collect_live_hist=True),
]


def engine():
    library = functional_native.ENGINE.load()
    if library is None:
        pytest.skip("native functional engine unavailable: "
                    f"{functional_native.ENGINE.reason}")
    return library


def outcome(sim) -> object:
    """The pickled result of ``sim.run()``, or the SimulationError text."""
    try:
        return pickle.dumps(sim.run())
    except SimulationError as error:
        return f"SimulationError: {error}"


def both(program, dvi, **kwargs):
    """(native outcome, Python engine outcome) of one run."""
    engine()
    sim = functional_native.native_simulator(program, dvi, **kwargs)
    assert isinstance(sim, NativeFunctionalSimulator)
    return outcome(sim), outcome(FunctionalSimulator(program, dvi, **kwargs))


def binary(program, dvi):
    return insert_edvi(program).program if dvi.use_edvi else program


def unloaded(loader, compiler="cc"):
    """A new, unloaded copy of ``loader`` that builds with ``compiler``."""
    return KernelLoader(loader.source, loader.stem, loader.engine,
                        loader.symbols, compiler)


class TestPickleIdentity:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dvi", DVI_CONFIGS, ids=_IDS)
    def test_fuzz_programs(self, seed, dvi):
        program = binary(generate_program(seed, FuzzConfig(n_procs=4)), dvi)
        rows = len(run_program(program, dvi).trace)
        cuts = [0, 1, *random.Random(seed).sample(range(2, rows), 2), 200_000]
        for mode in MODES:
            for cut in cuts:
                fast, oracle = both(program, dvi, max_steps=cut, **mode)
                assert fast == oracle, (mode, cut)

    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_registered_workloads(self, name):
        for dvi in (DVIConfig.none(), DVIConfig.full(SRScheme.LVM_STACK)):
            program = binary(get_program(name, 1), dvi)
            fast, oracle = both(program, dvi)
            assert fast == oracle
        dvi = DVIConfig.idvi_only()
        fast, oracle = both(get_program(name, 1), dvi, collect_trace=False,
                            collect_live_hist=True)
        assert fast == oracle

    def test_production_runs_take_the_native_engine(self):
        engine()
        program = get_program("li_like", 1)
        assert isinstance(simulator(program), NativeFunctionalSimulator)

    def test_traces_own_their_static_tables(self):
        engine()
        program = get_program("li_like", 1)
        first = run_program(program).trace
        second = run_program(program).trace
        before = second.s_dst.tobytes()
        first.s_dst[0] = 30 if first.s_dst[0] == 31 else 31
        assert second.s_dst.tobytes() == before
        assert run_program(program).trace.s_dst.tobytes() == before


# ----------------------------------------------------------------------
# Raw instruction soup.
# ----------------------------------------------------------------------

_REGISTERS = st.integers(0, regs.NUM_REGS - 1)
_IMMEDIATES = st.one_of(st.integers(-8, 8), st.integers(-(1 << 15), (1 << 15) - 1))


@st.composite
def soups(draw):
    """A linked program of random instructions, any opcode anywhere."""
    n = draw(st.integers(1, 24))
    insts = [
        Instruction(
            draw(st.sampled_from(list(Opcode))),
            rd=draw(_REGISTERS), rs1=draw(_REGISTERS), rs2=draw(_REGISTERS),
            imm=draw(_IMMEDIATES), target=draw(st.integers(0, n)),
            kill_mask=draw(st.integers(0, (1 << 32) - 1)),
        )
        for _ in range(n)
    ]
    data = {DATA_BASE + 4 * i: draw(st.integers(0, (1 << 32) - 1))
            for i in range(draw(st.integers(0, 3)))}
    return Program("soup", insts=insts, labels={"main": 0}, data=data,
                   linked=True)


class TestInstructionSoup:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=soups(), dvi=st.sampled_from(DVI_CONFIGS),
           mode=st.sampled_from(MODES), steps=st.integers(0, 300))
    def test_same_result_or_same_error(self, program, dvi, mode, steps):
        fast, oracle = both(program, dvi, max_steps=steps, **mode)
        assert fast == oracle


def _faulting(*insts) -> Program:
    return Program("fault", insts=[*insts, Instruction(Opcode.HALT)],
                   labels={"main": 0}, linked=True)


#: One program per run-time fault, with the Python engine's message.
_FAULTS = {
    "lw": (_faulting(Instruction(Opcode.LW, rd=8, rs1=29, imm=2)),
           "unaligned lw at pc=0: 0x7ffff002"),
    "sw": (_faulting(Instruction(Opcode.NOP),
                     Instruction(Opcode.SW, rs1=28, rs2=8, imm=-1)),
           "unaligned sw at pc=1: 0xfffff"),
    "live_lw": (_faulting(Instruction(Opcode.LIVE_LW, rd=16, rs1=0, imm=3)),
                "unaligned live_lw at pc=0: 0x3"),
    "live_sw": (_faulting(Instruction(Opcode.LIVE_SW, rs1=0, rs2=16, imm=-2)),
                "unaligned live_sw at pc=0: 0xfffffffe"),
    "jalr": (_faulting(Instruction(Opcode.ADDI, rd=8, imm=6),
                       Instruction(Opcode.JALR, rd=31, rs1=8)),
             "unaligned jalr target: 0x6"),
    "jr": (_faulting(Instruction(Opcode.ADDI, rd=8, imm=-3),
                     Instruction(Opcode.JR, rs1=8)),
           "unaligned jr target: 0xfffffffd"),
    "pc": (_faulting(Instruction(Opcode.J, target=7)), "pc out of range: 7"),
}


class TestFaults:
    @pytest.mark.parametrize("fault", sorted(_FAULTS))
    def test_every_fault_raises_the_python_text(self, fault):
        program, message = _FAULTS[fault]
        for dvi in (DVIConfig.none(), DVIConfig.full()):
            fast, oracle = both(program, dvi)
            assert fast == oracle == f"SimulationError: {message}"

    def test_no_fault_without_budget(self):
        program, _ = _FAULTS["pc"]
        fast, oracle = both(program, DVIConfig.none(), max_steps=1)
        assert fast == oracle
        assert pickle.loads(fast).trace.end_pc == 7


# ----------------------------------------------------------------------
# Chunks and the scheduler.
# ----------------------------------------------------------------------

class TestResumable:
    def test_chunked_execute_matches_one_run(self):
        engine()
        dvi = DVIConfig.full()
        program = binary(get_program("vortex_like", 1), dvi)
        chunked = simulator(program, dvi, collect_live_hist=True)
        chunks = 0
        while chunked.execute(137):
            chunks += 1
        assert chunks > 10
        whole = simulator(program, dvi, collect_live_hist=True).run()
        oracle = FunctionalSimulator(program, dvi, collect_live_hist=True).run()
        assert pickle.dumps(chunked.result()) == pickle.dumps(whole)
        assert pickle.dumps(whole) == pickle.dumps(oracle)

    def test_execute_after_halt_is_a_no_op(self):
        engine()
        sim = simulator(generate_program(3))
        assert sim.execute(10**9) is False
        before = pickle.dumps(sim.result())
        assert sim.execute(10) is False
        assert pickle.dumps(sim.result()) == before


class TestScheduler:
    #: Figure 12's two DVI settings, with the binary each runs.
    FIG12_MODES = [
        (DVIConfig(use_idvi=True, use_edvi=False, scheme=SRScheme.LVM_STACK),
         False),
        (DVIConfig.full(SRScheme.LVM_STACK), True),
    ]

    @pytest.mark.parametrize("dvi, edvi", FIG12_MODES, ids=("idvi", "full"))
    def test_both_engines_schedule_identically(self, dvi, edvi, monkeypatch):
        engine()
        mix = ["ijpeg_like", "gcc_like", "perl_like"]
        programs = [get_program(name, 1) for name in mix]
        if edvi:
            programs = [insert_edvi(program).program for program in programs]
        fast = RoundRobinScheduler(programs, dvi, quantum=QUANTUM)
        assert all(isinstance(sim, NativeFunctionalSimulator)
                   for sim in fast._sims)
        fast_result = fast.run()
        monkeypatch.setattr(scheduler, "simulator", FunctionalSimulator)
        oracle = RoundRobinScheduler(programs, dvi, quantum=QUANTUM)
        assert all(type(sim) is FunctionalSimulator for sim in oracle._sims)
        oracle_result = oracle.run()
        assert fast_result.switch_stats.switches > 10
        assert fast_result == oracle_result


# ----------------------------------------------------------------------
# Fallback.
# ----------------------------------------------------------------------

def _huge_immediate_program() -> Program:
    b = ProgramBuilder("huge_imm")
    b.label("main")
    b.li(regs.T0, 7)
    b.halt()
    program = b.build()
    program.insts[0] = dataclasses.replace(program.insts[0], imm=2**70 + 7)
    return program


class TestFallback:
    def test_a_field_that_does_not_encode_runs_on_the_python_engine(self):
        engine()
        program = _huge_immediate_program()
        assert functional_native.encode(program) is None
        assert type(simulator(program)) is FunctionalSimulator
        result = run_program(program)
        oracle = FunctionalSimulator(program).run()
        assert pickle.dumps(result) == pickle.dumps(oracle)
        assert result.stats.exit_value == 0  # v0 untouched

    def test_missing_compiler_warns_once_per_engine(self, monkeypatch):
        monkeypatch.setattr(functional_native, "ENGINE", unloaded(
            functional_native.ENGINE, compiler="/nonexistent/cc"))
        monkeypatch.setattr(native, "KERNEL", unloaded(
            native.KERNEL, compiler="/nonexistent/cc"))
        program = get_program("vortex_like", 1)
        config = MachineConfig.micro97()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                result = run_program(program)
                stats = core.simulate(config, result.trace)
        assert type(simulator(program)) is FunctionalSimulator
        assert pickle.dumps(result) == pickle.dumps(
            FunctionalSimulator(program).run())
        assert stats == core.OutOfOrderCore(config, result.trace).run()
        messages = sorted(str(w.message) for w in caught
                          if issubclass(w.category, RuntimeWarning))
        assert len(messages) == 2, messages
        assert messages[0].startswith("the native functional engine unavailable")
        assert messages[1].startswith("the native timing kernel unavailable")
        assert all("/nonexistent/cc" in message for message in messages)

    def test_pytest_sees_the_warning(self, monkeypatch):
        loader = unloaded(functional_native.ENGINE, compiler="/nonexistent/cc")
        monkeypatch.setattr(functional_native, "ENGINE", loader)
        with pytest.warns(RuntimeWarning, match="no C compiler found"):
            run_program(generate_program(5), collect_trace=False)
        assert loader.reason is not None


# ----------------------------------------------------------------------
# Robustness.
# ----------------------------------------------------------------------

_BAD_ENCODINGS = r"""
import ctypes
from array import array
from repro.sim import functional_native as fn

lib = fn.ENGINE.load()
assert lib is not None, fn.ENGINE.reason
BAD = fn.STATUSES.index("bad_arguments")
N_STATE = len(fn.STATE)


def address(column):
    return column.buffer_info()[0]


def config(**changes):
    values = dict.fromkeys((name for name, _ in fn.CONFIG), 0)
    values.update(changes)
    return array("q", values.values())


def inst(**changes):
    fields = dict.fromkeys(fn.FIELDS, 0)
    fields.update(op=37)  # nop
    fields.update(changes)
    return array("q", fields.values())


def new(code=None, cfg=None, data=None, n_fields=len(fn.FIELDS),
        n_config=len(fn.CONFIG), n=None):
    code = inst() if code is None else code
    cfg = config() if cfg is None else cfg
    data = array("q") if data is None else data
    status = ctypes.c_int64(-1)
    handle = lib.repro_fe_new(
        address(cfg), n_config, address(code),
        len(code) // len(fn.FIELDS) if n is None else n, n_fields,
        address(data), len(data) // 2, ctypes.byref(status))
    return handle, status.value


for name, kwargs in {
    "opcode_44": dict(code=inst(op=44)),
    "negative_opcode": dict(code=inst(op=-1)),
    "rd_32": dict(code=inst(rd=32)),
    "negative_rs1": dict(code=inst(rs1=-1)),
    "rs2_64": dict(code=inst(rs2=64)),
    "kill_mask_bit_32": dict(code=inst(kill_mask=1 << 32)),
    "negative_def_mask": dict(code=inst(def_mask=-1)),
    "short_fields": dict(n_fields=len(fn.FIELDS) - 1),
    "short_config": dict(n_config=len(fn.CONFIG) - 1),
    "negative_size": dict(n=-1),
    "scheme_3": dict(cfg=config(scheme=3)),
    "negative_depth": dict(cfg=config(stack_depth=-1)),
    "data_word_past_4g": dict(data=array("q", [1 << 30, 5])),
    "negative_data_word": dict(data=array("q", [-1, 5])),
}.items():
    handle, status = new(**kwargs)
    assert not handle and status == BAD, (name, handle, status)
    print(name)

handle, status = new()
assert handle and status == 0, status
regs_ = array("I", [0]) * 32
counts = array("q", [0])
hist = array("q", [0]) * 33
order = array("q", [0]) * 33


def execute(budget=10, n_regs=32, n_counts=1, n_hist=33, n_state=N_STATE,
            handle=handle, **state_changes):
    state = array("q", [0]) * N_STATE
    for key, value in state_changes.items():
        state[fn.STATE.index(key)] = value
    return lib.repro_fe_execute(
        handle, budget, address(regs_), n_regs, address(counts), n_counts,
        address(hist), address(order), n_hist, address(state), n_state)


for name, kwargs in {
    "short_registers": dict(n_regs=31),
    "long_counts": dict(n_counts=2),
    "short_histogram": dict(n_hist=32),
    "short_state": dict(n_state=N_STATE - 1),
    "negative_budget": dict(budget=-1),
    "negative_pc": dict(pc=-1),
    "negative_seq": dict(seq=-1),
    "seq_overflow": dict(budget=10, seq=(1 << 63) - 5),
    "histogram_past_full": dict(hist_seen=34),
    "null_handle": dict(handle=None),
}.items():
    status = execute(**kwargs)
    assert status == BAD, (name, status)
    print(name)
assert execute() == 0
lib.repro_fe_free(handle)
"""


class TestRobustness:
    def test_bad_encodings_return_their_status(self):
        """In a subprocess, so an out-of-bounds access shows as a crash."""
        engine()
        result = subprocess.run(
            [sys.executable, "-c", _BAD_ENCODINGS],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert len(result.stdout.split()) == 24

    def test_concurrent_runs_match_serial_runs(self):
        """More threads than cores, each running handles of its own on
        programs the others share, inside C without the GIL."""
        engine()
        jobs = [
            (generate_program(seed), dvi)
            for seed in (11, 12)
            for dvi in (DVIConfig.none(), DVIConfig.full(SRScheme.LVM))
        ]
        serial = [pickle.dumps(run_program(*job)) for job in jobs]
        results = [[] for _ in range(4)]
        start = threading.Barrier(len(results))

        def worker(index):
            start.wait()
            for step in range(6):
                job = (index + step) % len(jobs)
                results[index].append((job, pickle.dumps(run_program(*jobs[job]))))

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
            for job, result in runs:
                assert result == serial[job]

    def test_pickled_programs_leave_the_tables_behind(self):
        engine()
        program = get_program("li_like", 1)
        run_program(program)
        assert "_tables" in program.__dict__
        assert "_tables" not in pickle.loads(pickle.dumps(program)).__dict__
        assert functional.program_tables(program).code is not None
