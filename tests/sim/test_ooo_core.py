"""Tests for the out-of-order timing model."""

from dataclasses import replace

from repro.dvi.config import DVIConfig, SRScheme
from repro.isa import registers as R
from repro.program.builder import ProgramBuilder
from repro.rewrite.edvi import insert_edvi
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo.core import OutOfOrderCore, simulate
from repro.workloads.suite import get_program


def trace_of(body, dvi=None):
    b = ProgramBuilder("t")
    b.label("main")
    body(b)
    b.halt()
    return run_program(b.build(), dvi).trace


def loop_trace(body_fn, iterations=60, counter=R.T9):
    """A warm loop: body_fn(b) repeated, with loop control around it."""
    def body(b):
        b.li(counter, iterations)
        b.label("top")
        body_fn(b)
        b.addi(counter, counter, -1)
        b.bgtz(counter, "top")
    return trace_of(body)


def dependent_chain_trace():
    return loop_trace(lambda b: [b.addi(R.T0, R.T0, 1) for _ in range(8)])


class TestBasicTiming:
    def test_ipc_bounded_by_issue_width(self):
        stats = simulate(MachineConfig.micro97(), dependent_chain_trace())
        assert 0 < stats.ipc <= MachineConfig.micro97().issue_width

    def test_dependent_chain_is_serial(self):
        # A chain of dependent adds cannot sustain much above IPC 1
        # (the loop-control instructions add a little parallelism).
        stats = simulate(MachineConfig.micro97(), dependent_chain_trace())
        assert stats.ipc <= 1.5

    def test_independent_ops_reach_high_ipc(self):
        def group(b):
            b.addi(R.T0, R.ZERO, 1)
            b.addi(R.T1, R.ZERO, 2)
            b.addi(R.T2, R.ZERO, 3)
            b.addi(R.T3, R.ZERO, 4)
            b.addi(R.T4, R.ZERO, 5)
            b.addi(R.T5, R.ZERO, 6)
        stats = simulate(MachineConfig.micro97(), loop_trace(group))
        assert stats.ipc > 2.0

    def test_independent_beats_dependent(self):
        indep = simulate(
            MachineConfig.micro97(),
            loop_trace(lambda b: [b.addi(t, R.ZERO, 1)
                                  for t in (R.T0, R.T1, R.T2, R.T3)]),
        )
        dep = simulate(MachineConfig.micro97(), dependent_chain_trace())
        assert indep.ipc > dep.ipc

    def test_all_instructions_commit(self):
        trace = dependent_chain_trace()
        stats = simulate(MachineConfig.micro97(), trace)
        assert stats.committed == len(trace.records)
        assert stats.program_insts == trace.program_insts

    def test_invariants_hold_on_real_workload(self):
        # truncated replay keeps this test fast
        trace = run_program(get_program("vortex_like"), max_steps=4000).trace
        stats = OutOfOrderCore(MachineConfig.micro97(), trace).run(
            check_invariants=True
        )
        assert stats.cycles > 0


class TestRegisterFileEffects:
    def test_small_file_stalls_rename(self):
        trace = loop_trace(
            lambda b: [b.addi(t, R.ZERO, 1) for t in (R.T0, R.T1, R.T2, R.T3)]
        )
        small = simulate(MachineConfig.micro97().with_phys_regs(33), trace)
        large = simulate(MachineConfig.micro97().with_phys_regs(96), trace)
        assert small.rename_stall_cycles > 0
        assert small.ipc < large.ipc

    def test_minimum_file_makes_progress(self):
        stats = simulate(
            MachineConfig.micro97().with_phys_regs(32), dependent_chain_trace()
        )
        assert stats.committed > 0
        assert stats.cycles < 10_000

    def test_idvi_freeing_raises_ipc_at_small_sizes(self):
        program = get_program("li_like")
        none_trace = run_program(program, DVIConfig.none()).trace
        idvi_trace = run_program(program, DVIConfig.idvi_only()).trace
        config = MachineConfig.micro97().with_phys_regs(36)
        base = simulate(config, none_trace)
        dvi = simulate(config, idvi_trace)
        assert dvi.ipc > base.ipc * 1.05
        assert dvi.dvi_unmaps > 0

    def test_unmapped_reads_allowed(self):
        # A save of a killed register reads an unmapped name; the model
        # must treat it as ready, not crash (section 7's "unbound names").
        def body(b):
            b.li(R.S0, 1)
            b.kill(R.S0)
            b.live_sw(R.S0, -4, R.SP)
        trace = trace_of(body, DVIConfig(use_idvi=False, use_edvi=True,
                                         scheme=SRScheme.NONE))
        stats = simulate(MachineConfig.micro97(), trace)
        assert stats.unmapped_reads >= 1


class TestEliminationEffects:
    def test_eliminated_records_never_dispatch(self):
        program = insert_edvi(get_program("perl_like")).program
        trace = run_program(program, DVIConfig.full(SRScheme.LVM_STACK)).trace
        eliminated = sum(1 for r in trace.records if r.eliminated)
        stats = simulate(MachineConfig.micro97_unconstrained(), trace)
        assert eliminated > 0
        assert stats.eliminated == eliminated
        assert stats.committed == len(trace.records) - eliminated - \
            trace.annotation_insts

    def test_elimination_improves_ipc_when_port_bound(self):
        program = get_program("gcc_like")
        rewritten = insert_edvi(program).program
        base_trace = run_program(program, DVIConfig.none()).trace
        dvi_trace = run_program(
            rewritten, DVIConfig.full(SRScheme.LVM_STACK)
        ).trace
        config = replace(
            MachineConfig.micro97_unconstrained(), cache_ports=1
        )
        base = simulate(config, base_trace)
        dvi = simulate(config, dvi_trace)
        assert dvi.ipc > base.ipc


class TestBranchAndMemoryEffects:
    def test_mispredictions_cost_cycles(self):
        # data-dependent alternating branches mispredict until learned
        def body(b):
            b.li(R.T2, 0)
            for i in range(60):
                b.andi(R.T0, R.T2, 1)
                b.beq(R.T0, R.ZERO, f"skip{i}")
                b.addi(R.T1, R.T1, 1)
                b.label(f"skip{i}")
                b.addi(R.T2, R.T2, 1)
        trace = trace_of(body)
        stats = simulate(MachineConfig.micro97(), trace)
        assert stats.control_insts > 0
        assert stats.mispredicts >= 1

    def test_bigger_mispredict_penalty_costs_cycles(self):
        def body(b):
            b.li(R.T2, 0)
            for i in range(40):
                b.andi(R.T0, R.T2, 1)
                b.bne(R.T0, R.ZERO, f"t{i}")
                b.label(f"t{i}")
                b.addi(R.T2, R.T2, 3)
        trace = trace_of(body)
        fast = simulate(MachineConfig.micro97(), trace)
        slow = simulate(
            replace(MachineConfig.micro97(), mispredict_penalty=20), trace
        )
        assert slow.cycles >= fast.cycles

    def test_dcache_misses_counted(self):
        def body(b):
            b.li(R.T0, 0x100000)
            for i in range(20):
                b.lw(R.T1, 0, R.T0)
                b.addi(R.T0, R.T0, 4096)  # new line (and new set) each time
        trace = trace_of(body)
        stats = simulate(MachineConfig.micro97(), trace)
        assert stats.dcache_misses >= 19

    def test_icache_pressure_from_code_footprint(self):
        # A loop whose body overflows a tiny I-cache misses every
        # iteration; a big I-cache only takes the cold misses.
        trace = loop_trace(
            lambda b: [b.addi(R.T0, R.T0, 1) for _ in range(400)],
            iterations=6,
        )
        small = simulate(MachineConfig.micro97().with_icache(1024), trace)
        big = simulate(MachineConfig.micro97().with_icache(64 * 1024), trace)
        assert small.icache_misses > big.icache_misses
        assert small.cycles > big.cycles

    def test_fewer_ports_never_faster(self):
        trace = run_program(get_program("ijpeg_like"), max_steps=6000).trace
        one = simulate(replace(MachineConfig.micro97(), cache_ports=1), trace)
        three = simulate(replace(MachineConfig.micro97(), cache_ports=3), trace)
        assert one.cycles >= three.cycles
