"""Differential testing over randomly generated ABI-compliant programs.

Every generated program must survive the complete pipeline: E-DVI
rewriting verifies, all elimination schemes are observationally
equivalent, the timing model's invariants hold, and preemptive
multiplexing with dead-register clobbering preserves results.
"""

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.rewrite.edvi import insert_edvi, strip_edvi
from repro.rewrite.verify import check_equivalence, verify_dvi
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo.core import OutOfOrderCore
from repro.threads.scheduler import RoundRobinScheduler
from repro.workloads.fuzz import FuzzConfig, generate_program

SEEDS = list(range(24))


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_program_completes(seed):
    program = generate_program(seed)
    stats = run_program(program, collect_trace=False, max_steps=200_000).stats
    assert stats.completed


@pytest.mark.parametrize("seed", SEEDS)
def test_rewritten_program_verifies(seed):
    program = generate_program(seed)
    rewritten = insert_edvi(program).program
    verify_dvi(rewritten, max_steps=200_000)


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_under_all_schemes(seed):
    program = generate_program(seed)
    rewritten = insert_edvi(program).program
    for scheme in (SRScheme.NONE, SRScheme.LVM, SRScheme.LVM_STACK):
        report = check_equivalence(
            program, DVIConfig.none(), rewritten, DVIConfig.full(scheme),
            max_steps=200_000,
        )
        assert report.equivalent, (seed, scheme, report.exit_values)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_strip_is_inverse_of_insert(seed):
    program = generate_program(seed)
    rewritten = insert_edvi(program).program
    stripped = strip_edvi(rewritten)
    assert [inst.op for inst in stripped.insts] == [
        inst.op for inst in program.insts
    ]


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_timing_invariants_on_generated_programs(seed):
    program = insert_edvi(generate_program(seed)).program
    trace = run_program(
        program, DVIConfig.full(SRScheme.LVM_STACK), max_steps=200_000
    ).trace
    stats = OutOfOrderCore(
        MachineConfig.micro97().with_phys_regs(36), trace
    ).run(check_invariants=True)
    assert stats.committed > 0


@pytest.mark.parametrize("quantum", [23, 211])
def test_preemptive_mix_of_generated_programs(quantum):
    programs = [
        insert_edvi(generate_program(seed)).program for seed in range(6)
    ]
    dvi = DVIConfig.full(SRScheme.LVM_STACK)
    solo = {
        p.name: run_program(p, dvi, collect_trace=False,
                            max_steps=200_000).stats.exit_value
        for p in programs
    }
    result = RoundRobinScheduler(programs, dvi, quantum=quantum).run()
    for thread in result.threads:
        assert thread.exit_value == solo[thread.name], thread.name


def test_generation_is_deterministic():
    a = generate_program(7)
    b = generate_program(7)
    assert [i.op for i in a.insts] == [i.op for i in b.insts]
    assert a.data == b.data


def test_bigger_config_makes_bigger_programs():
    small = generate_program(3, FuzzConfig(n_procs=2, max_body_blocks=2))
    big = generate_program(3, FuzzConfig(n_procs=6, max_body_blocks=6))
    assert len(big.insts) > len(small.insts)
