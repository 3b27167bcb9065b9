"""End-to-end integration tests: the paper's headline claims, executable.

Each test corresponds to a sentence from the abstract or conclusions and
exercises the full pipeline (workload -> rewriter -> DVI engine ->
simulators).
"""

import pytest

from repro import (
    DVIConfig,
    MachineConfig,
    check_equivalence,
    insert_edvi,
    run_program,
    simulate,
    verify_dvi,
)
from repro.dvi.config import SRScheme
from repro.sim.ooo.core import OutOfOrderCore
from repro.workloads.suite import SAVE_RESTORE_ORDER, get_program


@pytest.fixture(scope="module")
def suite():
    """(plain, rewritten) binaries for the save/restore-heavy workloads."""
    return {
        name: (get_program(name), insert_edvi(get_program(name)).program)
        for name in SAVE_RESTORE_ORDER
    }


class TestAbstractClaims:
    def test_dynamic_saves_restores_reduced_by_tens_of_percent(self, suite):
        """Abstract: 'dynamic saves and restore instances can be reduced
        by 46% for procedure calls' — we assert the suite-average band."""
        rates = []
        for name, (_, rewritten) in suite.items():
            stats = run_program(
                rewritten, DVIConfig.full(SRScheme.LVM_STACK),
                collect_trace=False,
            ).stats
            rates.append(
                100.0 * stats.saves_restores_eliminated / stats.saves_restores
            )
        average = sum(rates) / len(rates)
        assert 25.0 < average < 90.0

    def test_save_restore_elimination_improves_ipc_up_to_5pct(self, suite):
        """Abstract: 'can improve overall performance by up to 5%'."""
        best = 0.0
        config = MachineConfig.micro97_unconstrained()
        for name in ("perl_like", "gcc_like", "li_like"):
            plain, rewritten = suite[name]
            base = simulate(config, run_program(plain, DVIConfig.none()).trace)
            dvi = simulate(
                config,
                run_program(rewritten, DVIConfig.full(SRScheme.LVM_STACK)).trace,
            )
            best = max(best, 100.0 * (dvi.ipc / base.ipc - 1.0))
        assert 2.0 < best < 15.0

    def test_register_file_can_shrink_with_dvi(self):
        """Section 4: DVI reaches ~peak IPC with a much smaller file."""
        program = get_program("li_like")
        none_trace = run_program(program, DVIConfig.none()).trace
        idvi_trace = run_program(program, DVIConfig.idvi_only()).trace
        peak = simulate(
            MachineConfig.micro97().with_phys_regs(96), none_trace
        ).ipc
        small_dvi = simulate(
            MachineConfig.micro97().with_phys_regs(44), idvi_trace
        ).ipc
        small_base = simulate(
            MachineConfig.micro97().with_phys_regs(44), none_trace
        ).ipc
        assert small_dvi > 0.9 * peak
        assert small_dvi > small_base

    def test_context_switch_savings_average_about_half(self, suite):
        """Abstract: 'by 51% for context switches'."""
        saveable = bin(DVIConfig.none().abi.saveable_mask()).count("1")
        reductions = []
        for name, (_, rewritten) in suite.items():
            stats = run_program(
                rewritten, DVIConfig.full(SRScheme.LVM_STACK),
                collect_trace=False, collect_live_hist=True,
            ).stats
            reductions.append(100.0 * (1 - stats.average_live() / saveable))
        average = sum(reductions) / len(reductions)
        assert 30.0 < average < 75.0


class TestCorrectnessEndToEnd:
    def test_whole_suite_verifies_and_is_equivalent(self, suite):
        for name, (plain, rewritten) in suite.items():
            verify_dvi(rewritten)
            for scheme in (SRScheme.LVM, SRScheme.LVM_STACK):
                report = check_equivalence(
                    plain, DVIConfig.none(), rewritten, DVIConfig.full(scheme)
                )
                assert report.equivalent, (name, scheme)

    def test_timing_model_invariants_on_full_workload(self, suite):
        plain, rewritten = suite["vortex_like"]
        trace = run_program(rewritten, DVIConfig.full(SRScheme.LVM_STACK)).trace
        stats = OutOfOrderCore(
            MachineConfig.micro97().with_phys_regs(40), trace
        ).run(check_invariants=True)
        assert stats.dvi_unmaps > 0

    def test_public_api_surface(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None
