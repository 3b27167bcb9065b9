"""Tests for the declarative sweep engine and the ad-hoc sweep builder."""

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments import (
    ablation_lvmstack_depth,
    ablation_predictor,
    fig5_regfile_ipc,
    fig13_edvi_overhead,
)
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import (
    Axis,
    Mode,
    SweepSpec,
    adhoc_spec,
    run_sweep,
)
from repro.registry import UnknownComponentError
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.config import MachineConfig

TINY = ExperimentProfile(
    name="tiny",
    regfile_sizes=(34, 64),
    workloads=("li_like",),
    sr_workloads=("li_like",),
)


class TestAxisResolution:
    def test_fixed_values(self):
        assert Axis("x", values=(1, 2)).resolve(TINY) == (1, 2)

    def test_profile_attribute(self):
        axis = Axis("size", profile_attr="regfile_sizes")
        assert axis.resolve(TINY) == (34, 64)

    def test_callable_tracks_registry(self):
        axis = Axis("p", values=lambda: tuple(PREDICTORS.names()))
        assert axis.resolve(TINY) == tuple(PREDICTORS.names())

    def test_sourceless_axis_rejected(self):
        with pytest.raises(ValueError):
            Axis("x").resolve(TINY)


class TestSpecEnumeration:
    def test_points_vary_last_axis_fastest(self):
        spec = SweepSpec(
            name="t",
            axes=(Axis("a", values=(1, 2)), Axis("b", values=("x", "y"))),
        )
        points = list(spec.points(TINY))
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_fig5_cells_cover_modes_sizes_workloads(self):
        jobs = fig5_regfile_ipc.SPEC.jobs(TINY)
        assert len(jobs) == 3 * 2 * 1  # modes x sizes x workloads
        assert {job.kind for job in jobs} == {"timed"}
        assert {job.machine.phys_regs for job in jobs} == {34, 64}

    def test_fig13_plans_binary_count_and_timed_cells(self):
        jobs = fig13_edvi_overhead.jobs(TINY)
        kinds = [job.kind for job in jobs]
        assert kinds.count("binary") == 1
        assert kinds.count("functional") == 1  # the annotated binary's counts
        assert kinds.count("timed") == 4   # 2 modes x 2 icache sizes
        assert len(kinds) == 6

    def test_mode_dvi_may_depend_on_the_point(self):
        spec = ablation_lvmstack_depth.SPEC.with_axis_values("depth", (1, None))
        jobs = spec.jobs(TINY)
        depths = {job.dvi.lvm_stack_depth for job in jobs}
        assert depths == {1, None}

    def test_with_axis_values_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            fig5_regfile_ipc.SPEC.with_axis_values("voltage", (1,))

    def test_workloads_sources(self):
        by_attr = SweepSpec(name="t", workloads="sr_workloads")
        explicit = SweepSpec(name="t", workloads=("go_like",))
        computed = SweepSpec(name="t", workloads=lambda p: list(p.workloads))
        assert by_attr.resolve_workloads(TINY) == ["li_like"]
        assert explicit.resolve_workloads(TINY) == ["go_like"]
        assert computed.resolve_workloads(TINY) == ["li_like"]

    def test_predictor_ablation_tracks_registry(self):
        jobs = ablation_predictor.SPEC.jobs(TINY)
        specs = {job.machine.predictor_spec for job in jobs}
        assert specs == set(PREDICTORS.names())


class TestAdhocSpec:
    def test_unknown_axis_lists_valid_names(self):
        with pytest.raises(UnknownComponentError) as excinfo:
            adhoc_spec("voltage", TINY)
        assert "predictor" in str(excinfo.value)

    def test_values_are_parsed_and_validated(self):
        spec = adhoc_spec("regfile", TINY, values=["40", "48"])
        assert [job.machine.phys_regs for job in spec.jobs(TINY)] == [40, 48]
        with pytest.raises(UnknownComponentError):
            adhoc_spec("predictor", TINY, values=["zap"])

    def test_workloads_accept_bare_analog_names(self):
        spec = adhoc_spec("predictor", TINY, values=["comb"],
                          workloads=["go", "li_like"])
        assert spec.resolve_workloads(TINY) == ["go_like", "li_like"]
        with pytest.raises(UnknownComponentError):
            adhoc_spec("predictor", TINY, workloads=["spice"])

    def test_default_values_come_from_the_registry(self):
        spec = adhoc_spec("hierarchy", TINY)
        (axis,) = spec.axes
        assert set(axis.resolve(TINY)) == {
            "micro97", "compact", "deep", "slow-memory"
        }


class TestRunSweep:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(TINY)

    def test_timed_sweep_reports_ipc_per_cell(self, context):
        spec = adhoc_spec("predictor", TINY, values=["comb", "static-taken"])
        result = run_sweep(spec, TINY, context)
        assert len(result.rows) == 2
        comb = result.metric("IPC", "li_like", "No DVI", predictor="comb")
        static = result.metric(
            "IPC", "li_like", "No DVI", predictor="static-taken"
        )
        # Dynamic tournament prediction must beat the static floor.
        assert comb > static
        table = result.format_table()
        assert "comb" in table and "static-taken" in table

    def test_functional_sweep_reports_elimination(self, context):
        spec = SweepSpec(
            name="t",
            kind="functional",
            workloads=("li_like",),
            modes=(
                Mode("full", DVIConfig.full(SRScheme.LVM_STACK),
                     edvi_binary=True),
            ),
        )
        result = run_sweep(spec, TINY, context)
        (row,) = result.rows
        assert row.metrics["eliminated"] > 0

    def test_sweep_cells_share_cache_keys_with_figures(self, context):
        # The default-machine regfile sweep lands on the exact cells the
        # Figure 5 "No DVI" curve uses: same workload, DVI, and machine.
        spec = adhoc_spec("regfile", TINY, values=["34"])
        (sweep_job,) = [j for j in spec.jobs(TINY) if j.kind == "timed"]
        fig5_jobs = fig5_regfile_ipc.SPEC.jobs(TINY)
        assert any(
            job.signature() == sweep_job.signature() for job in fig5_jobs
        )

    def test_machine_at_accepts_static_config(self):
        config = MachineConfig.micro97()
        spec = SweepSpec(name="t", machine=config)
        assert spec.machine_at({}) is config
