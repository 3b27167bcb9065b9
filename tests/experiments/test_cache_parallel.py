"""Tests for the disk-cached, parallel experiment pipeline.

Covers the ISSUE-1 acceptance surface: artifact round-trips through the
content-addressed store, cache-key sensitivity (config or scale changes
must miss), the --no-cache bypass, parallel-vs-serial equivalence, and
the warm-cache guarantee that a second full sweep re-executes no
functional or timing simulation.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments import (
    ablation_lvmstack_depth,
    fig3_characterization,
    fig5_regfile_ipc,
    fig6_performance,
    fig9_eliminated,
    fig10_speedup,
    fig11_sensitivity,
    fig12_context_switch,
    fig13_edvi_overhead,
)
from repro.experiments.cache import ArtifactCache, canonical, fingerprint
from repro.experiments.export import render_manifest, to_jsonable
from repro.experiments.parallel import Job, execute
from repro.experiments.pool import WarmPool
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.__main__ import main
from repro.sim.config import MachineConfig

TINY = ExperimentProfile.tiny()

ALL_MODULES = (
    fig3_characterization,
    fig5_regfile_ipc,
    fig6_performance,
    fig9_eliminated,
    fig10_speedup,
    fig11_sensitivity,
    fig12_context_switch,
    fig13_edvi_overhead,
    ablation_lvmstack_depth,
)


def files_under(root):
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names
    )


class TestFingerprint:
    def test_canonical_covers_config_types(self):
        text = canonical(
            (DVIConfig.full(SRScheme.LVM), MachineConfig.micro97(), None, 1.5)
        )
        assert "DVIConfig" in text and "MachineConfig" in text

    def test_fingerprint_is_value_based(self):
        a = fingerprint(DVIConfig.full(SRScheme.LVM), 1)
        b = fingerprint(DVIConfig.full(SRScheme.LVM), 1)
        assert a == b

    def test_fingerprint_sensitive_to_dvi_and_scale(self):
        base = fingerprint(DVIConfig.full(SRScheme.LVM_STACK), 1)
        assert fingerprint(DVIConfig.full(SRScheme.LVM), 1) != base
        assert fingerprint(DVIConfig.full(SRScheme.LVM_STACK), 2) != base
        assert (
            fingerprint(
                DVIConfig(use_idvi=True, use_edvi=True,
                          scheme=SRScheme.LVM_STACK, lvm_stack_depth=4),
                1,
            )
            != base
        )

    def test_machine_config_sensitivity(self):
        config = MachineConfig.micro97()
        assert fingerprint(config) != fingerprint(config.with_phys_regs(50))
        assert fingerprint(config) != fingerprint(config.with_icache(32 * 1024))


class TestArtifactRoundTrip:
    """Artifacts written by one context are served, unchanged, to another."""

    def test_binary_round_trip(self, tmp_path):
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        built = writer.binary("li_like", edvi=True)

        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        loaded = reader.binary("li_like", edvi=True)
        assert reader.cache.hits("binary") == 1
        assert reader.cache.misses("binary") == 0
        assert loaded.insts == built.insts
        assert loaded.data == built.data
        # Both variants come back from the single stored pair.
        assert reader.binary("li_like", edvi=False).insts == \
            writer.binary("li_like", edvi=False).insts

    def test_trace_round_trip(self, tmp_path):
        dvi = DVIConfig.full(SRScheme.LVM_STACK)
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        original = writer.trace("li_like", dvi, edvi_binary=True)

        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        loaded = reader.trace("li_like", dvi, edvi_binary=True)
        assert reader.cache.hits("trace") == 1
        assert len(loaded) == len(original)
        assert loaded.program_insts == original.program_insts
        assert loaded.annotation_insts == original.annotation_insts
        for mine, theirs in zip(loaded.records[:50], original.records[:50]):
            assert (mine.pc, mine.op, mine.dst, mine.srcs, mine.addr,
                    mine.free_mask, mine.eliminated) == \
                   (theirs.pc, theirs.op, theirs.dst, theirs.srcs,
                    theirs.addr, theirs.free_mask, theirs.eliminated)

    def test_functional_and_timed_round_trip(self, tmp_path):
        dvi = DVIConfig.none()
        config = MachineConfig.micro97()
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        functional = writer.functional("perl_like", dvi, edvi_binary=False)
        timed = writer.timed("perl_like", dvi, config, edvi_binary=False)

        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        assert reader.functional(
            "perl_like", dvi, edvi_binary=False
        ).stats == functional.stats
        assert reader.timed(
            "perl_like", dvi, config, edvi_binary=False
        ) == timed
        assert reader.cache.misses("functional", "timed") == 0


class TestKeySensitivity:
    def test_changed_dvi_config_misses(self, tmp_path):
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        writer.functional(
            "li_like", DVIConfig.full(SRScheme.LVM_STACK), edvi_binary=True
        )

        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        reader.functional(
            "li_like", DVIConfig.full(SRScheme.LVM), edvi_binary=True
        )
        assert reader.cache.misses("functional") == 1
        assert reader.cache.hits("functional") == 0

    def test_changed_machine_config_misses(self, tmp_path):
        dvi = DVIConfig.none()
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        writer.timed(
            "li_like", dvi, MachineConfig.micro97(), edvi_binary=False
        )

        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        reader.timed(
            "li_like", dvi, MachineConfig.micro97().with_phys_regs(42),
            edvi_binary=False,
        )
        assert reader.cache.misses("timed") == 1

    def test_changed_scale_misses(self, tmp_path):
        writer = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        writer.binary("li_like", edvi=False)

        scaled = ExperimentProfile(
            name="tiny2", scale=2,
            workloads=TINY.workloads, sr_workloads=TINY.sr_workloads,
        )
        reader = ExperimentContext(scaled, cache=ArtifactCache(tmp_path))
        reader.binary("li_like", edvi=False)
        assert reader.cache.misses("binary") == 1
        assert reader.cache.hits("binary") == 0

    def test_changed_code_version_misses(self, tmp_path):
        writer = ExperimentContext(
            TINY, cache=ArtifactCache(tmp_path, version="v1")
        )
        writer.binary("li_like", edvi=False)

        reader = ExperimentContext(
            TINY, cache=ArtifactCache(tmp_path, version="v2")
        )
        reader.binary("li_like", edvi=False)
        assert reader.cache.misses("binary") == 1


class TestNoCacheBypass:
    def test_context_without_cache_touches_no_files(self, tmp_path):
        context = ExperimentContext(TINY, cache=None)
        context.functional("li_like", DVIConfig.none(), edvi_binary=False)
        context.timed(
            "li_like", DVIConfig.none(), MachineConfig.micro97(),
            edvi_binary=False,
        )
        assert files_under(tmp_path) == []

    def test_cli_no_cache_leaves_cache_dir_untouched(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "fig3", "--profile", "tiny", "--no-cache",
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert not cache_dir.exists()
        assert "Figure 3" in capsys.readouterr().out


class TestParallelEqualsSerial:
    """--jobs N must not change a single byte of any figure's output."""

    QUICK = ExperimentProfile.quick()

    @pytest.mark.parametrize(
        "module", [fig3_characterization, fig9_eliminated],
        ids=["fig3", "fig9"],
    )
    def test_quick_profile_equivalence(self, module):
        serial = module.run(self.QUICK, ExperimentContext(self.QUICK))
        with WarmPool(2) as pool:
            parallel = module.run(
                self.QUICK, ExperimentContext(self.QUICK, pool=pool)
            )
        assert parallel.format_table() == serial.format_table()
        assert json.dumps(to_jsonable(parallel)) == \
            json.dumps(to_jsonable(serial))

    def test_cli_json_byte_identical(self, tmp_path):
        serial_path, parallel_path = tmp_path / "s.json", tmp_path / "p.json"
        common = ["fig9", "--profile", "tiny", "--cache-dir",
                  str(tmp_path / "cache")]
        assert main(common + ["--jobs", "1", "--json", str(serial_path)]) == 0
        assert main(common + ["--jobs", "2", "--json", str(parallel_path)]) == 0
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_execute_merges_worker_results(self):
        plan = [
            Job(kind="functional", workload=workload, dvi=DVIConfig.none(),
                edvi_binary=False)
            for workload in TINY.workloads
        ]
        with WarmPool(2) as pool:
            context = ExperimentContext(TINY, pool=pool)
            report = execute(plan, context)
        assert report.executed == len(plan) and not report.failures
        assert all(context.holds(job) for job in plan)

    def test_duplicate_and_satisfied_jobs_are_skipped(self):
        context = ExperimentContext(TINY)
        job = Job(kind="functional", workload="li_like",
                  dvi=DVIConfig.none(), edvi_binary=False)
        execute([job, job], context)
        first = context.functional("li_like", DVIConfig.none(),
                                   edvi_binary=False)
        execute([job], context)
        assert context.functional(
            "li_like", DVIConfig.none(), edvi_binary=False
        ) is first


class TestSerialImportsNoPool:
    def test_cli_import_loads_no_process_pool(self):
        """``--jobs 1`` never creates a pool, so importing the CLI must
        not pay for the process-pool machinery either; nor for the
        native kernel's loader (``ctypes``, and ``subprocess`` for the
        build), which the first simulation imports."""
        src = Path(__file__).resolve().parents[2] / "src"
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.__main__; print(sorted("
             "{'multiprocessing', 'concurrent.futures.process',"
             " 'ctypes', 'subprocess'}"
             " & set(sys.modules)))"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "[]"


class TestWarmCacheRunsNothing:
    """The acceptance criterion: a second full sweep is pure cache replay."""

    def test_second_full_sweep_has_zero_simulation_misses(self, tmp_path):
        cold = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        cold_results = [module.run(TINY, cold) for module in ALL_MODULES]

        warm = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        warm_results = [module.run(TINY, warm) for module in ALL_MODULES]

        # No functional or timing simulation (nor any other artifact kind)
        # was re-executed on the warm pass.
        assert warm.cache.misses() == 0
        assert warm.cache.misses("functional", "timed", "trace", "binary") == 0
        assert warm.cache.hits("functional") > 0
        assert warm.cache.hits("timed") > 0

        for cold_result, warm_result in zip(cold_results, warm_results):
            assert warm_result.format_table() == cold_result.format_table()

    def test_manifest_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        context = ExperimentContext(TINY, cache=cache)
        results = {"fig3": fig3_characterization.run(TINY, context)}
        first = render_manifest(TINY.name, results)
        second = render_manifest(TINY.name, results)
        assert first == second
        assert json.loads(first)["profile"] == "tiny"
