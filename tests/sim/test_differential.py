"""Differential tests: the per-pc engine against the reference interpreter.

The per-pc Python engine (:class:`repro.sim.functional.FunctionalSimulator`)
and the reference interpreter (:class:`repro.sim.reference.ReferenceSimulator`)
share no decode, state, loop or statistics code, and the reference never
reads the per-pc engine's ``ProgramTables``.  These tests run the same
programs through both, across the DVI configuration space, and assert
that the whole results pickle to the same bytes: every statistics field
with its type, the registers, the memory in key order, and the trace,
static tables of never-executed pcs included.
"""

import dataclasses
import pickle
import random

import pytest

from repro.dvi.config import DVIConfig, SRScheme
from repro.rewrite.edvi import insert_edvi
from repro.sim.functional import FunctionalSimulator
from repro.sim.reference import ReferenceSimulator
from repro.workloads.common import REGISTRY
from repro.workloads.fuzz import FuzzConfig, generate_program
from repro.workloads.suite import get_program

#: The DVI configuration space the fuzz programs sweep: nothing, I-DVI
#: alone, E-DVI+I-DVI without elimination, both elimination schemes, and
#: constrained LVM-Stack depths (the ablation's regime).
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
_MODE_IDS = ["trace", "no-trace", "trace-hist", "hist"]


def binary(program, dvi):
    return insert_edvi(program).program if dvi.use_edvi else program


def run_both(program, dvi, **kwargs):
    fast = FunctionalSimulator(program, dvi, **kwargs).run()
    slow = ReferenceSimulator(program, dvi, **kwargs).run()
    return fast, slow


def assert_identical(fast, slow):
    assert fast.stats == slow.stats  # the readable diff, when they differ
    assert pickle.dumps(fast) == pickle.dumps(slow)


class TestFuzzDifferential:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("dvi", DVI_CONFIGS, ids=_IDS)
    @pytest.mark.parametrize("mode", MODES, ids=_MODE_IDS)
    def test_fuzz_programs_identical(self, seed, dvi, mode):
        program = binary(generate_program(seed, FuzzConfig(n_procs=4)), dvi)
        fast, slow = run_both(program, dvi, max_steps=200_000, **mode)
        assert fast.stats.completed
        assert bool(fast.stats.live_hist) == mode.get("collect_live_hist", False)
        assert_identical(fast, slow)


class TestCutDifferential:
    """Runs cut by ``max_steps``, 0 and 1 included: the trace ends at the
    resume pc."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dvi", DVI_CONFIGS, ids=_IDS)
    def test_cut_fuzz_programs_identical(self, seed, dvi):
        program = binary(generate_program(seed, FuzzConfig(n_procs=4)), dvi)
        total = FunctionalSimulator(program, dvi, max_steps=200_000).run()
        assert total.stats.completed
        rows = len(total.trace)
        cuts = [0, 1, *sorted(random.Random(seed).sample(range(2, rows), 6))]
        for cut in cuts:
            for mode in MODES:
                fast, slow = run_both(program, dvi, max_steps=cut, **mode)
                assert not fast.stats.completed
                assert_identical(fast, slow)


class TestWorkloadDifferential:
    """Every registered workload end-to-end."""

    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_registered_workloads_identical(self, name):
        for dvi in (DVIConfig.none(), DVIConfig.full(SRScheme.LVM_STACK)):
            fast, slow = run_both(binary(get_program(name, 1), dvi), dvi)
            assert fast.stats.completed
            assert_identical(fast, slow)
        fast, slow = run_both(get_program(name, 1), DVIConfig.idvi_only(),
                              collect_trace=False, collect_live_hist=True)
        assert_identical(fast, slow)


class TestResumableDifferential:
    def test_chunked_execution_matches_reference(self):
        program = generate_program(42)
        fast = FunctionalSimulator(program, DVIConfig.full())
        while fast.execute(137):
            pass
        slow = ReferenceSimulator(program, DVIConfig.full())
        while slow.execute(137):
            pass
        assert_identical(fast.result(), slow.result())
