"""The artifact-kind table's contract.

:data:`~repro.experiments.runner.ARTIFACT_KINDS` is the one place that
knows which artifacts exist, how each is keyed and how each is
computed; every cell resolves through ``ExperimentContext.cell``.
These tests pin what the rest of the pipeline relies on:

* a cell has one value, whichever path produced it: in-process, a
  pool worker, or a disk-cache replay;
* computing a cold cell looks up exactly itself and its upstream
  chain, once each;
* an experiment's assembly reads only the cells its ``jobs`` enumerated
  (Figure 12's scheduler run, computed during assembly, aside);
* a fresh-timing view shares the input kinds' memo layers and no other.
"""

import pickle

import pytest

from repro.dvi.config import DVIConfig
from repro.experiments import EXPERIMENTS
from repro.experiments.cache import ArtifactCache
from repro.experiments.parallel import Job, execute
from repro.experiments.pool import WarmPool
from repro.experiments.runner import (
    ARTIFACT_KINDS,
    ExperimentContext,
    ExperimentProfile,
)
from repro.sim import functional
from repro.sim.config import MachineConfig
from repro.sim.ooo import core

TINY = ExperimentProfile.tiny()

#: One cell of every standard kind.
CELLS = {
    "binary": Job("binary", "li_like"),
    "trace": Job("trace", "li_like", dvi=DVIConfig.idvi_only()),
    "functional": Job("functional", "li_like", dvi=DVIConfig.none(),
                      live_hist=True),
    "timed": Job("timed", "li_like", dvi=DVIConfig.none(),
                 machine=MachineConfig.micro97().with_phys_regs(42)),
}


def _bytes(value):
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def test_every_standard_kind_has_a_cell_here():
    assert set(CELLS) == set(ARTIFACT_KINDS)


class TestOneValuePerCell:
    @pytest.fixture(scope="class")
    def pooled(self):
        """Every cell computed by pool workers, merged into one context."""
        with WarmPool(2) as pool:
            context = ExperimentContext(TINY, pool=pool)
            execute(list(CELLS.values()), context).check()
        return context

    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_in_process_pool_and_replay_agree(self, kind, pooled, tmp_path):
        cell = CELLS[kind]
        local = ExperimentContext(TINY).cell(cell)

        assert pooled.holds(cell)
        assert _bytes(pooled.cell(cell)) == _bytes(local)

        ExperimentContext(TINY, cache=ArtifactCache(tmp_path)).cell(cell)
        reader = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
        replayed = reader.cell(cell)
        assert reader.cache.misses() == 0
        assert reader.cache.hits(kind) == 1
        assert _bytes(replayed) == _bytes(local)


#: The kinds a cold cell of each kind looks up: itself and its
#: upstream chain.
COLD_LOOKUPS = {
    "binary": {"binary"},
    "trace": {"binary", "trace"},
    "functional": {"binary", "functional"},
    "timed": {"binary", "trace", "timed"},
}


class TestDependencyClosureIsTheComputeChain:
    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_cold_cell_looks_up_itself_and_its_dependencies(
        self, kind, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        ExperimentContext(TINY, cache=cache).cell(CELLS[kind])
        assert set(cache.counters) == COLD_LOOKUPS[kind]
        for counter in cache.counters.values():
            assert (counter.hits, counter.misses, counter.stores) == (0, 1, 1)

    def test_distinct_machines_share_one_trace(self, tmp_path):
        """Two timed cells differing only in machine configuration are
        distinct cells over one trace: a batch computes it once."""
        machines = (MachineConfig.micro97().with_phys_regs(size)
                    for size in (34, 42))
        cells = [Job("timed", "li_like", dvi=DVIConfig.none(),
                     machine=machine) for machine in machines]
        assert cells[0].signature() != cells[1].signature()
        cache = ArtifactCache(tmp_path)
        execute(cells, ExperimentContext(TINY, cache=cache)).check()
        assert {kind: counter.misses
                for kind, counter in cache.counters.items()} == {
            "binary": 1, "trace": 1, "timed": 2,
        }


def test_fresh_timing_views_share_inputs_not_timing():
    """``with_fresh_timing()``: the binary, trace and functional memo
    layers are shared by reference; the timed and experiment-specific
    layers are not."""
    context = ExperimentContext(TINY)
    view = context.with_fresh_timing()
    for cell in CELLS.values():
        view.cell(cell)
    for kind, cell in CELLS.items():
        assert context.holds(cell) == (kind != "timed"), kind
    assert context.cell(CELLS["trace"]) is view.cell(CELLS["trace"])
    timed = context.cell(CELLS["timed"])
    assert timed is not view.cell(CELLS["timed"])
    assert _bytes(timed) == _bytes(view.cell(CELLS["timed"]))

    calls = []
    def compute():
        calls.append(None)
        return len(calls)
    assert context.artifact("probe", ("key",), compute) == 1
    assert context.with_fresh_timing().artifact("probe", ("key",), compute) == 2
    assert context.artifact("probe", ("key",), compute) == 1


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One disk cache for every experiment's cells (cold only once)."""
    return tmp_path_factory.mktemp("assembly-cache")


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_assembly_reads_only_enumerated_cells(name, shared_cache,
                                              monkeypatch):
    module, _ = EXPERIMENTS[name]
    context = ExperimentContext(TINY, cache=ArtifactCache(shared_cache))
    execute(module.jobs(TINY), context).check()
    context.cache.counters = {}

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} assembly ran a simulation")

    monkeypatch.setattr(functional, "run_program", forbidden)
    monkeypatch.setattr(core, "simulate", forbidden)
    module.run(TINY, context)
    looked_up = {
        kind for kind, counter in context.cache.counters.items()
        if counter.hits or counter.misses
    }
    assert looked_up <= ({"fig12_scheduler"} if name == "fig12" else set())
