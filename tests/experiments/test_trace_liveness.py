"""A trace leaves the memo after its last reader, when a disk cache holds it.

In-process, :func:`repro.experiments.parallel.execute` counts each
trace's pending timed readers and, once the last has resolved, drops the
trace through :meth:`ExperimentContext.release_trace`.  A later reader
reloads it from the disk cache; a cache-less context keeps every trace,
because dropping one would mean computing it again.  DESIGN §2
"Layering" states the rule.
"""

import json
from pathlib import Path

import pytest

from repro.dvi.config import DVIConfig
from repro.experiments import EXPERIMENTS
from repro.experiments.cache import ArtifactCache
from repro.experiments.export import render_manifest
from repro.experiments.parallel import Job, execute
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.sim import functional
from repro.sim.config import MachineConfig

TINY = ExperimentProfile.tiny()
GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_tiny_manifest.json"
DVI = DVIConfig.idvi_only()
TRACE = Job("trace", "li_like", dvi=DVI)


def timed(regs: int) -> Job:
    return Job("timed", "li_like", dvi=DVI,
               machine=MachineConfig.micro97().with_phys_regs(regs))


def trace_counts(cache: ArtifactCache) -> tuple:
    counter = cache.counters["trace"]
    return counter.hits, counter.misses, counter.stores


class PeakLayer(dict):
    """A memo layer that remembers the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


def test_cold_run_all_holds_at_most_two_traces(tmp_path):
    context = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
    layer = context._memo["trace"] = PeakLayer()
    results = {name: module.run(TINY, context)
               for name, (module, _) in EXPERIMENTS.items()}

    assert layer.peak == 2
    assert len(layer) == 0
    # Figure 13 and the predictor ablation reread two of Figure 5's
    # traces each: every reload is a hit, never a second compute.
    assert trace_counts(context.cache) == (4, 16, 16)
    current = json.loads(render_manifest(TINY.name, results))["results"]
    golden = GOLDEN.read_text(encoding="utf-8")
    expected = json.loads(golden)
    rebuilt = json.dumps({
        "profile": expected["profile"],
        "results": {name: current[name] for name in expected["results"]},
    }, indent=2) + "\n"
    assert rebuilt == golden


def test_last_reader_frees_and_a_later_reader_reloads(tmp_path):
    context = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
    execute([timed(34), timed(42)], context).check()
    assert context.holds(timed(34)) and context.holds(timed(42))
    assert not context.holds(TRACE)
    assert trace_counts(context.cache) == (0, 1, 1)

    execute([timed(50)], context).check()
    assert context.holds(timed(50))
    assert not context.holds(TRACE)
    assert trace_counts(context.cache) == (1, 1, 1)


def test_a_trace_the_batch_lists_stays(tmp_path):
    context = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
    execute([timed(34), TRACE, timed(42)], context).check()
    assert context.holds(TRACE)
    assert trace_counts(context.cache) == (0, 1, 1)


def test_only_timed_cells_count_as_readers(tmp_path):
    """A functional cell of the same (workload, binary, DVI) triple
    reads no trace, so it neither frees one nor holds one back."""
    context = ExperimentContext(TINY, cache=ArtifactCache(tmp_path))
    same_triple = Job("functional", "li_like", dvi=DVI)
    execute([timed(34), same_triple], context).check()
    assert not context.holds(TRACE)
    assert context.holds(same_triple)


@pytest.fixture
def traced_runs(monkeypatch):
    """Counts ``run_program(..., collect_trace=True)`` calls."""
    calls = []
    original = functional.run_program

    def counting(*args, **kwargs):
        if kwargs.get("collect_trace"):
            calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(functional, "run_program", counting)
    return calls


def test_cache_less_context_keeps_every_trace(traced_runs):
    context = ExperimentContext(TINY)
    for name in ("fig5", "predictor"):  # the ablation rereads Figure 5's
        EXPERIMENTS[name][0].run(TINY, context)
    EXPERIMENTS["fig5"][0].run(TINY, context.with_fresh_timing())

    fig5, predictor = ({
        Job("trace", job.workload, dvi=job.dvi, edvi_binary=job.edvi_binary)
        for job in EXPERIMENTS[name][0].jobs(TINY) if job.kind == "timed"
    } for name in ("fig5", "predictor"))
    assert predictor < fig5
    assert len(traced_runs) == len(fig5) == 6
    assert all(context.holds(trace) for trace in fig5)
