"""The golden grid: the timing core's statistics, pinned per cell.

``tests/data/timing_grid.json`` holds the ``PipelineStats`` counters of
84 runs of the Python core (every suite workload at scale 1 × four DVI
modes × three of five machine configurations, together covering every
predictor, hierarchy preset, 1 to 3 cache ports and issue widths 4 and
8), written by ``scripts/make_timing_grid.py``.  Both the Python core,
the oracle, and the native kernel must reproduce every cell exactly;
``tests/sim/test_native_kernel.py`` fails if a compiler is present but
the kernel did not load, so the kernel half cannot silently drop out.
"""

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.sim.ooo import native
from repro.sim.ooo.core import OutOfOrderCore

ROOT = Path(__file__).resolve().parents[2]
GRID = json.loads((ROOT / "tests" / "data" / "timing_grid.json").read_text())


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "make_timing_grid", ROOT / "scripts" / "make_timing_grid.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = _load_generator()
GROUPS = sorted({(workload, mode) for workload, mode, _, _ in GRID["cells"]})


def _trace(workload, mode):
    return GENERATOR.build_trace(workload, mode)


def _expected(workload, mode):
    """``(config, stats dict)`` for the group's cells."""
    return [
        (GENERATOR.build_machine(GRID["configs"][name]),
         dict(zip(GRID["fields"], values)))
        for w, m, name, values in GRID["cells"]
        if (w, m) == (workload, mode)
    ]


def _counters(stats):
    fields = asdict(stats)
    del fields["extra"]
    return fields


def test_grid_covers_the_configuration_space():
    configs = GRID["configs"].values()
    assert {c["predictor"] for c in configs} >= {
        "comb", "bimodal", "gshare", "local", "static-taken"}
    assert {c["hierarchy"] for c in configs} >= {
        "micro97", "compact", "deep", "slow-memory"}
    assert {1, 3} <= {c["ports"] for c in configs}
    assert {4, 8} <= {c["width"] for c in configs}
    assert len(GROUPS) == 7 * 4
    assert all(len(_expected(*group)) >= 3 for group in GROUPS)


@pytest.mark.parametrize("workload,mode", GROUPS)
def test_oracle_and_kernel_match_grid(workload, mode):
    """One trace per test, so each is built once for both engines."""
    trace = _trace(workload, mode)
    kernel = native.KERNEL.load()
    for config, expected in _expected(workload, mode):
        assert _counters(OutOfOrderCore(config, trace).run()) == expected
        if kernel is not None:
            assert _counters(native.simulate(config, trace)) == expected
