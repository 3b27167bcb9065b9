#!/usr/bin/env python
"""Write the timing core's golden grid, ``tests/data/timing_grid.json``.

The grid pins :class:`~repro.sim.ooo.core.OutOfOrderCore`: every suite
workload at scale 1, under four DVI modes, on three of five machine
configurations each (rotating, so every workload meets a different
mix).  Together the five configurations cover every registered branch
predictor, every hierarchy preset, 1 to 3 cache ports and issue widths
4 and 8.  Each cell stores the run's ``PipelineStats`` counters, taken
from the Python core directly, so the file is the oracle's answer.
``tests/sim/test_timing_grid.py`` holds both the Python core and the
native kernel to it.

Regenerate it only when the timing model is meant to change, and from
the revision before that change::

    PYTHONPATH=src python scripts/make_timing_grid.py
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.dvi.config import DVIConfig, SRScheme
from repro.rewrite.edvi import insert_edvi
from repro.sim.config import MachineConfig
from repro.sim.functional import run_program
from repro.sim.ooo.core import OutOfOrderCore
from repro.workloads.suite import ALL_ORDER, get_program

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "tests" / "data" / "timing_grid.json"

#: Mode name -> (DVI configuration, runs the E-DVI-rewritten binary).
MODES = {
    "No DVI": (DVIConfig.none(), False),
    "I-DVI": (DVIConfig.idvi_only(), False),
    "E-DVI and I-DVI": (
        DVIConfig(use_idvi=True, use_edvi=True, scheme=SRScheme.NONE), True
    ),
    "LVM-Stack": (DVIConfig.full(SRScheme.LVM_STACK), True),
}

#: Configuration name -> how to build it from the Figure 2 machine.
CONFIGS = {
    "fig2": {"hierarchy": "micro97", "predictor": "comb",
             "ports": 2, "width": 4, "phys_regs": 64},
    "compact-gshare": {"hierarchy": "compact", "predictor": "gshare",
                       "ports": 1, "width": 4, "phys_regs": 40},
    "deep-local": {"hierarchy": "deep", "predictor": "local",
                   "ports": 3, "width": 8, "phys_regs": 96},
    "slow-bimodal": {"hierarchy": "slow-memory", "predictor": "bimodal",
                     "ports": 1, "width": 8, "phys_regs": 160},
    "static-taken": {"hierarchy": "micro97", "predictor": "static-taken",
                     "ports": 3, "width": 4, "phys_regs": 48},
}

#: Configurations each workload runs on.
PER_WORKLOAD = 3


def build_machine(spec: dict) -> MachineConfig:
    """The MachineConfig a ``CONFIGS`` entry describes."""
    return (
        MachineConfig.micro97()
        .with_hierarchy(spec["hierarchy"])
        .with_predictor(spec["predictor"])
        .with_ports_and_width(spec["ports"], spec["width"])
        .with_phys_regs(spec["phys_regs"])
    )


def build_trace(workload: str, mode: str):
    dvi, edvi_binary = MODES[mode]
    plain = get_program(workload, 1)
    binary = insert_edvi(plain).program if edvi_binary else plain
    return run_program(binary, dvi, collect_trace=True).trace


def grid():
    """``(workload, mode, config name)`` for every cell, in file order."""
    names = list(CONFIGS)
    for index, workload in enumerate(ALL_ORDER):
        for mode in MODES:
            for offset in range(PER_WORKLOAD):
                yield workload, mode, names[(index + offset) % len(names)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(OUTPUT))
    args = parser.parse_args(argv)

    fields = None
    cells = []
    traces = {}
    for workload, mode, name in grid():
        trace = traces.get((workload, mode))
        if trace is None:
            traces.clear()
            trace = traces[workload, mode] = build_trace(workload, mode)
        stats = asdict(OutOfOrderCore(build_machine(CONFIGS[name]), trace).run())
        del stats["extra"]
        fields = fields or list(stats)
        cells.append([workload, mode, name, [stats[f] for f in fields]])
        print(f"{workload:14} {mode:16} {name:15} cycles {stats['cycles']}",
              file=sys.stderr)
    lines = [
        "{",
        f'"modes": {json.dumps(list(MODES))},',
        f'"configs": {json.dumps(CONFIGS)},',
        f'"fields": {json.dumps(fields)},',
        '"cells": [',
        ",\n".join(json.dumps(cell) for cell in cells),
        "]}",
    ]
    Path(args.output).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(cells)} cells to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
