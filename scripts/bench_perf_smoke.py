#!/usr/bin/env python
"""CI perf-smoke gate: the fast paths must engage and change no output.

Three checks, quick enough for every CI run:

1. **Bench harness runs** — ``bench_simcore.py --skip-run-all`` on a
   scratch output, which measures the hot loops, the native timing
   kernel against its Python oracle, *and* the superblocks dimension
   (fused vs per-pc dispatch on the same workload).  The numbers are
   informational — CI boxes are too noisy to gate on — but the sections
   must exist and report compiled blocks, or superblock compilation
   silently stopped engaging.

Both identity checks compare against one tiny-profile ``run-all`` made
in this process as the code ships (fused dispatch, native timing
kernel); every run gets a fresh cache dir, and JSON manifests are
compared byte for byte.

2. **Fused ≡ per-pc** — the same ``run-all`` with
   ``repro.sim.functional.compile_program`` patched to return no blocks,
   so every instruction steps through its per-pc closure.  The patch
   must have been called, so the check proves the per-pc arm ran.
   Fused dispatch is an optimization, not a semantic: any divergence
   fails the build.

3. **Native kernel ≡ oracle** — the same ``run-all`` with
   ``repro.experiments.runner.simulate`` swapped for the Python core
   (the kernel's oracle).  The kernel must have loaded, so the check
   proves it is the path that ran.

Usage::

    python scripts/bench_perf_smoke.py
    make bench-perf-smoke
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def check_bench_harness(tmp: Path) -> None:
    report_path = tmp / "bench_simcore_smoke.json"
    subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks/perf/bench_simcore.py"),
         "--skip-run-all", "--output", str(report_path)],
        env=_env(), check=True, cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
    )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    section = report["metrics"].get("superblocks")
    if not section:
        raise SystemExit("FAIL: bench report has no `superblocks` section "
                         "- fused dispatch is not engaging")
    if section["blocks_compiled"] <= 0:
        raise SystemExit("FAIL: superblock compiler produced zero blocks")
    print(f"bench ok: {section['blocks_compiled']} blocks, "
          f"mean len {section['mean_block_len']}, "
          f"fused/per-pc = {section['fused_over_per_pc']}x, "
          f"kernel/oracle = "
          f"{report['metrics']['timing_oracle']['kernel_over_oracle']}x")


def run_all(tmp: Path, label: str) -> bytes:
    """The manifest of a tiny ``run-all`` through the CLI, in this process."""
    from repro.__main__ import main as cli

    out_json = tmp / f"run_all_{label}.json"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        status = cli([
            "run-all", "--profile", "tiny",
            "--cache-dir", str(tmp / f"cache_{label}"),
            "--json", str(out_json),
        ])
    if status != 0:
        raise SystemExit(f"FAIL: run-all ({label}) exited {status}")
    return out_json.read_bytes()


def check_fused_matches_per_pc(tmp: Path, shipped: bytes) -> None:
    from repro.sim import functional
    from repro.sim.compile import CompiledProgram

    compile_program = functional.compile_program
    calls = 0

    def no_blocks(program):
        nonlocal calls
        calls += 1
        return CompiledProgram(program.name, len(program.insts), [], [], [])

    functional.compile_program = no_blocks
    try:
        per_pc = run_all(tmp, "per_pc")
    finally:
        functional.compile_program = compile_program
    if not calls:
        raise SystemExit("FAIL: the per-pc arm never asked for blocks - "
                         "it did not run the engine it claims to check")
    if shipped != per_pc:
        raise SystemExit(
            "FAIL: run-all manifest with fused dispatch differs from "
            "per-pc dispatch - fused codegen has diverged semantically"
        )
    print(f"fused byte-identity ok: {len(shipped)} manifest bytes identical "
          f"with fused and per-pc dispatch ({calls} simulators ran per-pc)")


def check_kernel_matches_oracle(tmp: Path, shipped: bytes) -> None:
    from repro.experiments import runner
    from repro.sim.ooo import native
    from repro.sim.ooo.core import OutOfOrderCore

    if native.KERNEL.load() is None:
        raise SystemExit(
            f"FAIL: the native timing kernel did not load: {native.KERNEL.reason}"
        )
    kernel = runner.simulate
    runner.simulate = lambda config, trace: OutOfOrderCore(config, trace).run()
    try:
        oracle = run_all(tmp, "oracle")
    finally:
        runner.simulate = kernel
    if shipped != oracle:
        raise SystemExit(
            "FAIL: run-all manifest on the native timing kernel differs from "
            "the Python core's - the kernel has diverged from its oracle"
        )
    print(f"kernel byte-identity ok: {len(shipped)} manifest bytes "
          "identical on the native kernel and on the Python core")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench-perf-smoke-") as tmp:
        tmp_path = Path(tmp)
        check_bench_harness(tmp_path)
        sys.path.insert(0, SRC)
        shipped = run_all(tmp_path, "shipped")
        check_fused_matches_per_pc(tmp_path, shipped)
        check_kernel_matches_oracle(tmp_path, shipped)
    print("bench-perf-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
