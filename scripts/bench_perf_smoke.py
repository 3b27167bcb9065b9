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

2. **Superblock byte-identity** — ``run-all`` on the tiny profile with
   superblocks enabled and disabled (``REPRO_SUPERBLOCKS=0``), fresh
   cache dirs, JSON manifests compared byte for byte.  Fused dispatch
   is an optimization, not a semantic: any divergence fails the build.

3. **Kernel byte-identity** — the same tiny ``run-all``, in this
   process, once on the native timing kernel and once with
   ``repro.experiments.runner.simulate`` swapped for the Python core
   (the kernel's oracle).  The manifests must be byte-identical, and
   the kernel must have loaded, so the check proves it is the path that
   ran.

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


def _env(**overrides: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update(overrides)
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


def check_byte_identity(tmp: Path) -> None:
    outputs = {}
    for mode, overlay in (("fused", {}), ("per_pc", {"REPRO_SUPERBLOCKS": "0"})):
        out_json = tmp / f"run_all_{mode}.json"
        cache_dir = tmp / f"cache_{mode}"
        subprocess.run(
            [sys.executable, "-m", "repro", "run-all", "--profile", "tiny",
             "--cache-dir", str(cache_dir), "--json", str(out_json)],
            env=_env(**overlay), check=True, cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        outputs[mode] = out_json.read_bytes()
    if outputs["fused"] != outputs["per_pc"]:
        raise SystemExit(
            "FAIL: run-all manifest with superblocks enabled differs from "
            "per-pc dispatch - fused codegen has diverged semantically"
        )
    print(f"byte-identity ok: {len(outputs['fused'])} manifest bytes "
          "identical with superblocks on and off")


def check_kernel_matches_oracle(tmp: Path) -> None:
    sys.path.insert(0, SRC)
    from repro.__main__ import main as cli
    from repro.experiments import runner
    from repro.sim.ooo import native
    from repro.sim.ooo.core import OutOfOrderCore

    if native.KERNEL.load() is None:
        raise SystemExit(
            f"FAIL: the native timing kernel did not load: {native.KERNEL.reason}"
        )
    kernel = runner.simulate
    engines = {
        "kernel": kernel,
        "oracle": lambda config, trace: OutOfOrderCore(config, trace).run(),
    }
    outputs = {}
    for engine, simulate in engines.items():
        out_json = tmp / f"run_all_{engine}.json"
        runner.simulate = simulate
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                status = cli([
                    "run-all", "--profile", "tiny",
                    "--cache-dir", str(tmp / f"cache_{engine}"),
                    "--json", str(out_json),
                ])
        finally:
            runner.simulate = kernel
        if status != 0:
            raise SystemExit(f"FAIL: run-all on the {engine} exited {status}")
        outputs[engine] = out_json.read_bytes()
    if outputs["kernel"] != outputs["oracle"]:
        raise SystemExit(
            "FAIL: run-all manifest on the native timing kernel differs from "
            "the Python core's - the kernel has diverged from its oracle"
        )
    print(f"kernel byte-identity ok: {len(outputs['kernel'])} manifest bytes "
          "identical on the native kernel and on the Python core")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench-perf-smoke-") as tmp:
        tmp_path = Path(tmp)
        check_bench_harness(tmp_path)
        check_byte_identity(tmp_path)
        check_kernel_matches_oracle(tmp_path)
    print("bench-perf-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
