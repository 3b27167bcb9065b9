#!/usr/bin/env python
"""CI perf-smoke gate: the native engines must load and change no output.

Three checks, quick enough for every CI run:

1. **Bench harness runs** — ``bench_simcore.py --skip-run-all`` on a
   scratch output, which measures the hot loops: the native functional
   engine against its Python oracle (``functional_oracle``) and the
   native timing kernel against its (``timing_oracle``).  The numbers
   are informational — CI boxes are too noisy to gate on — but both
   sections must exist.

Both identity checks compare against one tiny-profile ``run-all`` made
in this process as the code ships (native functional engine, native
timing kernel); every run gets a fresh cache dir, and JSON manifests
are compared byte for byte.

2. **Native functional ≡ Python engine** — the same ``run-all`` with
   ``repro.sim.functional.simulator`` (and the scheduler's reference to
   it) patched to return the per-pc Python engine.  The patch must have
   been called, so the check proves the Python arm ran, and the native
   engine must have loaded, so it proves the shipped arm ran on it.

3. **Native kernel ≡ oracle** — the same ``run-all`` with
   ``repro.sim.ooo.core.simulate`` swapped for the Python core
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
    metrics = json.loads(report_path.read_text(encoding="utf-8"))["metrics"]
    for section in ("functional_oracle", "timing_oracle"):
        if section not in metrics:
            raise SystemExit(f"FAIL: bench report has no `{section}` section")
    print(f"bench ok: functional engine/oracle = "
          f"{metrics['functional_oracle']['engine_over_oracle']}x, "
          f"kernel/oracle = {metrics['timing_oracle']['kernel_over_oracle']}x")


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


def check_engine_matches_python(tmp: Path, shipped: bytes) -> None:
    from repro.sim import functional, functional_native
    from repro.threads import scheduler

    if functional_native.ENGINE.load() is None:
        raise SystemExit("FAIL: the native functional engine did not load: "
                         f"{functional_native.ENGINE.reason}")
    calls = 0

    def python_engine(*args, **kwargs):
        nonlocal calls
        calls += 1
        return functional.FunctionalSimulator(*args, **kwargs)

    shipped_engine = functional.simulator
    functional.simulator = scheduler.simulator = python_engine
    try:
        python = run_all(tmp, "python")
    finally:
        functional.simulator = scheduler.simulator = shipped_engine
    if not calls:
        raise SystemExit("FAIL: the Python arm never built a simulator - "
                         "it did not run the engine it claims to check")
    if shipped != python:
        raise SystemExit(
            "FAIL: run-all manifest on the native functional engine differs "
            "from the Python engine's - the engine has diverged from its oracle"
        )
    print(f"functional byte-identity ok: {len(shipped)} manifest bytes "
          f"identical on the native engine and on the Python engine "
          f"({calls} simulators ran on Python)")


def check_kernel_matches_oracle(tmp: Path, shipped: bytes) -> None:
    from repro.sim.ooo import core, native

    if native.KERNEL.load() is None:
        raise SystemExit(
            f"FAIL: the native timing kernel did not load: {native.KERNEL.reason}"
        )
    kernel = core.simulate
    core.simulate = lambda config, trace: core.OutOfOrderCore(config, trace).run()
    try:
        oracle = run_all(tmp, "oracle")
    finally:
        core.simulate = kernel
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
        check_engine_matches_python(tmp_path, shipped)
        check_kernel_matches_oracle(tmp_path, shipped)
    print("bench-perf-smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
