#!/usr/bin/env python
"""CI replay check: a warm run-all replays every cell from the cache.

Runs the quick-profile ``run-all`` twice on one fresh cache directory:
cold with ``--jobs 2`` (every cell on the worker pool), then warm with
``--jobs 1`` (in-process).  Fails unless

* the two ``--json`` manifests are byte-identical, and
* the warm run's ``cache [...]`` stderr line reports 0 misses for every
  artifact kind.

So every push checks that a parallel cold run, a serial warm run, and
the cache between them give the same bytes.

Usage::

    python scripts/replay_smoke.py
    make smoke-replay
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")

#: One ``<kind>: H hit / M miss / S stored`` entry of the cache line.
_ENTRY = re.compile(r"(\w+): (\d+) hit / (\d+) miss / (\d+) stored")


def _run_all(cache_dir: Path, manifest: Path, jobs: int) -> str:
    """One quick ``run-all``; returns its ``cache [...]`` stderr line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run-all", "--profile", "quick",
         "--jobs", str(jobs), "--cache-dir", str(cache_dir),
         "--json", str(manifest)],
        env=env, cwd=REPO_ROOT, check=True, text=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    lines = [line for line in done.stderr.splitlines()
             if line.startswith("cache [")]
    if not lines:
        raise SystemExit(f"FAIL: --jobs {jobs} run printed no cache line")
    return lines[-1]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
        root = Path(tmp)
        cold, warm = root / "cold.json", root / "warm.json"
        _run_all(root / "cache", cold, jobs=2)
        line = _run_all(root / "cache", warm, jobs=1)
        if cold.read_bytes() != warm.read_bytes():
            raise SystemExit("FAIL: the warm --jobs 1 manifest differs "
                             "from the cold --jobs 2 manifest")
    entries = _ENTRY.findall(line)
    missed = [f"{kind}: {misses}" for kind, _, misses, _ in entries
              if int(misses)]
    if not entries or missed:
        raise SystemExit(f"FAIL: the warm run missed the cache: {line}")
    print(f"replay ok: manifests byte-identical; warm run {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
