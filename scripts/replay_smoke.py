#!/usr/bin/env python
"""CI replay check: warm run-alls replay cells and figure documents.

Runs the quick-profile ``run-all`` three times on one fresh cache
directory:

1. cold with ``--jobs 2``: every cell on the worker pool, and one
   figure document (kind ``service``) stored per figure;
2. warm with ``--jobs 1`` after deleting ``<cache>/service/``: with no
   documents, every figure replays its cells in-process from what the
   pool workers stored, and stores its document again;
3. warm with ``--jobs 1`` keeping the documents: every figure is read
   back from its document and no cell is touched.

Fails unless

* the three ``--json`` manifests are byte-identical,
* run 2's ``cache [...]`` stderr line reports hits and 0 misses for
  the cell kinds (``binary``, ``functional``, ``timed``), 0 misses for
  every other cell kind, and one missed and stored document per
  figure, and
* run 3's line lists only ``service``, with one hit per figure and no
  miss or store.

So every push checks that a parallel cold run, a serial replay of its
cells, a replay of its documents, and the cache between them give the
same bytes.

Usage::

    python scripts/replay_smoke.py
    make smoke-replay
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")

#: One ``<kind>: H hit / M miss / S stored`` entry of the cache line.
_ENTRY = re.compile(r"(\w+): (\d+) hit / (\d+) miss / (\d+) stored")

#: The artifact kind figure documents are stored under.
DOCUMENTS = "service"

#: Cell kinds every figure replay reads (a warm run reads no trace: the
#: timed cells that need one are hits themselves).
REPLAYED_CELLS = ("binary", "functional", "timed")


def _run_all(cache_dir: Path, manifest: Path, jobs: int) -> dict:
    """One quick ``run-all``; returns its ``cache [...]`` line as
    ``{kind: (hits, misses, stored)}``."""
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
    return {kind: tuple(map(int, counts))
            for kind, *counts in _ENTRY.findall(lines[-1])}


def _describe(counters: dict) -> str:
    return "; ".join(f"{kind}: {h} hit / {m} miss / {s} stored"
                     for kind, (h, m, s) in sorted(counters.items()))


def _check_cell_replay(counters: dict) -> int:
    """Run 2: cells all hit, documents all rewritten; returns the number
    of figures."""
    missed = [kind for kind, (_, misses, _) in counters.items()
              if kind != DOCUMENTS and misses]
    unread = [kind for kind in REPLAYED_CELLS
              if counters.get(kind, (0, 0, 0))[0] == 0]
    hits, misses, stored = counters.get(DOCUMENTS, (0, 0, 0))
    if missed or unread or hits or not misses or stored != misses:
        raise SystemExit("FAIL: the warm run without documents did not "
                         f"replay every cell: {_describe(counters)}")
    return misses


def _check_document_replay(counters: dict, figures: int) -> None:
    """Run 3: one document hit per figure and nothing else."""
    if counters != {DOCUMENTS: (figures, 0, 0)}:
        raise SystemExit("FAIL: the warm run with documents did not read "
                         f"exactly {figures} documents: "
                         f"{_describe(counters)}")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
        root = Path(tmp)
        cache = root / "cache"
        cold, cells, documents = (root / "cold.json", root / "cells.json",
                                  root / "documents.json")
        _run_all(cache, cold, jobs=2)
        shutil.rmtree(cache / DOCUMENTS)
        cell_counters = _run_all(cache, cells, jobs=1)
        document_counters = _run_all(cache, documents, jobs=1)
        for manifest, run in ((cells, "cell"), (documents, "document")):
            if manifest.read_bytes() != cold.read_bytes():
                raise SystemExit(f"FAIL: the warm --jobs 1 {run} replay's "
                                 "manifest differs from the cold --jobs 2 "
                                 "manifest")
    figures = _check_cell_replay(cell_counters)
    _check_document_replay(document_counters, figures)
    print("replay ok: manifests byte-identical; cell replay "
          f"[{_describe(cell_counters)}]; document replay "
          f"[{_describe(document_counters)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
