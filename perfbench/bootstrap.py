"""Traced entry point for CLI children.

Usage::

    python perfbench/bootstrap.py SPANS.json run-all --profile tiny ...

Runs the same ``repro`` command line as ``python -m repro ...``, with
the public function of each layer wrapped in place so every call leaves
a span: name, parent span, start, end, and the counts the call returned
(simulated instructions and cycles, cache hit and bytes).  Importing
``repro.__main__`` and computing ``code_version()`` is timed first, as
the CLI's start-up cost.  Spans stay in memory while the program runs
and are written to ``SPANS.json`` at exit, so tracing does no I/O of
its own inside the measured work.

Nothing in the program changes: the wrappers call the original
functions and return their results untouched.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time

ORIGIN = time.perf_counter()


class Recorder:
    """In-memory span store; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self._local = threading.local()

    def wrap(self, name, function, count=None):
        """``function`` recording a span named ``name`` per call.

        ``count(args, result)`` returns the call's counts as a dict.
        """
        spans, local = self.spans, self._local

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, stack[-1] if stack else None, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[2] = time.perf_counter() - ORIGIN
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = time.perf_counter() - ORIGIN
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def dump(self, path: str, import_s: float) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, -1 if parent is None else index[id(parent)],
             start, end, counts]
            for name, parent, start, end, counts in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "spans": rows}, handle)


def _functional_counts(args, result):
    stats = result.stats
    return {"insts": stats.program_insts + stats.kill_insts}


def _ooo_counts(args, result):
    return {"insts": result.committed, "cycles": result.cycles}


def _load_counts(args, result):
    cache, kind, digest = args[:3]
    hit = bool(result[0])
    size = os.path.getsize(cache._path(kind, digest)) if hit else 0
    return {"hits": int(hit), "bytes": size}


def _store_counts(args, result):
    cache, kind, digest = args[:3]
    return {"bytes": os.path.getsize(cache._path(kind, digest))}


def install(recorder: Recorder) -> None:
    """Wrap each layer's public functions wherever the name was imported."""
    from repro.experiments import EXPERIMENTS, cache, export
    from repro.rewrite import edvi
    from repro.sim import functional
    from repro.sim.ooo import core
    from repro.workloads import suite

    by_name = {
        "get_program": ("workloads.build", suite.get_program, None),
        "insert_edvi": ("rewrite.edvi", edvi.insert_edvi, None),
        "run_program": ("sim.functional", functional.run_program,
                        _functional_counts),
        "simulate": ("sim.ooo", core.simulate, _ooo_counts),
        "fingerprint": ("experiments.cache.key", cache.fingerprint, None),
        "render_manifest": ("experiments.export", export.render_manifest,
                            None),
    }
    for attr, (name, original, count) in by_name.items():
        traced = recorder.wrap(name, original, count)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                setattr(module, attr, traced)

    store = cache.ArtifactCache
    store.load_digest = recorder.wrap(
        "experiments.cache.load", store.load_digest, _load_counts)
    store.store_digest = recorder.wrap(
        "experiments.cache.store", store.store_digest, _store_counts)
    for module, _description in EXPERIMENTS.values():
        module.run = recorder.wrap("experiments.run", module.run)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.__main__ as cli
    from repro.experiments.cache import code_version

    code_version()
    import_s = time.perf_counter() - ORIGIN
    recorder = Recorder()
    install(recorder)
    atexit.register(recorder.dump, spans_path, import_s)
    return cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
