"""The ``run-all`` workloads: reproduce-cold and reproduce-warm.

Both time ``python -m repro run-all --profile tiny --json F`` as a child
process with the CLI's default ``--jobs 1``.

* reproduce-cold: every invocation gets an empty ``--cache-dir``, so it
  builds, traces and simulates the whole tiny figure set (72 timed and
  36 functional cells).  Set-up is a throwaway ``repro machine`` call
  that imports every module ``run-all`` uses, so bytecode compilation is
  never timed.
* reproduce-warm: set-up fills one cache with a cold invocation; every
  timed invocation then reads that cache and simulates nothing.

Every time is reported as measured and scaled to the nominal host speed
(``common.Speedometer``); the metrics are the scaled times.

Every manifest must match each section of the golden tiny manifest byte
for byte (``predictor`` is the only section it may add), and every
manifest of a run must be byte-identical to the run's first one.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    CACHE_KINDS, GOLDEN, HERE, Invocation, Outcome, Series, Speedometer,
    WorkDir, child_env, invoke,
)

RUN_ALL = ("run-all", "--profile", "tiny")
THROWAWAY = ("machine",)

#: A cold tiny run-all takes 10-14 s on a 2-vCPU host, so a run makes
#: ``seconds // COLD_NOMINAL_S`` cold invocations (at least one).
COLD_NOMINAL_S = 12

#: reproduce-cold's set-up (about 0.3 s) is repeated and its median
#: reported.
SETUP_REPEATS = 5

_COUNTER = re.compile(r"(\w+): (\d+) hit / (\d+) miss / (\d+) stored")


def command(args, spans: Optional[Path] = None) -> List[str]:
    """The child's argv: the stock entry point, or the tracing bootstrap."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "bootstrap.py"), str(spans), *args]


class Golden:
    """The byte-exact tiny manifest every ``run-all`` must reproduce."""

    def __init__(self) -> None:
        self.doc = json.loads(GOLDEN.read_bytes())

    def problems(self, raw: bytes) -> List[str]:
        try:
            doc = json.loads(raw)
        except ValueError as error:
            return [f"manifest is not JSON: {error}"]
        if (json.dumps(doc, indent=2) + "\n").encode("utf-8") != raw:
            return ["manifest is not in the CLI's canonical rendering"]
        found = []
        if doc.get("profile") != self.doc["profile"]:
            found.append(f"profile {doc.get('profile')!r} != 'tiny'")
        results = doc.get("results", {})
        expected = self.doc["results"]
        added = set(results) - set(expected)
        if added != {"predictor"}:
            found.append(f"added sections {sorted(added)} != ['predictor']")
        for name, section in expected.items():
            if name not in results:
                found.append(f"section {name} missing")
            elif (json.dumps(results[name], indent=2)
                  != json.dumps(section, indent=2)):
                found.append(f"section {name} differs from the golden manifest")
        return found


def cache_counters(stderr: Path) -> Dict[str, int]:
    """Per-kind cache counters from the CLI's ``cache [...]`` stderr line."""
    counts = {}
    for kind, hits, misses, stores in _COUNTER.findall(
            stderr.read_text(encoding="utf-8", errors="replace")):
        counts[f"experiments.cache.hits.{kind}"] = int(hits)
        counts[f"experiments.cache.misses.{kind}"] = int(misses)
        counts[f"experiments.cache.stores.{kind}"] = int(stores)
    for kind in CACHE_KINDS:
        for what in ("hits", "misses", "stores"):
            counts.setdefault(f"experiments.cache.{what}.{kind}", 0)
    return counts


def layers(spans_path: Path, wall_s: float) -> Dict[str, float]:
    """Per-layer totals of one traced invocation.

    Every ``_s`` figure is self time: the span's duration minus the part
    its child spans cover, so the figures add up.  ``other_s`` is the
    invocation's wall time less start-up and every root span.
    """
    doc = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _name, parent, start, end, _counts in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    counts: Dict[str, int] = {}
    roots = 0.0
    for i, (name, parent, start, end, extra) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            roots += end - start
        for key, value in (extra or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value

    def rate(insts: str, layer: str) -> float:
        seconds = self_s.get(layer, 0.0)
        return counts.get(insts, 0) / 1e6 / seconds if seconds else 0.0

    return {
        "cli.import_ms": doc["import_s"] * 1000.0,
        "workloads.build_calls": calls.get("workloads.build", 0),
        "workloads.build_s": self_s.get("workloads.build", 0.0),
        "rewrite.edvi_s": self_s.get("rewrite.edvi", 0.0),
        "sim.functional.calls": calls.get("sim.functional", 0),
        "sim.functional.s": self_s.get("sim.functional", 0.0),
        "sim.functional.minsts": counts.get("sim.functional.insts", 0) / 1e6,
        "sim.functional.minst_per_s": rate("sim.functional.insts",
                                           "sim.functional"),
        "sim.ooo.calls": calls.get("sim.ooo", 0),
        "sim.ooo.s": self_s.get("sim.ooo", 0.0),
        "sim.ooo.minsts": counts.get("sim.ooo.insts", 0) / 1e6,
        "sim.ooo.mcycles": counts.get("sim.ooo.cycles", 0) / 1e6,
        "sim.ooo.minst_per_s": rate("sim.ooo.insts", "sim.ooo"),
        "experiments.cache.key_calls": calls.get("experiments.cache.key", 0),
        "experiments.cache.key_s": self_s.get("experiments.cache.key", 0.0),
        "experiments.cache.load_calls": calls.get("experiments.cache.load", 0),
        "experiments.cache.load_hits": counts.get(
            "experiments.cache.load.hits", 0),
        "experiments.cache.load_s": self_s.get("experiments.cache.load", 0.0),
        "experiments.cache.load_mb": counts.get(
            "experiments.cache.load.bytes", 0) / 1e6,
        "experiments.cache.store_calls": calls.get(
            "experiments.cache.store", 0),
        "experiments.cache.store_s": self_s.get("experiments.cache.store",
                                                0.0),
        "experiments.cache.store_mb": counts.get(
            "experiments.cache.store.bytes", 0) / 1e6,
        "experiments.self_s": self_s.get("experiments.run", 0.0),
        "experiments.export_s": self_s.get("experiments.export", 0.0),
        "other_s": wall_s - doc["import_s"] - roots,
    }


class Runner:
    """Runs checked ``repro`` children inside one work directory."""

    def __init__(self, work: WorkDir, seed: int, outcome: Outcome) -> None:
        self.work = work
        self.env = child_env(seed)
        self.outcome = outcome
        self.golden = Golden()
        self.reference: Optional[bytes] = None

    def throwaway(self, setup: Series) -> None:
        """One ``repro machine`` call, timed into ``setup``."""
        started = time.perf_counter()
        inv = invoke(command(THROWAWAY), self.env, self.work.fresh("machine"))
        self.outcome.op(self.exit_problems(inv))
        ended = time.perf_counter()
        setup.add(ended - started, started, ended)

    def exit_problems(self, inv: Invocation) -> List[str]:
        if inv.code == 0:
            return []
        lines = inv.stderr.read_text(encoding="utf-8",
                                     errors="replace").strip().splitlines()
        return [f"{' '.join(inv.argv[1:4])} ... exited {inv.code}: "
                f"{lines[-1] if lines else ''}"]

    def run_all(self, cache: Path, traced: bool = False):
        """One checked ``run-all``; returns ``(invocation, layer dict)``.

        The manifest must reproduce the golden sections, and must equal
        the first manifest this runner saw byte for byte.
        """
        out = self.work.fresh("run-all")
        manifest = out / "manifest.json"
        spans = out / "spans.json" if traced else None
        args = (*RUN_ALL, "--cache-dir", str(cache), "--json", str(manifest))
        inv = invoke(command(args, spans), self.env, out)
        problems = self.exit_problems(inv)
        if not problems:
            problems = self.manifest_problems(manifest.read_bytes())
        layer = None
        if not problems:
            layer = cache_counters(inv.stderr)
            if traced:
                layer.update(layers(spans, inv.wall_s))
        self.outcome.op(problems)
        return inv, layer

    def manifest_problems(self, raw: bytes) -> List[str]:
        if self.reference is None:
            problems = self.golden.problems(raw)
            if not problems:
                self.reference = raw
            return problems
        if raw != self.reference:
            return ["manifest differs from this run's first manifest"]
        return []


class Timings:
    """A run's passing invocations, split into untraced and traced."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.plain = Series(f"{name} as measured", "ms")
        self.traced = Series(f"traced {name} as measured", "ms")
        self.rss: List[float] = []
        self.layers: List[dict] = []

    def record(self, inv: Invocation, layer: Optional[dict],
               traced: bool) -> None:
        if layer is None:
            return  # failed: counted by the runner, not timed
        series = self.traced if traced else self.plain
        series.add(inv.wall_s * 1000, inv.started, inv.ended)
        if traced:
            self.layers.append(layer)
        else:
            self.rss.append(inv.maxrss_mb)

    def finish(self, outcome: Outcome, trace: bool, setup: Series,
               speed: Speedometer) -> None:
        """End-to-end metrics, or per-layer medians and tracing overhead."""
        speed.stop()
        plain = self.plain.scaled(speed, self.name)
        outcome.report += [plain.describe(), self.plain.describe()]
        if not trace:
            if self.plain.samples:
                scaled_setup = setup.scaled(speed, "setup_s")
                outcome.put("setup_s", scaled_setup.median(),
                            len(setup.samples))
                outcome.put("rss_peak_mb", max(self.rss), len(self.rss))
                outcome.put("latency_ms", plain.median(),
                            len(plain.samples))
                outcome.report += [scaled_setup.describe(), setup.describe()]
            return
        for name in self.layers[0] if self.layers else ():
            outcome.put(name, statistics.median(
                layer[name] for layer in self.layers), len(self.layers))
        if self.traced.samples and self.plain.samples:
            traced = self.traced.scaled(speed, f"traced {self.name}")
            outcome.put("trace.overhead_ms", traced.median() - plain.median(),
                        len(traced.samples) + len(plain.samples))
            outcome.report.append(traced.describe())


def reproduce_cold(seconds: int, seed: int, trace: bool,
                   speed: Speedometer) -> Outcome:
    outcome = Outcome()
    setup = Series("setup_s as measured", "s")
    timings = Timings("cold_ms")
    with WorkDir("reproduce-cold") as work:
        runner = Runner(work, seed, outcome)
        for _ in range(SETUP_REPEATS):
            runner.throwaway(setup)
        count = max(1, seconds // COLD_NOMINAL_S)
        if trace:
            count = 2 * max(1, count // 2)
        for i in range(count):
            traced = trace and i % 2 == 0
            inv, layer = runner.run_all(work.fresh("cache"), traced)
            timings.record(inv, layer, traced)
    timings.finish(outcome, trace, setup, speed)
    return outcome


def reproduce_warm(seconds: int, seed: int, trace: bool,
                   speed: Speedometer) -> Outcome:
    outcome = Outcome()
    setup = Series("setup_s as measured", "s")
    timings = Timings("warm_ms")
    with WorkDir("reproduce-warm") as work:
        runner = Runner(work, seed, outcome)
        started = time.perf_counter()
        cache = work.fresh("cache")
        runner.run_all(cache)
        ended = time.perf_counter()
        setup.add(ended - started, started, ended)
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            traced = trace and i % 2 == 0
            inv, layer = runner.run_all(cache, traced)
            timings.record(inv, layer, traced)
            i += 1
    timings.finish(outcome, trace, setup, speed)
    return outcome
