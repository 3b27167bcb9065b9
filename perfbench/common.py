"""Shared plumbing for the benchmark: paths, child processes, statistics.

Everything here runs in the benchmark's own process.  The program under
test only ever runs as a child process started from the checkout root,
so the benchmark measures exactly what a user's shell would start.

The benchmark and everything it starts run on one CPU, the *program
CPU*, where a speedometer thread samples the CPU's speed throughout the
run.  Every timed operation is reported both as measured and scaled to
a nominal host speed (see ``Speedometer``); the end-to-end metrics are
the scaled figures.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden_tiny_manifest.json"
WORK_ROOT = ROOT / ".perfbench-work"

#: A child that runs longer than this is killed and counted as failed,
#: so one wedged process cannot push a run past its deadline.
CHILD_TIMEOUT_S = 120.0

#: One host-speed sample: a pure-Python loop of this length, timed in the
#: sampling thread's own CPU time.
SAMPLE_ITERATIONS = 100_000
#: What one sample takes at the nominal host speed.  A scaled time reads
#: as if every sample had taken exactly this long.
NOMINAL_SAMPLE_MS = 10.0
#: Time between samples (each takes about 4% of the program CPU).
SAMPLE_PERIOD_S = 0.25
#: Samples this close to an operation's start or end still count for it.
WINDOW_MARGIN_S = 0.5

#: Artifact kinds whose cache counters are reported.
CACHE_KINDS = ("binary", "trace", "functional", "timed", "fig12_scheduler",
               "service")


class CheckoutError(RuntimeError):
    """The directory holds no program to measure."""


def check_checkout() -> None:
    """Refuse to run without the program's sources and golden manifest."""
    for needed in (SRC / "repro" / "__main__.py", GOLDEN):
        if not needed.is_file():
            raise CheckoutError(f"missing {needed.relative_to(ROOT)}")


def child_env(seed: int) -> Dict[str, str]:
    """Environment for every child: sources on the path, seeded hashing.

    ``REPRO_*`` variables are dropped so that nothing inherited from the
    caller's shell (fault injection, engine switches) changes the
    program being measured.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


#: The one CPU the benchmark, the program under test and the speedometer
#: share.  The host's speed drifts by up to 2x over seconds to minutes,
#: separately on each vCPU, so the speedometer can only correct for work
#: on the CPU it samples.
PROGRAM_CPU = max(os.sched_getaffinity(0))


def pin_to_program_cpu() -> None:
    """Run the calling thread, and every thread and child it starts
    later, on the program CPU."""
    os.sched_setaffinity(0, {PROGRAM_CPU})


class WorkDir:
    """A private scratch directory inside the checkout, removed on exit."""

    def __init__(self, tag: str) -> None:
        self.path = WORK_ROOT / f"{tag}-{os.getpid()}"
        self._count = 0

    def __enter__(self) -> "WorkDir":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still holds a directory there

    def fresh(self, name: str) -> Path:
        """A new, empty, uniquely named directory."""
        self._count += 1
        path = self.path / f"{name}-{self._count}"
        path.mkdir()
        return path


@dataclass
class Invocation:
    """One finished child process; ``started``/``ended`` are
    ``perf_counter`` readings around its spawn and reap."""

    argv: List[str]
    code: int
    started: float
    ended: float
    maxrss_mb: float
    stdout: Path
    stderr: Path

    @property
    def wall_s(self) -> float:
        return self.ended - self.started


def invoke(argv: Sequence[str], env: Dict[str, str], out_dir: Path) -> Invocation:
    """Run ``argv`` from the checkout root and wait for it.

    Wall time runs from just before the spawn to the reap.  Peak RSS
    comes from the child's own ``wait4`` rusage, so it is the child's
    alone.  Output goes to files, never pipes, so a chatty child cannot
    block on a full pipe while we wait.
    """
    stdout, stderr = out_dir / "stdout", out_dir / "stderr"
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(list(argv), proc.returncode, started, ended,
                      usage.ru_maxrss / 1024.0, stdout, stderr)


# ----------------------------------------------------------------------
# Sample statistics.
# ----------------------------------------------------------------------

def tail(samples: Sequence[float]) -> Optional[tuple]:
    """``(percentile, value)`` of the highest percentile that has at least
    ten samples beyond it (nearest rank).

    With ``n`` samples that is the ``n - 10``-th smallest, the
    ``100 * (n - 10) / n``-th percentile: p99.8 of 5000 samples, p66.7
    of 30.  ``None`` up to 20 samples, where it would not lie above the
    median.
    """
    n = len(samples)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


@dataclass
class Series:
    """Named samples of one timing, reported as median plus tail.

    Samples added with ``add`` keep the ``perf_counter`` window they were
    measured in, so that ``scaled`` can correct them for host speed.
    """

    name: str
    unit: str
    samples: List[float] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)

    def add(self, value: float, start: float, end: float) -> None:
        self.samples.append(value)
        self.windows.append((start, end))

    def median(self) -> float:
        return statistics.median(self.samples)

    def scaled(self, speed: "Speedometer", name: str) -> "Series":
        """The samples as if the host had run at its nominal speed."""
        assert len(self.windows) == len(self.samples), self.name
        return Series(name, self.unit,
                      [value * speed.factor(*window) for value, window
                       in zip(self.samples, self.windows)],
                      list(self.windows))

    def describe(self) -> str:
        if not self.samples:
            return f"{self.name}: no samples"
        text = f"{self.name}: median {self.median():.4f} {self.unit}"
        found = tail(self.samples)
        if found is not None:
            pct, value = found
            text += f", p{pct:.1f} {value:.4f} {self.unit}"
        if len(self.samples) <= 5:
            return text + " (n=%d: %s)" % (len(self.samples), ", ".join(
                f"{x:.4f}" for x in self.samples))
        return text + f" (n={len(self.samples)})"


# ----------------------------------------------------------------------
# Host speed: a speedometer that scales timings, and a diagnostic.
# ----------------------------------------------------------------------

def _sample_ms() -> float:
    """CPU milliseconds of one ``SAMPLE_ITERATIONS`` probe loop."""
    started = time.thread_time()
    acc = 0
    for i in range(SAMPLE_ITERATIONS):
        acc += i * i % 7
    return (time.thread_time() - started) * 1000.0


class Speedometer:
    """Samples the program CPU's speed every ``SAMPLE_PERIOD_S``.

    A thread on the program CPU times a fixed pure-Python loop in its
    own CPU time, so a sample measures how fast that CPU runs Python, not
    how long the thread waited for it.  The program shares the CPU and
    is a Python interpreter too, so its speed follows the samples: in
    two sets of ten 25-s runs of reproduce-warm on a 2-vCPU host, the
    median invocation time spread (IQR/median) 0.17 and 0.09 as
    measured, 0.02 and 0.03 scaled.

    ``factor(start, end)`` is the host's mean speed over a window
    relative to nominal, ``mean(NOMINAL_SAMPLE_MS / sample)`` over the
    samples taken within ``WINDOW_MARGIN_S`` of it; a time multiplied by
    it reads as if the host had run at the nominal speed all along.
    Query only after ``stop``, so every window has its later samples.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speedometer",
                                        daemon=True)

    def __enter__(self) -> "Speedometer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()

    def _sample(self) -> None:
        started = time.perf_counter()
        ms = _sample_ms()
        self.samples.append(((started + time.perf_counter()) / 2, ms))

    def _run(self) -> None:
        pin_to_program_cpu()
        self._sample()
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._sample()
        self._sample()

    def factor(self, start: float, end: float) -> float:
        assert not self._thread.is_alive(), "query after stop()"
        return statistics.fmean(
            NOMINAL_SAMPLE_MS / ms for at, ms in self.samples
            if start - WINDOW_MARGIN_S <= at <= end + WINDOW_MARGIN_S)

    def speeds(self) -> List[float]:
        return [NOMINAL_SAMPLE_MS / ms for _at, ms in self.samples]

    def describe(self) -> str:
        speeds = self.speeds()
        return (f"host speed on CPU {PROGRAM_CPU}: mean "
                f"{statistics.fmean(speeds):.3f} x nominal, range "
                f"{min(speeds):.3f}-{max(speeds):.3f} (n={len(speeds)} "
                f"samples; nominal {NOMINAL_SAMPLE_MS:g} ms each)")


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (empty if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_pct(before: List[int], after: List[int]) -> float:
    """Share of all CPU ticks between two samples that the host stole."""
    if len(before) < 8 or len(after) < 8:
        return 0.0
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else 0.0


def probe_ms() -> float:
    """Median of three host-speed samples."""
    return statistics.median(_sample_ms() for _ in range(3))


class HostWatch:
    """Steal share and loop speed around one workload run: a diagnostic
    only, never applied to a metric."""

    def __enter__(self) -> "HostWatch":
        self.loop_before_ms = probe_ms()
        self._ticks = cpu_ticks()
        return self

    def __exit__(self, *exc) -> None:
        self.steal_pct = steal_pct(self._ticks, cpu_ticks())
        self.loop_after_ms = probe_ms()

    def describe(self) -> str:
        return (f"host: steal {self.steal_pct:.2f}% of CPU ticks; "
                f"probe loop {self.loop_before_ms:.2f} ms before, "
                f"{self.loop_after_ms:.2f} ms after")

    def metrics(self) -> Dict[str, float]:
        return {"host.steal_pct": self.steal_pct,
                "host.loop_before_ms": self.loop_before_ms,
                "host.loop_after_ms": self.loop_after_ms}


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` maps metric name to value and ``samples`` to the number
    of samples behind it; units and the metric list come from
    ``BENCHMARK.json``.  ``report`` holds further human-readable lines.
    """

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        """Record a metric and the number of samples behind it."""
        self.metrics[name] = value
        self.samples[name] = samples

    def op(self, problems: Sequence[str]) -> bool:
        """Count one operation; returns whether it passed its checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems
