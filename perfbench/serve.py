"""The serve-mixed workload: cold open-loop and warm closed-loop traffic.

A ``python -m repro serve`` child with default flags (cells run in the
server's own dispatcher thread) is driven through the stock
``repro.service.client`` by two client threads sharing one timed phase:

* cold: an open loop of one request per second.  Each request is a
  one-point ``regfile`` sweep at a fresh, seeded size over the tiny
  profile's two workloads, so it simulates exactly two new timed cells
  on traces primed in set-up.  A request is timed from when it was due
  to the server's ``done`` stamp, plus the result fetch: generator
  lateness + POST round trip + the job's ``?trace=1`` ``total_ms`` +
  the fetch, so the client's poll cadence never sets the number.
* warm: a closed loop of ``submit_and_wait`` resubmissions of the
  primed set, in seeded equivalent spellings (``34``/``34.0``/``"34"``,
  ``li``/``li_like``), timed per round trip.

The server and both client threads share the program CPU with the
speedometer.  Every time is reported as measured and scaled to the
nominal host speed; the metrics are the scaled times.

Set-up starts the server and primes the fixed request set.  After the
phase every served document is re-rendered in-process from the
server's cache directory and compared byte for byte, and the server
must have executed exactly the new cells offered.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import (
    CACHE_KINDS, ROOT, SRC, Outcome, Series, Speedometer, WorkDir, child_env,
)

sys.path.insert(0, str(SRC))

from repro.experiments.cache import ArtifactCache  # noqa: E402
from repro.experiments.export import render_manifest  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentContext, ExperimentProfile,
)
from repro.experiments.sweep import adhoc_spec, run_sweep, sweep_title  # noqa: E402
from repro.service.client import (  # noqa: E402
    TERMINAL_STATES, ServiceError, get_job, get_result, get_stats,
    poll_job, submit_and_wait, submit_job,
)

PROFILE = "tiny"
WORKLOADS = ("li_like", "perl_like")
#: Equivalent spellings of each workload name.
ALIASES = {"li_like": ("li_like", "li"), "perl_like": ("perl_like", "perl")}
#: The primed request set: one-point regfile sweeps the warm loop resubmits.
PRIMED_SIZES = (34, 42, 50, 64)
#: Fresh cold sizes.  All lie past the register-file saturation point of
#: the tiny workloads, so every cold request costs about the same.
FRESH_SIZES = range(100, 400)
COLD_PERIOD_S = 1.0
POLL_S = 0.1
SETUP_REPEATS = 3
START_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0

#: ``?trace=1`` span -> per-layer metric; each span lasts until the next.
STAGES = {
    "queued": "service.queue.wait_ms",
    "claimed": "service.dispatcher.batch_ms",
    "batched": "service.dispatcher.execute_ms",
    "executed": "service.dispatcher.assemble_ms",
    "assembled": "service.queue.finish_ms",
}


def payload(size, workloads=WORKLOADS) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": [size],
            "workloads": list(workloads), "profile": PROFILE}


def spelled(rng: random.Random, size: int) -> dict:
    """The request for ``size`` in a seeded, equivalent spelling."""
    value = rng.choice((size, float(size), str(size)))
    return payload(value, [rng.choice(ALIASES[w]) for w in WORKLOADS])


class Server:
    """A ``repro serve`` child on a fresh cache and queue directory."""

    def __init__(self, work: WorkDir, env: Dict[str, str]) -> None:
        self.cache_dir = work.fresh("cache")
        queue_dir = work.fresh("queue")
        logs = work.fresh("serve")
        self._stdout = logs / "stdout"
        with open(self._stdout, "wb") as out, \
                open(logs / "stderr", "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", str(self.cache_dir),
                 "--queue-dir", str(queue_dir)],
                stdout=out, stderr=err, env=env, cwd=ROOT)
        self.url = self._announced()

    def _announced(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            text = self._stdout.read_text(encoding="utf-8", errors="replace")
            for word in text.split():
                if word.startswith("http://"):
                    return word
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("repro serve announced no URL")

    def hwm_mb(self) -> float:
        """The server's peak RSS so far (``VmHWM``)."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def expected_document(size: int, context: ExperimentContext) -> bytes:
    """The manifest a local ``run_sweep`` renders for ``payload(size)``."""
    profile = context.profile
    spec = adhoc_spec("regfile", profile, values=[str(size)],
                      workloads=list(WORKLOADS))
    result = run_sweep(spec, profile, context,
                       title=sweep_title("regfile", profile))
    return render_manifest(profile.name, {spec.name: result}).encode("utf-8")


class Phase:
    """One timed phase against a primed server."""

    def __init__(self, url: str, seed: int, count: int, trace: bool,
                 primed: Dict[int, bytes], outcome: Outcome) -> None:
        self.url = url
        self.trace = trace
        self.primed = primed
        self.outcome = outcome
        rng = random.Random(seed)
        self.fresh = rng.sample(FRESH_SIZES, count)
        self.warm_rng = random.Random(rng.random())
        self.lock = threading.Lock()
        self.cold = Series("cold_ms as measured", "ms")
        self.warm = Series("warm_ms as measured", "ms")
        self.traced_warm = Series("traced warm_ms as measured", "ms")
        self.client = {name: Series(name, "ms") for name in (
            "service.client.submit_ms", "service.client.job_ms",
            "service.client.result_ms")}
        self.stages = {name: Series(name, "ms") for name in STAGES.values()}
        self.late = Series("serve.late_ms", "ms")
        self.served: Dict[int, bytes] = {}
        self.stop = threading.Event()

    def op(self, problems: List[str]) -> bool:
        with self.lock:
            return self.outcome.op(problems)

    # -- warm: closed loop ---------------------------------------------

    def warm_loop(self) -> None:
        i = 0
        while not self.stop.is_set():
            size = self.warm_rng.choice(PRIMED_SIZES)
            request = spelled(self.warm_rng, size)
            traced = self.trace and i % 2 == 0
            i += 1
            try:
                if traced:
                    document = self._warm_traced(request)
                else:
                    started = time.perf_counter()
                    _job, document = submit_and_wait(
                        self.url, request, client="warm",
                        timeout=REQUEST_TIMEOUT_S)
                    ended = time.perf_counter()
                    self.warm.add((ended - started) * 1000, started, ended)
            except (ServiceError, OSError, ValueError, KeyError) as error:
                self.op([f"warm {request}: {error!r}"])
                continue
            if document != self.primed[size]:
                self.op([f"warm {request}: document differs from primed"])
            else:
                self.op([])

    def _warm_traced(self, request: dict) -> bytes:
        """``submit_and_wait`` split into its three client calls."""
        t0 = time.perf_counter()
        receipt = submit_job(self.url, request, client="warm",
                             timeout=REQUEST_TIMEOUT_S)
        t1 = time.perf_counter()
        job = poll_job(self.url, receipt["id"], timeout=REQUEST_TIMEOUT_S,
                       poll=POLL_S)
        t2 = time.perf_counter()
        if job["state"] != "done":
            raise ServiceError(f"job {job['id']} ended {job['state']}")
        document = get_result(self.url, job["result_key"],
                              timeout=REQUEST_TIMEOUT_S)
        t3 = time.perf_counter()
        for name, (a, b) in zip(self.client, ((t0, t1), (t1, t2), (t2, t3))):
            self.client[name].samples.append((b - a) * 1000)
        self.traced_warm.add((t3 - t0) * 1000, t0, t3)
        return document

    # -- cold: open loop -------------------------------------------------

    def cold_loop(self) -> None:
        """Send each fresh request when due; poll the outstanding ones."""
        start = time.perf_counter()
        pending = []
        sent = 0
        while sent < len(self.fresh) or pending:
            now = time.perf_counter()
            due = start + sent * COLD_PERIOD_S
            if sent < len(self.fresh) and now >= due:
                pending.append(self.send(self.fresh[sent], due))
                sent += 1
                continue
            for entry in list(pending):
                if self.settle(entry):
                    pending.remove(entry)
            wake = time.perf_counter() + POLL_S
            if sent < len(self.fresh):
                wake = min(wake, start + sent * COLD_PERIOD_S)
            time.sleep(max(0.0, wake - time.perf_counter()))

    def send(self, size: int, due: float) -> dict:
        sent = time.perf_counter()
        entry = {"size": size, "due": due, "sent": sent, "late_s": sent - due,
                 "id": None}
        try:
            entry["id"] = submit_job(self.url, payload(size), client="cold",
                                     timeout=REQUEST_TIMEOUT_S)["id"]
        except ServiceError as error:
            entry["error"] = str(error)
        entry["post_s"] = time.perf_counter() - sent
        self.late.samples.append(entry["late_s"] * 1000)
        return entry

    def settle(self, entry: dict) -> bool:
        """Finish ``entry`` if its job is terminal; ``False`` if not yet."""
        size = entry["size"]
        try:
            if entry["id"] is None:
                raise ServiceError(entry["error"])
            job = get_job(self.url, entry["id"], timeout=REQUEST_TIMEOUT_S)
            if job["state"] not in TERMINAL_STATES:
                waited = time.perf_counter() - entry["sent"]
                if waited < REQUEST_TIMEOUT_S:
                    return False
                raise ServiceError(f"job still {job['state']} after "
                                   f"{waited:.0f}s")
            if job["state"] != "done":
                raise ServiceError(f"job {job['id']} ended {job['state']}")
            trace = get_job(self.url, entry["id"] + "?trace=1",
                            timeout=REQUEST_TIMEOUT_S)["trace"]
            fetched = time.perf_counter()
            document = get_result(self.url, job["result_key"],
                                  timeout=REQUEST_TIMEOUT_S)
            ended = time.perf_counter()
        except ServiceError as error:
            self.op([f"cold size {size}: {error}"])
            return True
        self.cold.add((entry["late_s"] + entry["post_s"] + ended - fetched)
                      * 1000 + trace["total_ms"], entry["due"], ended)
        for span in trace["spans"]:
            if span["stage"] in STAGES:
                self.stages[STAGES[span["stage"]]].samples.append(
                    span["duration_ms"])
        self.served[size] = document
        self.op([])
        return True

    def run(self) -> float:
        """Both loops; returns the phase's wall seconds."""
        warm = threading.Thread(target=self.warm_loop, name="warm-client")
        started = time.perf_counter()
        warm.start()
        try:
            self.cold_loop()
        finally:
            self.stop.set()
            warm.join()
        return time.perf_counter() - started


def _set_up(work: WorkDir, env: Dict[str, str], outcome: Outcome,
            setup: Series):
    """Start a server on empty directories and prime the request set."""
    started = time.perf_counter()
    server = Server(work, env)
    primed: Dict[int, bytes] = {}
    try:
        for size in PRIMED_SIZES:
            try:
                _job, primed[size] = submit_and_wait(
                    server.url, payload(size), client="prime",
                    timeout=REQUEST_TIMEOUT_S)
                outcome.op([])
            except ServiceError as error:
                outcome.op([f"prime size {size}: {error}"])
    except BaseException:
        server.stop()
        raise
    ended = time.perf_counter()
    setup.add(ended - started, started, ended)
    return server, primed


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def serve_mixed(seconds: int, seed: int, trace: bool,
                speed: Speedometer) -> Outcome:
    outcome = Outcome()
    setup = Series("setup_s as measured", "s")
    env = child_env(seed)
    with WorkDir("serve-mixed") as work:
        for _ in range(SETUP_REPEATS - 1):
            _set_up(work, env, outcome, setup)[0].stop()
        server, primed = _set_up(work, env, outcome, setup)
        try:
            if len(primed) < len(PRIMED_SIZES):
                return outcome
            before = get_stats(server.url)
            phase = Phase(server.url, seed, seconds, trace, primed, outcome)
            wall_s = phase.run()
            after = get_stats(server.url)
            hwm_mb = server.hwm_mb()
        finally:
            server.stop()
            speed.stop()
        _check_documents(server.cache_dir, phase, outcome)

    executed = _delta(after, before, "dispatcher", "cells_executed")
    offered = len(WORKLOADS) * len(phase.fresh)
    outcome.op([] if executed == offered else [
        f"server executed {executed} cells; {offered} new cells were offered"])
    cold = phase.cold.scaled(speed, "cold_ms")
    warm = phase.warm.scaled(speed, "warm_ms")
    outcome.report += [cold.describe(), phase.cold.describe(),
                       warm.describe(), phase.warm.describe(),
                       f"serve.late_ms: max {max(phase.late.samples):.4f} ms "
                       f"(n={len(phase.late.samples)})",
                       f"cells executed {executed:g} of {offered} offered"]
    if not trace:
        scaled_setup = setup.scaled(speed, "setup_s")
        outcome.put("setup_s", scaled_setup.median(), len(setup.samples))
        outcome.put("rss_peak_mb", hwm_mb, 1)
        outcome.put("latency_ms", cold.median(), len(cold.samples))
        outcome.report += [scaled_setup.describe(), setup.describe()]
        return outcome

    for series in (*phase.client.values(), *phase.stages.values()):
        outcome.put(series.name, series.median(), len(series.samples))
        outcome.report.append(series.describe())
    for name, key in (("cells_executed", "cells_executed"),
                      ("batches", "batches"), ("coalesced", "coalesced"),
                      ("failed", "jobs_failed")):
        outcome.put(f"service.dispatcher.{name}",
                    _delta(after, before, "dispatcher", key), 1)
    outcome.put("service.dispatcher.utilization",
                _delta(after, before, "workers", "busy_seconds") / wall_s, 1)
    outcome.put("service.events.dropped",
                _delta(after, before, "events", "dropped"), 1)
    for kind in CACHE_KINDS:
        for what in ("hits", "misses", "stores"):
            now = after["cache"]["session"].get(kind, {}).get(what, 0)
            then = before["cache"]["session"].get(kind, {}).get(what, 0)
            outcome.put(f"experiments.cache.{what}.{kind}", now - then, 1)
    outcome.put("serve.late_ms", max(phase.late.samples),
                len(phase.late.samples))
    traced_warm = phase.traced_warm.scaled(speed, "traced warm_ms")
    outcome.put("trace.overhead_ms", traced_warm.median() - warm.median(),
                len(traced_warm.samples) + len(warm.samples))
    outcome.report.append(traced_warm.describe())
    return outcome


def _check_documents(cache_dir: Path, phase: Phase, outcome: Outcome) -> None:
    """Re-render every served document in-process and compare bytes."""
    profile = ExperimentProfile.by_name(PROFILE)
    context = ExperimentContext(profile, cache=ArtifactCache(cache_dir))
    for size, document in {**phase.primed, **phase.served}.items():
        outcome.op([] if expected_document(size, context) == document else [
            f"served document for size {size} differs from run_sweep"])
