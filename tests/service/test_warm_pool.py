"""Warm worker pool lifecycle: reuse across batches, rebuild on faults.

Whenever the dispatcher has a pool (``jobs > 1`` or a deadline), it is
one pre-warmed spawn pool kept alive across batches, and containment
must hold on it exactly.  These scenarios pin the lifecycle counters
served by ``GET /v1/stats``:

* a healthy server **reuses** the pool once per batch and never
  rebuilds it, with or without a deadline;
* an injected worker kill **invalidates** the pool (counted as a
  rebuild), quarantines the poison, and leaves a freshly re-warmed pool
  serving subsequent batches.

The pure-lifecycle unit tests at the top need no HTTP server and pin
the counter semantics of :class:`repro.experiments.pool.WarmPool`
directly.
"""

import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.pool import WarmPool, _run_group
from repro.service.client import get_stats, poll_job, submit_job
from repro.service.server import ServerThread

from faultsim import arm_faults, kill, timed_signature


def _payload(value: int) -> dict:
    """One-cell request: a single regfile value for one tiny workload."""
    return {"kind": "sweep", "axis": "regfile", "values": [str(value)],
            "workloads": ["li_like"], "profile": "tiny"}


def _wait_pool_live(service, timeout: float = 30.0) -> dict:
    """Poll stats until the eager background warm-up finishes.

    Pinning exact reuse counts requires the pool to be live *before*
    the first submission; otherwise the first batch's acquire races
    the server's startup ensure() and may spawn (not reuse) the pool.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        pool = get_stats(service.url)["workers"]["warm_pool"]
        if pool is not None and pool["live"]:
            return pool
        time.sleep(0.05)
    raise AssertionError("warm pool never came up")


class TestWarmPoolUnit:
    """Counter semantics of the WarmPool object itself (no server)."""

    def test_lifecycle_counters(self):
        pool = WarmPool(1)
        try:
            assert pool.snapshot() == {
                "workers": 1, "live": False, "reuses": 0, "rebuilds": 0,
                "warmup_ms": 0.0, "last_warmup_ms": 0.0,
            }
            pool.ensure()                 # spawn: neither reuse nor rebuild
            first = pool.snapshot()
            assert first["live"] and first["warmup_ms"] > 0
            assert (first["reuses"], first["rebuilds"]) == (0, 0)

            executor = pool.acquire()     # live -> counted as a reuse
            assert executor is pool.acquire()
            assert pool.snapshot()["reuses"] == 2

            pool.invalidate()             # teardown counts one rebuild
            after = pool.snapshot()
            assert not after["live"]
            assert after["rebuilds"] == 1

            pool.acquire()                # re-spawn: not a reuse
            rebuilt = pool.snapshot()
            assert rebuilt["live"]
            assert rebuilt["reuses"] == 2
            assert rebuilt["warmup_ms"] > first["warmup_ms"]
        finally:
            pool.shutdown()
        final = pool.snapshot()
        assert not final["live"]
        assert final["rebuilds"] == 1     # shutdown is not a rebuild

    def test_invalidate_before_spawn_is_noop(self):
        pool = WarmPool(1)
        pool.invalidate()
        assert pool.snapshot() == {
            "workers": 1, "live": False, "reuses": 0, "rebuilds": 0,
            "warmup_ms": 0.0, "last_warmup_ms": 0.0,
        }


class TestPoolSurvivesBatches:
    @pytest.mark.parametrize("jobs,job_timeout", [(2, None), (1, 60.0)],
                             ids=["no-deadline", "deadline"])
    def test_n_batches_n_reuses_zero_rebuilds(self, tmp_path, jobs,
                                              job_timeout):
        """Three sequential one-cell batches acquire the same pool three
        times: reuses == 3, rebuilds == 0, and the warmup was paid once
        (warmup_ms == last_warmup_ms)."""
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=jobs, max_batch=8, job_timeout=job_timeout,
        ) as service:
            _wait_pool_live(service)
            for value in (34, 42, 50):
                job_id = submit_job(service.url, _payload(value))["id"]
                record = poll_job(service.url, job_id, timeout=120.0)
                assert record["state"] == "done"
            pool = get_stats(service.url)["workers"]["warm_pool"]
        assert pool["live"]
        assert pool["reuses"] == 3
        assert pool["rebuilds"] == 0
        assert pool["warmup_ms"] == pool["last_warmup_ms"]

    def test_disabled_by_default(self, tmp_path):
        """With --jobs 1 and no deadline cells run in-process, and the
        stats advertise no pool at all."""
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            assert get_stats(service.url)["workers"]["warm_pool"] is None


class _BrokenAtSecondSubmit:
    """Executor stub for a pool that dies between two submissions: the
    first submit returns a future the death broke, the second raises.
    A warm worker is already up when the batch starts submitting, so a
    poison cell really can kill the pool this early — a cold pool never
    could (workers spend seconds spawning first)."""

    def __init__(self):
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == 1:
            future = Future()
            future.set_exception(BrokenProcessPool("worker died"))
            return future
        raise BrokenProcessPool("pool is dead")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _StubWarmPool:
    def __init__(self, pool):
        self._pool = pool
        self.invalidated = 0

    def acquire(self):
        return self._pool

    def invalidate(self):
        self.invalidated += 1


class _StubCell:
    kind = "timed"

    def __init__(self, sig):
        self._sig = sig

    def signature(self):
        return self._sig


class TestMidSubmitCrash:
    def test_every_cell_leaves_with_a_verdict(self):
        """A BrokenProcessPool raised *while submitting* must not drop
        the group: previously the partial futures list was discarded,
        no cell was classified as leftover, and the dispatcher went on
        to assemble — recomputing the poison in-process, outside
        containment.  Every cell must come back as leftover so the
        caller bisects/re-runs it."""
        warm = _StubWarmPool(_BrokenAtSecondSubmit())
        cells = [_StubCell("cell-a"), _StubCell("cell-b"), _StubCell("cell-c")]
        results, errors, hung, leftover, crashed = _run_group(
            cells, warm, None, 5.0
        )
        assert crashed
        assert warm.invalidated == 1
        assert not results and not errors and not hung
        assert {cell.signature() for cell in leftover} == {
            "cell-a", "cell-b", "cell-c",
        }


class TestKillRebuildsPool:
    def test_poison_kill_rebuilds_and_pool_keeps_serving(self, tmp_path):
        """A worker kill invalidates the warm pool (>= 1 rebuild per
        failed attempt), the poison quarantines with PR 7 semantics,
        healthy batchmates complete, and the re-warmed pool serves the
        next batch (a reuse recorded *after* the rebuilds)."""
        payloads = [_payload(34), _payload(42), _payload(50)]
        poison = payloads[1]
        plan = arm_faults(tmp_path, {timed_signature(poison): kill()})
        with plan, ServerThread(
            tmp_path / "queue", tmp_path / "cache",
            jobs=1, max_batch=8, job_timeout=30.0, max_attempts=2,
            breaker_threshold=100,
        ) as service:
            _wait_pool_live(service)
            ids = [submit_job(service.url, p)["id"] for p in payloads]
            records = [
                poll_job(service.url, job_id, timeout=180.0)
                for job_id in ids
            ]
            mid = get_stats(service.url)["workers"]["warm_pool"]

            # The rebuilt pool must still serve follow-up work.
            follow_id = submit_job(service.url, _payload(64))["id"]
            follow = poll_job(service.url, follow_id, timeout=120.0)
            stats = get_stats(service.url)

        states = {record["id"]: record["state"] for record in records}
        assert states[ids[0]] == "done"
        assert states[ids[2]] == "done"
        assert states[ids[1]] == "quarantined"
        assert follow["state"] == "done"

        # One rebuild per pool-killing attempt; run_contained re-warms
        # afterwards, so the pool ends live and the follow-up batch
        # recorded a reuse on top of the rebuilds.
        pool = stats["workers"]["warm_pool"]
        assert mid["rebuilds"] >= 1
        assert pool["live"]
        assert pool["reuses"] > 0
        assert pool["rebuilds"] >= mid["rebuilds"]
        # Bisection and innocent re-runs respawned the same pool: the
        # containment counters tell the same story as ever.
        assert stats["containment"]["pool_crashes"] >= 2
        assert stats["containment"]["quarantined"] == 1
