"""Racing submissions against the default server: exactly-once compute.

The server drains one fused batch at a time.  Identical and overlapping
requests racing in over HTTP must still collapse to **exactly one
computation per distinct cell**: the queue coalesces identical requests
into one job, a batch deduplicates shared cells by signature, and a
later batch reads what an earlier one stored from the disk cache.  Every
served document must be byte-identical to the serial, in-process
:func:`~repro.experiments.sweep.run_sweep` rendering.
"""

import threading

import pytest

from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.experiments.sweep import adhoc_spec, run_sweep, sweep_title
from repro.service.client import get_stats, submit_and_wait, submit_job
from repro.service.server import ServerThread

TINY = ExperimentProfile.tiny()

#: Four distinct single-cell requests (disjoint grids).
DISJOINT_VALUES = ("34", "42", "50", "64")

#: Four two-cell requests whose grids overlap pairwise in a ring; the
#: union is exactly the four cells above.
OVERLAPPING_GRIDS = (("34", "42"), ("42", "50"), ("50", "64"), ("64", "34"))


def _payload(values) -> dict:
    return {"kind": "sweep", "axis": "regfile", "values": list(values),
            "workloads": ["li_like"], "profile": "tiny"}


def _serial_document(values) -> bytes:
    """The manifest a local serial run writes for the same request."""
    spec = adhoc_spec("regfile", TINY, values=list(values),
                      workloads=["li_like"])
    result = run_sweep(spec, TINY, ExperimentContext(TINY),
                       title=sweep_title("regfile", TINY))
    return render_manifest(TINY.name, {spec.name: result}).encode("utf-8")


def _submit_all(url, payloads, copies):
    """Fire ``len(payloads) * copies`` racing HTTP submissions; returns
    receipts grouped by payload index."""
    receipts = [[None] * copies for _ in payloads]
    errors = []

    def post(index, copy):
        try:
            receipts[index][copy] = submit_job(
                url, dict(payloads[index]),
                client=f"client-{index}-{copy}",
            )
        except Exception as error:  # surface in the main thread
            errors.append(error)

    threads = [
        threading.Thread(target=post, args=(index, copy))
        for index in range(len(payloads))
        for copy in range(copies)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    return receipts


def _submit_before_draining(service, payloads, copies):
    """Race the submissions while the drain loop claims nothing.

    Stubbing ``drain_once`` pins the batching: every job is queued
    before the first claim, so that claim fuses them into one batch.
    """
    dispatcher = service.server.dispatcher
    drain_once = dispatcher.drain_once
    dispatcher.drain_once = lambda: 0
    try:
        return _submit_all(service.url, payloads, copies)
    finally:
        dispatcher.drain_once = drain_once


def _one_job_per_request(receipts, requests):
    ids = [{receipt["id"] for receipt in group} for group in receipts]
    assert all(len(group) == 1 for group in ids)
    assert len(set().union(*ids)) == requests


def _misses(stats) -> dict:
    session = stats["cache"]["session"]
    return {kind: session[kind]["misses"]
            for kind in ("binary", "trace", "timed")}


class TestRacingSubmissions:
    def test_disjoint_requests_compute_each_cell_once(self, tmp_path):
        """32 racing submissions, 8 identical copies of each of 4
        disjoint requests: one job per request, one miss per distinct
        cell of every kind (the four timed cells share one trace and
        one binary), however the jobs fell into batches."""
        payloads = [_payload([value]) for value in DISJOINT_VALUES]
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            receipts = _submit_all(service.url, payloads, copies=8)
            _one_job_per_request(receipts, len(payloads))
            for value, payload in zip(DISJOINT_VALUES, payloads):
                _job, document = submit_and_wait(
                    service.url, dict(payload), client="checker",
                    timeout=240,
                )
                assert document == _serial_document([value])
            stats = get_stats(service.url)
        assert _misses(stats) == {"binary": 1, "trace": 1, "timed": 4}
        assert stats["dispatcher"]["cells_executed"] == len(DISJOINT_VALUES)

    def test_overlapping_grids_fuse_into_one_union(self, tmp_path):
        """Four requests whose grids overlap pairwise, queued together:
        one batch executes the union of four cells, once each."""
        payloads = [_payload(values) for values in OVERLAPPING_GRIDS]
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            receipts = _submit_before_draining(service, payloads, copies=2)
            _one_job_per_request(receipts, len(payloads))
            documents = [
                submit_and_wait(service.url, dict(payload),
                                client="checker", timeout=240)[1]
                for payload in payloads
            ]
            stats = get_stats(service.url)
        for document, values in zip(documents, OVERLAPPING_GRIDS):
            assert document == _serial_document(values)
        assert stats["dispatcher"]["batches"] == 1
        assert stats["dispatcher"]["cells_executed"] == 4
        assert _misses(stats) == {"binary": 1, "trace": 1, "timed": 4}

    def test_overlapping_grids_across_batches_hit_the_disk_cache(
        self, tmp_path
    ):
        """The same requests one per batch (``max_batch=1``): a cell a
        later batch shares with an earlier one is read from the disk
        cache, not computed again."""
        payloads = [_payload(values) for values in OVERLAPPING_GRIDS]
        with ServerThread(
            tmp_path / "queue", tmp_path / "cache", max_batch=1,
        ) as service:
            receipts = _submit_all(service.url, payloads, copies=2)
            _one_job_per_request(receipts, len(payloads))
            documents = [
                submit_and_wait(service.url, dict(payload),
                                client="checker", timeout=240)[1]
                for payload in payloads
            ]
            stats = get_stats(service.url)
        for document, values in zip(documents, OVERLAPPING_GRIDS):
            assert document == _serial_document(values)
        assert stats["dispatcher"]["batches"] == len(payloads)
        assert _misses(stats) == {"binary": 1, "trace": 1, "timed": 4}
        # 8 enumerated timed cells, 4 distinct: the other 4 are hits.
        assert stats["cache"]["session"]["timed"]["hits"] == 4

    def test_identical_flood_single_computation(self, tmp_path):
        """32 identical racing submissions: one job, one batch, one
        cell."""
        payload = _payload(["34"])
        with ServerThread(tmp_path / "queue", tmp_path / "cache") as service:
            receipts = _submit_all(service.url, [payload], copies=32)
            _one_job_per_request(receipts, 1)
            _job, document = submit_and_wait(
                service.url, dict(payload), client="checker", timeout=240
            )
            stats = get_stats(service.url)
        assert document == _serial_document(["34"])
        assert stats["dispatcher"]["cells_executed"] == 1
        assert stats["dispatcher"]["jobs_completed"] == 1
        assert _misses(stats) == {"binary": 1, "trace": 1, "timed": 1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_pool_width_does_not_change_bytes(tmp_path, jobs):
    """The remaining scale-out knob is invisible in the output: the
    in-process path and a two-worker pool serve the same bytes for the
    same request."""
    payload = _payload(["34", "42"])
    with ServerThread(
        tmp_path / "queue", tmp_path / "cache", jobs=jobs,
    ) as service:
        _job, document = submit_and_wait(
            service.url, dict(payload), client="parity", timeout=240
        )
    assert document == _serial_document(["34", "42"])
