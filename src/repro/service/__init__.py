"""Simulation-as-a-service: job queue, batching dispatcher, HTTP API.

This package turns the reproduction's experiment pipeline into a
long-lived service over the same content-addressed artifact cache the
CLI uses:

* :mod:`repro.service.queue` — persistent JSON-lines-journaled job
  queue with atomic state transitions and crash replay;
* :mod:`repro.service.dispatcher` — request normalization, three-layer
  deduplication (live jobs, stored results, shared cells), fair
  batching onto the worker pool (:mod:`repro.experiments.pool`, whose
  contained executor gives per-cell deadlines and poison-job
  bisection), bounded retry/quarantine containment;
* :mod:`repro.service.server` — stdlib asyncio HTTP JSON API
  (``POST /v1/jobs``, ``GET /v1/jobs/<id>``, ``GET /v1/results/<key>``,
  ``GET /v1/stats``, ``GET /v1/health``) with graceful SIGTERM drain;
* :mod:`repro.service.client` — urllib helpers behind ``repro submit``
  and ``repro status``.

DESIGN.md section 5 documents the architecture; the README's "Serving"
section is the quick-start.
"""
