"""Stdlib-only asyncio HTTP JSON API over the job queue and dispatcher.

The server is a deliberately small HTTP/1.1 implementation on
``asyncio.start_server`` — no third-party framework, one request per
connection (``Connection: close``), JSON in and out:

* ``POST /v1/jobs`` — submit a request (``{"kind": "sweep", "axis":
  ..., "values": [...], "workloads": [...], "profile": ...}`` or
  ``{"kind": "figure", "target": ..., "profile": ...}``, plus an
  optional ``"client"`` tag).  Responds ``202`` with ``{"id",
  "location"}`` — identical bytes for identical requests, however many
  clients race the submission.
* ``GET /v1/jobs/<id>`` — the job record (state, result key, error).
* ``GET /v1/results/<key>`` — the stored result document, byte-identical
  to the equivalent local CLI run's ``--json`` output.
* ``GET /v1/stats`` — queue depth and state counts, dedup/batching
  tallies, containment counters, cache hit/miss counters,
  worker/compaction counters.
* ``GET /v1/health`` — readiness/liveness: ``200`` while accepting
  work, ``503`` while draining or with the crash breaker open (the
  body always answers, so liveness is "any response at all").
* ``POST /v1/compact`` — fold the queue journal into a snapshot now
  (compaction also runs automatically every ``compact_every`` events).
* ``GET /v1/events`` — Server-Sent Events stream of the live event bus
  (job transitions, batches, bisections, pool rebuilds, access
  records).  The one deliberate exception to one-request-per-
  connection: the response never ends.  Each subscriber gets a bounded
  queue (``?buffer=N``); a slow consumer *drops* events and receives an
  explicit ``{"event": "dropped", "count": N}`` marker — the dispatcher
  is never blocked by a stalled reader.
* ``GET /v1/metrics`` — per-stage latency histograms (fixed log-spaced
  buckets with p50/p95/p99), queue/occupancy gauges, and every stats
  counter, as Prometheus text (default) or JSON (``?format=json``).
* ``GET /v1/jobs/<id>?trace=1`` — the job record plus its span
  timeline (queued→claimed→batched→executed→assembled, durations sum
  to wall time).
* ``GET /dashboard`` — a self-contained zero-dependency HTML page
  driven by the SSE stream (queue depth, worker occupancy, cache hit
  rate, in-flight cells, recent quarantines).

``--log-json`` turns the same event-bus records into structured
one-line JSON logs on stdout (access records carry ts, client_id,
path, status, duration_ms; lifecycle records mark serving/draining).

Shutdown is a *graceful drain* (``SIGTERM``/``SIGINT`` under the CLI,
:meth:`ServiceServer.begin_drain` programmatically): submissions are
refused with ``503`` + ``Retry-After`` while reads keep answering,
in-flight batches get ``drain_grace`` seconds to record their verdicts,
stragglers are demoted back to ``queued`` (replay shows no phantom
RUNNING job), the journal is compacted, and the process exits 0.

Simulation work never runs on the event loop: ``workers`` dispatcher
threads drain the queue batch-by-batch (each fanning its batch across
the persistent worker pool when ``jobs > 1`` or a deadline is set), so
the API stays responsive while heavy sweeps execute — and with more
than one worker, the next batch is claimed and grouped while the
previous one is still executing.  :class:`ServerThread` hosts the
whole service inside one background thread — the harness tests, the
smoke script, and the benchmark all drive real sockets through it.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from repro.service.dashboard import DASHBOARD_HTML
from repro.service.dispatcher import (
    DEFAULT_MAX_BODY_BYTES,
    BreakerOpenError,
    Dispatcher,
    RequestError,
)
from repro.service.metrics import render_json, render_prometheus
from repro.service.queue import (
    AdmissionError,
    JobQueue,
    QueueFullError,
)
from repro.service.routing import parse_shard_spec
from repro.service.tiered import DEFAULT_PEER_TIMEOUT, TieredArtifactCache

__all__ = ["ServiceServer", "ServerThread", "serve_forever"]

#: How long the dispatcher thread naps when the queue is empty.
_IDLE_POLL_SECONDS = 0.05

#: SSE stream pacing: how often an idle stream polls its subscription,
#: and how often it emits a comment-line keepalive so read timeouts on
#: the client side (and any intermediary) never fire on a quiet server.
_SSE_POLL_SECONDS = 0.05
_SSE_KEEPALIVE_SECONDS = 15.0

#: Default / maximum per-subscriber SSE buffer (events, not bytes).
_SSE_BUFFER_DEFAULT = 256
_SSE_BUFFER_MAX = 4096

#: A client gets this long to deliver its full request; a connection
#: that stalls (opened and silent, or a short body under a long
#: Content-Length) is dropped instead of leaking a task + fd forever.
_READ_TIMEOUT_SECONDS = 30.0

_MAX_HEADERS = 100


class _BodyTooLargeError(ValueError):
    """Content-Length exceeds the configured POST body cap (HTTP 413)."""

#: Result keys are SHA-256 hex digests; anything else in the URL (path
#: separators in particular) must never reach the filesystem layer.
_RESULT_KEY_RE = re.compile(r"[0-9a-f]{64}\Z")


def _sse_frame(event: dict) -> bytes:
    """One Server-Sent Events frame: ``data: <json>`` + blank line."""
    return b"data: " + json.dumps(
        event, sort_keys=True
    ).encode("utf-8") + b"\n\n"


class ServiceServer:
    """One service instance: queue + dispatcher + HTTP front end."""

    def __init__(
        self,
        queue_dir,
        cache_dir,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        max_batch: int = 8,
        workers: int = 1,
        compact_every: Optional[int] = 4096,
        retain_terminal: int = 256,
        quota: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        max_attempts: int = 3,
        job_timeout: Optional[float] = None,
        drain_grace: float = 30.0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
        log_json: bool = False,
        shard: Optional[str] = None,
        peers: Optional[Tuple[str, ...]] = None,
        shared_cache_dir=None,
        peer_timeout: float = DEFAULT_PEER_TIMEOUT,
        peer_fetch: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.workers = max(1, workers)
        #: Sharding: ``shard`` is this process's ``K/N`` spec and
        #: ``peers`` the N announced base URLs in index order (self is
        #: ``peers[K]`` — the same list every client routes over, so
        #: placement agrees without coordination).  ``shared_cache_dir``
        #: (usable with or without sharding) adds the read-through/
        #: write-through directory tier; ``peer_fetch=False`` keeps the
        #: ring for routing stats but never dials a peer for artifacts.
        shard_index, shard_count, shard_urls = 0, 1, ()
        if shard is not None:
            shard_index, shard_count = parse_shard_spec(shard)
            shard_urls = tuple(
                str(u).rstrip("/") for u in (peers or ())
            )
            if len(shard_urls) != shard_count:
                raise ValueError(
                    f"--shard {shard} needs exactly {shard_count} peer "
                    f"URL(s) (all shards, index order); got "
                    f"{len(shard_urls)}"
                )
        peer_urls = (
            tuple(u for i, u in enumerate(shard_urls) if i != shard_index)
            if peer_fetch else ()
        )
        cache = TieredArtifactCache(
            cache_dir,
            shared_root=shared_cache_dir,
            peers=peer_urls,
            peer_timeout=peer_timeout,
        )
        #: Seconds an in-flight batch gets to record its verdict once a
        #: drain begins; stragglers are demoted back to ``queued``.
        self.drain_grace = max(0.0, float(drain_grace))
        #: False only after an *unclean* drain (a batch still executing
        #: when the grace expired); the CLI uses it to pick its exit.
        self.drained_clean = True
        self._draining = False
        self.queue = JobQueue(
            queue_dir,
            compact_every=compact_every,
            retain_terminal=retain_terminal,
        )
        self.dispatcher = Dispatcher(
            self.queue, cache_dir,
            jobs=jobs, max_batch=max_batch, workers=self.workers,
            quota=quota, max_queue_depth=max_queue_depth,
            max_body_bytes=max_body_bytes,
            max_attempts=max_attempts, job_timeout=job_timeout,
            breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown,
            cache=cache,
            shard_index=shard_index, shard_count=shard_count,
            shard_urls=shard_urls,
        )
        #: The queue owns the bus + tracer (one emission path for live
        #: and replayed mutations); the server streams and renders them.
        self.events = self.queue.events
        self.tracer = self.queue.tracer
        #: ``--log-json``: a bus subscriber thread printing every event
        #: as one JSON line on stdout (access + lifecycle included).
        self.log_json = bool(log_json)
        self._log_thread: Optional[threading.Thread] = None
        self._log_sub = None
        self._server: Optional[asyncio.base_events.Server] = None
        #: One thread per drain slot: claims are serialized inside the
        #: dispatcher, batch execution overlaps across slots.
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-dispatch"
        )
        # Result reads (disk + unpickle) go here, NOT on the event loop
        # and NOT behind the single dispatch worker a running batch owns.
        self._read_executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-read"
        )
        # Created inside start(): pre-3.10 asyncio primitives bind their
        # loop at construction, and __init__ runs before asyncio.run().
        self._closing: Optional[asyncio.Event] = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket (resolving port 0) and start the drain loop."""
        self._closing = asyncio.Event()
        if self.log_json:
            self._start_log_thread()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.events.publish({
            "event": "serving", "url": self.url, "workers": self.workers,
        })
        # Spawn the worker pool (if any) off the event loop so the
        # socket answers immediately; a batch racing the warm-up just
        # blocks on the pool lock and inherits the freshly spawned
        # workers.
        loop = asyncio.get_running_loop()
        self._warmup = loop.run_in_executor(None, self.dispatcher.warm_up)
        self._drain_tasks = [
            asyncio.ensure_future(self._drain_loop(slot))
            for slot in range(self.workers)
        ]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def run_until_closed(self) -> None:
        await self._closing.wait()
        # No new batches: cancelling a drain task stops its claim loop;
        # a drain_once already running on the executor keeps going.
        for task in self._drain_tasks:
            task.cancel()
        if self._draining:
            # Grace window: keep the HTTP socket answering (refused
            # submissions carry Retry-After, health reports draining)
            # while in-flight batches record their verdicts.
            deadline = time.monotonic() + self.drain_grace
            while not self.dispatcher.idle() \
                    and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
            self.drained_clean = self.dispatcher.idle()
        self._server.close()
        await self._server.wait_closed()
        # Cancelling the drain tasks does not interrupt an executor'd
        # drain_once; wait for any in-flight batches to record their
        # results BEFORE closing the journal they write to.  A wedged
        # batch that already blew the drain grace is the one case where
        # waiting would hang shutdown forever — abandon it instead (the
        # CLI hard-exits; its jobs are demoted below, so a restart
        # replays them as cleanly queued).
        self._executor.shutdown(wait=self.drained_clean)
        self._read_executor.shutdown(wait=True)
        self.dispatcher.shutdown_pool()
        if self._draining:
            # Demote any straggler batch's RUNNING claims so replay
            # never shows a phantom in-flight job, then fold the
            # journal down while we are the last writer.
            for job in self.queue.running_jobs():
                try:
                    self.queue.demote(job.id)
                except Exception:
                    pass
            if self.drained_clean:
                try:
                    self.queue.compact()
                except Exception:
                    pass  # best effort: drain must still exit 0
        if self.drained_clean:
            self.queue.close()
        self.events.publish({
            "event": "stopped", "drained_clean": self.drained_clean,
        })
        self._stop_log_thread()

    def _start_log_thread(self) -> None:
        """Subscribe a printer to the bus: one JSON line per event.

        The structured replacement for ad-hoc access prints — every
        record the dashboard sees is also a log line, so `serve
        --log-json | jq` is a complete operational transcript.
        """
        self._log_sub = self.events.subscribe(maxsize=_SSE_BUFFER_MAX)

        def pump() -> None:
            while True:
                event = self._log_sub.pop(timeout=1.0)
                if event is not None:
                    print(
                        json.dumps(event, sort_keys=True),
                        file=sys.stdout, flush=True,
                    )
                elif self._log_sub.closed:
                    return

        self._log_thread = threading.Thread(
            target=pump, name="repro-log-json", daemon=True
        )
        self._log_thread.start()

    def _stop_log_thread(self) -> None:
        if self._log_sub is not None:
            self._log_sub.close()
        if self._log_thread is not None:
            self._log_thread.join(timeout=5.0)
            self._log_thread = None

    def close(self) -> None:
        """Stop immediately (harness teardown) — no drain semantics."""
        if self._closing is not None:
            self._closing.set()

    def begin_drain(self) -> None:
        """Start a graceful drain (the SIGTERM/SIGINT path).

        Idempotent and callable from the event loop only; cross-thread
        callers go through :meth:`ServerThread.begin_drain`.  Flags the
        admission path first so every submission racing the shutdown
        sees 503 + Retry-After rather than a dropped connection.
        """
        self._draining = True
        self.events.publish({"event": "draining"})
        if self._closing is not None:
            self._closing.set()

    async def _drain_loop(self, slot: int) -> None:
        loop = asyncio.get_running_loop()
        while not self._closing.is_set():
            try:
                handled = await loop.run_in_executor(
                    self._executor, self.dispatcher.drain_once
                )
            except Exception as error:
                # A drain-level failure (full disk, journal I/O error)
                # must not silently kill the dispatcher while the API
                # keeps accepting jobs: report, back off, keep draining.
                print(
                    f"service: drain error (worker {slot}): "
                    f"{type(error).__name__}: {error}",
                    file=sys.stderr, flush=True,
                )
                self.events.publish({
                    "event": "drain_error", "worker": slot,
                    "error": f"{type(error).__name__}: {error}",
                })
                await asyncio.sleep(1.0)
                continue
            if not handled:
                await asyncio.sleep(_IDLE_POLL_SECONDS)

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        try:
            method, raw_path, body = await asyncio.wait_for(
                self._read_request(reader), _READ_TIMEOUT_SECONDS
            )
        except _BodyTooLargeError as error:
            # A refusal the client can act on — unlike the silent drop
            # for malformed requests below, an oversize body gets a
            # proper 413 so well-behaved clients stop resending it.
            self.dispatcher.reject_size()
            try:
                await self._respond(
                    writer, 413, json.dumps(
                        {"error": str(error)}, sort_keys=True
                    ) + "\n",
                )
            except (ConnectionError, OSError):
                writer.close()
            return
        except (asyncio.IncompleteReadError, asyncio.TimeoutError,
                ValueError):
            writer.close()
            return
        path, _, query = raw_path.partition("?")
        params = {
            name: values[-1] for name, values in parse_qs(query).items()
        }
        if path == "/v1/events" and method == "GET":
            # The streaming exception: the response never ends, so it
            # bypasses _respond/Content-Length entirely.
            await self._stream_events(writer, method, path, params, started)
            return
        headers = {}
        try:
            result = await self._route(method, path, params, body)
            if len(result) == 3:
                status, payload, headers = result
            else:
                status, payload = result
        except RequestError as error:
            status, payload = 400, {"error": str(error)}
        except QueueFullError as error:
            retry = self._retry_after_seconds(backlog=True)
            status, payload, headers = 503, {
                "error": str(error), "retry_after": retry,
            }, {"Retry-After": str(retry)}
        except BreakerOpenError as error:  # crash breaker refusing work
            status, payload, headers = 503, {
                "error": str(error), "retry_after": error.retry_after,
            }, {"Retry-After": str(error.retry_after)}
        except AdmissionError as error:  # per-client quota breach
            retry = self._retry_after_seconds(backlog=False)
            status, payload, headers = 429, {
                "error": str(error), "retry_after": retry,
            }, {"Retry-After": str(retry)}
        except Exception as error:  # never let a bug kill the server
            status, payload = 500, {
                "error": f"{type(error).__name__}: {error}"
            }
        body_text = (
            payload if isinstance(payload, str)
            else json.dumps(payload, sort_keys=True) + "\n"
        )
        try:
            await self._respond(writer, status, body_text, headers)
        except (ConnectionError, OSError):
            writer.close()  # client hung up mid-response; nothing to do
        self._access_record(method, path, status, started, body)

    def _access_record(
        self, method: str, path: str, status: int,
        started: float, body: bytes = b"",
    ) -> None:
        """Publish one access record — only when someone is listening.

        With no subscriber attached (no SSE client, no ``--log-json``)
        this is one attribute read and a truth test per request: the
        near-zero-cost contract the observability bench pins.
        """
        if not self.events.active:
            return
        client = None
        if method == "POST" and path == "/v1/jobs" and body:
            try:
                payload = json.loads(body.decode("utf-8"))
                if isinstance(payload, dict):
                    client = payload.get("client", "anonymous")
            except (UnicodeDecodeError, json.JSONDecodeError):
                pass
        record = {
            "event": "http",
            "method": method,
            "path": path,
            "status": status,
            "duration_ms": round((time.monotonic() - started) * 1000, 3),
        }
        if client is not None:
            record["client"] = str(client)
        self.events.publish(record)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, method: str, path: str,
        params: Dict[str, str], started: float,
    ) -> None:
        """``GET /v1/events``: the SSE tail of the event bus.

        Subscribes with a bounded buffer (``?buffer=N``, clamped), then
        alternates between draining the subscription and sleeping one
        poll tick.  TCP backpressure only ever blocks *this* coroutine
        on ``drain()`` — meanwhile the subscription fills and drops,
        which is exactly the slow-consumer contract: bounded memory, an
        explicit ``dropped`` marker, dispatcher never blocked.
        """
        try:
            buffer = int(params.get("buffer", _SSE_BUFFER_DEFAULT))
        except ValueError:
            buffer = _SSE_BUFFER_DEFAULT
        buffer = max(1, min(_SSE_BUFFER_MAX, buffer))
        subscription = self.events.subscribe(maxsize=buffer)
        status = 200
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-store\r\n"
                b"Connection: close\r\n\r\n"
            )
            # An opening snapshot so consumers (the dashboard, `repro
            # watch`) can initialize gauges without a second request.
            hello = {
                "event": "hello",
                "schema_version": 3,
                "stats": self.dispatcher.snapshot(),
            }
            writer.write(_sse_frame(hello))
            await writer.drain()
            last_write = time.monotonic()
            while not self._closing.is_set() \
                    and not writer.is_closing():
                # Drain the whole backlog into one write + one drain:
                # under load this batches dozens of frames per wake
                # instead of paying an await per event (bounded by the
                # subscription buffer, so a flood can't wedge the loop).
                wrote = False
                while True:
                    event = subscription.pop_nowait()
                    if event is None:
                        break
                    writer.write(_sse_frame(event))
                    wrote = True
                if wrote:
                    await writer.drain()
                    last_write = time.monotonic()
                    continue
                if (time.monotonic() - last_write
                        >= _SSE_KEEPALIVE_SECONDS):
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    last_write = time.monotonic()
                await asyncio.sleep(_SSE_POLL_SECONDS)
        except (ConnectionError, OSError, asyncio.CancelledError):
            status = 499  # client went away (or the loop is closing)
        finally:
            subscription.close()
            writer.close()
            self._access_record(method, path, status, started)

    def _retry_after_seconds(self, *, backlog: bool) -> int:
        """Advisory ``Retry-After`` for refused submissions.

        Integer seconds, so any RFC-compliant parser accepts it.  A
        quota refusal clears as soon as one of the client's own jobs
        finishes — a short constant hint; a depth refusal clears as the
        shared backlog drains, so the hint scales with queue depth per
        batch of drain capacity, capped so clients never back off for
        minutes on a transient spike.
        """
        if not backlog:
            return 1
        batches_behind = self.queue.depth() // (
            4 * max(1, self.dispatcher.max_batch)
        )
        return max(1, min(30, 1 + batches_behind))

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        try:
            method, path, _version = request_line.split(" ", 2)
        except ValueError:
            raise ValueError(f"malformed request line {request_line!r}")
        headers = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            if len(headers) >= _MAX_HEADERS:  # unbounded-header DoS guard
                raise ValueError("too many headers")
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > self.dispatcher.max_body_bytes:
            raise _BodyTooLargeError(
                f"request body of {length} byte(s) exceeds the "
                f"{self.dispatcher.max_body_bytes}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        headers: Optional[dict] = None,
    ) -> None:
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
        }.get(status, "OK")
        data = body.encode("utf-8")
        headers = dict(headers or {})
        # JSON unless the route says otherwise (metrics exposition text,
        # the dashboard HTML page).
        content_type = headers.pop("Content-Type", "application/json")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in headers.items()
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n".encode("latin-1") + data
        )
        try:
            await writer.drain()
        finally:
            writer.close()

    # -- routing ---------------------------------------------------------

    async def _route(
        self, method: str, path: str, params: Dict[str, str], body: bytes
    ):
        if path == "/v1/jobs" and method == "POST":
            return self._post_job(body)
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return self._get_job(path[len("/v1/jobs/"):], params)
        if path.startswith("/v1/results/"):
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return await self._get_result(path[len("/v1/results/"):])
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, self.dispatcher.snapshot()
        if path == "/v1/metrics":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            snapshot = self.dispatcher.snapshot()
            if params.get("format") == "json":
                return 200, render_json(snapshot, self.tracer)
            return 200, render_prometheus(snapshot, self.tracer), {
                "Content-Type":
                    "text/plain; version=0.0.4; charset=utf-8",
            }
        if path == "/dashboard":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return 200, DASHBOARD_HTML, {
                "Content-Type": "text/html; charset=utf-8",
            }
        if path == "/v1/health":
            if method != "GET":
                return 405, {"error": "method not allowed"}
            return self._health()
        if path == "/v1/compact":
            if method != "POST":
                return 405, {"error": "method not allowed"}
            retain = self._parse_compact_body(body)
            # Journal fsyncs + a snapshot write: off-loop, on the reader
            # pool (the drain workers may all be mid-batch).
            report = await asyncio.get_running_loop().run_in_executor(
                self._read_executor, self.dispatcher.compact, retain
            )
            return 200, report
        if path == "/v1/jobs" and method != "POST":
            return 405, {"error": "method not allowed"}
        return 404, {"error": f"no route for {method} {path}"}

    @staticmethod
    def _parse_compact_body(body: bytes):
        """The optional ``{"retain_terminal": N}`` compaction override."""
        if not body.strip():
            return None
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError("compact body must be a JSON object")
        retain = payload.get("retain_terminal")
        if retain is None:
            return None
        if not isinstance(retain, int) or isinstance(retain, bool) \
                or retain < 0:
            raise RequestError("'retain_terminal' must be an integer >= 0")
        return retain

    def _health(self):
        """Readiness/liveness: 200 while accepting work, 503 otherwise.

        Liveness is "any response at all" (the handler runs on the
        event loop); readiness is 200 — a draining server or an open
        crash breaker answers 503 so load balancers stop routing
        submissions here while reads keep working.
        """
        breaker_open = self.dispatcher.breaker_open_for() > 0
        ready = not self._draining and not breaker_open
        return (200 if ready else 503), {
            "live": True,
            "ready": ready,
            "draining": self._draining,
            "breaker_open": breaker_open,
            "queue_depth": self.queue.depth(),
        }

    def _post_job(self, body: bytes):
        if self._draining:
            # Drain refusals are short-lived by construction: the
            # process exits within drain_grace, so hint a retry just
            # past that (capped — grace can be configured very long).
            retry = min(30, max(1, int(self.drain_grace)))
            return 503, {
                "error": "server is draining; retry against a live "
                         "replica",
                "retry_after": retry,
            }, {"Retry-After": str(retry)}
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise RequestError(f"invalid JSON body: {error}") from None
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        client = str(payload.pop("client", "anonymous"))
        job = self.dispatcher.submit(payload, client)
        # Identical requests get byte-identical responses regardless of
        # submission order or current job state.
        return 202, {"id": job.id, "location": f"/v1/jobs/{job.id}"}

    def _get_job(self, job_id: str, params: Dict[str, str]):
        job = self.queue.get(job_id)
        if job is None:
            return 404, {"error": f"no job {job_id!r}"}
        record = job.public()
        if job.result_key:
            record["result_location"] = f"/v1/results/{job.result_key}"
        if params.get("trace") in ("1", "true"):
            record["trace"] = self.tracer.trace(job_id)
        return 200, record

    async def _get_result(self, key: str):
        if not _RESULT_KEY_RE.fullmatch(key):
            return 404, {"error": "result keys are 64-char hex digests"}
        # Disk read + unpickle of a possibly-large document: off-loop,
        # on the reader pool (the dispatch worker may be mid-batch).
        document = await asyncio.get_running_loop().run_in_executor(
            self._read_executor, self.dispatcher.load_result, key
        )
        if document is None:
            return 404, {"error": f"no result {key!r}"}
        return 200, document


# ----------------------------------------------------------------------
# Hosting helpers: the CLI's foreground loop and the in-thread harness.
# ----------------------------------------------------------------------

async def _amain(server: ServiceServer, announce) -> None:
    await server.start()
    # SIGTERM/SIGINT trigger a graceful drain instead of tearing the
    # loop down mid-batch.  add_signal_handler is the loop-safe form;
    # platforms without it (Windows event loops) keep the default
    # KeyboardInterrupt behavior, caught by serve_forever.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.begin_drain)
        except (NotImplementedError, RuntimeError):
            break
    if announce is not None:
        announce(server)
    await server.run_until_closed()


def serve_forever(
    queue_dir,
    cache_dir,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    max_batch: int = 8,
    workers: int = 1,
    compact_every: Optional[int] = 4096,
    quota: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    max_attempts: int = 3,
    job_timeout: Optional[float] = None,
    drain_grace: float = 30.0,
    log_json: bool = False,
    shard: Optional[str] = None,
    peers: Optional[Tuple[str, ...]] = None,
    shared_cache_dir=None,
    peer_timeout: float = DEFAULT_PEER_TIMEOUT,
    peer_fetch: bool = True,
    announce=None,
) -> bool:
    """Run a service in the foreground until signalled (CLI ``serve``).

    Returns True for a clean drain (or plain interrupt with nothing in
    flight) and False when a wedged batch outlived ``drain_grace`` —
    the caller decides how hard to exit.
    """
    server = ServiceServer(
        queue_dir, cache_dir,
        host=host, port=port, jobs=jobs, max_batch=max_batch,
        workers=workers, compact_every=compact_every,
        quota=quota, max_queue_depth=max_queue_depth,
        max_body_bytes=max_body_bytes,
        max_attempts=max_attempts, job_timeout=job_timeout,
        drain_grace=drain_grace, log_json=log_json,
        shard=shard, peers=peers, shared_cache_dir=shared_cache_dir,
        peer_timeout=peer_timeout, peer_fetch=peer_fetch,
    )
    try:
        asyncio.run(_amain(server, announce))
    except KeyboardInterrupt:
        pass
    return server.drained_clean


class ServerThread:
    """Context manager hosting a :class:`ServiceServer` in a thread.

    Yields after the socket is bound (``url`` is valid) and tears the
    loop down on exit — the shape the tests, the smoke script, and the
    service benchmark all share.
    """

    def __init__(self, queue_dir, cache_dir, **kwargs) -> None:
        self.server = ServiceServer(queue_dir, cache_dir, **kwargs)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    def _run(self) -> None:
        async def body():
            self._loop = asyncio.get_running_loop()
            await self.server.start()
            self._ready.set()
            await self.server.run_until_closed()

        asyncio.run(body())

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service thread failed to start")
        return self

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def dispatcher(self) -> Dispatcher:
        return self.server.dispatcher

    def begin_drain(self) -> None:
        """Cross-thread graceful drain (the in-process SIGTERM stand-in)."""
        self._call_on_loop(self.server.begin_drain)

    def __exit__(self, *exc_info) -> None:
        self._call_on_loop(self.server.close)
        self._thread.join(timeout=30.0)

    def _call_on_loop(self, callback) -> None:
        """Schedule on the server loop; a no-op once it has finished
        (a completed drain closes the loop before __exit__ runs)."""
        if self._loop is None or self._loop.is_closed():
            return
        try:
            self._loop.call_soon_threadsafe(callback)
        except RuntimeError:
            pass  # loop closed between the check and the call
