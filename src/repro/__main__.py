"""Command-line interface: regenerate the paper's figures and run sweeps.

Usage::

    python -m repro list
    python -m repro list --workloads --predictors --hierarchies
    python -m repro fig9                      # quick profile, cached
    python -m repro fig5 --profile full
    python -m repro run-all --jobs 4          # every figure, 4 workers
    python -m repro run-all --json out.json   # machine-readable results
    python -m repro fig10 --no-cache          # force recomputation
    python -m repro machine                   # print the Figure 2 table
    python -m repro sweep --axis predictor --workloads go,li
    python -m repro sweep --axis hierarchy --values micro97,compact
    python -m repro serve --port 8742 --jobs 2   # service
    python -m repro submit --url http://127.0.0.1:8742 --axis regfile
    python -m repro status --url http://127.0.0.1:8742
    python -m repro queue compact --url http://127.0.0.1:8742
    python -m repro queue stats --queue-dir .repro-queue
    python -m repro cache stats
    python -m repro cache gc --max-age 604800 --max-bytes 500000000

Simulation artifacts (binaries, traces, functional results, timing
stats) are cached content-addressed under ``--cache-dir`` (default
``.repro-cache``), keyed by workload, profile scale, DVI and machine
configuration, and source version.  Each figure target also stores its
*figure document*, the rendered one-figure manifest ``repro serve``
returns for the same figure request, and reads it first: a warm re-run
prints every figure from its document without importing, let alone
running, any experiment.  The experiment context, and the ``--jobs``
pool, open on the first figure that misses.  ``--jobs N`` fans the
experiments' independent simulation cells out over N worker processes;
results are merged deterministically, so parallel output is identical
to serial output.

The ``sweep`` subcommand builds an ad-hoc scenario from the component
registries: one timing cell per (workload, value) along any registered
axis (``predictor``, ``hierarchy``, ``regfile``, ``ports``).  Unknown
experiment, profile, workload, or component names exit with status 2
and the list of valid names.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack, contextmanager

from repro.errors import CellFailedError
from repro.experiments import DIRECTORY
from repro.experiments.cache import ArtifactCache
from repro.experiments.export import (
    DOCUMENT_KIND,
    document_key,
    figure_request,
    render_manifest,
    render_sections,
)
from repro.experiments.profile import ExperimentProfile


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """The execution knobs shared by figure runs and ad-hoc sweeps."""
    parser.add_argument(
        "--profile", choices=ExperimentProfile.names(), default="quick",
        help="sweep size: tiny (tests/smoke), quick (default), or the "
             "paper-shaped full sweep",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the simulation cells (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="on-disk artifact cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache (never read or write artifacts)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write every result as deterministic JSON to PATH",
    )


def _check_json_path(parser: argparse.ArgumentParser, path: str) -> None:
    """Catch an unwritable --json path now, not after minutes of simulation
    — without leaving an empty file behind if the run later fails."""
    try:
        probe_existed = os.path.exists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not probe_existed:
            os.unlink(path)
    except OSError as error:
        parser.error(f"cannot write --json file: {error}")


def _open_cache(args):
    """The invocation's artifact cache, or ``None`` under ``--no-cache``."""
    return None if args.no_cache else ArtifactCache(args.cache_dir)


def _report_cache(cache) -> None:
    """Print the per-kind ``cache [...]`` line and fold its tallies into
    the store's lifetime counters."""
    if cache is None:
        return
    print(cache.summary(), file=sys.stderr)
    try:
        cache.flush_counters()
    except OSError:
        pass  # read-only cache dir: tallies are best-effort


@contextmanager
def _run_context(args, cache):
    """The invocation's context over ``cache``.  With ``--jobs N`` > 1
    the invocation owns one worker pool for all its experiments and
    closes it on exit."""
    from repro.experiments.runner import ExperimentContext

    profile = ExperimentProfile.by_name(args.profile)
    if args.jobs == 1:
        yield ExperimentContext(profile, cache=cache)
        return
    from repro.experiments.pool import WarmPool

    factory = cache.factory() if cache is not None else None
    with WarmPool(args.jobs, factory) as pool:
        yield ExperimentContext(profile, cache=cache, pool=pool)


#: Main-parser long options -> whether they consume the following token.
#: Used to locate the target positional anywhere in argv (argparse
#: allows option-first orderings like ``--profile tiny fig9``).
_MAIN_OPTIONS = {
    "--profile": True,
    "--jobs": True,
    "--cache-dir": True,
    "--json": True,
    "--no-cache": False,
}


def _target_of(argv) -> str:
    """The target positional as the main parser would bind it.

    Mirrors argparse's prefix matching so abbreviated options
    (``--prof tiny``) skip their value too.
    """
    skip_next = False
    for token in argv:
        if skip_next:
            skip_next = False
            continue
        if token.startswith("--"):
            name = token.split("=", 1)[0]
            matches = [o for o in _MAIN_OPTIONS if o.startswith(name)]
            if ("=" not in token and matches
                    and all(_MAIN_OPTIONS[o] for o in matches)):
                skip_next = True
            continue
        if token.startswith("-"):
            continue
        return token
    return ""


def _list_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro list",
        description="List experiments or registered components.",
    )
    parser.add_argument(
        "--workloads", action="store_true",
        help="show the registered workloads",
    )
    parser.add_argument(
        "--predictors", action="store_true",
        help="show the registered branch predictors",
    )
    parser.add_argument(
        "--hierarchies", action="store_true",
        help="show the registered cache-hierarchy presets",
    )
    # Listing runs nothing, but the shared run options stay accepted (and
    # ignored) so pre-refactor invocations like ``list --profile tiny``
    # keep working.
    _add_run_options(parser)
    args = parser.parse_args(argv)
    _print_components(args)
    return 0


def _print_components(args) -> None:
    """The ``list`` subcommand body."""
    sections = []
    if args.workloads:
        from repro.workloads.suite import REGISTRY as WORKLOADS

        sections.append(("workloads", [
            (w.name, f"{w.description} (analog: {w.analog})")
            for w in WORKLOADS.all()
        ]))
    if args.predictors:
        from repro.sim.branch.predictors import PREDICTORS

        sections.append(("predictors", [
            (spec.name, spec.description) for spec in PREDICTORS.all()
        ]))
    if args.hierarchies:
        from repro.sim.cache.hierarchy import HIERARCHIES

        sections.append(("hierarchies", [
            (spec.name, spec.description) for spec in HIERARCHIES.all()
        ]))
    if not sections:
        sections.append(("experiments", [
            (name, description)
            for name, (_, description) in DIRECTORY.items()
        ]))
    for index, (heading, rows) in enumerate(sections):
        if len(sections) > 1:
            if index:
                print()
            print(f"{heading}:")
        width = max(10, *(len(name) for name, _ in rows)) + 1
        for name, description in rows:
            print(f"{name:<{width}s}{description}")


def _sweep_main(argv) -> int:
    from repro.experiments.sweep import (
        SWEEP_AXES,
        adhoc_spec,
        run_sweep,
        sweep_title,
    )
    from repro.registry import UnknownComponentError

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Run an ad-hoc sweep over a registered component axis.",
    )
    parser.add_argument(
        "--axis", required=True, metavar="AXIS",
        help="swept dimension: %s" % ", ".join(SWEEP_AXES.names()),
    )
    parser.add_argument(
        "--values", metavar="A,B,...",
        help="explicit axis values (default: every registered value / the "
             "profile's sweep)",
    )
    parser.add_argument(
        "--workloads", metavar="W1,W2,...",
        help="comma-separated workload names, bare analog names accepted "
             "(default: the profile's suite)",
    )
    _add_run_options(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.json:
        _check_json_path(parser, args.json)

    profile = ExperimentProfile.by_name(args.profile)
    try:
        spec = adhoc_spec(
            args.axis,
            profile,
            values=args.values.split(",") if args.values else None,
            workloads=args.workloads.split(",") if args.workloads else None,
        )
    except UnknownComponentError:
        raise
    except ValueError as error:  # e.g. non-integer --values for regfile
        parser.error(f"--values: {error}")
    started = time.time()
    cache = _open_cache(args)
    with _run_context(args, cache) as context:
        try:
            result = run_sweep(
                spec, profile, context,
                title=sweep_title(args.axis, profile),
            )
        except ValueError as error:  # e.g. a register count below the minimum
            parser.error(str(error))
    print(result.format_table())
    print(f"[{spec.name}; {time.time() - started:.1f}s]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(render_manifest(profile.name, {spec.name: result}))
    _report_cache(cache)
    return 0


def _serve_main(argv) -> int:
    from repro.service.dispatcher import DEFAULT_MAX_BODY_BYTES

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the simulation service (job queue + batching "
                    "dispatcher + HTTP JSON API) in the foreground.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default: 8742, or this shard's own --peers "
             "URL port when --shard is set; 0 picks a free port)",
    )
    parser.add_argument(
        "--shard", metavar="K/N", default=None,
        help="run as shard K of N (0-based): requires --peers listing "
             "all N shard base URLs in index order (this process is "
             "entry K); clients consistent-hash route request "
             "fingerprints over the same list, so equivalent requests "
             "always land on one shard and dedup converges",
    )
    parser.add_argument(
        "--peers", metavar="URL,URL,...", default=None,
        help="with --shard K/N: the N shard base URLs in index order "
             "(self included at position K); the other entries are "
             "dialed for artifact peer fetch",
    )
    parser.add_argument(
        "--shared-cache-dir", metavar="DIR", default=None,
        help="shared artifact-cache tier (read-through on local miss, "
             "write-through on store) — point every shard at one "
             "shared directory so any shard instant-completes from "
             "any other shard's work; usable without --shard too",
    )
    parser.add_argument(
        "--peer-timeout", type=float, default=2.0, metavar="SECONDS",
        help="per-peer deadline for one artifact fetch; a dead peer "
             "costs at most this before computing locally (default: 2)",
    )
    parser.add_argument(
        "--no-peer-fetch", action="store_true",
        help="never dial peers for artifacts (shared-dir and local "
             "tiers only); routing and shard stats are unaffected",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for each batch's cells; above 1, batches "
             "run on one persistent pool of N processes "
             "(default: 1, in-process)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=8, metavar="N",
        help="max service jobs fused into one batch (default: 8)",
    )
    parser.add_argument(
        "--compact-every", type=int, default=4096, metavar="N",
        help="auto-compact the queue journal into a snapshot every N "
             "events; 0 disables auto-compaction (default: 4096)",
    )
    parser.add_argument(
        "--quota", type=int, default=0, metavar="N",
        help="max in-flight (queued+running) jobs per client id; breaches "
             "get HTTP 429 with Retry-After; 0 = unlimited (default: 0)",
    )
    parser.add_argument(
        "--max-queue-depth", type=int, default=0, metavar="N",
        help="max total in-flight jobs before submissions get HTTP 503 "
             "with Retry-After; 0 = unbounded (default: 0)",
    )
    parser.add_argument(
        "--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES,
        metavar="N",
        help="largest accepted POST body; bigger requests get HTTP 413 "
             "(default: %d)" % DEFAULT_MAX_BODY_BYTES,
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="failed executions (crash, hang, error) a job gets before "
             "it is quarantined with its failure diagnostic "
             "(default: 3)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=0, metavar="SECONDS",
        help="per-cell wall-clock deadline: batches run on the "
             "worker pool (even with --jobs 1), hung workers are killed "
             "and their jobs charged, and job leases reclaim lost "
             "verdicts; 0 disables deadline enforcement (default: 0)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=30.0, metavar="SECONDS",
        help="on SIGTERM/SIGINT, how long in-flight batches get to "
             "finish before stragglers are demoted back to queued "
             "(default: 30)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="structured logging: print every event-bus record (access "
             "logs with path/status/duration_ms, job transitions, "
             "lifecycle marks) as one JSON line on stdout",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="artifact cache backing the service (default: .repro-cache)",
    )
    parser.add_argument(
        "--queue-dir", default=".repro-queue", metavar="DIR",
        help="job-queue journal directory (default: .repro-queue)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.compact_every < 0:
        parser.error("--compact-every must be >= 0")
    if args.quota < 0:
        parser.error("--quota must be >= 0")
    if args.max_queue_depth < 0:
        parser.error("--max-queue-depth must be >= 0")
    if args.max_body_bytes < 1:
        parser.error("--max-body-bytes must be >= 1")
    if args.max_attempts < 1:
        parser.error("--max-attempts must be >= 1")
    if args.job_timeout < 0:
        parser.error("--job-timeout must be >= 0")
    if args.drain_grace < 0:
        parser.error("--drain-grace must be >= 0")
    if args.peer_timeout <= 0:
        parser.error("--peer-timeout must be > 0")
    if args.peers and not args.shard:
        parser.error("--peers requires --shard K/N")
    port = args.port
    queue_dir, cache_dir = args.queue_dir, args.cache_dir
    peer_urls = None
    if args.shard:
        from repro.service.routing import parse_shard_spec

        try:
            shard_index, shard_count = parse_shard_spec(args.shard)
        except ValueError as error:
            parser.error(str(error))
        if not args.peers:
            parser.error("--shard requires --peers (all shard URLs, "
                         "index order)")
        peer_urls = tuple(
            u.strip() for u in args.peers.split(",") if u.strip()
        )
        if len(peer_urls) != shard_count:
            parser.error(
                f"--shard {args.shard} needs exactly {shard_count} "
                f"--peers URL(s); got {len(peer_urls)}"
            )
        if port is None:
            # Default the bind port to this shard's own announced URL,
            # so one --peers list configures the whole fleet.
            from urllib.parse import urlsplit

            port = urlsplit(peer_urls[shard_index]).port
            if port is None:
                parser.error(
                    f"--peers entry {shard_index} "
                    f"({peer_urls[shard_index]!r}) has no explicit "
                    "port; pass --port"
                )
        # Each shard process owns a private journal and local cache —
        # only the shared tier is multi-writer — so the default dirs
        # are suffixed with the shard identity.
        suffix = f"-shard-{shard_index}-of-{shard_count}"
        queue_dir = args.queue_dir + suffix
        cache_dir = args.cache_dir + suffix
    if port is None:
        port = 8742
    from repro.service.server import serve_forever

    def announce(server):
        # In --log-json mode stdout is reserved for JSON records (the
        # bus publishes a machine-readable "serving" event there), so
        # the human-readable line moves to stderr.
        stream = sys.stderr if args.log_json else sys.stdout
        print(f"serving on {server.url}", file=stream, flush=True)
        pool = server.dispatcher.pool
        shard_note = (
            f"shard: {args.shard} "
            f"(shared tier: {args.shared_cache_dir or 'none'}); "
            if args.shard else ""
        )
        print(
            f"queue journal: {queue_dir}; cache: {cache_dir}; "
            f"{shard_note}"
            f"jobs/batch: {args.jobs}; "
            f"max batch: {args.max_batch}; "
            f"pool: {pool.max_workers if pool else 'none, in-process'}",
            file=sys.stderr, flush=True,
        )

    drained_clean = serve_forever(
        queue_dir, cache_dir,
        host=args.host, port=port,
        jobs=args.jobs, max_batch=args.max_batch,
        compact_every=args.compact_every or None,
        quota=args.quota or None,
        max_queue_depth=args.max_queue_depth or None,
        max_body_bytes=args.max_body_bytes,
        max_attempts=args.max_attempts,
        job_timeout=args.job_timeout or None,
        drain_grace=args.drain_grace,
        log_json=args.log_json,
        shard=args.shard, peers=peer_urls,
        shared_cache_dir=args.shared_cache_dir,
        peer_timeout=args.peer_timeout,
        peer_fetch=not args.no_peer_fetch,
        announce=announce,
    )
    if not drained_clean:
        # A wedged batch outlived the grace: its dispatch thread is
        # non-daemon, so a normal return would hang the interpreter on
        # thread join.  The drain already demoted the batch's jobs and
        # abandoned the journal writer, so replay is clean — hard-exit
        # with the success status the drain contract promises.
        print("drain grace expired with a batch still executing; "
              "exiting hard (jobs demoted for replay)",
              file=sys.stderr, flush=True)
        os._exit(0)
    return 0


def _submit_main(argv) -> int:
    from repro.experiments.sweep import SWEEP_AXES

    parser = argparse.ArgumentParser(
        prog="repro submit",
        description="Submit a sweep or figure job to a running service "
                    "and (by default) wait for the result.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8742",
        help="service base URL; a comma-separated list names a sharded "
             "fleet (same order as the servers' --peers) and the "
             "request is consistent-hash routed to its owning shard "
             "(default: http://127.0.0.1:8742)",
    )
    parser.add_argument(
        "--axis", metavar="AXIS",
        help="sweep axis: %s" % ", ".join(SWEEP_AXES.names()),
    )
    parser.add_argument(
        "--values", metavar="A,B,...",
        help="explicit axis values (default: every registered value)",
    )
    parser.add_argument(
        "--workloads", metavar="W1,W2,...",
        help="comma-separated workloads (default: the profile's suite)",
    )
    parser.add_argument(
        "--figure", metavar="TARGET",
        help="submit a figure job instead of a sweep: %s"
             % ", ".join(DIRECTORY),
    )
    parser.add_argument(
        "--profile", choices=ExperimentProfile.names(), default="quick",
        help="experiment profile (default: quick)",
    )
    parser.add_argument(
        "--client-id", "--client", dest="client", default="cli",
        metavar="NAME",
        help="client identity for queue fairness and admission quotas "
             "(default: cli)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=5, metavar="N",
        help="retry a 429/503 admission refusal up to N times, honoring "
             "the server's Retry-After with capped exponential backoff; "
             "0 fails fast (default: 5)",
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without waiting for the result",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, metavar="SECONDS",
        help="give up waiting after this long (default: 600)",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the result document to PATH",
    )
    args = parser.parse_args(argv)
    if bool(args.figure) == bool(args.axis):
        parser.error("exactly one of --figure or --axis is required")
    if args.figure and (args.values or args.workloads):
        parser.error("--values/--workloads are sweep options and cannot "
                     "combine with --figure")
    if args.no_wait and args.json:
        parser.error("--json needs the result and cannot combine "
                     "with --no-wait")
    if args.json:
        _check_json_path(parser, args.json)
    if args.max_retries < 0:
        parser.error("--max-retries must be >= 0")

    from repro.service.client import ServiceError, submit_and_wait, submit_job

    if args.figure:
        payload = {"kind": "figure", "target": args.figure,
                   "profile": args.profile}
    else:
        payload = {"kind": "sweep", "axis": args.axis,
                   "profile": args.profile}
        if args.values:
            payload["values"] = args.values.split(",")
        if args.workloads:
            payload["workloads"] = args.workloads.split(",")

    def on_retry(attempt, delay, error):
        print(
            f"service busy (HTTP {error.status}); retrying in {delay:.1f}s "
            f"(attempt {attempt + 1}/{args.max_retries})",
            file=sys.stderr, flush=True,
        )

    try:
        if args.no_wait:
            receipt = submit_job(
                args.url, payload, client=args.client,
                max_retries=args.max_retries, on_retry=on_retry,
            )
            print(f"submitted {receipt['id']} ({receipt['location']})")
            return 0
        job, document = submit_and_wait(
            args.url, payload, client=args.client, timeout=args.timeout,
            max_retries=args.max_retries, on_retry=on_retry,
        )
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    manifest = json.loads(document)
    for name, section in manifest["results"].items():
        print(section["table"])
        print(f"[{name}; served by {args.url}, job {job['id']}, "
              f"source: {job.get('source', 'computed')}]")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(document.decode("utf-8"))
    return 0


def _status_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Show a running service's queue/cache/worker stats, "
                    "or one job's record.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8742",
        help="service base URL (default: http://127.0.0.1:8742)",
    )
    parser.add_argument(
        "--job", metavar="ID", help="show this job's record instead",
    )
    args = parser.parse_args(argv)

    from repro.service.client import ServiceError, get_job, get_stats

    try:
        if args.job:
            print(json.dumps(get_job(args.url, args.job), indent=2,
                             sort_keys=True))
            return 0
        stats = get_stats(args.url)
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    queue, disp = stats["queue"], stats["dispatcher"]
    workers = stats["workers"]
    compaction = queue["compaction"]
    print(f"queue depth: {queue['depth']}  states: "
          + "  ".join(f"{k}={v}" for k, v in sorted(queue["states"].items())))
    print(f"journal: generation {compaction['generation']}  "
          f"tail events: {compaction['journal_events']}  "
          f"compactions: {compaction['compactions']}")
    print(f"submissions: {disp['submissions']}  coalesced: "
          f"{disp['coalesced']}  from-cache: {disp['jobs_from_cache']}  "
          f"completed: {disp['jobs_completed']}  failed: "
          f"{disp['jobs_failed']}")
    print(f"batches: {disp['batches']}  batched jobs: "
          f"{disp['batched_jobs']}  cells executed: "
          f"{disp['cells_executed']}")
    containment = stats.get("containment")
    if containment:
        deadline = containment["job_timeout"]
        print(f"containment: retries={containment['retries']}  "
              f"quarantined={containment['quarantined']}  "
              f"timeouts={containment['timeouts']}  "
              f"bisections={containment['bisections']}  "
              f"pool crashes={containment['pool_crashes']}  "
              f"breaker={'OPEN' if containment['breaker_open'] else 'closed'}"
              f"  (max attempts {containment['max_attempts']}, deadline "
              + (f"{deadline:g}s)" if deadline else "off)"))
    print(f"pool size: {workers['pool_size']}  max batch: "
          f"{workers['max_batch']}  batch running: "
          f"{'yes' if workers['active'] else 'no'}  utilization: "
          f"{workers['utilization']:.1%}")
    return 0


def _watch_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro watch",
        description="Tail a running service's live event stream "
                    "(GET /v1/events over SSE): job transitions, "
                    "batches, bisections, pool rebuilds, access "
                    "records — no polling.",
    )
    parser.add_argument(
        "--url", default="http://127.0.0.1:8742",
        help="service base URL (default: http://127.0.0.1:8742)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print each event as one raw JSON line (pipe to jq) "
             "instead of the human-readable rendering",
    )
    parser.add_argument(
        "--max-events", type=int, default=0, metavar="N",
        help="exit after N events; 0 streams until interrupted "
             "(default: 0)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="socket read timeout between frames; the server's 15s "
             "keepalive cadence keeps this from firing on a quiet "
             "stream (default: 60)",
    )
    args = parser.parse_args(argv)
    if args.max_events < 0:
        parser.error("--max-events must be >= 0")
    if args.timeout <= 0:
        parser.error("--timeout must be > 0")

    from repro.service.client import ServiceError, stream_events

    try:
        for event in stream_events(
            args.url,
            timeout=args.timeout,
            max_events=args.max_events or None,
        ):
            if args.json:
                print(json.dumps(event, sort_keys=True), flush=True)
                continue
            print(_render_watch_event(event), flush=True)
    except KeyboardInterrupt:
        return 0
    except ServiceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _render_watch_event(event: dict) -> str:
    """One human-readable line per bus event for ``repro watch``."""
    kind = event.get("event", "?")
    seq = event.get("seq", "-")
    if kind == "hello":
        stats = event.get("stats", {})
        queue = stats.get("queue", {})
        return (f"[{seq}] connected: queue depth "
                f"{queue.get('depth', '?')}, uptime "
                f"{stats.get('uptime_seconds', '?')}s")
    if kind == "job":
        parts = [f"[{seq}] job {event.get('id', '?')} "
                 f"-> {event.get('state', '?')}"]
        for key in ("client", "source", "error", "failure_reason"):
            if key in event:
                parts.append(f"{key}={event[key]}")
        return "  ".join(parts)
    if kind == "http":
        return (f"[{seq}] http {event.get('method', '?')} "
                f"{event.get('path', '?')} -> {event.get('status', '?')} "
                f"({event.get('duration_ms', '?')}ms)")
    if kind == "dropped":
        return (f"[!] stream fell behind: {event.get('count', '?')} "
                f"event(s) dropped")
    detail = "  ".join(
        f"{key}={value}" for key, value in sorted(event.items())
        if key not in ("event", "seq", "ts")
    )
    return f"[{seq}] {kind}" + (f"  {detail}" if detail else "")


def _queue_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro queue",
        description="Inspect or compact a service job-queue directory. "
                    "'compact' folds the journal into an atomic snapshot "
                    "(against a live service via --url, or offline on a "
                    "--queue-dir while no server is running); 'stats' is a "
                    "read-only report of the snapshot/journal files.",
    )
    parser.add_argument(
        "action", choices=("compact", "stats"),
        help="'compact' snapshots + truncates the journal; 'stats' reports "
             "generation, snapshot size, and journal tail length",
    )
    parser.add_argument(
        "--queue-dir", default=".repro-queue", metavar="DIR",
        help="queue directory (default: .repro-queue)",
    )
    parser.add_argument(
        "--url", metavar="URL",
        help="compact via a running service's POST /v1/compact instead of "
             "touching the directory (required if a server is live)",
    )
    parser.add_argument(
        "--retain", type=int, default=None, metavar="N",
        help="finished jobs to keep in the snapshot (default: 256, or "
             "the live server's configured retention with --url)",
    )
    args = parser.parse_args(argv)
    if args.retain is not None and args.retain < 0:
        parser.error("--retain must be >= 0")

    if args.action == "compact" and args.url:
        from repro.service.client import ServiceError, compact_queue

        try:
            report = compact_queue(args.url, retain_terminal=args.retain)
        except ServiceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"compact: generation {report['generation']}, "
              f"kept {report['jobs_kept']} job(s), "
              f"dropped {report['jobs_dropped']}, "
              f"folded {report['events_folded']} journal event(s)")
        return 0

    if args.action == "compact":
        # Offline maintenance: replays the journal (demoting interrupted
        # work exactly as a restart would), snapshots, and truncates.
        # Never run this against a live server's queue directory — two
        # writers on one journal corrupt both; use --url for that.
        from repro.service.queue import JobQueue, SnapshotCorruptError

        try:
            queue = JobQueue(args.queue_dir)
        except SnapshotCorruptError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            report = queue.compact(retain_terminal=args.retain)
        finally:
            queue.close()
        print(report.summary())
        return 0

    # stats: pure file inspection, safe next to a running server.
    from repro.service.queue import JobQueue as _JobQueue

    queue_dir = args.queue_dir
    snapshot_path = os.path.join(queue_dir, _JobQueue.SNAPSHOT_FILE)
    journal_path = os.path.join(queue_dir, "journal.jsonl")
    generation = 0
    if os.path.exists(snapshot_path):
        with open(snapshot_path, encoding="utf-8") as handle:
            try:
                snapshot = json.load(handle)
            except json.JSONDecodeError:
                print(f"error: {snapshot_path} is corrupt (torn snapshot)",
                      file=sys.stderr)
                return 2
        generation = snapshot.get("generation", 0)
        states = {}
        for record in snapshot.get("jobs", ()):
            states[record.get("state")] = states.get(record.get("state"), 0) + 1
        print(f"snapshot: generation {generation}, "
              f"{snapshot.get('job_count', 0)} job(s)  "
              + "  ".join(f"{k}={v}" for k, v in sorted(states.items())))
    else:
        print("snapshot: none (journal-only queue)")
    if os.path.exists(journal_path):
        with open(journal_path, encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        size = os.path.getsize(journal_path)
        print(f"journal: {lines} line(s), {size:,} bytes")
    else:
        print("journal: none")
    return 0


def _cache_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect or prune the on-disk artifact cache.",
    )
    parser.add_argument(
        "action", choices=("stats", "gc"),
        help="'stats' reports per-kind entries/bytes and lifetime "
             "hit/miss counters; 'gc' prunes by age and/or size",
    )
    parser.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="artifact cache directory (default: .repro-cache)",
    )
    parser.add_argument(
        "--max-age", type=float, metavar="SECONDS",
        help="gc: remove artifacts older than this many seconds",
    )
    parser.add_argument(
        "--max-bytes", type=int, metavar="N",
        help="gc: then remove oldest artifacts until the store fits N bytes",
    )
    args = parser.parse_args(argv)

    cache = ArtifactCache(args.cache_dir)
    if args.action == "gc":
        if args.max_age is None and args.max_bytes is None:
            parser.error("gc needs --max-age and/or --max-bytes")
        report = cache.gc(max_age=args.max_age, max_bytes=args.max_bytes)
        print(report.summary())
        return 0

    stats = cache.disk_stats()
    if not stats:
        print(f"cache {args.cache_dir}: empty")
    else:
        total_count = sum(count for count, _ in stats.values())
        total_bytes = sum(size for _, size in stats.values())
        width = max(len(kind) for kind in stats) + 1
        for kind in sorted(stats):
            count, size = stats[kind]
            print(f"{kind:<{width}s}{count:>7,} entries  {size:>13,} bytes")
        print(f"{'total':<{width}s}{total_count:>7,} entries  "
              f"{total_bytes:>13,} bytes")
    lifetime = cache.persistent_counters()
    if lifetime:
        print("lifetime counters:")
        for kind in sorted(lifetime):
            slot = lifetime[kind]
            print(f"  {kind}: {slot.get('hits', 0)} hit / "
                  f"{slot.get('misses', 0)} miss / "
                  f"{slot.get('stores', 0)} stored / "
                  f"{slot.get('corrupt', 0)} corrupt healed")
    return 0


#: Subcommands that own their option surfaces and dispatch before the
#: main parser sees the arguments (``--workloads`` is a flag on one and
#: valued on another; the service verbs add --url/--port/...).
_SUBCOMMANDS = {
    "list": _list_main,
    "sweep": _sweep_main,
    "serve": _serve_main,
    "submit": _submit_main,
    "status": _status_main,
    "watch": _watch_main,
    "queue": _queue_main,
    "cache": _cache_main,
}


def main(argv=None) -> int:
    try:
        return _main(argv)
    except CellFailedError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _main(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Exploiting Dead Value "
                    "Information' (MICRO-30, 1997).",
    )
    parser.add_argument(
        "target",
        help="figure id (%s), 'run-all' (or 'all'), 'machine', 'list' "
             "(--workloads/--predictors/--hierarchies show registered "
             "components), 'sweep' (ad-hoc component sweeps), 'serve' "
             "(simulation service), 'submit'/'status'/'watch' (service "
             "clients; watch tails the live SSE event stream), "
             "'queue' (job-queue compaction/stats), or 'cache' "
             "(artifact-store stats/gc); each subcommand has its own "
             "--help"
             % ", ".join(DIRECTORY),
    )
    _add_run_options(parser)

    # Subcommands own their option surfaces; dispatch before the main
    # parser sees the arguments.  The target is located the way the main
    # parser would, so option-first orderings keep working.
    target = _target_of(argv)
    if target in _SUBCOMMANDS:
        from repro.registry import UnknownComponentError

        rest = list(argv)
        rest.remove(target)
        try:
            return _SUBCOMMANDS[target](rest)
        except UnknownComponentError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.target == "machine":
        from repro.experiments import fig3_characterization

        print(fig3_characterization.machine_description())
        return 0

    run_all = args.target in ("all", "run-all")
    targets = list(DIRECTORY) if run_all else [args.target]
    unknown = [t for t in targets if t not in DIRECTORY]
    if unknown:
        parser.error(
            "unknown target(s): %s; valid targets: %s, run-all, list, "
            "machine, sweep"
            % (", ".join(unknown), ", ".join(DIRECTORY))
        )
    if args.json:
        _check_json_path(parser, args.json)
    return _run_figures(args, targets)


def _run_figures(args, targets) -> int:
    """Print each target's figure and write the ``--json`` manifest.

    Each figure comes from its figure document: read from the cache,
    or, on a miss, rendered from a fresh run of the experiment and
    stored for the next run (and for the service, which serves the same
    document).  The experiment context, and any ``--jobs`` pool, opens
    on the first miss, over this invocation's cache, so a warm run
    imports no experiment and the ``cache [...]`` line counts documents
    and cells together.
    """
    cache = _open_cache(args)
    sections = {}
    with ExitStack() as stack:
        context = None
        for name in targets:
            started = time.time()
            hit = False
            if cache is not None:
                # One digest serves the load and, on a miss, the store.
                digest = cache.digest(DOCUMENT_KIND, document_key(
                    figure_request(name, args.profile)))
                hit, document = cache.load_digest(DOCUMENT_KIND, digest)
            if not hit:
                if context is None:
                    context = stack.enter_context(_run_context(args, cache))
                document = _render_figure(name, context)
                if cache is not None:
                    cache.store_digest(DOCUMENT_KIND, digest, document)
            sections[name] = json.loads(document)["results"][name]
            print(sections[name]["table"])
            print(f"[{name}: {DIRECTORY[name][1]}; "
                  f"{time.time() - started:.1f}s]\n")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(render_sections(args.profile, sections))
    _report_cache(cache)
    return 0


def _render_figure(name: str, context) -> str:
    """Run one experiment on ``context``; return its figure document."""
    from repro.experiments import EXPERIMENTS

    # Looked up per call, not bound at import: a tracer may have
    # wrapped the module's ``run`` in the meantime.
    result = EXPERIMENTS[name][0].run(context.profile, context)
    return render_manifest(context.profile.name, {name: result})


if __name__ == "__main__":
    sys.exit(main())
