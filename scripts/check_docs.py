#!/usr/bin/env python
"""Fail if README.md / DESIGN.md drift from the CLI's --help output.

A deliberately simple grep-based check (run by ``make docs-check`` and
CI): every user-facing CLI surface — each long option in ``python -m
repro --help`` and each experiment target — must be mentioned in
README.md, and DESIGN.md must keep documenting the subjects the code
cross-references (workload substitution, cache keys, invalidation).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: DESIGN.md must keep covering these subjects (runner.py, config.py,
#: cache.py, and the service package's docstrings point readers at them).
DESIGN_REQUIRED = (
    "workload substitution",
    "scale",
    "cache key",
    "invalidat",
    "fetch",
    # Section 5, the service architecture:
    "queue lifecycle",
    "journal",
    "batching rules",
    "coalesce",
    "/v1/jobs",
    # The scale-out layer: snapshot compaction + sharded dispatch.
    "compaction",
    "snapshot",
    "generation",
    "worker",
    # Multi-tenant traffic hardening: admission control + SLO harness.
    "admission",
    "quota",
    "Retry-After",
    "backpressure",
    "load harness",
    "p99",
    # Failure containment: leases, bounded retries, quarantine, drain.
    "lease",
    "quarantine",
    "bisection",
    "circuit breaker",
    "graceful drain",
    "/v1/health",
    # The one table of artifact kinds and its one resolve path.
    "artifact-kind table",
    "resolve path",
    # Cache keys render through one renderer per type, pinned by the
    # golden key digest.
    "renderer table",
    "golden key digest",
    # A trace leaves the memo after its last timed reader.
    "last reader",
    # The CLI and the service share one rendered document per figure.
    "figure document",
    # No package __init__ imports a submodule; the runner imports its
    # compute functions at call time.
    "imports on first use",
    # The C timing kernel and its ports of the registered predictors.
    "native timing kernel",
    "predictor port",
    # The C functional engine + the one persistent worker pool.
    "native functional engine",
    "resumable",
    "per-pc",
    "no switch",
    "warm worker pool",
    "rebuild",
    "contained executor",
    "one batch at a time",
    "repro.experiments.pool",
    # Observability: event bus, spans, histograms, SSE backpressure.
    "event bus",
    "span",
    "histogram",
    "p50",
    "Server-Sent Events",
    "dropped",
    "slow consumer",
    "/dashboard",
    "Prometheus",
    # Sharded serving over the tiered artifact cache.
    "consistent hash",
    "--shard",
    "--peers",
    "--shared-cache-dir",
    "tiered",
    "write-through",
    "promote",
    "peer fetch",
    "misrouted",
    "heal",
    "readable_digest",
    "byte-identical",
)

#: Subcommands whose --help surfaces must be reflected in README.md.
SUBCOMMANDS = (
    "list", "sweep", "serve", "submit", "status", "watch", "queue",
    "cache",
)


def cli_help(*subcommand: str) -> str:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-m", "repro", *subcommand, "--help"],
        capture_output=True, text=True, env=env, check=True,
    )
    return result.stdout


def main() -> int:
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    help_text = cli_help()
    problems = []

    # Every long option the CLI advertises (main parser plus every
    # subcommand's own option surface) must appear in the README.
    subcommand_help = "".join(cli_help(name) for name in SUBCOMMANDS)
    for option in sorted(
        set(re.findall(r"--[a-z][a-z-]+", help_text + subcommand_help))
    ):
        if option == "--help":
            continue
        if option not in readme:
            problems.append(f"README.md does not mention CLI option {option}")

    # Every experiment target (fig3, ..., ablation), the run-all verb,
    # and each subcommand verb.
    targets = re.search(r"figure id \(([^)]*)\)", help_text)
    assert targets, "could not parse experiment ids from --help"
    verbs = [t.strip() for t in targets.group(1).split(",")]
    verbs += ["run-all", *SUBCOMMANDS]
    for target in verbs:
        if target not in readme:
            problems.append(f"README.md does not mention CLI target {target!r}")

    # The service API endpoints the server routes must stay documented.
    server_src = (
        REPO_ROOT / "src" / "repro" / "service" / "server.py"
    ).read_text(encoding="utf-8")
    for endpoint in sorted(set(re.findall(r"/v1/[a-z]+", server_src))):
        if endpoint not in readme or endpoint not in design:
            problems.append(
                f"README.md/DESIGN.md do not document API endpoint {endpoint}"
            )

    # The tier-1 test command must stay documented verbatim.
    if "python -m pytest -x -q" not in readme:
        problems.append("README.md lost the tier-1 test command")

    for needle in DESIGN_REQUIRED:
        if needle.lower() not in design.lower():
            problems.append(f"DESIGN.md no longer discusses {needle!r}")

    if problems:
        print("docs-check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("docs-check OK: README.md and DESIGN.md cover the CLI surface")
    return 0


if __name__ == "__main__":
    sys.exit(main())
