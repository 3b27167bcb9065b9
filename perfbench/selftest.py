"""Self-test of the benchmark: ``python3 perfbench/run.py --self-test``.

Runs a seconds-long form of each workload, untraced and traced, and
asserts that every declared metric is reported with its unit and a
sample count.  Then checks that the gates count failures: a manifest
with one corrupted byte, a ``run-all`` that exits non-zero, and a
request the service refuses must each show up as a failed operation.
"""

from __future__ import annotations

import json
import time

from common import Outcome, WorkDir, child_env, invoke
from reproduce import Golden, Runner, command

#: Run length per workload; each still makes at least one operation.
SECONDS = {"reproduce-cold": 1, "reproduce-warm": 2, "serve-mixed": 3}


def _corrupt_digit(raw: bytes, start: int) -> bytes:
    """``raw`` with the first digit at or after ``start`` changed."""
    for i in range(start, len(raw)):
        if raw[i:i + 1].isdigit():
            digit = (raw[i] - ord("0") + 1) % 10
            return raw[:i] + str(digit).encode() + raw[i + 1:]
    raise ValueError("no digit to corrupt")


def _manifest_gates(failures: list) -> None:
    golden = Golden()
    doc = {"profile": golden.doc["profile"],
           "results": {**golden.doc["results"],
                       "predictor": {"table": "t", "data": {"rows": [1]}}}}
    valid = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    with WorkDir("self-test") as work:
        runner = Runner(work, 0, Outcome())
        if runner.manifest_problems(valid):
            failures.append("a golden-equivalent manifest was rejected")
        cases = {
            "golden section": _corrupt_digit(valid, valid.index(b'"fig5"')),
            "predictor section": _corrupt_digit(
                valid, valid.index(b'"predictor"')),
        }
        for where, corrupted in cases.items():
            outcome = Outcome()
            outcome.op(runner.manifest_problems(corrupted))
            if outcome.failed != 1:
                failures.append(f"a corrupted byte in the {where} passed")

        inv = invoke(command(("run-all", "--profile", "no-such-profile")),
                     child_env(0), work.fresh("bad"))
        outcome = Outcome()
        outcome.op(runner.exit_problems(inv))
        if outcome.failed != 1:
            failures.append("a run-all that exited non-zero passed")


def _request_gate(failures: list) -> None:
    from serve import Phase, Server

    with WorkDir("self-test-serve") as work:
        server = Server(work, child_env(0))
        try:
            outcome = Outcome()
            phase = Phase(server.url, 0, 0, False, {}, outcome)
            entry = phase.send("no-such-size", time.perf_counter())
            phase.settle(entry)
        finally:
            server.stop()
    if (outcome.attempted, outcome.failed) != (1, 1):
        failures.append("a refused request was not counted as failed")


def run_self_test(run_workload, finish, declared) -> int:
    failures: list = []
    for name, seconds in SECONDS.items():
        for trace in (False, True):
            outcome = run_workload(name, seconds, 7, trace)
            result = finish(name, outcome, trace)
            if not result["correct"]:
                failures.append(f"{name} trace={trace:d} was not correct")
            expected = dict(declared(trace))
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected:
                failures.append(f"{name} trace={trace:d}: metrics/units "
                                f"differ from BENCHMARK.json")
            if not trace:
                unsampled = [m for m in expected
                             if outcome.samples.get(m, 0) < 1]
                if unsampled:
                    failures.append(f"{name}: no samples behind {unsampled}")
    _manifest_gates(failures)
    _request_gate(failures)
    for failure in failures:
        print(f"SELF-TEST FAILED: {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0
