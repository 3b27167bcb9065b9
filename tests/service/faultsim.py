"""Deterministic worker-level fault injection for the service.

crashsim (PR 5) proves the queue's *durability*: it kills the process
at every fsync/rename boundary and checks replay.  faultsim proves the
dispatcher's *containment*: it kills, hangs, or raises inside a worker
process at an exact simulation cell and checks the failure-handling
contract end to end —

* no lost jobs: every accepted job reaches a terminal state;
* exactly-once for healthy cells: a poison batchmate never causes a
  healthy cell's artifact to be stored twice;
* bounded blast radius: the poison job is quarantined after exactly
  ``max_attempts`` failed executions, with a diagnostic
  ``failure_reason``;
* clean replay: reopening the queue directory afterwards reproduces
  the identical terminal states.

The injection mechanism mirrors crashsim's failpoint pattern at the
process boundary: :data:`repro.experiments.pool.FAULTSIM_ENV` names a
JSON spec file; every *worker* process (spawned by any worker pool)
loads it once and consults it before running each cell.
Fires are recorded as one ``O_APPEND`` byte per fire in the spec's
state directory, so the count survives the worker being killed a
microsecond later.  With the variable unset — production, and every
other test — the hook is a single dict probe per worker process.

Faults are keyed by **cell signature**; :func:`timed_signature` maps a
request payload to the signature of its (single) timed cell so tests
can say "the job for value 37 is the poison" without hand-computing
hashes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from repro.experiments.runner import ExperimentProfile
from repro.service.dispatcher import _spec_for, normalize_request
from repro.experiments.pool import FAULTSIM_ENV, fault_fires

__all__ = ["FaultPlan", "arm_faults", "kill", "hang", "raise_", "timed_signature"]


def timed_signature(payload: dict) -> str:
    """The signature of the single timed cell a request enumerates.

    Faultsim scenarios use one-value, one-workload sweeps precisely so
    each service job maps to exactly one timed cell — the unit the
    injector targets.
    """
    request = normalize_request(payload)
    profile = ExperimentProfile.by_name(request["profile"])
    timed = [
        cell for cell in _spec_for(request, profile).jobs(profile)
        if cell.kind == "timed"
    ]
    assert len(timed) == 1, "faultsim payloads must enumerate one timed cell"
    return timed[0].signature()


def kill(max_fires: Optional[int] = None) -> dict:
    """A fault that ``os._exit``\\ s the worker (kills the pool)."""
    return _fault("kill", max_fires)


def hang(hang_seconds: float = 60.0, max_fires: Optional[int] = None) -> dict:
    """A fault that sleeps past any reasonable deadline (hung worker).

    ``hang_seconds`` is a backstop, not the expected wait: the waiter's
    deadline expires long before it and kills the pool.
    """
    fault = _fault("hang", max_fires)
    fault["hang_seconds"] = hang_seconds
    return fault


def raise_(max_fires: Optional[int] = None) -> dict:
    """A fault that raises an ordinary exception (pool survives)."""
    return _fault("raise", max_fires)


def _fault(mode: str, max_fires: Optional[int]) -> dict:
    fault: dict = {"mode": mode}
    if max_fires is not None:
        fault["max_fires"] = max_fires
    return fault


@dataclass
class FaultPlan:
    """An armed spec file plus the env-var scope that activates it.

    Workers inherit the environment at spawn, so the plan must be
    entered *before* the server (or executor) under test starts
    spawning pools, and stays armed for the whole scenario.
    """

    spec_path: str

    def __enter__(self) -> "FaultPlan":
        os.environ[FAULTSIM_ENV] = self.spec_path
        return self

    def __exit__(self, *exc_info) -> None:
        os.environ.pop(FAULTSIM_ENV, None)

    def fires(self, signature: str) -> int:
        """How many times the fault at ``signature`` fired so far."""
        return fault_fires(self.spec_path, signature)

    @property
    def env(self) -> Dict[str, str]:
        """Environment overlay for subprocess-hosted scenarios."""
        return {FAULTSIM_ENV: self.spec_path}


def arm_faults(tmp_dir, faults: Dict[str, dict]) -> FaultPlan:
    """Write a spec arming ``signature -> fault`` under ``tmp_dir``.

    Returns the plan *unentered* — use it as a context manager (or pass
    ``plan.env`` to a subprocess) to activate it.
    """
    root = Path(tmp_dir)
    state_dir = root / "faultsim-state"
    state_dir.mkdir(parents=True, exist_ok=True)
    spec_path = root / "faultsim-spec.json"
    spec_path.write_text(json.dumps({
        "state_dir": str(state_dir),
        "faults": faults,
    }), encoding="utf-8")
    return FaultPlan(str(spec_path))
