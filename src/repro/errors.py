"""Shared exception types."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class SimulationError(ReproError):
    """The guest program performed an illegal operation (bad PC, unaligned
    access, step-budget exhaustion where completion was required, ...)."""


class DVIViolationError(SimulationError):
    """A register asserted dead by DVI was read before being overwritten.

    Section 7: "Incorrect E-DVI will almost certainly lead to incorrect
    execution; the compiler is held responsible to provide only correct
    E-DVI.  Errors in E-DVI should be considered compiler errors."  The
    verifying emulator turns that contract into a checked runtime error.
    """

    def __init__(self, pc: int, reg: int, message: str = "") -> None:
        detail = f"register r{reg} read at pc={pc} while asserted dead"
        if message:
            detail += f" ({message})"
        super().__init__(detail)
        self.pc = pc
        self.reg = reg


class CellFailedError(RuntimeError):
    """Cells a caller needs produced no result; the message names them.

    ``failures`` are the :class:`~repro.experiments.parallel.CellFailure`
    records of the cells that failed.  The class lives here, not beside
    the scheduler, so the CLI can catch it without importing the
    experiment pipeline.
    """

    def __init__(self, failures) -> None:
        super().__init__("; ".join(
            f"{failure.job.kind} cell for {failure.job.workload!r} "
            f"({failure.job.signature()[:12]}) failed: {failure.kind}: "
            f"{failure.detail}"
            for failure in failures
        ))
        self.failures = failures
