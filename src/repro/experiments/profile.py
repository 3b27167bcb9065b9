"""Experiment profiles: how large a sweep each figure runs.

``full()`` approximates the paper's sweep densities (scaled-down
instruction counts — the substitution DESIGN.md documents), ``quick()``
is a fast configuration used by the pytest-benchmark harness and CI,
and ``tiny()`` is the smallest sweep that still exhibits every
qualitative effect (used by the test suite and smoke runs).

The class lives apart from :mod:`repro.experiments.runner`, which
re-exports it, so the CLI can parse ``--profile`` and replay a figure
document without importing the pipeline's configuration classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.workloads import ALL_ORDER, SAVE_RESTORE_ORDER

__all__ = ["ExperimentProfile"]


@dataclass(frozen=True)
class ExperimentProfile:
    """Sizing knobs shared by all experiments."""

    name: str
    #: Workload scale factor (multiplies dynamic instruction counts).
    scale: int = 1
    #: Register file sizes for the Figure 5/6 sweep.
    regfile_sizes: Tuple[int, ...] = tuple(range(34, 99, 4))
    #: Workloads used where the paper uses the full suite.
    workloads: Tuple[str, ...] = tuple(ALL_ORDER)
    #: Workloads used where the paper uses the save/restore-heavy six.
    sr_workloads: Tuple[str, ...] = tuple(SAVE_RESTORE_ORDER)

    @classmethod
    def full(cls) -> "ExperimentProfile":
        """The paper-shaped sweep (all sizes, all workloads)."""
        return cls(name="full")

    @classmethod
    def quick(cls) -> "ExperimentProfile":
        """A reduced sweep for benchmarks and CI."""
        return cls(
            name="quick",
            regfile_sizes=(34, 38, 42, 50, 58, 64, 80, 96),
            workloads=("compress_like", "li_like", "perl_like", "gcc_like"),
            sr_workloads=("li_like", "gcc_like", "perl_like", "vortex_like"),
        )

    @classmethod
    def tiny(cls) -> "ExperimentProfile":
        """The smallest sweep that still shows every qualitative effect."""
        return cls(
            name="tiny",
            regfile_sizes=(34, 42, 50, 64, 96),
            workloads=("li_like", "perl_like"),
            sr_workloads=("li_like", "perl_like"),
        )

    @classmethod
    def names(cls) -> Tuple[str, ...]:
        """The selectable profile names, smallest first."""
        return ("tiny", "quick", "full")

    @classmethod
    def by_name(cls, name: str) -> "ExperimentProfile":
        """The named stock profile; ``ValueError`` lists valid names.

        The CLI, the service request schema, and the benchmarks all
        resolve profile strings through this one lookup.
        """
        if name not in cls.names():
            raise ValueError(
                f"unknown profile {name!r}; valid profiles: "
                + ", ".join(cls.names())
            )
        return getattr(cls, name)()
