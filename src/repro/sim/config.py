"""Machine configuration — Figure 2 of the paper.

``MachineConfig.micro97()`` reproduces the evaluated machine: a 4-way
superscalar with a 64-entry instruction window, 4 integer units (2 capable
of multiply/divide), 2 fully-independent cache ports, 64KB 4-way L1s,
a 512KB 4-way L2, and a 16-bit-history combining gshare/bimodal predictor
with a BTB.  The physical register file size is the Figure 5/6 sweep
variable; the paper's "current processors" ship 64-80, and 64 is the
no-DVI performance peak, so 64 is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.isa.opcodes import DEFAULT_LATENCY, OpClass
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.cache.hierarchy import (
    HIERARCHIES,
    HierarchyConfig,
    build_hierarchy_config,
)

#: Minimum physical registers: one per renamable architectural register
#: (r1-r31) plus one free register so rename can always eventually proceed.
MIN_PHYS_REGS = 32


@dataclass(frozen=True)
class MachineConfig:
    """Out-of-order core parameters.

    ``fetch_width`` defaults to twice the issue width: the fetch unit reads
    ahead into the 16-entry fetch queue to ride out taken-branch
    discontinuities.  The synthetic workloads have shorter basic blocks
    than compiled SPEC95 code, and without fetch-ahead the in-order fetch
    stage becomes the sole bottleneck and masks every bandwidth effect the
    paper studies (DESIGN.md documents this calibration).
    """

    fetch_width: int = 8
    decode_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    window_size: int = 64
    fetch_queue: int = 16
    int_alus: int = 4
    int_muldiv: int = 2
    cache_ports: int = 2
    phys_regs: int = 64
    mispredict_penalty: int = 3
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    latencies: Dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCY)
    )
    # Branch prediction (Figure 2: 16-bit history gshare/bimod + BTB).
    bimodal_entries: int = 4096
    gshare_entries: int = 65536
    history_bits: int = 16
    chooser_entries: int = 4096
    btb_sets: int = 512
    btb_assoc: int = 4
    ras_depth: int = 32
    # Sizing of the registered ``local`` two-level predictor.
    local_entries: int = 1024
    local_history_bits: int = 10
    # Registered component selections (see repro.registry): the direction
    # predictor the timing core instantiates, and the name of the
    # hierarchy preset ``hierarchy`` was derived from.  ``hierarchy``
    # stays the source of truth for cache parameters (per-figure knobs
    # like ``with_icache`` still tweak it field-wise); the spec names ride
    # along so cache keys and reports carry the scenario identity.
    predictor_spec: str = "comb"
    hierarchy_spec: str = "micro97"

    def __post_init__(self) -> None:
        if self.phys_regs < MIN_PHYS_REGS:
            raise ValueError(
                f"at least {MIN_PHYS_REGS} physical registers are required "
                f"to avoid rename deadlock, got {self.phys_regs}"
            )
        for name in ("fetch_width", "decode_width", "issue_width",
                     "commit_width", "window_size", "fetch_queue",
                     "int_alus", "int_muldiv", "cache_ports",
                     "history_bits", "local_history_bits", "btb_assoc",
                     "ras_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # The local predictor's pattern table holds 2**local_history_bits
        # counters, sized with a 64-bit shift in the timing kernel.
        if self.local_history_bits > 62:
            raise ValueError(
                f"local_history_bits must be <= 62, got "
                f"{self.local_history_bits}"
            )
        # Resolve the spec names now so a typo fails at configuration
        # time (with the registry's valid-name list), not mid-simulation;
        # likewise the predictor tables, which index by masking.
        PREDICTORS.get(self.predictor_spec)
        for name in ("bimodal_entries", "gshare_entries", "chooser_entries",
                     "local_entries", "btb_sets"):
            size = getattr(self, name)
            if size <= 0 or size & (size - 1):
                raise ValueError(f"{name} must be a power of two, got {size}")
        HIERARCHIES.get(self.hierarchy_spec)

    @classmethod
    def micro97(cls) -> "MachineConfig":
        """The paper's evaluated configuration (Figure 2)."""
        return cls()

    @classmethod
    def micro97_unconstrained(cls) -> "MachineConfig":
        """Figure 2 with renaming guaranteed stall-free.

        Section 4.2: "Current processors are designed with sufficient
        registers ... such that program IPCs are not constrained by
        register renaming resources."  31 architectural mappings + one
        destination per window entry + 1 means 96 registers can never
        stall a 64-entry window, which is what the save/restore
        experiments (Figures 10, 11, 13) assume.
        """
        config = cls()
        return config.with_phys_regs(31 + config.window_size + 1)

    def with_phys_regs(self, count: int) -> "MachineConfig":
        """The Figure 5/6 sweep knob."""
        return replace(self, phys_regs=count)

    def with_ports_and_width(self, ports: int, width: int) -> "MachineConfig":
        """The Figure 11 sensitivity knobs (cache ports x issue width)."""
        return replace(
            self,
            cache_ports=ports,
            fetch_width=2 * width,
            decode_width=width,
            issue_width=width,
            commit_width=width,
            int_alus=max(self.int_alus, width),
            window_size=self.window_size * (2 if width > 4 else 1),
            # A wider machine needs a bigger rename pool to stay
            # window-limited rather than register-limited.
            phys_regs=max(self.phys_regs, MIN_PHYS_REGS + 2 * self.window_size
                          * (2 if width > 4 else 1)),
        )

    def with_icache(self, size_bytes: int) -> "MachineConfig":
        """The Figure 13 I-cache knob."""
        return replace(self, hierarchy=replace(self.hierarchy, l1i_size=size_bytes))

    def with_predictor(self, name: str) -> "MachineConfig":
        """Select a registered branch predictor (the ``predictor`` axis)."""
        PREDICTORS.get(name)
        return replace(self, predictor_spec=name)

    def with_hierarchy(self, name: str) -> "MachineConfig":
        """Adopt a registered hierarchy preset (the ``hierarchy`` axis)."""
        return replace(
            self, hierarchy=build_hierarchy_config(name), hierarchy_spec=name
        )

    def describe(self) -> str:
        """Figure 2-style parameter table."""
        h = self.hierarchy
        rows = [
            ("Issue Width", str(self.issue_width)),
            ("Inst. Window", str(self.window_size)),
            ("Func. Units",
             f"{self.int_alus} int ({self.int_muldiv} mul/div)"),
            ("Cache Ports", f"{self.cache_ports} (fully independent)"),
            ("L1 D-Cache",
             f"{h.l1d_size // 1024}KB, {h.l1d_assoc}-way, "
             f"{h.l1_latency} cycle latency"),
            ("L1 I-Cache",
             f"{h.l1i_size // 1024}KB, {h.l1i_assoc}-way, "
             f"{h.l1_latency} cycle latency"),
            ("L2 Cache",
             f"{h.l2_size // 1024}KB, {h.l2_assoc}-way, "
             f"{h.l2_latency} cycle latency"),
            ("Branch Predictor",
             PREDICTORS.get(self.predictor_spec).summarize(self)),
            ("Physical Registers", str(self.phys_regs)),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)
