"""Branch direction predictors and the ``PREDICTORS`` registry.

The paper's machine (Figure 2) uses a "16-bit history, combinational
gshare/bimod" predictor — SimpleScalar's ``comb`` predictor: a bimodal
table, a gshare table indexed by the PC xor a 16-bit global history, and a
chooser (meta) table of 2-bit counters that learns, per branch, which
component to trust.

Every predictor is a pluggable component: it exposes
``predict_and_update(pc, taken) -> bool`` (the timing core's single
per-branch call; the return value is prediction *correctness*) plus
``lookups``/``hits``/``accuracy`` counters, and registers a
:class:`PredictorSpec` in :data:`PREDICTORS` under the name a
:class:`~repro.sim.config.MachineConfig` selects via ``predictor_spec``.
Beyond the Figure 2 trio (``bimodal``, ``gshare``, ``comb``) the registry
carries a per-branch two-level ``local`` predictor and a stateless
``static-taken`` baseline.

These classes are the Python core's, the oracle of the native timing
kernel, which runs its own C port of each registered predictor
(``sim/ooo/kernel.c``, listed in
:data:`repro.sim.ooo.native.PREDICTOR_KINDS`).  A predictor registered
here without a port runs every cell on the Python core.

All tables hold 2-bit saturating counters (0-3; >=2 predicts taken).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List

from repro.registry import Registry

if TYPE_CHECKING:  # import cycle: config selects predictors by name only
    from repro.sim.config import MachineConfig


class SaturatingCounterTable:
    """A table of 2-bit saturating counters."""

    def __init__(self, size: int, initial: int = 1) -> None:
        if size <= 0 or size & (size - 1):
            raise ValueError(f"table size must be a power of two, got {size}")
        if not 0 <= initial <= 3:
            raise ValueError(f"counter value out of range: {initial}")
        self.size = size
        self._mask = size - 1
        self._table: List[int] = [initial] * size

    def counter(self, index: int) -> int:
        return self._table[index & self._mask]

    def predict(self, index: int) -> bool:
        return self._table[index & self._mask] >= 2

    def update(self, index: int, taken: bool) -> None:
        index &= self._mask
        value = self._table[index]
        if taken:
            if value < 3:
                self._table[index] = value + 1
        elif value > 0:
            self._table[index] = value - 1


class _AccuracyMixin:
    """The ``lookups``/``hits``/``accuracy`` surface every predictor shares."""

    lookups: int
    hits: int

    @property
    def accuracy(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def _score(self, correct: bool) -> bool:
        self.lookups += 1
        if correct:
            self.hits += 1
        return correct


class BimodalPredictor(_AccuracyMixin):
    """PC-indexed 2-bit counter predictor."""

    def __init__(self, size: int = 4096) -> None:
        self.table = SaturatingCounterTable(size)
        self.lookups = 0
        self.hits = 0

    def predict(self, pc: int) -> bool:
        return self.table.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(pc, taken)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train, and return whether the prediction was correct."""
        prediction = self.table.predict(pc)
        self.table.update(pc, taken)
        return self._score(prediction == taken)


class GsharePredictor(_AccuracyMixin):
    """Global-history predictor: counters indexed by ``pc xor history``."""

    def __init__(self, size: int = 65536, history_bits: int = 16) -> None:
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.table = SaturatingCounterTable(size)
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self.history = 0
        self.lookups = 0
        self.hits = 0

    def _index(self, pc: int) -> int:
        return pc ^ self.history

    def predict(self, pc: int) -> bool:
        return self.table.predict(self._index(pc))

    def update(self, pc: int, taken: bool) -> None:
        self.table.update(self._index(pc), taken)
        self.history = ((self.history << 1) | (1 if taken else 0)) & self._history_mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train (counters + history), and return correctness."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return self._score(prediction == taken)


class LocalTwoLevelPredictor(_AccuracyMixin):
    """Per-branch two-level predictor (Yeh/Patt PAg).

    A PC-indexed table of per-branch history shift registers selects into
    a shared pattern table of 2-bit counters, so each branch is predicted
    from *its own* recent pattern rather than the global interleaving —
    the complement of gshare's global history.
    """

    def __init__(self, history_entries: int = 1024,
                 history_bits: int = 10) -> None:
        if history_entries <= 0 or history_entries & (history_entries - 1):
            raise ValueError(
                f"history_entries must be a power of two, got {history_entries}"
            )
        if history_bits <= 0:
            raise ValueError("history_bits must be positive")
        self.history_bits = history_bits
        self._histories: List[int] = [0] * history_entries
        self._history_index_mask = history_entries - 1
        self._history_mask = (1 << history_bits) - 1
        self.pattern = SaturatingCounterTable(1 << history_bits)
        self.lookups = 0
        self.hits = 0

    def predict(self, pc: int) -> bool:
        return self.pattern.predict(self._histories[pc & self._history_index_mask])

    def update(self, pc: int, taken: bool) -> None:
        slot = pc & self._history_index_mask
        history = self._histories[slot]
        self.pattern.update(history, taken)
        self._histories[slot] = (
            (history << 1) | (1 if taken else 0)
        ) & self._history_mask

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict from the branch's local pattern, train, return correctness."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return self._score(prediction == taken)


class StaticTakenPredictor(_AccuracyMixin):
    """Stateless always-taken baseline (the pre-dynamic-prediction floor)."""

    def __init__(self) -> None:
        self.lookups = 0
        self.hits = 0

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        return self._score(taken)


class CombiningPredictor(_AccuracyMixin):
    """McFarling-style combining (tournament) predictor.

    The chooser counter moves toward the component that was correct when
    they disagree.  This is the Figure 2 configuration's predictor.
    """

    def __init__(
        self,
        bimodal_size: int = 4096,
        gshare_size: int = 65536,
        history_bits: int = 16,
        chooser_size: int = 4096,
    ) -> None:
        self.bimodal = BimodalPredictor(bimodal_size)
        self.gshare = GsharePredictor(gshare_size, history_bits)
        self.chooser = SaturatingCounterTable(chooser_size)
        self.lookups = 0
        self.hits = 0
        # Flat views of the component tables: predict_and_update runs once
        # per fetched branch and is rewritten table-direct so the timing
        # core pays one method call per branch instead of seven.
        self._bim_table = self.bimodal.table._table
        self._bim_mask = self.bimodal.table._mask
        self._gsh_table = self.gshare.table._table
        self._gsh_mask = self.gshare.table._mask
        self._cho_table = self.chooser._table
        self._cho_mask = self.chooser._mask
        self._history_mask = self.gshare._history_mask

    def predict(self, pc: int) -> bool:
        if self.chooser.predict(pc):  # >=2 -> trust gshare
            return self.gshare.predict(pc)
        return self.bimodal.predict(pc)

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict, train all components, and return prediction correctness.

        Behaviourally identical to the component-object formulation
        (predict all, chooser trains on disagreement toward the component
        matching the outcome, both components train, history shifts); the
        tables are just accessed directly.
        """
        gshare = self.gshare
        bim_table = self._bim_table
        gsh_table = self._gsh_table
        cho_table = self._cho_table
        bim_index = pc & self._bim_mask
        gsh_index = (pc ^ gshare.history) & self._gsh_mask
        cho_index = pc & self._cho_mask
        bimodal_guess = bim_table[bim_index] >= 2
        gshare_guess = gsh_table[gsh_index] >= 2
        prediction = gshare_guess if cho_table[cho_index] >= 2 else bimodal_guess
        if bimodal_guess != gshare_guess:
            value = cho_table[cho_index]
            if gshare_guess == taken:
                if value < 3:
                    cho_table[cho_index] = value + 1
            elif value > 0:
                cho_table[cho_index] = value - 1
        value = bim_table[bim_index]
        if taken:
            if value < 3:
                bim_table[bim_index] = value + 1
        elif value > 0:
            bim_table[bim_index] = value - 1
        value = gsh_table[gsh_index]
        if taken:
            if value < 3:
                gsh_table[gsh_index] = value + 1
        elif value > 0:
            gsh_table[gsh_index] = value - 1
        gshare.history = (
            (gshare.history << 1) | (1 if taken else 0)
        ) & self._history_mask
        return self._score(prediction == taken)


# ----------------------------------------------------------------------
# The predictor registry.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PredictorSpec:
    """A named, machine-configurable branch predictor family.

    ``build`` instantiates a fresh predictor for one timing simulation,
    sized from the :class:`~repro.sim.config.MachineConfig` fields;
    ``summarize`` renders the Figure 2-style one-line description the
    ``machine`` CLI table and ``list --predictors`` print.
    """

    name: str
    description: str
    build: Callable[["MachineConfig"], object]
    summarize: Callable[["MachineConfig"], str]


#: Name -> :class:`PredictorSpec`; ``MachineConfig.predictor_spec`` values
#: resolve here.
PREDICTORS: Registry[PredictorSpec] = Registry("predictor")

PREDICTORS.register("comb", PredictorSpec(
    name="comb",
    description="combining gshare/bimodal tournament (the Figure 2 default)",
    build=lambda config: CombiningPredictor(
        config.bimodal_entries,
        config.gshare_entries,
        config.history_bits,
        config.chooser_entries,
    ),
    summarize=lambda config: (
        f"{config.history_bits}-bit history, BTB, combining gshare/bimod"
    ),
))

PREDICTORS.register("bimodal", PredictorSpec(
    name="bimodal",
    description="PC-indexed 2-bit saturating counters",
    build=lambda config: BimodalPredictor(config.bimodal_entries),
    summarize=lambda config: (
        f"bimodal, {config.bimodal_entries} x 2-bit counters, BTB"
    ),
))

PREDICTORS.register("gshare", PredictorSpec(
    name="gshare",
    description="global-history xor-indexed 2-bit counters",
    build=lambda config: GsharePredictor(
        config.gshare_entries, config.history_bits
    ),
    summarize=lambda config: (
        f"gshare, {config.history_bits}-bit global history, BTB"
    ),
))

PREDICTORS.register("local", PredictorSpec(
    name="local",
    description="per-branch two-level (PAg) local-history predictor",
    build=lambda config: LocalTwoLevelPredictor(
        config.local_entries, config.local_history_bits
    ),
    summarize=lambda config: (
        f"local two-level, {config.local_entries} x "
        f"{config.local_history_bits}-bit histories, BTB"
    ),
))

PREDICTORS.register("static-taken", PredictorSpec(
    name="static-taken",
    description="always-taken static baseline (no dynamic state)",
    build=lambda config: StaticTakenPredictor(),
    summarize=lambda config: "static always-taken, BTB",
))


def build_predictor(config: "MachineConfig"):
    """Instantiate the predictor ``config.predictor_spec`` names."""
    return PREDICTORS.get(config.predictor_spec).build(config)
