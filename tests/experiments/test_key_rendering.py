"""Cache-key rendering: the renderer table against its reference, and a golden digest.

Every artifact address is a SHA-256 over :func:`canonical`'s text, so a
change in that text silently empties every cache and splits the cells
a service has already coalesced.  Two checks hold it fixed:

* a differential: :func:`reference_canonical`, the per-node
  ``isinstance`` ladder the renderer table replaced, kept here verbatim
  as the named oracle, must render every value drawn from the key
  vocabulary to the same text, and refuse the same values with the same
  ``TypeError``;
* a golden digest over every cell a tiny ``run-all`` uses, kind,
  signature and cache key, which changes only when a key's text does.
  Its value is independent of ``PYTHONHASHSEED``, which differs on every
  run of the suite.
"""

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dvi.config import DVIConfig, SRScheme
from repro.experiments import EXPERIMENTS
from repro.experiments.cache import canonical, fingerprint
from repro.experiments.runner import ARTIFACT_KINDS, ExperimentProfile
from repro.experiments.sweep import SWEEP_AXES
from repro.sim.branch.predictors import PREDICTORS
from repro.sim.cache.hierarchy import HIERARCHIES
from repro.sim.config import MachineConfig

#: SHA-256 of the sorted ``"{kind} {signature} {key digest}"`` lines of
#: every cell of a tiny ``run-all``.  Change it only together with a
#: deliberate change of a cache key's text.
GOLDEN_KEY_DIGEST = (
    "082309097dbd2c3ba92364cf1fc6066a973ce40705f2a36ccff20336ba17b789"
)


def reference_canonical(obj):
    """The rendering every cache key has used: one ``isinstance`` ladder per node."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={reference_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        entries = sorted(
            (reference_canonical(key), reference_canonical(value))
            for key, value in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in entries) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(reference_canonical(item) for item in obj) + "]"
    if isinstance(obj, float) and obj.is_integer() and math.isfinite(obj):
        return repr(int(obj))
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return repr(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a cache key")


# ----------------------------------------------------------------------
# The key vocabulary.
# ----------------------------------------------------------------------

class Width(IntEnum):
    NARROW = 2
    WIDE = 8


class Flavor(str, Enum):
    SWEET = "sweet"
    SOUR = "sour"


@dataclass(frozen=True)
class Cell:
    name: str
    size: int = 4
    ratio: float = 0.5
    scheme: Optional[SRScheme] = None


@dataclass(frozen=True)
class WideCell(Cell):
    lanes: Tuple[int, ...] = ()


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-2**60, 2**60).map(float),
    st.sampled_from([0.0, -0.0, 0.5, -2.25, 1e300, math.inf, -math.inf, math.nan]),
)

members = st.one_of(
    st.sampled_from(list(SRScheme)),
    st.sampled_from(list(Width)),
    st.sampled_from(list(Flavor)),
)

dvi_configs = st.one_of(
    st.sampled_from([
        DVIConfig.none(), DVIConfig.idvi_only(), DVIConfig.edvi_overhead(),
        *(DVIConfig.full(scheme) for scheme in SRScheme),
    ]),
    st.builds(DVIConfig, use_idvi=st.booleans(), use_edvi=st.booleans(),
              scheme=st.sampled_from(list(SRScheme)),
              lvm_stack_depth=st.one_of(st.none(), st.integers(1, 64))),
)

machines = st.one_of(
    st.sampled_from([MachineConfig.micro97(),
                     MachineConfig.micro97_unconstrained()]),
    st.integers(32, 160).map(MachineConfig().with_phys_regs),
    st.sampled_from([8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024]).map(
        MachineConfig().with_icache),
    st.sampled_from(PREDICTORS.names()).map(MachineConfig().with_predictor),
    st.sampled_from(HIERARCHIES.names()).map(MachineConfig().with_hierarchy),
    st.tuples(st.integers(1, 4), st.integers(1, 8)).map(
        lambda pw: MachineConfig().with_ports_and_width(*pw)),
)

#: Requests shaped like ``normalize_request``'s output, as the service
#: fingerprints them.
requests = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("sweep"),
        "axis": st.sampled_from(SWEEP_AXES.names()),
        "values": st.lists(st.one_of(st.integers(0, 256), st.text(max_size=8),
                                     floats), max_size=4),
        "workloads": st.lists(st.sampled_from(["li_like", "perl_like",
                                               "gcc_like"]), max_size=3),
        "profile": st.sampled_from(ExperimentProfile.names()),
    }),
    st.fixed_dictionaries({
        "kind": st.just("figure"),
        "target": st.sampled_from(sorted(EXPERIMENTS)),
        "profile": st.sampled_from(ExperimentProfile.names()),
    }),
)

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats, st.text(max_size=12),
    members, dvi_configs, machines, requests,
    st.builds(Cell, name=st.text(max_size=6), size=st.integers(),
              ratio=floats, scheme=st.one_of(st.none(), members)),
    st.builds(WideCell, name=st.text(max_size=6),
              lanes=st.lists(st.integers(0, 9), max_size=3).map(tuple)),
)

keys = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(), members),
            inner, max_size=4,
        ),
    ),
    max_leaves=12,
)


class TestRenderingDifferential:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(value=keys)
    def test_table_matches_reference(self, value):
        assert canonical(value) == reference_canonical(value)

    @pytest.mark.parametrize("value", [
        True, False, 1, 1.0, -0.0, math.nan, Width.WIDE, Flavor.SOUR,
        SRScheme.LVM, MachineConfig().latencies, WideCell("w", lanes=(1,)),
    ], ids=lambda value: type(value).__name__)
    def test_precedence_cases(self, value):
        assert canonical(value) == reference_canonical(value)

    @pytest.mark.parametrize("value", [
        {1, 2}, object(), Cell, [1, frozenset()], {"k": Cell},
    ], ids=lambda value: type(value).__name__)
    def test_unrenderable_values_raise_the_same_error(self, value):
        with pytest.raises(TypeError) as expected:
            reference_canonical(value)
        with pytest.raises(TypeError) as found:
            canonical(value)
        assert str(found.value) == str(expected.value)


def tiny_cells():
    """Every cell a tiny ``run-all`` uses: each figure's jobs and their inputs."""
    profile = ExperimentProfile.tiny()
    cells = {}
    pending = [job for module, _ in EXPERIMENTS.values()
               for job in module.jobs(profile)]
    while pending:
        job = pending.pop()
        if job.signature() not in cells:
            cells[job.signature()] = job
            pending.extend(job.inputs())
    return profile, list(cells.values())


def test_golden_key_digest():
    profile, cells = tiny_cells()
    assert len(cells) == 114
    lines = sorted(
        f"{job.kind} {job.signature()} "
        f"{fingerprint(job.kind, ARTIFACT_KINDS[job.kind].key(job, profile.scale))}"
        for job in cells
    )
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_KEY_DIGEST
