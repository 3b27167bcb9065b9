"""Golden test: tiny-profile ``run-all --json`` vs. the pre-refactor manifest.

``tests/data/golden_tiny_manifest.json`` is the byte-exact ``--json``
document the CLI produced on the tiny profile *before* the registry /
sweep-engine refactor.  Every experiment that existed then must still
render a byte-identical section (table text and data tree), and the only
additions allowed are newly registered experiments (currently the
predictor ablation).  This pins the whole pipeline — workload builds,
simulators, sweep enumeration, table formatting, JSON lowering — against
silent drift.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.export import render_manifest
from repro.experiments.runner import ExperimentContext, ExperimentProfile

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_tiny_manifest.json"


@pytest.fixture(scope="module")
def manifest():
    """One serial tiny-profile run-all, rendered exactly as the CLI does."""
    profile = ExperimentProfile.tiny()
    context = ExperimentContext(profile)
    results = {
        name: module.run(profile, context)
        for name, (module, _) in EXPERIMENTS.items()
    }
    return render_manifest(profile.name, results)


@pytest.fixture(scope="module")
def golden():
    return GOLDEN_PATH.read_text(encoding="utf-8")


class TestGoldenManifest:
    def test_profile_header_unchanged(self, manifest, golden):
        assert json.loads(manifest)["profile"] == json.loads(golden)["profile"]

    def test_every_golden_experiment_still_present(self, manifest, golden):
        current = json.loads(manifest)["results"]
        expected = json.loads(golden)["results"]
        assert set(expected) <= set(current)

    def test_only_new_experiments_were_added(self, manifest, golden):
        current = json.loads(manifest)["results"]
        expected = json.loads(golden)["results"]
        assert set(current) - set(expected) == {"predictor"}

    def test_golden_sections_byte_identical(self, manifest, golden):
        """Each pre-refactor experiment's JSON section, byte for byte."""
        current = json.loads(manifest)["results"]
        expected = json.loads(golden)["results"]
        for name, section in expected.items():
            rendered = json.dumps(current[name], indent=2, sort_keys=False)
            golden_rendered = json.dumps(section, indent=2, sort_keys=False)
            assert rendered == golden_rendered, (
                f"experiment {name!r} drifted from the pre-refactor manifest"
            )

    def test_golden_document_embeds_into_current(self, manifest, golden):
        """The old document is the new one minus the appended experiments.

        Rebuilding the golden document from the current results (taking
        only the golden experiment set, in golden order) must reproduce
        the stored file byte for byte — the whole-document form of the
        acceptance bar.
        """
        current = json.loads(manifest)["results"]
        expected = json.loads(golden)
        rebuilt = json.dumps(
            {
                "profile": expected["profile"],
                "results": {name: current[name] for name in expected["results"]},
            },
            indent=2,
        ) + "\n"
        assert rebuilt == golden
