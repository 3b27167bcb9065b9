"""Figure documents: the CLI replays each figure from one cached document.

A figure document is the rendered one-figure manifest the service stores
for a figure request, under the ``service`` artifact kind and the key of
the normalized request.  Every figure target of the CLI reads it first
and, on a miss, runs the experiment and stores it.  These tests pin what
that must not change (byte-identical manifests, cold, warm, partial and
``--jobs 2``), what it must save (a warm run imports only what it
replays, opens no context and starts no pool), and that the CLI and the
service share one document per figure and profile.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.experiments import DIRECTORY, EXPERIMENTS
from repro.experiments.cache import ArtifactCache
from repro.experiments.export import (
    DOCUMENT_KIND,
    document_key,
    figure_request,
    render_manifest,
)
from repro.experiments.runner import ExperimentContext, ExperimentProfile
from repro.service.dispatcher import Dispatcher
from repro.service.queue import JobQueue, JobState

TINY = ExperimentProfile.tiny()
SRC = Path(__file__).resolve().parents[2] / "src"
GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_tiny_manifest.json"


def document_path(root, target: str) -> Path:
    """Where ``target``'s tiny figure document lives under ``root``."""
    cache = ArtifactCache(root)
    digest = cache.digest(
        DOCUMENT_KIND, document_key(figure_request(target, TINY.name))
    )
    return cache._path(DOCUMENT_KIND, digest)


def refusing(message: str):
    """A stand-in for a class the test must never see constructed."""
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    return refuse


def run_cli(argv, capsys) -> str:
    """Run the CLI in-process; return its stderr."""
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().err


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """One cold tiny ``run-all`` into a fresh cache: (cache dir, manifest)."""
    root = tmp_path_factory.mktemp("cold")
    manifest = root / "cold.json"
    assert main(["run-all", "--profile", "tiny", "--cache-dir",
                 str(root / "cache"), "--json", str(manifest)]) == 0
    return root / "cache", manifest.read_bytes()


def copy_cache(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    return destination


def fresh_interpreter(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON line."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_warm_run_replays_documents_byte_identically(cold, tmp_path):
    cache = copy_cache(cold[0], tmp_path / "cache")
    manifest = tmp_path / "warm.json"
    argv = ["run-all", "--profile", "tiny", "--cache-dir", str(cache),
            "--json", str(manifest)]
    listing = "sorted(m for m in sys.modules if m.split('.')[0] == 'repro')"
    warm = fresh_interpreter(
        "import contextlib, io, json, sys, repro.__main__\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(err):\n"
        f"    status = repro.__main__.main({argv!r})\n"
        f"print(json.dumps([status, err.getvalue(), {listing}]))\n"
    )
    status, stderr, modules = warm
    assert status == 0
    assert stderr == "cache [service: 10 hit / 0 miss / 0 stored]\n"
    assert manifest.read_bytes() == cold[1]
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["results"]
    replayed = json.loads(manifest.read_bytes())["results"]
    for name, section in golden.items():
        assert json.dumps(replayed[name], indent=2) == \
            json.dumps(section, indent=2), name
    # A replay imports nothing beyond the CLI's own start-up.
    started = fresh_interpreter(
        f"import json, sys, repro.__main__\nprint(json.dumps({listing}))\n"
    )
    assert modules == started
    assert len(modules) <= 9


def test_cli_and_service_share_one_document(tmp_path, capsys):
    payload = {"kind": "figure", "target": "fig5", "profile": "tiny"}
    # The CLI writes fig5's document; the service instant-completes
    # the same request from it.
    cli_cache = tmp_path / "cli-cache"
    cli_json = tmp_path / "fig5.json"
    run_cli(["fig5", "--profile", "tiny", "--cache-dir", str(cli_cache),
             "--json", str(cli_json)], capsys)
    queue = JobQueue(tmp_path / "queue")
    dispatcher = Dispatcher(queue, cli_cache)
    job = dispatcher.submit(dict(payload), "cli-first")
    assert (job.state, job.source) == (JobState.DONE, "cache")
    assert dispatcher.load_result(job.result_key) == \
        cli_json.read_text(encoding="utf-8")
    queue.close()

    # The service computes and stores fig5's document; the CLI replays
    # it without opening an experiment context.
    served_cache = tmp_path / "served-cache"
    queue = JobQueue(tmp_path / "served-queue")
    dispatcher = Dispatcher(queue, served_cache)
    job = dispatcher.submit(dict(payload), "service-first")
    while dispatcher.drain_once():
        pass
    served = dispatcher.load_result(queue.get(job.id).result_key)
    queue.close()
    replay_json = tmp_path / "replayed.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "repro.experiments.runner.ExperimentContext",
            refusing("a replay opened an experiment context"),
        )
        stderr = run_cli(
            ["fig5", "--profile", "tiny", "--cache-dir", str(served_cache),
             "--json", str(replay_json)],
            capsys,
        )
    assert stderr == "cache [service: 1 hit / 0 miss / 0 stored]\n"
    assert replay_json.read_text(encoding="utf-8") == served


def test_warm_parallel_run_starts_no_pool(cold, tmp_path, capsys,
                                          monkeypatch):
    cache = copy_cache(cold[0], tmp_path / "cache")
    monkeypatch.setattr("repro.experiments.pool.WarmPool",
                        refusing("a warm run started a worker pool"))
    manifest = tmp_path / "warm.json"
    stderr = run_cli(["run-all", "--profile", "tiny", "--jobs", "2",
                      "--cache-dir", str(cache), "--json", str(manifest)],
                     capsys)
    assert stderr == "cache [service: 10 hit / 0 miss / 0 stored]\n"
    assert manifest.read_bytes() == cold[1]


def test_one_document_leaves_nine_figures_to_compute(cold, tmp_path, capsys):
    only = document_path(tmp_path / "cache", "fig5")
    only.parent.mkdir(parents=True)
    shutil.copyfile(document_path(cold[0], "fig5"), only)
    manifest = tmp_path / "partial.json"
    stderr = run_cli(["run-all", "--profile", "tiny", "--cache-dir",
                      str(tmp_path / "cache"), "--json", str(manifest)],
                     capsys)
    assert "service: 1 hit / 9 miss / 9 stored" in stderr
    assert manifest.read_bytes() == cold[1]


def test_stored_documents_match_a_cacheless_render(cold):
    cache = ArtifactCache(cold[0])
    context = ExperimentContext(TINY)
    for target in DIRECTORY:
        hit, document = cache.lookup(
            DOCUMENT_KIND, document_key(figure_request(target, TINY.name))
        )
        assert hit, target
        module = EXPERIMENTS[target][0]
        assert document == render_manifest(
            TINY.name, {target: module.run(TINY, context)}
        ), target
