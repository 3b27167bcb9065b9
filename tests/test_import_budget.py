"""Import budget: the CLI, and a warm ``run-all``, load only what they run.

No package ``__init__`` imports a submodule, and the experiment runner
imports the workload builders, the E-DVI rewriter and the simulators
at call time, when a cell is computed; Figure 12 does the same with
its scheduler.  The CLI imports the experiment pipeline only when a
figure misses its cached figure document, so starting the CLI, and a
``run-all`` that replays every figure from the cache, load a handful
of modules: none of the experiments, the runner, the configuration
classes or the simulators.
Each check runs in a fresh interpreter, because this one has imported
everything already.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main as cli

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules that only computing a cell (or an oracle check) needs.
#: Replaying a ``functional`` cell unpickles ``repro.sim.result``
#: alone, Figure 12 imports its scheduler only to compute, and the
#: trace key reads ``TRACE_FORMAT`` only when a trace is resolved.
COMPUTE_ONLY = (
    "repro.sim.trace",
    "repro.sim.functional",
    "repro.dvi.engine",
    "repro.threads.scheduler",
    "repro.sim.ooo.core",
    "repro.sim.ooo.native",
    "repro.sim.loader",
    "repro.sim.reference",
    "repro.rewrite.edvi",
    "repro.rewrite.verify",
    "repro.analysis.cfg",
    "repro.program.builder",
    "repro.program.assembler",
)


def fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; report what it loaded.

    ``code`` may assign ``extra``; it comes back under that key, next
    to ``modules``, the ``repro`` modules loaded afterwards.
    """
    probe = (
        "import contextlib, io, json, sys\n"
        "extra = None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps({'extra': extra, 'modules': sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'repro')}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


#: Every ``repro`` module the CLI's start-up and a warm ``run-all`` may
#: load: the directory of experiment ids, the cache, the document
#: renderer and the profiles.
REPLAY_MODULES = {
    "repro",
    "repro.__main__",
    "repro.errors",
    "repro.experiments",
    "repro.experiments.cache",
    "repro.experiments.export",
    "repro.experiments.profile",
    "repro.workloads",
}


def over_budget(modules) -> list:
    return [
        name for name in modules
        if name in COMPUTE_ONLY
        or (name.startswith("repro.workloads.") and name.endswith("_like"))
    ]


def test_cli_import_stays_in_budget():
    loaded = fresh("import repro.__main__")["modules"]
    assert "repro.experiments.runner" not in loaded
    assert not [name for name in loaded
                if name.startswith(("repro.sim.", "repro.dvi."))]
    assert over_budget(loaded) == []
    assert set(loaded) <= REPLAY_MODULES


def test_package_import_loads_no_submodule():
    assert fresh("import repro")["modules"] == ["repro"]


def test_warm_run_all_stays_in_budget(tmp_path, capsys):
    cache = tmp_path / "cache"
    run_all = ["run-all", "--profile", "tiny", "--cache-dir", str(cache)]
    assert cli(run_all) == 0
    capsys.readouterr()
    warm = fresh(
        "import contextlib, io, repro.__main__\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    status = repro.__main__.main({run_all!r})\n"
        "extra = [status, err.getvalue()]\n"
    )
    status, summary = warm["extra"]
    assert status == 0
    misses = [int(n) for n in re.findall(r"(\d+) miss", summary)]
    assert misses and not any(misses), summary
    assert over_budget(warm["modules"]) == []
    assert set(warm["modules"]) <= REPLAY_MODULES


def test_public_names_resolve_on_first_use():
    found = fresh(
        "import repro\n"
        "names = list(repro.__all__)\n"
        "listed = dir(repro)\n"
        "for name in names:\n"
        "    exec(f'from repro import {name}')\n"
        "extra = [names, listed]\n"
    )
    names, listed = found["extra"]
    assert len(names) == 28
    assert set(names) <= set(listed)
    assert "run_program" in names and "repro.sim.functional" in found["modules"]


def test_unknown_name_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        repro.missing  # noqa: B018
