"""Both C engines compile clean under strict C99 warnings.

``KernelLoader`` builds with ``-O2`` alone, so a sign-compare,
shift-width or uninitialized-variable warning would otherwise pass
unseen; here every warning is an error.
"""

import shutil
import subprocess

import pytest

from repro.sim import functional_native
from repro.sim.ooo import native

FLAGS = ("-std=c99", "-Wall", "-Wextra", "-Werror", "-pedantic",
         "-fsyntax-only")


@pytest.mark.parametrize("source", [native.SOURCE, functional_native.SOURCE],
                         ids=lambda source: source.name)
def test_compiles_without_warnings(source):
    compiler = shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler on this machine")
    result = subprocess.run([compiler, *FLAGS, str(source)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
