"""Every public module imports first thing in a fresh interpreter.

In-process imports hide cycles: once any test has imported the package
the half-initialised module is already complete.  Each module therefore
gets its own subprocess.
"""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

MODULES = (
    "repro.core",
    "repro.faults",
    "repro.faults.models",
    "repro.faults.outcomes",
    "repro.experiments",
    "repro.parallel",
    "repro.obs",
    "repro.bench",
    "repro.cli",
    "repro.simulate",
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        cwd=SRC,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
