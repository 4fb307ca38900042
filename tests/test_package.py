"""The package's public names: each library module's ``__all__`` is the only list."""

import os
import subprocess
import sys
from pathlib import Path

import conflictsched
from conflictsched import bench, metrics, model, oracle, scheduler

MODULES = (bench, metrics, model, oracle, scheduler)


def test_package_exports_each_module_export_once():
    expected = [name for module in MODULES for name in module.__all__]
    assert conflictsched.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(conflictsched, name) is getattr(module, name), name


def imported_in_a_fresh_interpreter(code: str) -> str:
    """The stdout of ``code`` run by a new interpreter that imports this package's source."""
    src = str(Path(conflictsched.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_importing_the_package_leaves_the_cli_unloaded():
    # the CLI loads argparse, which a library import should not pay for
    code = "import sys, conflictsched; print('conflictsched.cli' in sys.modules)"
    assert imported_in_a_fresh_interpreter(code) == "False\n"


def test_importing_the_cli_leaves_statistics_unloaded():
    # statistics brings fractions and decimal, and every CLI run would pay
    # for them; the library takes its means and medians without it
    code = "import sys, conflictsched.cli; print('statistics' in sys.modules)"
    assert imported_in_a_fresh_interpreter(code) == "False\n"
