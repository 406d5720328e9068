"""Each module's `__all__` names exactly the public functions and classes it
defines, so a deleted name cannot stay listed and a new one cannot go unlisted;
`import dpquant` loads every module, so none is left that nothing uses; and
the installed `dpq` command is the CLI's `main`."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dpquant

# the command-line module's interface is its argv, not its names
MODULES = [m.name for m in pkgutil.iter_modules(dpquant.__path__) if m.name != "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(f"dpquant.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"listed in __all__ but not defined: {missing}"
    public = {n for n, obj in vars(mod).items()
              if not n.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    unlisted = sorted(public - set(mod.__all__))
    assert not unlisted, f"defined but missing from __all__: {unlisted}"


def test_package_import_loads_every_module():
    # in a fresh interpreter, so that no other test's imports count
    root = os.path.dirname(os.path.dirname(dpquant.__file__))
    code = ("import sys, dpquant; "
            "print(*(m for m in sys.modules if m.startswith('dpquant.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": root}).stdout
    loaded = {m.removeprefix("dpquant.") for m in out.split()}
    orphans = sorted(set(MODULES) - loaded)
    assert not orphans, f"modules `import dpquant` does not load: {orphans}"


def test_dpq_script_is_cli_main():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, attr = scripts["dpq"].partition(":")
    assert getattr(importlib.import_module(module), attr) \
        is importlib.import_module("dpquant.cli").main
