"""Each module's `__all__` names exactly the public functions and classes it
defines, so a deleted name cannot stay listed and a new one cannot go unlisted."""

import importlib
import inspect
import pkgutil

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
