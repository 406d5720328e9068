"""Locate and import the dpquant sources of the checkout being measured."""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The third-party modules dpquant and the checks import.  They are imported
# before the timer starts, so the import time is dpquant's own.
THIRD_PARTY = ("numpy", "scipy.special", "scipy.optimize", "scipy.integrate",
               "scipy.stats")
IMPORT_REPEATS = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no dpquant sources to measure."""


def _import_dpquant():
    for name in [m for m in sys.modules
                 if m == "dpquant" or m.startswith("dpquant.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    dpquant = importlib.import_module("dpquant")
    return dpquant, time.perf_counter() - t0


def import_program():
    """Import dpquant from ``<checkout>/src`` and time the import.

    Returns (dpquant module, import seconds).  The import seconds are the
    median of IMPORT_REPEATS fresh imports of dpquant and its submodules,
    after the third-party modules are loaded; the last import is the one
    kept.  Refuses to fall back on an installed copy of the package, so a
    benchmark directory without the sources fails instead of measuring
    something else.
    """
    init = SRC / "dpquant" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no dpquant sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    for name in THIRD_PARTY:
        importlib.import_module(name)
    times = []
    for _ in range(IMPORT_REPEATS):
        dpquant, seconds = _import_dpquant()
        times.append(seconds)
    if Path(dpquant.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"dpquant imported from {dpquant.__file__}, "
                             f"not from {SRC}")
    return dpquant, statistics.median(times)
