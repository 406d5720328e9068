"""Distribution preserving quantization: bounds, schemes, measurement harness.

Each public name lives in the module that defines it; importing the package
loads every module.
"""

from . import bounds, ecdq, harness, lattice, prob, rng, schemes, transform

__version__ = "0.1.0"
