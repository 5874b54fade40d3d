"""Multi-period ambulance fleet planning over a coverage network.

The package builds two integer programming models for positioning a fleet of
emergency vehicles across candidate stations over the slots of a planning
day, solves them with its own exact LP/MILP engine, and ships a seeded
instance generator, a brute-force reference solver for small cases, and a
command line front end.

``import ambuplan`` loads numpy only. The names that need the engine,
``solve_allocation``, ``solve_transfer``, ``build_allocation_program``
and ``build_transfer_program``, are loaded from their model modules on
first use (PEP 562). The engine itself loads numpy only; it imports scipy
on the first basis that its triangular factor does not take (see
``ambuplan.engine.simplex``), which no preset-1 solve meets.
"""

import importlib

from .core import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    SolveStatus,
    TransferPlan,
    Violation,
    evaluate_allocation,
    evaluate_transfer,
    validate_instance,
)
from .generator import GenParams, generate, preset, tiny_params
from .oracle import SearchSpaceError, brute_force_allocation, brute_force_transfer

# name -> the model module that defines it (and imports the engine)
_ENGINE_NAMES = {name: module for module in ("allocation", "transfer")
                 for name in (f"build_{module}_program", f"solve_{module}")}

__all__ = [
    "AllocationPlan",
    "GenParams",
    "Instance",
    "SearchSpaceError",
    "SolveOutcome",
    "SolveStatus",
    "TransferPlan",
    "Violation",
    "brute_force_allocation",
    "brute_force_transfer",
    "build_allocation_program",
    "build_transfer_program",
    "evaluate_allocation",
    "evaluate_transfer",
    "generate",
    "preset",
    "solve_allocation",
    "solve_transfer",
    "tiny_params",
    "validate_instance",
]

__version__ = "1.0.0"


def __getattr__(name):
    if name not in _ENGINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ENGINE_NAMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ENGINE_NAMES))
