"""Exact-arithmetic calculators for dimensions, component counts, and
stratifications attached to root data and regular semisimple classes."""

from .errors import (
    InvariantViolation,
    KVError,
    SizeGuardError,
    UniquenessError,
    UsageError,
)
from .rootdata import RootDatum, build_root_datum

__version__ = "0.1.0"

__all__ = [
    "RootDatum",
    "build_root_datum",
    "KVError",
    "UsageError",
    "SizeGuardError",
    "InvariantViolation",
    "UniquenessError",
    "__version__",
]
