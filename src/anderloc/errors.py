"""Exception hierarchy shared across the package.

Numeric failures at run time (overflow, a singular matrix, factorization
breakdown) are the subclasses of ``NumericError``, and the command-line
driver exits 4 on them; it exits 2 on every other package error (bad
input data, impossible scan ranges, size guards).  The class tree is the
one statement of that split.
"""

from __future__ import annotations

__all__ = [
    "AnderlocError",
    "DimensionError",
    "SingularMatrixError",
    "SizeGuardError",
    "GridError",
    "ScanRangeError",
    "NumericError",
    "InstabilityError",
    "OracleRangeError",
    "FactorizationError",
    "ConfigError",
]


class AnderlocError(Exception):
    """Base class for all package errors."""


class DimensionError(AnderlocError):
    """Matrix arguments have incompatible or invalid shapes."""


class SizeGuardError(AnderlocError):
    """A computation would exceed its size limit.

    ``model._guard_memory`` raises it when an estimate of the memory a
    computation needs is above physical memory, and ``model.binary_cells``
    when 2^N binary cells would pass its guard (N above 20).
    """


class GridError(AnderlocError):
    """A discretization grid is inconsistent (e.g. step not dividing the cell length)."""


class ScanRangeError(AnderlocError):
    """A scan or table was requested over an empty or uncovered energy range."""


class NumericError(AnderlocError):
    """Base class for run-time numeric failures (exit status 4 in the CLI)."""


class SingularMatrixError(NumericError):
    """A matrix required to be invertible is numerically singular."""


class InstabilityError(NumericError):
    """A product or accumulation left the representable floating-point range."""


class OracleRangeError(NumericError):
    """An exact small-scale oracle was asked to operate outside its safe range."""


class FactorizationError(NumericError):
    """Symmetric-indefinite elimination broke down persistently."""


class ConfigError(AnderlocError):
    """Invalid run configuration; carries the full list of violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
