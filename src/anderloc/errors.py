"""Exception hierarchy shared across the package.

Configuration-level problems (bad input data, impossible scan ranges)
are separated from numeric failures at run time (overflow, factorization
breakdown) because the command-line driver maps them to different exit
statuses.
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


class SingularMatrixError(AnderlocError):
    """A matrix required to be invertible is numerically singular."""


class SizeGuardError(AnderlocError):
    """A combinatorial enumeration or a dense solve would exceed its size limit."""


class GridError(AnderlocError):
    """A discretization grid is inconsistent (e.g. step not dividing the cell length)."""


class ScanRangeError(AnderlocError):
    """A scan or table was requested over an empty or uncovered energy range."""


class NumericError(AnderlocError):
    """Base class for run-time numeric failures (exit status 4 in the CLI)."""


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
