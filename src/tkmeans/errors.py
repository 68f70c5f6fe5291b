"""Exception types shared across the library."""

__all__ = ["TkmeansError", "UsageError", "DomainError", "FormatError", "NumericalError", "DegenerateMetricError"]


class TkmeansError(Exception):
    """Base class for every error raised by this package."""


class UsageError(TkmeansError, ValueError):
    """A caller-facing argument is malformed (unknown algorithm, bad spec string)."""


class DomainError(TkmeansError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FormatError(TkmeansError, ValueError):
    """A data file does not conform to the expected layout."""


class NumericalError(TkmeansError, RuntimeError):
    """A computation degenerated beyond recovery (e.g. singular covariance)."""


class DegenerateMetricError(NumericalError):
    """A metric is undefined for the given partition (e.g. zero between-cluster scatter)."""
