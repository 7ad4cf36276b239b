"""Exception types shared across the package."""
from __future__ import annotations


class TemporaError(Exception):
    """Base class for every error this package raises on purpose."""


class RangeError(TemporaError, ValueError):
    """A value lies outside its admissible range, or is not finite."""


class CompletenessError(TemporaError, ValueError):
    """A machine violates its completeness (normalisation) relation.

    Carries the worst offending column index (or None when the failure is an
    out-of-range entry) and the residual that tripped the check.
    """

    def __init__(self, message: str, column: int | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.column = column
        self.residual = residual


class OrthonormalityError(TemporaError, ValueError):
    """A dilation pair is not orthonormal within tolerance."""


class KindMismatch(TemporaError, TypeError):
    """Classical and quantum machines mixed within one computation."""


class ShapeMismatch(TemporaError, ValueError):
    """Arrays or histograms whose shapes, dtypes or binning do not match."""


class ConfigError(TemporaError, ValueError):
    """A sweep configuration is invalid."""


class SamplingError(TemporaError, RuntimeError):
    """Sampling failed: a machine draw ran out of retries, or a sweep child
    exited before it sent its results."""


class ParseError(TemporaError, ValueError):
    """A machine or result document could not be parsed."""


class ValidationError(TemporaError, ValueError):
    """A parsed document contains an invalid or inconsistent machine."""
