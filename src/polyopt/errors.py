"""Exception types shared across the toolkit, and the one check of a tolerance."""

import math


class PolyOptError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatchError(PolyOptError, ValueError):
    """Operands disagree on the number of variables or vector length."""


class ParseError(PolyOptError, ValueError):
    """A text artifact (polynomial, instance file, SDP file, certificate) is malformed."""


class FeasibilityError(PolyOptError, ValueError):
    """A point violates the constraints beyond tolerance.

    Carries the worst violation so callers can report it.
    """

    def __init__(self, message, worst_violation=None, constraint=None):
        super().__init__(message)
        self.worst_violation = worst_violation
        self.constraint = constraint


class LevelError(PolyOptError, ValueError):
    """A relaxation level below the minimum admissible one, or a level range
    that ends below its start, was requested."""

    def __init__(self, message, min_level=None):
        super().__init__(message)
        self.min_level = min_level


class DegenerateDualError(PolyOptError, ValueError):
    """The dual vector cannot be normalized into a moment sequence (y0 ~ 0)."""


class ToleranceError(PolyOptError, ValueError):
    """A tolerance that is not finite and positive (``check_tolerance``)."""


def check_tolerance(name: str, value: float) -> float:
    """``value``; ToleranceError naming ``name`` when it is not finite and
    positive (a NaN tolerance is never met, or always, by a comparison)."""
    if not (math.isfinite(value) and value > 0):
        raise ToleranceError(f"{name} must be finite and positive, got {value}")
    return value
