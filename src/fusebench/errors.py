"""Exception types shared across the package, and :func:`check_int`, the
one check every seed, size and count a caller passes in goes through."""

import numbers


class FusebenchError(Exception):
    """Base class for every error this package raises on purpose."""


class ScoreFileError(FusebenchError):
    """A score file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ValidationError(FusebenchError):
    """Input data or configuration violates a documented precondition."""


def check_int(name: str, value, minimum: int) -> int:
    """``value`` as a Python int, if it is an integer (not a bool) that is
    at least ``minimum``; otherwise a :class:`ValidationError` naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


class DegenerateModalityError(ValidationError):
    """A modality's genuine scores have zero spread, so it cannot be normalized."""

    def __init__(self, modality: int):
        super().__init__(
            f"modality {modality} has zero genuine-score standard deviation"
        )
        self.modality = modality


class UndefinedGainError(FusebenchError):
    """Relative gain is undefined because the reference rate is not positive."""


class SexprError(FusebenchError):
    """An expression string does not match the tree grammar."""
