"""Exception types shared across the toolkit, and the one array, integer and real-number checks."""

import numbers
import operator

import numpy as np


class VPRFuseError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(VPRFuseError):
    """Input is malformed: an array, file, manifest or command-line value."""


class DegenerateReferenceError(VPRFuseError):
    """A distance vector has (numerically) zero variance: it shows no contrast."""


class NoInformationError(VPRFuseError):
    """Every selected reference set was degenerate for this query."""


def _real_array(values, what: str) -> np.ndarray:
    """``values`` as an array of booleans, integers or floats; an array is not copied.

    Raises ValidationError for ragged, string, object or complex input.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nested sequences
        raise ValidationError(f"{what} is not a rectangular array: {exc}")
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    return arr


def checked_array(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as float64, if it is a non-empty, ``ndim``-D, finite real array.

    Raises ValidationError otherwise; ``what`` names the array in the message.
    """
    arr = _real_array(values, what).astype(np.float64, copy=False)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(
            f"{what} must be a non-empty {ndim}-D array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return arr


def _integer(value, what: str, low: int | None = None) -> int:
    """``value`` as an int, if it is an integer (a bool is not) of at least ``low``."""
    try:  # True would otherwise read as 1
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return value


def _real(value, what: str, positive: bool = False, below: float | None = None) -> float:
    """``value`` as a float, if it is a real number (a bool is not), positive when
    ``positive`` and less than ``below`` when given; without bounds, NaN and inf pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {value!r}")
    value = float(value)  # a numpy scalar gives the same float
    if positive and not value > 0:
        raise ValidationError(f"{what} must be positive, got {value}")
    if below is not None and not value < below:
        limit = "finite" if below == np.inf else f"less than {below:g}"
        raise ValidationError(f"{what} must be {limit}, got {value}")
    return value
