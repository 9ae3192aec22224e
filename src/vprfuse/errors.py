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


def _real_array(values, what: str, ndim: int | tuple[int, ...] | None = None) -> np.ndarray:
    """``values`` as an array of booleans, integers or floats; an array is not copied.

    Raises ValidationError for ragged, string, object or complex input, and with
    ``ndim`` (a rank or a tuple of ranks) for another rank or an empty array.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nested sequences
        raise ValidationError(f"{what} is not a rectangular array: {exc}")
    if arr.dtype.kind not in "biuf":
        raise ValidationError(f"{what} must hold real numbers, got dtype {arr.dtype}")
    ranks = (ndim,) if isinstance(ndim, int) else ndim
    if ranks is not None and (arr.ndim not in ranks or arr.size == 0):
        rank = " or ".join(f"{r}-D" for r in ranks)
        raise ValidationError(f"{what} must be a non-empty {rank} array, got shape {arr.shape}")
    return arr


def checked_array(values, ndim: int | tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as float64, if it is a non-empty, finite real array of rank ``ndim``.

    Raises ValidationError otherwise; ``what`` names the array in the message.
    """
    arr = _real_array(values, what, ndim).astype(np.float64, copy=False)
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return arr


def _integer(value, what: str, low: int | None = None) -> int:
    """``value`` as an int, if it is an integer (a bool is not) in the int64 range,
    of at least ``low``.  No message formats a value of unbounded length."""
    try:  # True would otherwise read as 1
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {type(value).__name__}") from None
    if not -(2**63) <= value < 2**63:  # numpy's own limit for sizes and indices
        raise ValidationError(f"{what} is outside the int64 range")
    if low is not None and value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return value


def _real(value, what: str, positive: bool = False, below: float | None = None) -> float:
    """``value`` as a float, if it is a real number (a bool is not), positive when
    ``positive`` and less than ``below`` when given; without bounds, NaN and inf pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a real number, got {type(value).__name__}")
    try:
        value = float(value)  # a numpy scalar gives the same float
    except OverflowError:  # an int beyond float's range
        raise ValidationError(f"{what} is outside the float range") from None
    if positive and not value > 0:
        raise ValidationError(f"{what} must be positive, got {value}")
    if below is not None and not value < below:
        limit = "finite" if below == np.inf else f"less than {below:g}"
        raise ValidationError(f"{what} must be {limit}, got {value}")
    return value
