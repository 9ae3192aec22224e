"""Exception types shared across the toolkit, and the one array check."""

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
