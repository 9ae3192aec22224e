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


def checked_array(values, ndim: int, what: str) -> np.ndarray:
    """``values`` as float64, if it is a non-empty, ``ndim``-D, finite array.

    Raises ValidationError otherwise; ``what`` names the array in the message.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim or arr.size == 0:
        raise ValidationError(
            f"{what} must be a non-empty {ndim}-D array, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite values")
    return arr
