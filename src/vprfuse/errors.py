"""Exception types shared across the toolkit, and the one array check."""

import numpy as np


class VPRFuseError(Exception):
    """Base class for all toolkit errors."""


class DescriptorFormatError(VPRFuseError):
    """Descriptor file has a bad magic header or an unsupported version."""


class DescriptorCorruptionError(VPRFuseError):
    """Descriptor file payload size differs from what its header declares."""


class ValidationError(VPRFuseError):
    """Input data violates a structural invariant (shape, finiteness, range)."""


class ManifestError(VPRFuseError):
    """Dataset manifest is malformed or inconsistent with referenced files."""


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
