"""Exception types shared across the toolkit."""


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


class UninformativeReferenceError(VPRFuseError):
    """A reference set cannot contribute a likelihood for this query."""


class DegenerateReferenceError(UninformativeReferenceError):
    """All distances in a vector are numerically identical (zero variance)."""


class InsufficientDataError(UninformativeReferenceError):
    """Too few places to fit the background distance model."""


class NoInformationError(VPRFuseError):
    """Every selected reference set was uninformative for this query."""
