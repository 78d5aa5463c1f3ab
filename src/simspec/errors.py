"""Exception types shared across the package."""


class SimspecError(Exception):
    """Base class for all package errors."""


class FieldMismatchError(SimspecError):
    """Operands belong to different fields."""


class FieldTooSmallError(SimspecError):
    """A prime field F_p with p < n cannot host n distinct eigenvalues."""


class NotSimpleSpectrumError(SimspecError):
    """The first matrix does not have n distinct eigenvalues in the field."""


class SingularMatrixError(SimspecError):
    """Inversion of a singular matrix was requested."""


class NotForestError(SimspecError):
    """The digraph contains an undirected cycle."""


class InvalidStarMatrixError(SimspecError):
    """The {0,1,*} pattern is not the canonical pattern of any forest."""


class ResourceGuardError(SimspecError):
    """A brute-force enumeration exceeds the configured size guard."""


class InputFormatError(SimspecError):
    """Malformed scalar, matrix or pair input."""


class VerificationError(SimspecError):
    """An exact self-check of a result failed: a defect, not a bad input."""
