"""Exception types shared across the package."""

__all__ = [
    "TensorStatError",
    "ShapeError",
    "SingularTensorError",
    "SymmetryError",
    "DefinitenessError",
    "DegenerateVarianceError",
    "UnsupportedKernelError",
    "FileFormatError",
]


class TensorStatError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(TensorStatError, ValueError):
    """Operands have incompatible or malformed shapes."""


class SingularTensorError(TensorStatError, ValueError):
    """The matricization is singular or too ill-conditioned to invert.

    ``rcond`` carries the 1-norm reciprocal condition number that
    triggered the refusal (``0.0`` for an exactly singular matrix).
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class SymmetryError(TensorStatError, ValueError):
    """A tensor or matrix required to be symmetric is not."""


class DefinitenessError(TensorStatError, ValueError):
    """A matrix required to be positive definite is not.

    ``pivot`` is the zero-based index of the first non-positive Cholesky
    pivot, when known.
    """

    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class DegenerateVarianceError(TensorStatError, ValueError):
    """A correlation was requested for a cell with zero sample variance.

    ``index`` is the multi-index of the offending cell.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class UnsupportedKernelError(TensorStatError, ValueError):
    """The radial kernel is unknown or lacks the requested capability."""


class FileFormatError(TensorStatError, ValueError):
    """A tensor file is malformed or of the wrong kind."""
