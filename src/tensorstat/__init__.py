"""Random-tensor statistics.

Dense tensor linear algebra through one fixed column-major matricization
(determinant, inverse, contraction, double-dot quadratic form), sample
covariance and correlation tensors, and tensor normal / elliptical
distributions with density evaluation, sampling, moment fitting and a
Kronecker-structured scale parameterization.

A name is public when its module's ``__all__`` lists it; the package
re-exports those lists, in layer order, as its own ``__all__``.
"""

from . import errors, tensor_core, linalg, stats, distributions
from .errors import *
from .tensor_core import *
from .linalg import *
from .stats import *
from .distributions import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *tensor_core.__all__,
    *linalg.__all__,
    *stats.__all__,
    *distributions.__all__,
]
