"""Determinants, inverses and factorizations of square order-2D tensors.

Every reduction goes through the matricization: the determinant of a
tensor is the determinant of its matricized form (pivoted LU, as LAPACK
provides it), and the inverse is the tensor whose matricization is the
matrix inverse.  Cholesky machinery backs sampling and log-determinants
downstream; Kronecker assembly turns per-mode factor matrices into the
dense matricization of a structured scale tensor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, ShapeError, SingularTensorError, SymmetryError
from .tensor_core import Shape, SquareTensor, _require_finite, matricize, transpose2d, unmatricize

__all__ = [
    "RCOND_LIMIT",
    "SYMMETRY_TOL",
    "CholeskyFactor",
    "KroneckerFactors",
    "det",
    "slogdet",
    "inverse",
    "cholesky",
    "cholesky_lower",
    "kronecker_assemble",
    "is_symmetric",
    "is_positive_definite",
]

# Reciprocal condition estimates below this refuse inversion: downstream
# density code must never see a near-singular scale silently.
RCOND_LIMIT = 1e-12

# Default absolute symmetry tolerance, calibrated to unit-scale entries.
SYMMETRY_TOL = 1e-10


def det(x: SquareTensor) -> float:
    """Signed determinant of the matricization."""
    return float(np.linalg.det(matricize(x)))


def slogdet(x: SquareTensor) -> tuple[float, float]:
    """Sign and natural log of the absolute determinant of the matricization.

    Stays finite where :func:`det` overflows or underflows; a singular
    matricization gives ``(0.0, -inf)``.
    """
    sign, logabsdet = np.linalg.slogdet(matricize(x))
    return float(sign), float(logabsdet)


# scipy is imported inside the functions that call it, not at module
# level: it takes most of the package's import time, and ``det``,
# ``matricize``, ``estimate`` and ``sample`` never call it.


def _solve_lower(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``low @ z = rhs`` by forward substitution (``rhs`` 1-D or 2-D)."""
    from scipy.linalg import solve_triangular

    return solve_triangular(low, rhs, lower=True)


def _reciprocal_condition(m: np.ndarray) -> float:
    from scipy.linalg.lapack import dgecon, dgetrf

    # LAPACK's 1-norm estimate from an LU factorization: O(n^2) on top of
    # the O(n^3) LU, against a full SVD.  The 1-norm condition number is
    # within a factor n of the 2-norm one, so the estimate can differ from
    # sigma_min / sigma_max by about that much either way.
    anorm = float(np.abs(m).sum(axis=0).max())
    lu, _piv, info = dgetrf(m)
    if info != 0 or not math.isfinite(anorm) or anorm == 0.0:
        return 0.0
    rcond, info = dgecon(lu, anorm, norm="1")
    return float(rcond) if info == 0 and math.isfinite(rcond) else 0.0


def inverse(x: SquareTensor) -> SquareTensor:
    """Tensor whose contraction with ``x`` on either side is the identity.

    Refuses near-singular input rather than returning garbage: if the
    reciprocal condition estimate of the matricization falls below
    ``RCOND_LIMIT``, a :class:`SingularTensorError` carrying the estimate
    is raised.
    """
    m = matricize(x)
    rcond = _reciprocal_condition(m)
    if not rcond >= RCOND_LIMIT:
        raise SingularTensorError(
            f"matricization is singular or ill-conditioned: reciprocal "
            f"condition estimate {rcond:.3e} is below {RCOND_LIMIT:g}",
            rcond=rcond,
        )
    return unmatricize(np.linalg.inv(m), x.row_shape)


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor reconstructing a matricized SPD tensor.

    ``lower @ lower.T`` recovers the matricization of the source tensor;
    the diagonal is strictly positive.
    """

    row_shape: Shape
    lower: np.ndarray

    @property
    def log_det(self) -> float:
        """Log-determinant of the factored matrix, from the pivot diagonal."""
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve_lower(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``lower @ z = rhs`` by forward substitution."""
        return _solve_lower(self.lower, rhs)


def _first_nonpositive_pivot(m: np.ndarray) -> int:
    # Textbook column sweep; runs only on the failure path to locate the
    # pivot that broke positive definiteness.
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not d > 0.0:
            return j
        lower[j, j] = math.sqrt(d)
        lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return n - 1


def cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises :class:`DefinitenessError` naming the first non-positive pivot
    when the matrix is not positive definite.
    """
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pivot = _first_nonpositive_pivot(np.asarray(m, dtype=np.float64))
        raise DefinitenessError(
            f"matrix is not positive definite: pivot {pivot} is non-positive",
            pivot=pivot,
        ) from None


def cholesky(s: SquareTensor, tol: float = SYMMETRY_TOL) -> CholeskyFactor:
    """Cholesky factorization of the matricization of a symmetric PD tensor.

    The input must be symmetric within ``tol``; the factorization runs on
    the exactly symmetrized matrix so round-off asymmetry cannot leak into
    the factor.
    """
    m = matricize(s)
    asym = float(np.abs(m - m.T).max())
    if asym > tol:
        raise SymmetryError(
            f"matricization is not symmetric: max |m - m.T| = {asym:.3e} "
            f"exceeds tolerance {tol:g}"
        )
    sym = 0.5 * (m + m.T)
    return CholeskyFactor(row_shape=s.row_shape, lower=cholesky_lower(sym))


def is_symmetric(x: SquareTensor, tol: float = SYMMETRY_TOL) -> bool:
    """Whether ``x`` equals its block transpose within an absolute ``tol``."""
    diff = matricize(x) - matricize(transpose2d(x))
    return float(np.abs(diff).max()) <= tol


def is_positive_definite(x: SquareTensor, tol: float = SYMMETRY_TOL) -> bool:
    """Whether ``x`` is symmetric within ``tol`` with a PD matricization."""
    if not is_symmetric(x, tol):
        return False
    m = matricize(x)
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class KroneckerFactors:
    """Per-mode symmetric factor matrices of a structured scale tensor.

    ``factors[i]`` is the ``n_{i+1} x n_{i+1}`` matrix acting along mode
    ``i`` of the tensor; the assembled matricization is their Kronecker
    product taken in the order that matches the column-major vectorization
    (see :func:`kronecker_assemble`).
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for k, f in enumerate(self.factors):
            a = np.array(f, dtype=np.float64, copy=True)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ShapeError(
                    f"factor {k} must be a square matrix, got shape {a.shape}"
                )
            # Checked first: an asymmetry test against NaN is always False.
            _require_finite(a)
            asym = float(np.abs(a - a.T).max())
            if asym > 1e-12:
                raise SymmetryError(
                    f"factor {k} is not symmetric: max asymmetry {asym:.3e}"
                )
            a.flags.writeable = False
            cleaned.append(a)
        if not cleaned:
            raise ShapeError("at least one factor is required")
        object.__setattr__(self, "factors", tuple(cleaned))

    @property
    def shape(self) -> Shape:
        """Shape of the tensors the factors act on, one size per mode."""
        return Shape(tuple(f.shape[0] for f in self.factors))


def kronecker_assemble(f: KroneckerFactors) -> np.ndarray:
    """Dense ``nstar x nstar`` matricization of the structured scale.

    The mode-1 index varies fastest in the shared column-major convention,
    so the factors multiply in reverse storage order; the result applies
    factor ``i`` along mode ``i`` of any vectorized tensor.  The ordering
    is pinned by a mode-scaling unit test rather than left as convention.
    """
    return functools.reduce(np.kron, reversed(f.factors))
