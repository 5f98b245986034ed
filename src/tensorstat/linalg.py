"""Determinants, inverses and factorizations of square order-2D tensors.

Every reduction goes through the matricization: the determinant of a
tensor is the determinant of its matricized form (pivoted LU, as LAPACK
provides it), and the inverse is the tensor whose matricization is the
matrix inverse.  Cholesky machinery backs sampling and log-determinants
downstream; Kronecker assembly turns per-mode factor matrices into the
dense matricization of a structured scale tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, ShapeError, SingularTensorError, SymmetryError
from .tensor_core import Shape, SquareTensor, _kron, _require_finite, matricize, unmatricize

__all__ = [
    "CholeskyFactor",
    "KroneckerFactors",
    "det",
    "slogdet",
    "inverse",
    "cholesky",
    "kronecker_assemble",
    "is_symmetric",
    "is_positive_definite",
]

# Reciprocal condition numbers below this refuse inversion: downstream
# density code must never see a near-singular scale silently.
RCOND_LIMIT = 1e-12

# The one symmetry and definiteness bound, relative to max |m|: see symmetry.
SYMMETRY_TOL = 1e-10


def _dets(matrices: np.ndarray) -> np.ndarray:
    # Signed determinants of a (B, n, n) stack; inf where one overflows.
    with np.errstate(over="ignore"):
        return np.linalg.det(matrices)


def det(x: SquareTensor) -> float:
    """Signed determinant of the matricization; ``inf`` once it overflows."""
    return float(_dets(matricize(x)[None])[0])


def _slogdets(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Signs and log absolute determinants of a (B, n, n) stack.
    return tuple(np.linalg.slogdet(matrices))


def slogdet(x: SquareTensor) -> tuple[float, float]:
    """Sign and natural log of the absolute determinant of the matricization.

    Stays finite where :func:`det` overflows or underflows; a singular
    matricization gives ``(0.0, -inf)``.
    """
    sign, logabsdet = _slogdets(matricize(x)[None])
    return float(sign[0]), float(logabsdet[0])


def _inverse_and_rcond(m: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    # Inverses of a (B, n, n) stack and their exact 1-norm reciprocal
    # conditions 1 / (|m|_1 |m^-1|_1), from the inverses that are returned
    # anyway.  Each is never larger than LAPACK's estimate, and the 1-norm
    # condition number is within a factor n of the 2-norm one.  A singular
    # matrix anywhere in the stack gives no inverses and rcond 0.0; an
    # overflowing inverse gives 0.0.
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None, np.zeros(len(m))
    with np.errstate(all="ignore"):
        rcond = 1.0 / (np.abs(m).sum(axis=-2).max(axis=-1) * np.abs(inv).sum(axis=-2).max(axis=-1))
    return inv, np.where(np.isfinite(rcond), rcond, 0.0)


def _inverses(matrices: np.ndarray) -> np.ndarray:
    # Inverses of a (B, n, n) stack of matricizations; refused as a whole
    # when any reciprocal condition number falls below RCOND_LIMIT.
    inv, rcond = _inverse_and_rcond(matrices)
    worst = float(rcond.min())
    if not worst >= RCOND_LIMIT:
        raise SingularTensorError(
            f"matricization is singular or ill-conditioned: reciprocal "
            f"condition number {worst:.3e} is below {RCOND_LIMIT:g}",
            rcond=worst,
        )
    return inv


def inverse(x: SquareTensor) -> SquareTensor:
    """Tensor whose contraction with ``x`` on either side is the identity.

    Refuses near-singular input rather than returning garbage: if the
    exact 1-norm reciprocal condition number of the matricization falls
    below ``RCOND_LIMIT``, a :class:`SingularTensorError` carrying it is
    raised.
    """
    return unmatricize(_inverses(matricize(x)[None])[0], x.row_shape)


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
        """Solve ``lower @ z = rhs`` (``rhs`` 1-D or 2-D) against the factor."""
        return np.linalg.solve(self.lower, rhs)


def _first_nonpositive_pivot(m: np.ndarray) -> int:
    # Textbook column sweep over one factor; runs only on the failure path
    # to locate the pivot that broke positive definiteness.
    n = m.shape[0]
    lower = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not d > 0.0:
            return j
        lower[j, j] = math.sqrt(d)
        lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / lower[j, j]
    return n - 1


def _cholesky_or_none(m: np.ndarray):
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def cholesky_lower(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises :class:`DefinitenessError` naming the first non-positive pivot
    when the matrix is not positive definite.
    """
    return kronecker_cholesky((np.asarray(m, dtype=np.float64),))[0]


def symmetry(m: np.ndarray, what: str | None = None, tol: float = SYMMETRY_TOL):
    """``(part, residual, bound)`` of a square matrix, by the one relative rule.

    ``m`` is symmetric when ``residual = max |m - m.T|`` is at most ``bound
    = tol * max |m|``, and PSD when no eigenvalue of ``part`` is below
    ``-bound``: units move neither verdict.  ``part`` is ``m`` itself when
    exactly symmetric (no copy), else ``m / 2 + m.T / 2``, halved before the
    sum so that it cannot overflow where ``m`` does not.
    With ``what``, raises :class:`SymmetryError` naming it unless symmetric.
    """
    residual, magnitude = float(np.abs(m - m.T).max()), float(np.abs(m).max())
    if what is not None and not residual <= tol * magnitude:
        raise SymmetryError(
            f"{what} is not symmetric: max |m - m.T| = {residual:.3e} exceeds "
            f"tolerance {tol:g} relative to max |m| = {magnitude:.3e}"
        )
    return (m if residual == 0.0 else 0.5 * m + 0.5 * m.T), residual, tol * magnitude


def _square_diagnostics(m: np.ndarray) -> tuple[float, float, bool, bool]:
    # Largest |m - m.T|, least eigenvalue of the part, and symmetry's two verdicts.
    part, residual, bound = symmetry(m)
    min_eig = float(np.linalg.eigvalsh(part).min())
    return residual, min_eig, residual <= bound, min_eig >= -bound


def cholesky(s: SquareTensor, tol: float = SYMMETRY_TOL) -> CholeskyFactor:
    """Cholesky factorization of the matricization of a symmetric PD tensor.

    The matricization ``m`` must be symmetric, ``max |m - m.T| <= tol *
    max |m|``; the factorization runs on its exact symmetric part, so
    round-off asymmetry cannot leak into the factor.
    """
    sym = symmetry(matricize(s), "matricization", tol)[0]
    return CholeskyFactor(row_shape=s.row_shape, lower=cholesky_lower(sym))


def is_symmetric(x: SquareTensor, tol: float = SYMMETRY_TOL) -> bool:
    """Whether ``max |m - m.T| <= tol * max |m|`` for the matricization ``m``."""
    _part, residual, bound = symmetry(matricize(x), tol=tol)
    return residual <= bound


def is_positive_definite(x: SquareTensor, tol: float = SYMMETRY_TOL) -> bool:
    """Whether ``x`` is symmetric within a relative ``tol`` with a PD matricization."""
    part, residual, bound = symmetry(matricize(x), tol=tol)
    return residual <= bound and _cholesky_or_none(part) is not None


@dataclass(frozen=True)
class KroneckerFactors:
    """Per-mode symmetric factor matrices of a structured scale tensor.

    ``factors[i]`` is the ``n_{i+1} x n_{i+1}`` matrix acting along mode
    ``i`` of the tensor; the assembled matricization is their Kronecker
    product taken in the order that matches the column-major vectorization
    (see :func:`kronecker_assemble`).  Each is stored read-only as a copy
    of its symmetric part, and refused unless :func:`symmetry` finds it so.
    """

    factors: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for k, f in enumerate(self.factors):
            a = np.array(f, dtype=np.float64, order="C")
            if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
                raise ShapeError(
                    f"factor {k} must be a square matrix, got shape {a.shape}"
                )
            # Checked first: a non-finite factor is bad input, not asymmetric.
            _require_finite(a)
            sym = symmetry(a, f"factor {k}")[0]
            sym.flags.writeable = False
            cleaned.append(sym)
        if not cleaned:
            raise ShapeError("at least one factor is required")
        object.__setattr__(self, "factors", tuple(cleaned))

    @property
    def shape(self) -> Shape:
        """Shape of the tensors the factors act on, one size per mode."""
        return Shape(tuple(f.shape[0] for f in self.factors))


def kronecker_assemble(f: KroneckerFactors) -> np.ndarray:
    """Dense ``nstar x nstar`` matricization of the structured scale.

    ``tensor_core`` takes the factors' Kronecker product in the order the
    column-major convention fixes (mode-1 index fastest), so the result
    applies factor ``i`` along mode ``i`` of any vectorized tensor.  The
    ordering is pinned by a mode-scaling unit test, not left as convention.
    """
    return _kron(f.factors)


def kronecker_cholesky(factors) -> tuple[np.ndarray, ...]:
    """Per-mode lower factors whose Kronecker product is the Cholesky factor.

    ``factors`` are symmetric matrices in mode order, as :class:`KroneckerFactors`
    stores them; a dense scale is the one-factor case.  The product's
    unpivoted pivots are products of the factors' own pivots in column-major
    multi-index order, so the product is read from the factors alone and
    never formed.  Its first pivot is the product of the first entries: the
    scale is refused with pivot 0 unless their signs multiply to +1.  Each
    factor is then factored once, signed by its first entry, so a negative
    definite factor contributes the Cholesky factor of its negation.  The
    first factor, in mode order, that fails refuses the scale with
    :class:`DefinitenessError` naming the product's first non-positive
    pivot: its mode stride ``n_1 ... n_{k-1}`` times the factor's own.
    """
    pivot, lowers, stride = 0, [], 1
    if math.prod(np.sign(a[0, 0]) for a in factors) > 0:
        for a in factors:
            signed = a if a[0, 0] > 0 else -a
            low = _cholesky_or_none(signed)
            if low is None:
                pivot = stride * _first_nonpositive_pivot(signed)
                break
            lowers.append(low)
            stride *= a.shape[0]
        else:
            return tuple(lowers)
    raise DefinitenessError(
        f"matrix is not positive definite: pivot {pivot} is non-positive", pivot=pivot
    )
