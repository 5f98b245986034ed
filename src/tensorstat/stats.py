"""Sample estimators for covariance and correlation tensors.

A :class:`SampleSet` stores its observations as one float64 block: an
``N x nstar`` matrix whose rows are the vectorized observations, seen by
the estimators as the ``(N, n1, .., nD)`` multi-index array with the
sample axis first.  Observations handed out by a set are read-only
tensor views of that block, built on demand.

The covariance estimators contract the deviation blocks over the sample
axis, entirely on multi-index arrays.  Swapping the arguments of
:func:`cross_covariance` transposes its result bit-for-bit: it takes both
contractions ``Kxy`` and ``Kyx`` and returns ``(Kxy + swap(Kyx)) / 2``,
whose entries are the same two addends in either call, and IEEE addition
commutes.  The covariance matrix of the vectorized observations
(``covariance_of_vec``) is computed by an unrelated matrix route, so the
documented identity "matricize of the covariance tensor equals the
covariance matrix of the vec" stays an honest cross-check of the shared
linearization instead of a tautology.

Observations are never weighted and cross estimators pair positionally;
there is no alignment or resampling logic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import DefinitenessError, DegenerateVarianceError, ShapeError, SymmetryError
from .linalg import _square_diagnostics
from .tensor_core import (
    DenseTensor,
    Shape,
    ShapeLike,
    SquareTensor,
    _matricize_stack,
    _multi_index,
    _pair,
    _reshape_each,
    _row_blocks,
    _transpose2d_stack,
    as_shape,
    matricize,
    unmatricize,
)

__all__ = [
    "SampleSet",
    "CovTensor",
    "CrossCovTensor",
    "CorrTensor",
    "CrossCorrTensor",
    "mean_tensor",
    "covariance",
    "cross_covariance",
    "correlation",
    "cross_correlation",
    "covariance_of_vec",
]

NORMALIZATIONS = ("unbiased", "mle")


class SampleSet:
    """Finite ordered collection of equally shaped tensors, stored as one block.

    The storage is a single read-only float64 ``N x nstar`` matrix whose
    row ``k`` is the vectorization of observation ``k`` (``to_matrix``).
    ``block`` is the same memory seen as an ``(N, n1, .., nD)`` multi-index
    array.  ``observations``, iteration and indexing hand out read-only
    :class:`DenseTensor` views of the rows, built on demand; no
    per-observation object is stored.

    The shape travels separately from the observations so that empty sets
    (a legitimate sampler output) stay well-defined; estimators enforce
    their own minimum observation counts.
    """

    __slots__ = ("_shape", "_rows")

    def __init__(self, shape: ShapeLike, observations: Iterable[DenseTensor]):
        shape = as_shape(shape)
        obs = tuple(observations)
        rows = np.empty((len(obs), shape.nstar))
        for k, t in enumerate(obs):
            if not isinstance(t, DenseTensor):
                raise TypeError(f"observation {k} is not a DenseTensor")
            if t.shape != shape:
                raise ShapeError(
                    f"observation {k} has shape {t.shape}, expected {shape}"
                )
            rows[k] = t.data
        rows.flags.writeable = False
        self._shape = shape
        self._rows = rows

    @classmethod
    def from_observations(cls, observations: Iterable[DenseTensor]) -> "SampleSet":
        """Build from a non-empty iterable, inferring the shape."""
        obs = tuple(observations)
        if not obs:
            raise ValueError(
                "cannot infer the shape of an empty sample set; pass it explicitly"
            )
        return cls(shape=obs[0].shape, observations=obs)

    @classmethod
    def _wrap(cls, rows: np.ndarray, shape: Shape) -> "SampleSet":
        # Internal: adopt an N x nstar float64 matrix of vectorized
        # observations without copying (when C-contiguous) or validating.
        a = np.ascontiguousarray(rows, dtype=np.float64)
        a.flags.writeable = False
        s = object.__new__(cls)
        s._shape = shape
        s._rows = a
        return s

    @property
    def shape(self) -> Shape:
        """Shape shared by every observation (read-only)."""
        return self._shape

    @property
    def observations(self) -> tuple[DenseTensor, ...]:
        """Read-only tensor views of the observations, in order."""
        return tuple(self)

    @property
    def block(self) -> np.ndarray:
        """Read-only ``(N, n1, .., nD)`` multi-index view of the storage."""
        return _row_blocks(self._rows[None], self._shape)[0]

    def __len__(self) -> int:
        return self._rows.shape[0]

    def __iter__(self) -> Iterator[DenseTensor]:
        return (self[k] for k in range(len(self)))

    def __getitem__(self, k: int) -> DenseTensor:
        return DenseTensor._wrap(self._rows[operator.index(k)], self._shape)

    def __eq__(self, other) -> bool:
        if type(other) is not SampleSet:
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self._rows, other._rows)

    __hash__ = None

    def __repr__(self) -> str:
        return f"SampleSet(shape={self.shape}, count={len(self)})"

    def to_matrix(self) -> np.ndarray:
        """Read-only ``N x nstar`` matrix whose rows are the vectorized observations."""
        return self._rows


@dataclass(frozen=True)
class CovTensor:
    """Self-covariances of a random tensor's cells.

    Symmetric under block transpose (exactly, as the estimators build it)
    with a PSD matricization ``m``, by :func:`~tensorstat.linalg.symmetry`'s
    relative rule, else :class:`SymmetryError` or :class:`DefinitenessError`.
    The checks leave their diagnostics behind: ``symmetry_residual`` is the
    largest ``|m - m.T|`` and ``min_eigenvalue`` the smallest eigenvalue of
    the symmetric part.
    """

    value: SquareTensor
    normalization: str
    symmetry_residual: float = field(init=False, repr=False, compare=False)
    min_eigenvalue: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        residual, min_eig, symmetric, psd = _square_diagnostics(matricize(self.value))
        if not symmetric:
            raise SymmetryError("covariance tensor must be symmetric")
        if not psd:
            raise DefinitenessError(
                f"covariance matricization must be positive semidefinite, "
                f"min eigenvalue {min_eig:.3e}"
            )
        object.__setattr__(self, "symmetry_residual", residual)
        object.__setattr__(self, "min_eigenvalue", min_eig)


@dataclass(frozen=True)
class CrossCovTensor:
    """Pairwise covariances between cells of two random tensors.

    ``value`` is square when the two shapes coincide and an order-2D
    rectangular tensor (concatenated shape) otherwise.
    """

    value: Union[SquareTensor, DenseTensor]
    normalization: str


@dataclass(frozen=True)
class CorrTensor:
    """Correlations between cells of one tensor; unit diagonal exactly."""

    value: SquareTensor
    stddev: DenseTensor


@dataclass(frozen=True)
class CrossCorrTensor:
    """Correlations between cells of two tensors; no diagonal constraint."""

    value: Union[SquareTensor, DenseTensor]
    stddev_x: DenseTensor
    stddev_y: DenseTensor


def _set_rows(s: SampleSet) -> np.ndarray:
    # The N x nstar rows every estimator reads, from a SampleSet only.
    if not isinstance(s, SampleSet):
        raise TypeError(f"samples must be a SampleSet, got {type(s).__name__}")
    return s.to_matrix()


def mean_tensor(s: SampleSet) -> DenseTensor:
    """Entrywise arithmetic mean of the observations."""
    rows = _set_rows(s)
    if len(rows) == 0:
        raise ValueError("mean of an empty sample set is undefined")
    return DenseTensor._wrap(rows.mean(axis=0), s.shape)


def _denominator(n: int, normalization: str) -> float:
    if normalization not in NORMALIZATIONS:
        raise ValueError(
            f"normalization must be one of {NORMALIZATIONS}, got {normalization!r}"
        )
    if normalization == "unbiased":
        if n < 2:
            raise ValueError("unbiased normalization requires at least two observations")
        return float(n - 1)
    if n < 1:
        raise ValueError("mle normalization requires at least one observation")
    return float(n)


def _deviations(rows: np.ndarray, shape: Shape) -> np.ndarray:
    # (G, N, n1, .., nD) deviations of the observations from their set's
    # mean, laid out C-contiguous so the contraction reshapes for free.
    means = _row_blocks(rows.mean(axis=1)[:, None], shape)
    return np.subtract(_row_blocks(rows, shape), means, order="C")


def _cross_covariances(
    rx: np.ndarray, ry: np.ndarray, shape_x: Shape, shape_y: Shape, normalization: str
) -> np.ndarray:
    # The estimator of cross_covariance over stacks of G paired sets:
    # (G, N, nstar_x) and (G, N, nstar_y) rows give (G, n_x.., n_y..).
    # Passing the same array twice says each pair holds the same
    # observations, which take one contraction.  Finite observations can
    # still overflow the mean or the sums of products; the result is
    # refused instead of warned about.
    g, count = rx.shape[:2]
    denom = _denominator(count, normalization)
    same = rx is ry
    with np.errstate(over="ignore", invalid="ignore"):
        dx = _deviations(rx, shape_x).reshape(g, count, shape_x.nstar)
        dy = dx if same else _deviations(ry, shape_y).reshape(g, count, shape_y.nstar)
        # Sums over the sample axis of the outer products of paired deviations.
        kxy = np.matmul(dx.transpose(0, 2, 1), dy)
        kyx = kxy if same else np.matmul(dy.transpose(0, 2, 1), dx)
        kxy = kxy.reshape((g,) + shape_x.dims + shape_y.dims)
        kyx = kyx.reshape((g,) + shape_y.dims + shape_x.dims)
        acc = np.add(kxy, _transpose2d_stack(kyx, shape_y.order), order="F")
        acc *= 0.5
        acc /= denom
    if not np.isfinite(acc).all():
        raise ValueError("sample covariance overflows float64")
    return acc


def cross_covariance(
    sx: SampleSet, sy: SampleSet, normalization: str = "unbiased"
) -> CrossCovTensor:
    """Contracted outer products of positionally paired deviations.

    Entry ``(i1..iD, j1..jD)`` of the result is the sample covariance
    between cell ``i`` of the first tensor and cell ``j`` of the second.
    The deviation blocks are contracted over the sample axis.  Swapping the
    arguments transposes the index blocks bit-for-bit by construction: the
    result is ``(Kxy + swap(Kyx)) / 2`` with ``Kxy`` and ``Kyx`` the two
    contractions, and IEEE addition commutes.  Sets holding the same
    observations take one contraction, symmetrized the same way, so
    ``cross_covariance(s, s)`` equals ``covariance(s)`` bit-for-bit.
    """
    rx, ry = _set_rows(sx), _set_rows(sy)
    if len(rx) != len(ry):
        raise ValueError(
            f"sample sets must pair positionally, got {len(rx)} and {len(ry)} observations"
        )
    same = sx is sy or (sx.shape == sy.shape and np.array_equal(rx, ry))
    rx = rx[None]
    ry = rx if same else ry[None]
    acc = _cross_covariances(rx, ry, sx.shape, sy.shape, normalization)[0]
    return CrossCovTensor(value=_pair(acc, sx.shape, sy.shape), normalization=normalization)


def covariance(s: SampleSet, normalization: str = "unbiased") -> CovTensor:
    """Self covariance tensor of a sample set.

    Exactly symmetric under block transpose, because
    :func:`cross_covariance` symmetrizes the single contraction it takes
    for a set paired with itself.  The only estimator that returns the
    :class:`CovTensor` diagnostics, and so the only one that pays for
    their eigen-decomposition.
    """
    cross = cross_covariance(s, s, normalization)
    return CovTensor(value=cross.value, normalization=normalization)


def covariance_of_vec(s: SampleSet, normalization: str = "unbiased") -> np.ndarray:
    """Covariance matrix of the vectorized observations.

    Computed entirely in vec space (stack, center, one matrix product),
    sharing no code with the tensor estimator; the matricization of
    :func:`covariance` must reproduce it within round-off.  Raises
    ``ValueError`` when the result overflows float64, as :func:`covariance`
    does.
    """
    return _vec_covariances(_set_rows(s)[None], normalization)[0]


def _vec_covariances(rows: np.ndarray, normalization: str) -> np.ndarray:
    # covariance_of_vec over a (G, N, nstar) stack of sets: centre, then
    # one matrix product per set.  Refused below like cross_covariance's
    # overflow, not warned about.
    denom = _denominator(rows.shape[1], normalization)
    with np.errstate(over="ignore", invalid="ignore"):
        d = rows - rows.mean(axis=1, keepdims=True)
        cov = np.matmul(d.transpose(0, 2, 1), d) / denom
    if not np.isfinite(cov).all():
        raise ValueError("sample covariance overflows float64")
    return cov


def _cell_stddev(s: SampleSet) -> np.ndarray:
    # Per-cell MLE standard deviations, in vec order; exactly zero for
    # constant cells.
    rows = _set_rows(s)
    d = rows - rows.mean(axis=0)
    return np.sqrt((d * d).sum(axis=0) / len(rows))


def _require_on_degenerate(on_degenerate: str) -> None:
    if on_degenerate not in ("error", "substitute"):
        raise ValueError(f"on_degenerate must be 'error' or 'substitute', got {on_degenerate!r}")


def _degenerate_cells(sd: np.ndarray, shape: Shape, on_degenerate: str, prefix: str = ""):
    # Vec-order mask of zero-variance cells, over the last axis of ``sd``;
    # "error" names the first instead.
    degenerate = sd <= 0.0
    if degenerate.any() and on_degenerate == "error":
        cell = _multi_index(int(np.flatnonzero(degenerate)[0]) % shape.nstar, shape)
        raise DegenerateVarianceError(f"{prefix}cell {cell} has zero sample variance", index=cell)
    return degenerate


def _standardize(c, sd_x, sd_y, deg_x, deg_y, unit_diagonal: bool = False) -> np.ndarray:
    # c / (sd_x sd_y^T) over the last two axes, degenerate rows and columns
    # 0, bounds checked last.
    r = c / (np.where(deg_x, 1.0, sd_x)[..., :, None] * np.where(deg_y, 1.0, sd_y)[..., None, :])
    r[np.broadcast_to(deg_x[..., :, None] | deg_y[..., None, :], r.shape)] = 0.0
    if unit_diagonal:
        diagonal = np.arange(r.shape[-1])
        r[..., diagonal, diagonal] = 1.0
    worst = float(np.abs(r).max())
    if not worst <= 1.0 + 1e-12:
        raise ValueError(f"correlation entry out of [-1, 1] beyond round-off: {worst!r}")
    return r


def _correlations(
    rows: np.ndarray, shape: Shape, on_degenerate: str
) -> tuple[np.ndarray, np.ndarray]:
    # The estimator of correlation over a (G, N, nstar) stack of sets: the
    # (G, nstar, nstar) correlation matrices and (G, nstar) cell standard
    # deviations, both read from the matricized MLE covariances.
    c = _matricize_stack(_cross_covariances(rows, rows, shape, shape, "mle"), shape)
    sd = np.sqrt(np.diagonal(c, axis1=-2, axis2=-1))
    degenerate = _degenerate_cells(sd, shape, on_degenerate)
    return _standardize(c, sd, sd, degenerate, degenerate, unit_diagonal=True), sd


def correlation(s: SampleSet, on_degenerate: str = "error") -> CorrTensor:
    """Correlation tensor with an exactly unit diagonal.

    The diagonal is written analytically rather than recomputed as a
    ratio.  ``on_degenerate`` picks the contract for constant cells:
    ``"error"`` (default) raises naming the first offending multi-index,
    ``"substitute"`` writes 0 off the diagonal and 1 on it.
    """
    _require_on_degenerate(on_degenerate)
    (r,), (sd,) = _correlations(_set_rows(s)[None], s.shape, on_degenerate)
    return CorrTensor(value=unmatricize(r, s.shape), stddev=DenseTensor._wrap(sd, s.shape))


def cross_correlation(
    sx: SampleSet, sy: SampleSet, on_degenerate: str = "error"
) -> CrossCorrTensor:
    """Cross-correlations: covariances of cellwise standardized variables.

    Entries lie in [-1, 1] up to round-off; there is no unit-diagonal
    constraint.  Degenerate (constant) cells follow the same contract as
    :func:`correlation`, with substituted entries set to 0.
    """
    _require_on_degenerate(on_degenerate)
    cross = cross_covariance(sx, sy, "mle")
    sdx, sdy = _cell_stddev(sx), _cell_stddev(sy)
    degx = _degenerate_cells(sdx, sx.shape, on_degenerate, "first-argument ")
    degy = _degenerate_cells(sdy, sy.shape, on_degenerate, "second-argument ")
    c = _reshape_each(cross.value.array[None], (sx.shape.nstar, sy.shape.nstar))[0]
    r = _standardize(c, sdx, sdy, degx, degy)
    stddev_x, stddev_y = DenseTensor._wrap(sdx, sx.shape), DenseTensor._wrap(sdy, sy.shape)
    return CrossCorrTensor(value=_pair(r, sx.shape, sy.shape), stddev_x=stddev_x, stddev_y=stddev_y)
