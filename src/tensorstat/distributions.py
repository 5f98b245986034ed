"""Tensor normal and elliptical distributions over dense tensors.

A tensor is normally distributed exactly when its vectorization is
multivariate normal with the matricized scale as covariance; the density
can equivalently be written through the double-dot quadratic form of the
deviation against the inverse scale.  Both routes live here: the fast
path computes the quadratic form through a cached Cholesky factor (one
solve against the factor, never an explicit inverse), and a deliberately
independent vec-space oracle re-derives everything through LU so the
equivalence stays testable.

The elliptical family generalizes the normal by a pluggable radial kernel
``g``; densities are ``c * g(q)`` with the determinant factor folded into
the normalizer ``c``.  The tensor normal is the elliptical law with
``g(q) = exp(-q/2)``, so its parameters are elliptical parameters with the
normal kernel, and every log-density, normal or not, one point or a batch,
is ``log c + log g(q)`` over the rows' quadratic forms.  All densities are
computed and exposed in log space, since the linear density underflows
quickly as ``nstar`` grows; the linear-space wrappers are exponentials
that give ``inf`` where the density overflows float64 (a tiny scale).

Scales may be dense square tensors or per-mode Kronecker factor lists,
held as lower factors whose Kronecker product is the Cholesky factor of
the matricized scale: one for a dense scale, one per mode for a Kronecker
scale, which stays factored.  Draws ``M + L w`` and densities, through
``q = |L^-1 (x - M)|^2``, apply those factors by one row-block operator,
forward or by solves, mode by mode; a single point is the batch's one-row
case.  The dense matricization is assembled only for the oracle and the
dense scale accessors.  Both parameterizations describe one effective
matricization, and ``kronecker_equivalence_check`` compares their densities.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import DefinitenessError, ShapeError, UnsupportedKernelError
from .linalg import (
    CholeskyFactor, KroneckerFactors, kronecker_assemble, kronecker_cholesky, symmetry
)
from .stats import SampleSet, _set_rows, cross_covariance, mean_tensor
from .tensor_core import (
    DenseTensor, Shape, SquareTensor, _integer, _kron, _mode_product, _require_finite,
    matricize, unmatricize, vec,
)

__all__ = [
    "RngSeed",
    "RadialKernel",
    "NormalKernel",
    "StudentKernel",
    "kernel_from_spec",
    "TensorNormalParams",
    "EllipticalParams",
    "EquivalenceReport",
    "normal_log_density",
    "normal_log_density_vec_oracle",
    "normal_log_density_batch",
    "normal_density",
    "normal_sample",
    "elliptical_log_density",
    "elliptical_log_density_batch",
    "elliptical_density",
    "elliptical_sample",
    "fit_normal",
    "kronecker_equivalence_check",
]

# Correctly rounded ln(2*pi); math.log(2*math.pi) lands one ulp low, which
# shows up in 17-significant-digit output.
LN_2PI = float("1.8378770664093454835606594728112352797")

ScaleSpec = Union[SquareTensor, KroneckerFactors]


@dataclass(frozen=True)
class RngSeed:
    """Reproducible RNG identity: a 64-bit seed plus a substream index.

    The same ``(seed, stream)`` pair always yields the same draw sequence;
    distinct stream indices give independent substreams of one seed, so
    workers can draw in parallel and concatenate in stream order without
    changing the output.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.stream < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


class RadialKernel:
    """Radial profile ``g`` of an elliptical density.

    ``g`` must be positive and decreasing on ``[0, inf)``.  The normalizing
    constant returned by :meth:`log_norm_constant` excludes the determinant
    factor, which the parameter object folds in, so the kernel depends only
    on the quadratic form.  :meth:`log_g` takes an array of quadratic forms,
    one per point, and returns their ``log g`` elementwise.  Kernels without
    a registered radial sampler can still evaluate densities.
    """

    name: str = "?"

    def log_g(self, q, nstar: int):
        raise NotImplementedError

    def log_norm_constant(self, nstar: int) -> float:
        raise NotImplementedError

    def sample_radius(self, rng: np.random.Generator, nstar: int, count: int) -> np.ndarray:
        raise UnsupportedKernelError(
            f"kernel {self.name!r} has no registered radial sampler"
        )

    def covariance_scale(self, nstar: int):
        """Factor relating the scale tensor to the covariance tensor.

        Returns ``None`` when the covariance does not exist; the scale is
        then still a valid parameter, just not proportional to any finite
        covariance.
        """
        return None

    def _standard_draws(self, rng: np.random.Generator, nstar: int, count: int) -> np.ndarray:
        # Rows R * u of the standardized law (identity scale, zero location): u
        # uniform on the unit sphere, R the radial variable; built in place, in one block.
        z = rng.standard_normal((count, nstar))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        z *= np.asarray(self.sample_radius(rng, nstar, count), dtype=np.float64)[:, None]
        return z


@dataclass(frozen=True)
class NormalKernel(RadialKernel):
    """Gaussian radial profile ``g(q) = exp(-q/2)``."""

    name = "normal"

    def log_g(self, q, nstar: int):
        return -0.5 * q

    def log_norm_constant(self, nstar: int) -> float:
        return -0.5 * nstar * LN_2PI

    def sample_radius(self, rng: np.random.Generator, nstar: int, count: int) -> np.ndarray:
        # Squared radius of a standard normal vector is chi-square(nstar).
        return np.sqrt(rng.chisquare(nstar, size=count))

    def covariance_scale(self, nstar: int) -> float:
        return 1.0

    def _standard_draws(self, rng: np.random.Generator, nstar: int, count: int) -> np.ndarray:
        # White noise: the same law as R * u, and the draw that seeded
        # normal sample files are made of (their digests are pinned).
        return rng.standard_normal((count, nstar))


@dataclass(frozen=True)
class StudentKernel(RadialKernel):
    """Student-t radial profile with ``nu`` degrees of freedom.

    ``g(q) = (1 + q/nu)^{-(nu + nstar)/2}`` with the standard multivariate-t
    normalizer; for ``nu > 2`` the covariance equals ``nu/(nu-2)`` times the
    scale, and for ``nu -> inf`` the kernel converges to the normal one.
    """

    nu: float
    name = "student"

    def __post_init__(self) -> None:
        # Infinite nu would be the normal kernel, but its normalizer is
        # inf - inf here; ask for the normal kernel instead.  A bool is
        # refused by name, since True would read as nu = 1.
        if isinstance(self.nu, bool) or not isinstance(self.nu, numbers.Real):
            raise UnsupportedKernelError(
                f"student kernel requires a real number nu, got {type(self.nu).__name__}"
            )
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise UnsupportedKernelError(
                f"student kernel requires finite nu > 0, got {self.nu!r}"
            )

    def log_g(self, q, nstar: int):
        q = np.asarray(q, dtype=np.float64)
        with np.errstate(all="ignore"):
            ratio = q / self.nu
            # q / nu overflows at tiny nu; there, the same logarithm without
            # the quotient.
            log1p_ratio = np.where(
                np.isfinite(ratio),
                np.log1p(ratio),
                np.log(q) - np.log(self.nu) + np.log1p(self.nu / q),
            )
        return -0.5 * (self.nu + nstar) * log1p_ratio

    def log_norm_constant(self, nstar: int) -> float:
        # math.lgamma raises OverflowError for nu beyond ~5e305, where the
        # log-gamma terms exceed float64; the caller refuses the inf.
        try:
            log_gamma_ratio = math.lgamma(0.5 * (self.nu + nstar)) - math.lgamma(0.5 * self.nu)
        except OverflowError:
            return math.inf
        return log_gamma_ratio - 0.5 * nstar * math.log(self.nu * math.pi)

    def sample_radius(self, rng: np.random.Generator, nstar: int, count: int) -> np.ndarray:
        # Squared radius is nstar times an F(nstar, nu) variate.  At small
        # nu the product can overflow to inf, which the sampler refuses.
        with np.errstate(over="ignore"):
            return np.sqrt(nstar * rng.f(nstar, self.nu, size=count))

    def covariance_scale(self, nstar: int):
        if self.nu > 2.0:
            return self.nu / (self.nu - 2.0)
        return None


def kernel_from_spec(spec: str) -> RadialKernel:
    """Parse a kernel identifier: ``"normal"`` or ``"student:NU"``."""
    name, _, arg = spec.partition(":")
    if name == "normal" and not arg:
        return NormalKernel()
    if name == "student":
        try:
            nu = float(arg)
        except ValueError:
            raise UnsupportedKernelError(
                f"student kernel needs numeric degrees of freedom, got {arg!r}"
            ) from None
        return StudentKernel(nu=nu)
    raise UnsupportedKernelError(f"unknown kernel {spec!r}")


@dataclass(frozen=True, eq=False, repr=False)
class EllipticalParams:
    """Location, scale and radial kernel of a tensor elliptical law.

    The scale's symmetric factors in mode order are taken once, here: a
    Kronecker scale's stored ones, or a dense scale's matricization checked
    by :func:`~tensorstat.linalg.symmetry`.  They are factored by
    :func:`~tensorstat.linalg.kronecker_cholesky` into lower factors ``L_k``
    whose Kronecker product is the Cholesky factor of the matricization.
    The log-determinant is ``sum_k (nstar / n_k) 2 sum log diag L_k``, and
    draws and quadratic forms apply the factors one mode at a time to
    ``(N, nstar)`` row blocks of vectorized tensors (``tensor_core``'s mode
    product), so a Kronecker scale never forms the ``nstar x nstar``
    matricization.  That matrix (:attr:`scale_matrix`, seen as
    :attr:`scale_tensor`; the vec-space oracle reads it) and its Cholesky
    factor :attr:`chol` are built on first use and cached.  The
    :attr:`log_normalizer` already includes the determinant factor of the
    scale, so the kernel's ``log_g`` sees only the quadratic form.
    Instances are frozen: no attribute, cached or not, can be assigned.
    """

    location: DenseTensor
    scale: ScaleSpec
    kernel: RadialKernel
    log_det: float = field(init=False)
    _factors: tuple[np.ndarray, ...] = field(init=False)
    _lowers: tuple[np.ndarray, ...] = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.location, DenseTensor):
            raise TypeError(f"location must be a DenseTensor, got {type(self.location).__name__}")
        if not isinstance(self.kernel, RadialKernel):
            raise TypeError(f"kernel must be a RadialKernel, got {type(self.kernel).__name__}")
        kron = isinstance(self.scale, KroneckerFactors)
        if not kron and not isinstance(self.scale, SquareTensor):
            raise TypeError(
                f"scale must be a SquareTensor or KroneckerFactors, got {type(self.scale).__name__}"
            )
        shape = self.scale.shape if kron else self.scale.row_shape
        if shape != self.shape:
            raise ShapeError(f"scale shape {shape} does not match location shape {self.shape}")
        factors = (
            self.scale.factors if kron else (symmetry(matricize(self.scale), "matricization")[0],)
        )
        lowers = kronecker_cholesky(factors)
        for m in factors + lowers:
            m.flags.writeable = False
        object.__setattr__(self, "_factors", factors)
        object.__setattr__(self, "_lowers", lowers)
        object.__setattr__(self, "log_det", sum(
            (self.nstar // low.shape[0]) * 2.0 * float(np.sum(np.log(np.diag(low))))
            for low in lowers
        ))

    @property
    def shape(self) -> Shape:
        return self.location.shape

    @property
    def nstar(self) -> int:
        return self.location.shape.nstar

    @property
    def log_normalizer(self) -> float:
        """Log of the density's constant factor, determinant included."""
        return _log_normalizer(self, self.kernel)

    @functools.cached_property
    def scale_matrix(self) -> np.ndarray:
        """Effective (symmetric) matricization of the scale, built on first use."""
        if not isinstance(self.scale, KroneckerFactors):
            return self._factors[0]
        m = kronecker_assemble(self.scale)
        m.flags.writeable = False
        return m

    @functools.cached_property
    def chol(self) -> CholeskyFactor:
        """Cholesky factor of :attr:`scale_matrix`: the Kronecker product of the lower factors."""
        lower = _kron(self._lowers)
        lower.flags.writeable = False
        return CholeskyFactor(row_shape=self.shape, lower=lower)

    @property
    def scale_tensor(self) -> SquareTensor:
        """Dense square-tensor view of the effective scale."""
        return unmatricize(self.scale_matrix, self.shape)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, kernel={self.kernel.name!r})"


@dataclass(frozen=True, eq=False, repr=False, init=False)
class TensorNormalParams(EllipticalParams):
    """Tensor normal law: the elliptical law with the Gaussian kernel."""

    def __init__(self, location: DenseTensor, scale: ScaleSpec):
        super().__init__(location, scale, NormalKernel())


# The operators _mode_product applies along each mode with the lower
# factors, whose Kronecker product is L: rows of L x, and of L^-1 x.
def _times_lower(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x @ low.T


def _solve_lower(low: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.linalg.solve(low, x.T).T


def _require_params(p: EllipticalParams, name: str = "params") -> None:
    # Every density, sampler and comparison refuses a params argument of the
    # wrong kind before it reads any attribute of it.
    if not isinstance(p, EllipticalParams):
        raise TypeError(f"{name} must be an EllipticalParams, got {type(p).__name__}")


def _point_rows(p: EllipticalParams, x: DenseTensor) -> np.ndarray:
    if not isinstance(x, DenseTensor):
        raise TypeError(f"point must be a DenseTensor, got {type(x).__name__}")
    if x.shape != p.location.shape:
        raise ShapeError(
            f"point shape {x.shape} does not match parameter shape {p.location.shape}"
        )
    return vec(x)[None, :]


def _batch_rows(p: EllipticalParams, points) -> np.ndarray:
    if isinstance(points, (DenseTensor, SquareTensor)):
        raise TypeError(
            f"points must be an (N, {p.nstar}) array whose rows are vec of each point, "
            f"got a {type(points).__name__}"
        )
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != p.nstar:
        raise ShapeError(f"points must have shape (N, {p.nstar}), got {pts.shape}")
    _require_finite(pts)
    return pts


def _log_normalizer(p: EllipticalParams, kernel: RadialKernel) -> float:
    value = kernel.log_norm_constant(p.nstar) - 0.5 * p.log_det
    if not math.isfinite(value):
        raise ValueError("normalizing constant is not finite and positive")
    return value


def _log_densities(p: EllipticalParams, kernel: RadialKernel, rows: np.ndarray) -> np.ndarray:
    # log c + log g(q) for each (N, nstar) row under ``kernel`` with ``p``'s
    # location and scale.  Each row's deviation is whitened by solves
    # against the factors (never an explicit inverse), then q is one
    # contiguous dot per row: the same bits as ``z @ z`` of that row alone.
    # Every row is finite, so a NaN q means the deviation overflowed: q is
    # then +inf, where both kernels' log g is -inf.
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.ascontiguousarray(_mode_product(rows - vec(p.location), p._lowers, _solve_lower))
        q = np.vecdot(z, z)
    q[np.isnan(q)] = np.inf
    return _log_normalizer(p, kernel) + kernel.log_g(q, p.nstar)


def _density_from_log(log_density: float) -> float:
    # The linear density; inf once it overflows, as ``linalg.det`` gives.
    with np.errstate(over="ignore"):
        return float(np.exp(log_density))


def normal_log_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Log-density at ``x`` of the tensor normal with ``p``'s location and scale.

    The normal kernel's case of :func:`elliptical_log_density`, whatever
    ``p``'s kernel, and the one-point case of
    :func:`normal_log_density_batch`.
    """
    _require_params(p)
    return float(_log_densities(p, NormalKernel(), _point_rows(p, x))[0])


def normal_log_density_vec_oracle(p: EllipticalParams, x: DenseTensor) -> float:
    """Classical multivariate-normal log-density on the vectorized point.

    Re-derives the determinant (LU ``slogdet``) and the quadratic form (LU
    solve) from the scale matricization instead of using the cached
    Cholesky factor.  It exists as the independent reference path for the
    contraction-based density and is public for exactly that reason.
    """
    _require_params(p)
    m = p.scale_matrix
    diff = _point_rows(p, x)[0] - vec(p.location)
    _sign, log_det = np.linalg.slogdet(m)
    q = float(diff @ np.linalg.solve(m, diff))
    return -0.5 * (p.nstar * LN_2PI + float(log_det) + q)


def normal_log_density_batch(p: EllipticalParams, points: np.ndarray) -> np.ndarray:
    """Vectorized normal log-density over rows of ``points`` (vectorized tensors).

    The normal kernel's case of :func:`elliptical_log_density_batch`,
    whatever ``p``'s kernel.  All rows are whitened in one pass over the
    factors, and a row's value does not depend on the rows around it.  The
    one exception is a single row against a factor that spans all of
    ``nstar`` (a dense scale): LAPACK solves its lone right-hand side with a
    kernel that can round an ulp apart from the batch's.
    """
    _require_params(p)
    return _log_densities(p, NormalKernel(), _batch_rows(p, points))


def normal_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Linear-space density: the exponential of the log form, ``inf`` once it overflows."""
    return _density_from_log(normal_log_density(p, x))


def _sample(p: EllipticalParams, kernel: RadialKernel, seed: RngSeed, count: int) -> SampleSet:
    # location + W L^T, with W the kernel's standardized draws.
    if not isinstance(seed, RngSeed):
        raise TypeError(f"seed must be an RngSeed, got {type(seed).__name__}")
    if count < 0:
        raise ValueError("count must be non-negative")
    w = kernel._standard_draws(seed.generator(), p.nstar, count)
    # A radial variable that overflows (Student-t with tiny nu) would turn
    # into rows of NaN in the product below.
    if not np.isfinite(w).all():
        raise UnsupportedKernelError(
            f"{kernel!r} drew a non-finite standardized value at nstar={p.nstar}; "
            "its radial variable overflows float64"
        )
    rows = _mode_product(w, p._lowers, _times_lower)
    rows += vec(p.location)
    return SampleSet._wrap(rows, p.shape)


def normal_sample(p: EllipticalParams, seed: RngSeed, count: int) -> SampleSet:
    """Draw ``count`` tensors: location plus the Cholesky image of white noise.

    Uses the Gaussian law of ``p``'s location and scale, whatever its
    kernel, with the factors applied as in :func:`elliptical_sample`.
    Deterministic for a given ``(seed, stream)``: identical inputs yield
    bit-identical sample sets.
    """
    _require_params(p)
    return _sample(p, NormalKernel(), seed, count)


def elliptical_log_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Log-density ``log c + log g(q)`` of the elliptical law at ``x``.

    The one-point case of :func:`elliptical_log_density_batch`.
    """
    _require_params(p)
    return float(_log_densities(p, p.kernel, _point_rows(p, x))[0])


def elliptical_log_density_batch(p: EllipticalParams, points: np.ndarray) -> np.ndarray:
    """Log-density of ``p``'s law over rows of ``points`` (vectorized tensors).

    Whitens all rows in one pass over the factors, as
    :func:`normal_log_density_batch` does, and applies ``p``'s kernel to
    the array of quadratic forms.
    """
    _require_params(p)
    return _log_densities(p, p.kernel, _batch_rows(p, points))


def elliptical_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Linear-space density: the exponential of the log form, ``inf`` once it overflows."""
    return _density_from_log(elliptical_log_density(p, x))


def elliptical_sample(p: EllipticalParams, seed: RngSeed, count: int) -> SampleSet:
    """Draw ``count`` tensors from ``p``'s law: location + L w.

    ``L`` is the Cholesky factor of the scale matricization and ``w`` the
    kernel's standardized draw: ``R * u`` with ``u`` uniform on the unit
    sphere in ``nstar`` dimensions and ``R`` the kernel's radial variable,
    or white noise for the normal kernel.  The rows are ``W L^T`` with
    ``L`` the Kronecker product of the params' lower factors, applied one
    mode at a time and never assembled: a dense scale or a one-factor
    Kronecker scale gives the same bytes, while a Kronecker scale of
    several modes matches its assembled dense scale within rounding.
    Kernels without a registered sampler raise
    :class:`UnsupportedKernelError`.
    """
    _require_params(p)
    return _sample(p, p.kernel, seed, count)


def fit_normal(s: SampleSet, normalization: str = "unbiased") -> TensorNormalParams:
    """Moment fit: sample mean as location, sample covariance as dense scale.

    Never regularizes silently: a rank-deficient sample covariance raises
    a :class:`DefinitenessError` suggesting an explicit ridge instead.
    """
    if len(_set_rows(s)) < 2:
        raise ValueError("fitting requires at least two observations")
    loc = mean_tensor(s)
    cov = cross_covariance(s, s, normalization).value
    try:
        return TensorNormalParams(location=loc, scale=cov)
    except DefinitenessError as e:
        raise DefinitenessError(
            f"sample covariance is not positive definite ({e}); add an explicit "
            "ridge eps to its diagonal and construct the parameters directly if "
            "a usable fit is required",
            pivot=e.pivot,
        ) from None


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of comparing two parameterizations over a probe batch."""

    probes: int
    max_abs_deviation: float
    tolerance: float
    passed: bool


def kronecker_equivalence_check(
    dense: TensorNormalParams,
    structured: TensorNormalParams,
    probes: int = 100,
    seed: RngSeed = RngSeed(0),
    tolerance: float = 1e-10,
) -> EquivalenceReport:
    """Compare dense and Kronecker-structured log-densities pointwise.

    Probe points are drawn from the dense parameterization; the report
    carries the largest absolute log-density deviation observed.
    """
    _require_params(dense, "dense")
    _require_params(structured, "structured")
    if dense.shape != structured.shape:
        raise ShapeError(
            f"parameter shapes {dense.shape} and {structured.shape} do not match"
        )
    if probes < 1:
        raise ValueError(f"probes must be at least 1, got {probes}")
    # A NaN tolerance would fail every comparison, a negative one any.
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance!r}")
    points = normal_sample(dense, seed, probes).to_matrix()
    devs = np.abs(
        normal_log_density_batch(dense, points) - normal_log_density_batch(structured, points)
    )
    # np.max propagates NaN, so a NaN deviation is reported and fails.
    worst = float(np.max(devs, initial=0.0))
    return EquivalenceReport(
        probes=probes,
        max_abs_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
