"""Tensor normal and elliptical distributions over dense tensors.

A tensor is normally distributed exactly when its vectorization is
multivariate normal with the matricized scale as covariance; the density
can equivalently be written through the double-dot quadratic form of the
deviation against the inverse scale.  Both routes live here: the fast
path computes the quadratic form through a cached Cholesky factor (one
triangular solve, never an explicit inverse), and a deliberately
independent vec-space oracle re-derives everything through LU so the
equivalence stays testable.

The elliptical family generalizes the normal by a pluggable radial kernel
``g``; densities are ``c * g(q)`` with the determinant factor folded into
the cached normalizer.  The tensor normal is the elliptical law with
``g(q) = exp(-q/2)``, so its parameters are elliptical parameters with the
normal kernel.  All densities are computed and exposed in log
space, since the linear density underflows quickly as ``nstar`` grows;
linear-space wrappers are thin exponentials.

Scales may be dense square tensors or per-mode Kronecker factor lists.
A Kronecker scale stays factored: its log-determinant and quadratic forms
come from one Cholesky factor per mode, and the dense matricization is
assembled only for what needs it (sampling, the oracle, the dense scale
accessors).  Both parameterizations describe one effective matricization,
and ``kronecker_equivalence_check`` compares their densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DefinitenessError, ShapeError, SymmetryError, UnsupportedKernelError
from .linalg import (
    SYMMETRY_TOL,
    CholeskyFactor,
    KroneckerFactors,
    _solve_lower,
    cholesky_lower,
    kronecker_assemble,
)
from .stats import SampleSet, covariance, mean_tensor
from .tensor_core import DenseTensor, Shape, SquareTensor, matricize, unmatricize, vec

__all__ = [
    "ScaleSpec",
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
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if int(self.stream) < 0:
            raise ValueError("stream index must be non-negative")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream),)
        )
        return np.random.default_rng(ss)


class RadialKernel:
    """Radial profile ``g`` of an elliptical density.

    ``g`` must be positive and decreasing on ``[0, inf)``.  The normalizing
    constant returned by :meth:`log_norm_constant` excludes the determinant
    factor, which the parameter object folds in, so the kernel depends only
    on the scalar quadratic form.  Kernels without a registered radial
    sampler can still evaluate densities.
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
        # Rows of the standardized law (identity scale, zero location):
        # R * u with u uniform on the unit sphere and R the radial variable.
        z = rng.standard_normal((count, nstar))
        u = z / np.linalg.norm(z, axis=1, keepdims=True) if count else z
        r = np.asarray(self.sample_radius(rng, nstar, count), dtype=np.float64)
        return r[:, None] * u


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
        # inf - inf here; ask for the normal kernel instead.
        if not (self.nu > 0 and math.isfinite(self.nu)):
            raise UnsupportedKernelError(
                f"student kernel requires finite nu > 0, got {self.nu!r}"
            )

    def log_g(self, q, nstar: int):
        return -0.5 * (self.nu + nstar) * np.log1p(q / self.nu)

    def log_norm_constant(self, nstar: int) -> float:
        from scipy.special import gammaln

        # Python floats: for nu beyond ~5e305 both gammaln terms are inf,
        # and inf - inf must reach the caller's finiteness check as a NaN,
        # not as a numpy RuntimeWarning.
        return (
            float(gammaln(0.5 * (self.nu + nstar)))
            - float(gammaln(0.5 * self.nu))
            - 0.5 * nstar * math.log(self.nu * math.pi)
        )

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


def _check_scale(location: DenseTensor, scale: ScaleSpec) -> None:
    if isinstance(scale, KroneckerFactors):
        if scale.shape != location.shape:
            raise ShapeError(
                f"factor sizes {scale.shape} do not match location shape {location.shape}"
            )
    elif isinstance(scale, SquareTensor):
        if scale.row_shape != location.shape:
            raise ShapeError(
                f"scale row shape {scale.row_shape} does not match location shape "
                f"{location.shape}"
            )
        m = matricize(scale)
        asym = float(np.abs(m - m.T).max())
        if asym > SYMMETRY_TOL:
            raise SymmetryError(
                f"scale matricization is not symmetric: max |m - m.T| = {asym:.3e}"
            )
    else:
        raise TypeError(
            f"scale must be a SquareTensor or KroneckerFactors, got {type(scale).__name__}"
        )


def _factor_choleskys(scale: ScaleSpec):
    # Lower Cholesky factor of each symmetrized Kronecker factor, or None
    # for a dense scale or a factor that is not positive definite (the
    # product may still be, as for (-A, -B); the dense route decides).
    if not isinstance(scale, KroneckerFactors):
        return None
    lowers = []
    for a in scale.factors:
        try:
            lowers.append(np.linalg.cholesky(0.5 * (a + a.T)))
        except np.linalg.LinAlgError:
            return None
    return tuple(lowers)


class EllipticalParams:
    """Location, scale and radial kernel of a tensor elliptical law.

    A dense scale is symmetrized and Cholesky-factored here.  A Kronecker
    scale is kept factored: each mode's factor gets its own Cholesky
    factor, the log-determinant is ``sum_k (nstar / n_k) log det A_k`` and
    quadratic forms whiten the deviation one mode at a time, so building
    the parameters and evaluating a density never form the ``nstar x
    nstar`` matricization.  That dense matrix and its Cholesky factor are
    built on first use (:attr:`scale_matrix`, :attr:`scale_tensor`,
    :attr:`chol`: the sampler and the vec-space oracle) and cached.  The
    :attr:`log_normalizer` already includes the determinant factor of the
    scale, so the kernel's ``log_g`` sees only the scalar quadratic form;
    it too is computed on first use, since sampling never needs it.
    Instances are immutable after construction.
    """

    __slots__ = (
        "location", "scale", "kernel", "log_det",
        "_mode_lowers", "_scale_matrix", "_chol", "_log_normalizer",
    )

    def __init__(self, location: DenseTensor, scale: ScaleSpec, kernel: RadialKernel):
        _check_scale(location, scale)
        self.location = location
        self.scale = scale
        self.kernel = kernel
        self._scale_matrix = None
        self._chol = None
        self._log_normalizer = None
        self._mode_lowers = _factor_choleskys(scale)
        if self._mode_lowers is None:
            self.log_det = self.chol.log_det
        else:
            nstar = location.shape.nstar
            self.log_det = sum(
                (nstar // low.shape[0]) * 2.0 * float(np.sum(np.log(np.diag(low))))
                for low in self._mode_lowers
            )

    @property
    def shape(self) -> Shape:
        return self.location.shape

    @property
    def nstar(self) -> int:
        return self.location.shape.nstar

    @property
    def log_normalizer(self) -> float:
        """Log of the density's constant factor, determinant included."""
        if self._log_normalizer is None:
            value = self.kernel.log_norm_constant(self.nstar) - 0.5 * self.log_det
            if not math.isfinite(value):
                raise ValueError("normalizing constant is not finite and positive")
            self._log_normalizer = value
        return self._log_normalizer

    @property
    def scale_matrix(self) -> np.ndarray:
        """Effective (symmetrized) matricization of the scale, built on first use."""
        if self._scale_matrix is None:
            if isinstance(self.scale, KroneckerFactors):
                eff = kronecker_assemble(self.scale)
            else:
                eff = matricize(self.scale)
            sym = eff + eff.T
            del eff
            sym *= 0.5
            sym.flags.writeable = False
            self._scale_matrix = sym
        return self._scale_matrix

    @property
    def chol(self) -> CholeskyFactor:
        """Cholesky factor of :attr:`scale_matrix`, built on first use."""
        if self._chol is None:
            lower = cholesky_lower(self.scale_matrix)
            self._chol = CholeskyFactor(row_shape=self.shape, lower=lower)
        return self._chol

    @property
    def scale_tensor(self) -> SquareTensor:
        """Dense square-tensor view of the effective scale."""
        return unmatricize(self.scale_matrix, self.shape)

    def _whiten(self, dev: np.ndarray) -> np.ndarray:
        # Solve L z = dev for vec-order columns ``dev`` (shape (nstar,) or
        # (nstar, N)).  A Kronecker scale's L is the Kronecker product of
        # the per-mode factors, so the solve runs along each mode of the
        # column-major multi-index array in turn.
        if self._mode_lowers is None:
            return self.chol.solve_lower(dev)
        z = dev.reshape(self.shape.dims + dev.shape[1:], order="F")
        for mode, low in enumerate(self._mode_lowers):
            moved = np.moveaxis(z, mode, 0)
            solved = _solve_lower(low, moved.reshape(low.shape[0], -1))
            z = np.moveaxis(solved.reshape(moved.shape), 0, mode)
        return z.reshape(dev.shape, order="F")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, kernel={self.kernel.name!r})"


class TensorNormalParams(EllipticalParams):
    """Tensor normal law: the elliptical law with the Gaussian kernel."""

    __slots__ = ()

    def __init__(self, location: DenseTensor, scale: ScaleSpec):
        super().__init__(location, scale, NormalKernel())


def _deviation(p, x: DenseTensor) -> np.ndarray:
    if x.shape != p.location.shape:
        raise ShapeError(
            f"point shape {x.shape} does not match parameter shape {p.location.shape}"
        )
    return vec(x) - vec(p.location)


def _quadratic_form(p: EllipticalParams, x: DenseTensor) -> float:
    # Deviation against the inverse scale through the cached Cholesky
    # factors (triangular solves); the explicit inverse is never formed.
    z = p._whiten(_deviation(p, x))
    return float(z @ z)


def normal_log_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Log-density at ``x`` of the tensor normal with ``p``'s location and scale.

    The Gaussian formula is used whatever ``p``'s kernel, which keeps it
    an independent reference for :func:`elliptical_log_density` with the
    normal kernel.
    """
    q = _quadratic_form(p, x)
    return -0.5 * (p.nstar * LN_2PI + p.log_det + q)


def normal_log_density_vec_oracle(p: EllipticalParams, x: DenseTensor) -> float:
    """Classical multivariate-normal log-density on the vectorized point.

    Re-derives the determinant (LU ``slogdet``) and the quadratic form (LU
    solve) from the scale matricization instead of using the cached
    Cholesky factor.  It exists as the independent reference path for the
    contraction-based density and is public for exactly that reason.
    """
    m = p.scale_matrix
    diff = _deviation(p, x)
    _sign, log_det = np.linalg.slogdet(m)
    q = float(diff @ np.linalg.solve(m, diff))
    return -0.5 * (p.nstar * LN_2PI + float(log_det) + q)


def normal_log_density_batch(p: EllipticalParams, points: np.ndarray) -> np.ndarray:
    """Vectorized log-density over rows of ``points`` (vectorized tensors).

    Matches :func:`normal_log_density` point for point; exists so grids and
    Monte-Carlo batches do not pay one Python call per point.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != p.nstar:
        raise ShapeError(f"points must have shape (N, {p.nstar}), got {pts.shape}")
    z = p._whiten((pts - vec(p.location)).T)
    q = np.einsum("ij,ij->j", z, z)
    return -0.5 * (p.nstar * LN_2PI + p.log_det + q)


def normal_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Linear-space density; thin exponential wrapper over the log form."""
    return math.exp(normal_log_density(p, x))


def _sample(p: EllipticalParams, kernel: RadialKernel, seed: RngSeed, count: int) -> SampleSet:
    # location + W L^T, with W the kernel's standardized draws.
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
    return SampleSet._wrap(vec(p.location) + w @ p.chol.lower.T, p.shape)


def normal_sample(p: EllipticalParams, seed: RngSeed, count: int) -> SampleSet:
    """Draw ``count`` tensors: location plus the Cholesky image of white noise.

    Uses the Gaussian law of ``p``'s location and scale, whatever its
    kernel.  Deterministic for a given ``(seed, stream)``: identical inputs
    yield bit-identical sample sets.
    """
    return _sample(p, NormalKernel(), seed, count)


def elliptical_log_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Log-density ``log c + log g(q)`` of the elliptical law at ``x``."""
    return p.log_normalizer + float(p.kernel.log_g(_quadratic_form(p, x), p.nstar))


def elliptical_density(p: EllipticalParams, x: DenseTensor) -> float:
    """Linear-space density; thin exponential wrapper over the log form."""
    return math.exp(elliptical_log_density(p, x))


def elliptical_sample(p: EllipticalParams, seed: RngSeed, count: int) -> SampleSet:
    """Draw ``count`` tensors from ``p``'s law: location + L w.

    ``L`` is the Cholesky factor of the scale matricization and ``w`` the
    kernel's standardized draw: ``R * u`` with ``u`` uniform on the unit
    sphere in ``nstar`` dimensions and ``R`` the kernel's radial variable,
    or white noise for the normal kernel.  Kernels without a registered
    sampler raise :class:`UnsupportedKernelError`.
    """
    return _sample(p, p.kernel, seed, count)


def fit_normal(s: SampleSet, normalization: str = "unbiased") -> TensorNormalParams:
    """Moment fit: sample mean as location, sample covariance as dense scale.

    Never regularizes silently: a rank-deficient sample covariance raises
    a :class:`DefinitenessError` suggesting an explicit ridge instead.
    """
    if len(s) < 2:
        raise ValueError("fitting requires at least two observations")
    loc = mean_tensor(s)
    cov = covariance(s, normalization)
    try:
        return TensorNormalParams(location=loc, scale=cov.value)
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
    if dense.shape != structured.shape:
        raise ShapeError(
            f"parameter shapes {dense.shape} and {structured.shape} do not match"
        )
    points = normal_sample(dense, seed, probes)
    worst = 0.0
    for x in points:
        dev = abs(normal_log_density(dense, x) - normal_log_density(structured, x))
        worst = max(worst, dev)
    return EquivalenceReport(
        probes=probes,
        max_abs_deviation=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
