"""Monte-Carlo and invariant verification harness behind ``tensorstat verify``.

Runs the full battery of algebraic identities (matricization, determinant,
inverse, Kronecker assembly), estimator identities (covariance and
correlation contracts) and distributional checks (density equivalence,
normalization, moment recovery, elliptical consistency, determinism) at a
configurable shape, sample size and seed.  Every check reports its observed
deviation against a fixed tolerance; the report is deterministic given the
configuration.  A NaN deviation, from any instance of a check, fails it.

Each check draws from its own seed substream, so results do not depend on
the order checks run in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .distributions import (
    LN_2PI,
    EllipticalParams,
    NormalKernel,
    RngSeed,
    StudentKernel,
    TensorNormalParams,
    elliptical_log_density,
    elliptical_sample,
    kronecker_equivalence_check,
    normal_log_density,
    normal_log_density_batch,
    normal_log_density_vec_oracle,
    normal_sample,
)
from .linalg import KroneckerFactors, kronecker_assemble
from .stats import (
    SampleSet,
    correlation,
    covariance,
    covariance_of_vec,
    cross_covariance,
    mean_tensor,
)
from .tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    contract_product,
    double_dot_quadratic,
    matricize,
    outer,
    transpose2d,
    unmatricize,
    vec,
)

__all__ = ["CheckResult", "VerifyReport", "run_verification", "CHECK_NAMES"]

# Instances used by the algebraic and identity suites; Monte-Carlo checks
# use the configured sample size instead.
INSTANCES = 200


@dataclass(frozen=True)
class CheckResult:
    """One verification check: observed deviation against its tolerance."""

    name: str
    passed: bool
    deviation: float
    tolerance: float
    samples: int

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status:4}  {self.name:<32} deviation={self.deviation:12.6e}  "
            f"tolerance={self.tolerance:8.1e}  n={self.samples}"
        )


@dataclass(frozen=True)
class VerifyReport:
    """Deterministic outcome of one full verification run."""

    shape: Shape
    n: int
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failed_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.results if not r.passed)

    def lines(self) -> list[str]:
        out = [f"shape={self.shape} n={self.n} seed={self.seed}"]
        out.extend(r.line() for r in self.results)
        n_pass = sum(r.passed for r in self.results)
        verdict = "PASSED" if self.passed else "FAILED"
        out.append(f"verification {verdict}: {n_pass}/{len(self.results)} checks passed")
        if not self.passed:
            out.append("failed checks: " + ", ".join(self.failed_names))
        return out


# ---------------------------------------------------------------------------
# random inputs


def _random_dense(rng: np.random.Generator, shape: Shape) -> DenseTensor:
    return DenseTensor._wrap(rng.standard_normal(shape.dims), shape)


def _random_square(rng: np.random.Generator, shape: Shape) -> SquareTensor:
    n = shape.nstar
    return unmatricize(rng.standard_normal((n, n)), shape)


def _random_well_conditioned(rng: np.random.Generator, shape: Shape) -> SquareTensor:
    # Singular values in [0.5, 2] keep every determinant identity far from
    # cancellation on the 1e-9 tolerance scale.
    n = shape.nstar
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = rng.uniform(0.5, 2.0, size=n)
    return unmatricize(q1 @ (svals[:, None] * q2), shape)


def _random_spd_matrix(rng: np.random.Generator, n: int, ridge: float = 0.5) -> np.ndarray:
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + ridge * np.eye(n)
    return 0.5 * (m + m.T)


def _random_spd(rng: np.random.Generator, shape: Shape) -> SquareTensor:
    return unmatricize(_random_spd_matrix(rng, shape.nstar), shape)


def _random_sample_set(rng: np.random.Generator, shape: Shape, n: int) -> SampleSet:
    # The same draws, in the same order, as n calls of _random_dense; each
    # observation's axes are reversed so a C-order row is its vec.
    z = rng.standard_normal((n,) + shape.dims)
    rows = z.transpose((0,) + tuple(range(shape.order, 0, -1))).reshape(n, shape.nstar)
    return SampleSet._wrap(rows, shape)


def _random_near(rng: np.random.Generator, loc: DenseTensor) -> DenseTensor:
    # A point one standard normal draw per cell away from ``loc``.
    return DenseTensor._wrap(loc.array + rng.standard_normal(loc.shape.dims), loc.shape)


def _pattern_params(shape: Shape) -> TensorNormalParams:
    # A linspace location and a unit-diagonal scale with constant
    # off-diagonal coupling 0.3, positive definite at every shape.
    m = np.full((shape.nstar, shape.nstar), 0.3)
    np.fill_diagonal(m, 1.0)
    location = DenseTensor(np.linspace(-1.0, 1.0, shape.nstar), shape)
    return TensorNormalParams(location, unmatricize(m, shape))


def _rel(diff: float, ref: float) -> float:
    # A NaN ref stays NaN: max keeps its first argument when a compare fails.
    return diff / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# checks: each takes (rng, shape, n), runs one instance and returns its
# (deviation, samples); the table below registers it with its tolerance
# and instance count.


def _check_mat_roundtrip(rng, shape, n):
    x = _random_square(rng, shape)
    return float(np.abs(unmatricize(matricize(x), shape).array - x.array).max()), 1


def _check_mat_linearity(rng, shape, n):
    x = _random_square(rng, shape)
    y = _random_square(rng, shape)
    alpha = float(rng.uniform(-2.0, 2.0))
    lhs = matricize(alpha * x + y)
    rhs = alpha * matricize(x) + matricize(y)
    return float(np.abs(lhs - rhs).max()), 1


def _check_mat_transpose(rng, shape, n):
    x = _random_square(rng, shape)
    return float(np.abs(matricize(transpose2d(x)) - matricize(x).T).max()), 1


def _check_mat_product(rng, shape, n):
    x = _random_square(rng, shape)
    y = _random_square(rng, shape)
    ref = matricize(x) @ matricize(y)
    got = matricize(contract_product(x, y))
    return _rel(float(np.linalg.norm(got - ref)), float(np.linalg.norm(ref))), 1


def _check_det_identity(rng, shape, n):
    return abs(linalg.det(SquareTensor.identity(shape)) - 1.0), 1


def _check_det_zero(rng, shape, n):
    return abs(linalg.det(SquareTensor.zeros(shape))), 1


def _check_det_scale(rng, shape, n):
    x = _random_well_conditioned(rng, shape)
    lam = float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))
    ref = lam**shape.nstar * linalg.det(x)
    return _rel(abs(linalg.det(lam * x) - ref), ref), 1


def _check_det_transpose(rng, shape, n):
    x = _random_well_conditioned(rng, shape)
    ref = linalg.det(x)
    return _rel(abs(linalg.det(transpose2d(x)) - ref), ref), 1


def _check_det_product(rng, shape, n):
    x = _random_well_conditioned(rng, shape)
    y = _random_well_conditioned(rng, shape)
    ref = linalg.det(x) * linalg.det(y)
    return _rel(abs(linalg.det(contract_product(x, y)) - ref), ref), 1


def _check_det_inverse(rng, shape, n):
    x = _random_well_conditioned(rng, shape)
    ref = 1.0 / linalg.det(x)
    return _rel(abs(linalg.det(linalg.inverse(x)) - ref), ref), 1


def _check_inverse_contract(rng, shape, n):
    x = _random_spd(rng, shape)
    inv = linalg.inverse(x)
    eye = SquareTensor.identity(shape).array
    sides = (contract_product(x, inv).array, contract_product(inv, x).array)
    return float(np.abs(np.stack(sides) - eye).max()), 1


def _check_kron_mode_scaling(rng, shape, n):
    # Pins the factor-order convention: the factor stored for mode 1 must
    # weight entries by their mode-1 index in the quadratic form.
    weights = np.arange(1.0, shape.dims[0] + 1.0)
    factors = (np.diag(weights),) + tuple(np.eye(nk) for nk in shape.dims[1:])
    assembled = kronecker_assemble(KroneckerFactors(factors))
    a = _random_dense(rng, shape)
    v = vec(a)
    got = float(v @ assembled @ v)
    ref = float(np.sum(weights.reshape((-1,) + (1,) * (shape.order - 1)) * a.array**2))
    return _rel(abs(got - ref), ref), 1


def _check_kron_quadratic_form(rng, shape, n):
    factors = KroneckerFactors(tuple(_random_spd_matrix(rng, nk) for nk in shape.dims))
    assembled = kronecker_assemble(factors)
    a = _random_dense(rng, shape)
    v = vec(a)
    ref = float(v @ assembled @ v)
    got = double_dot_quadratic(a, unmatricize(assembled, shape), a)
    return _rel(abs(got - ref), ref), 1


def _check_kron_equivalence(rng, shape, n):
    factors = KroneckerFactors(tuple(_random_spd_matrix(rng, nk) for nk in shape.dims))
    loc = _random_dense(rng, shape)
    dense = TensorNormalParams(loc, unmatricize(kronecker_assemble(factors), shape))
    structured = TensorNormalParams(loc, factors)
    report = kronecker_equivalence_check(
        dense, structured, probes=10, seed=RngSeed(int(rng.integers(2**63)), 0)
    )
    return report.max_abs_deviation, report.probes


def _check_cov_mat_consistency(rng, shape, n):
    s = _random_sample_set(rng, shape, int(rng.integers(3, 51)))
    return float(np.abs(matricize(covariance(s).value) - covariance_of_vec(s)).max()), 1


def _check_cov_moment_identity(rng, shape, n):
    s = _random_sample_set(rng, shape, int(rng.integers(3, 51)))
    mean = mean_tensor(s)
    acc = np.zeros(shape.dims * 2, order="F")
    for t in s:
        acc += np.multiply.outer(t.array, t.array)
    ref = acc / len(s) - np.asarray(outer(mean, mean).array)
    return float(np.abs(covariance(s, "mle").value.array - ref).max()), 1


def _check_cov_sum_expansion(rng, shape, n):
    count = int(rng.integers(3, 51))
    sx = _random_sample_set(rng, shape, count)
    sy = _random_sample_set(rng, shape, count)
    sz = SampleSet._wrap(sx.to_matrix() + sy.to_matrix(), shape)
    total = covariance(sz).value.array
    parts = (
        covariance(sx).value.array
        + cross_covariance(sx, sy).value.array
        + cross_covariance(sy, sx).value.array
        + covariance(sy).value.array
    )
    return float(np.abs(total - parts).max()), 1


def _check_cov_index_swap(rng, shape, n):
    count = int(rng.integers(3, 51))
    sx = _random_sample_set(rng, shape, count)
    sy = _random_sample_set(rng, shape, count)
    kxy = matricize(cross_covariance(sx, sy).value)
    kyx = matricize(cross_covariance(sy, sx).value)
    return float(np.abs(kxy - kyx.T).max()), 1


def _check_corr_unit_diagonal(rng, shape, n):
    s = _random_sample_set(rng, shape, int(rng.integers(3, 51)))
    return float(np.abs(np.diag(matricize(correlation(s).value)) - 1.0).max()), 1


def _check_corr_bounds(rng, shape, n):
    s = _random_sample_set(rng, shape, int(rng.integers(3, 51)))
    r = matricize(correlation(s).value)
    return float(np.maximum(np.abs(r).max() - 1.0, 0.0)), 1


def _check_independence(rng, shape, n):
    base = int(rng.integers(2**63))
    p = TensorNormalParams(DenseTensor.zeros(shape), SquareTensor.identity(shape))
    sx = normal_sample(p, RngSeed(base, 0), n)
    sy = normal_sample(p, RngSeed(base, 1), n)
    k = matricize(cross_covariance(sx, sy).value)
    return float(np.abs(k).max()), n


def _check_density_equivalence(rng, shape, n):
    loc = _random_dense(rng, shape)
    p = TensorNormalParams(loc, _random_spd(rng, shape))
    x = _random_near(rng, loc)
    return abs(normal_log_density(p, x) - normal_log_density_vec_oracle(p, x)), 1


def _check_density_normalization(rng, shape, n):
    # Fixed two-cell grid quadrature regardless of the configured shape:
    # the property is about the density normalizer, not the shape.
    grid_shape = Shape((2,))
    p = TensorNormalParams(
        DenseTensor.zeros(grid_shape),
        unmatricize(np.array([[1.0, 0.3], [0.3, 1.0]]), grid_shape),
    )
    # The trapezoid rule converges geometrically on a smooth, fast-decaying
    # integrand: step 0.08 gives the same bits as step 0.01 (a test checks).
    axis = np.linspace(-8.0, 8.0, 201)
    # (x_i, y_j) rows, x slowest.
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = np.exp(normal_log_density_batch(p, pts)).reshape(axis.size, axis.size)
    integral = float(np.trapezoid(np.trapezoid(dens, axis, axis=1), axis))
    return abs(integral - 1.0), axis.size**2


def _check_moment_recovery_mean(rng, shape, n):
    p = _pattern_params(shape)
    s = normal_sample(p, RngSeed(int(rng.integers(2**63)), 0), n)
    dev = np.abs(mean_tensor(s).array - p.location.array)
    return float(dev.max()), n


def _check_moment_recovery_cov(rng, shape, n):
    p = _pattern_params(shape)
    s = normal_sample(p, RngSeed(int(rng.integers(2**63)), 0), n)
    dev = np.abs(covariance(s).value.array - p.scale_tensor.array)
    return float(dev.max()), n


def _check_elliptical_normal(rng, shape, n):
    # The kernel route, normal kernel, against the paper's tensor form of
    # the Gaussian density: the double-dot quadratic form of the deviation
    # with the inverse scale, and the LU log-determinant of the scale.
    loc = _random_dense(rng, shape)
    scale = _random_spd(rng, shape)
    pe = EllipticalParams(loc, scale, NormalKernel())
    x = _random_near(rng, loc)
    d = x - loc
    q = double_dot_quadratic(d, linalg.inverse(scale), d)
    _sign, log_det = linalg.slogdet(scale)
    ref = -0.5 * (shape.nstar * LN_2PI + log_det + q)
    return abs(elliptical_log_density(pe, x) - ref), 1


def _check_elliptical_student_cov(rng, shape, n):
    count = 2 * n
    kernel = StudentKernel(nu=5.0)
    p = EllipticalParams(
        DenseTensor.zeros(shape), SquareTensor.identity(shape), kernel
    )
    s = elliptical_sample(p, RngSeed(int(rng.integers(2**63)), 0), count)
    proportionality = kernel.covariance_scale(shape.nstar)
    expected = proportionality * SquareTensor.identity(shape).array
    dev = np.abs(covariance(s).value.array - expected)
    return float(dev.max()), count


def _check_sampling_determinism(rng, shape, n):
    p = _pattern_params(shape)
    seed = RngSeed(int(rng.integers(2**63)), 3)
    factors = KroneckerFactors(tuple(_random_spd_matrix(rng, nk) for nk in shape.dims))
    student = StudentKernel(nu=5.0)
    # Dense scales sample through the dense Cholesky factor, Kronecker
    # scales one mode at a time; both must repeat bit for bit.
    cases = (
        (normal_sample, p),
        (elliptical_sample, EllipticalParams(p.location, p.scale_tensor, student)),
        (elliptical_sample, EllipticalParams(p.location, factors, NormalKernel())),
        (elliptical_sample, EllipticalParams(p.location, factors, student)),
    )
    for draw, params in cases:
        a = draw(params, seed, 64).to_matrix()
        b = draw(params, seed, 64).to_matrix()
        if not np.array_equal(a, b):
            return float(np.abs(a - b).max()), 64
    return 0.0, 64


# name, tolerance, instances, check; the position in this table picks the
# check's seed substream
_CHECKS: tuple[tuple[str, float, int, Callable], ...] = (
    ("mat-roundtrip", 0.0, INSTANCES, _check_mat_roundtrip),
    ("mat-linearity", 0.0, INSTANCES, _check_mat_linearity),
    ("mat-transpose", 0.0, INSTANCES, _check_mat_transpose),
    ("mat-product", 1e-12, INSTANCES, _check_mat_product),
    ("det-identity", 0.0, 1, _check_det_identity),
    ("det-zero", 0.0, 1, _check_det_zero),
    ("det-scale", 1e-9, INSTANCES, _check_det_scale),
    ("det-transpose", 1e-10, INSTANCES, _check_det_transpose),
    ("det-product", 1e-9, INSTANCES, _check_det_product),
    ("det-inverse", 1e-9, INSTANCES, _check_det_inverse),
    ("inverse-contract", 1e-10, INSTANCES, _check_inverse_contract),
    ("kronecker-mode-scaling", 1e-12, INSTANCES, _check_kron_mode_scaling),
    ("kronecker-quadratic-form", 1e-12, INSTANCES, _check_kron_quadratic_form),
    ("kronecker-equivalence", 1e-10, 10, _check_kron_equivalence),
    ("cov-mat-consistency", 1e-12, INSTANCES, _check_cov_mat_consistency),
    ("cov-moment-identity", 1e-12, INSTANCES, _check_cov_moment_identity),
    ("cov-sum-expansion", 1e-12, INSTANCES, _check_cov_sum_expansion),
    ("cov-index-swap", 0.0, INSTANCES, _check_cov_index_swap),
    ("corr-unit-diagonal", 0.0, INSTANCES, _check_corr_unit_diagonal),
    ("corr-bounds", 1e-12, INSTANCES, _check_corr_bounds),
    ("independence-zero-crosscov", 0.02, 1, _check_independence),
    ("density-equivalence", 1e-10, INSTANCES, _check_density_equivalence),
    ("density-normalization", 1e-3, 1, _check_density_normalization),
    ("moment-recovery-mean", 0.02, 1, _check_moment_recovery_mean),
    ("moment-recovery-cov", 0.05, 1, _check_moment_recovery_cov),
    ("elliptical-normal-consistency", 1e-12, INSTANCES, _check_elliptical_normal),
    ("elliptical-student-covariance", 0.1, 1, _check_elliptical_student_cov),
    ("sampling-determinism", 0.0, 1, _check_sampling_determinism),
)

CHECK_NAMES = tuple(row[0] for row in _CHECKS)


def _run_check(index: int, seed: int, shape: Shape, n: int) -> tuple[float, int]:
    # Runs the check's instances on its substream and reports the largest
    # deviation, NaN if any instance gave NaN, and the summed samples.
    _name, _tolerance, instances, check = _CHECKS[index]
    rng = RngSeed(seed, index).generator()
    devs, samples = zip(*(check(rng, shape, n) for _ in range(instances)))
    return float(np.max(devs)), sum(samples)


def run_verification(
    shape: Shape,
    n: int = 100_000,
    seed: int = 1729,
    corrupt: Optional[str] = None,
) -> VerifyReport:
    """Run every check at the given shape, sample size and seed.

    ``corrupt`` is a test hook that marks the named check failed, with a
    deviation above its tolerance, so the failure reporting path can be
    exercised; leave it ``None`` in real runs.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if corrupt is not None and corrupt not in CHECK_NAMES:
        raise ValueError(f"unknown check {corrupt!r}; known checks: {', '.join(CHECK_NAMES)}")
    results = []
    for index, (name, tolerance, _instances, _check) in enumerate(_CHECKS):
        deviation, samples = _run_check(index, seed, shape, n)
        if corrupt == name:
            deviation = tolerance + max(1.0, tolerance)
        results.append(
            CheckResult(
                name=name,
                passed=deviation <= tolerance,
                deviation=deviation,
                tolerance=tolerance,
                samples=samples,
            )
        )
    return VerifyReport(shape=shape, n=n, seed=seed, results=tuple(results))
