"""Monte-Carlo and invariant verification harness behind ``tensorstat verify``.

Runs the full battery of algebraic identities (matricization, determinant,
inverse, Kronecker assembly), estimator identities (covariance and
correlation contracts) and distributional checks (density equivalence,
normalization, moment recovery, elliptical consistency, determinism) at a
configurable shape, sample size and seed.  Every check reports its observed
deviation against a fixed tolerance; the report is deterministic given the
configuration.  A NaN deviation, from any instance of a check, fails it.

Each check draws from its own seed substream, so results do not depend on
the order checks run in.  A check names the draws one instance is made of
and an evaluation over a stack of instances: ``_run_check`` draws the
instances in order, in batches bounded in bytes, and evaluates each batch in
one call through the stacked forms of the library's own routines.
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
    _correlations,
    _cross_covariances,
    _vec_covariances,
    cross_covariance,
    mean_tensor,
)
from .tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    _contract_stack,
    _double_dot_stack,
    _integer,
    _kron_stack,
    _matricize_stack,
    _reshape_each,
    _transpose2d_stack,
    _unmatricize_stack,
    matricize,
    unmatricize,
)

__all__ = ["CheckResult", "VerifyReport", "run_verification", "CHECK_NAMES"]

# Instances used by the algebraic and identity suites; Monte-Carlo checks
# use the configured sample size instead.
INSTANCES = 200

# Bytes of instances evaluated as one stack (see _instance_bytes).  At 2x2
# every check evaluates all its instances at once; a 16x16 square tensor
# takes 512 KiB, so large shapes hold a few instances at a time, never all
# 200.
BATCH_BYTES = 4 << 20

# Probe points per kronecker-equivalence instance, draws per repeat in
# sampling-determinism, and density-normalization's grid points per axis.
PROBES = 10
REPEAT_DRAWS = 64
GRID = 201


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
# helpers that build inputs


def _well_conditioned(g: np.ndarray, svals: np.ndarray) -> np.ndarray:
    # Q diag(s) for stacks of _draw_well_conditioned's draws, Q the QR factor
    # of g: Q^T Q = I keeps the singular values exactly s, in [0.5, 2], far
    # from cancellation on the 1e-9 tolerance scale of every det identity.
    q, _ = np.linalg.qr(g)
    return q * svals[:, None, :]


def _random_spd_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T / n + 0.5 * np.eye(n)


def _random_rows(rng: np.random.Generator, shape: Shape, n: int) -> np.ndarray:
    # The same draws, in the same order, as n multi-index arrays, as rows.
    return _reshape_each(rng.standard_normal((n,) + shape.dims), (shape.nstar,))


def _pattern_params(shape: Shape) -> TensorNormalParams:
    # A linspace location and a unit-diagonal scale with constant
    # off-diagonal coupling 0.3, positive definite at every shape.
    m = np.full((shape.nstar, shape.nstar), 0.3)
    np.fill_diagonal(m, 1.0)
    location = DenseTensor(np.linspace(-1.0, 1.0, shape.nstar), shape)
    return TensorNormalParams(location, unmatricize(m, shape))


# ---------------------------------------------------------------------------
# helpers over stacks: the leading axis is the instance


def _worst(a: np.ndarray) -> np.ndarray:
    # Largest entry of each instance; NaN if any entry is NaN.
    return a.reshape(len(a), -1).max(axis=1)


def _rel(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    # A NaN ref stays NaN: np.maximum propagates it.
    return diff / np.maximum(np.abs(ref), 1e-300)


def _quadratic(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    # v_b @ m_b @ v_b for (B, nstar) vecs and (B or 1, nstar, nstar) matrices.
    return np.matmul(np.matmul(v[:, None, :], m), v[:, :, None])[:, 0, 0]


def _norms(m: np.ndarray) -> np.ndarray:
    # Frobenius norm of each instance, as np.linalg.norm takes it of one.
    flat = m.reshape(len(m), -1)
    return np.sqrt(np.vecdot(flat, flat))


def _one_by_one(evaluate_one: Callable) -> Callable:
    # The evaluation of a check whose library calls take one instance at a
    # time (params objects, samplers): a loop over the stack.
    def evaluate(shape, n, *stacks):
        return np.array([evaluate_one(shape, n, *inputs) for inputs in zip(*stacks)], dtype=float)

    return evaluate


# ---------------------------------------------------------------------------
# draws: each returns a tuple of one instance's inputs and is the only code
# that consumes a check's random stream.  A square tensor is drawn as its
# matricization, a dense tensor as its multi-index array, a sample set as
# its N x nstar rows.


def _draw_square(rng, shape, n):
    return (rng.standard_normal((shape.nstar, shape.nstar)),)


def _draw_alpha(rng, shape, n):
    return (float(rng.uniform(-2.0, 2.0)),)


def _draw_well_conditioned(rng, shape, n):
    # The draws behind one well-conditioned matrix: a Gaussian matrix for
    # the orthogonal factor and the singular values.
    m = shape.nstar
    return rng.standard_normal((m, m)), rng.uniform(0.5, 2.0, size=m)


def _draw_lambda(rng, shape, n):
    return (float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),)


def _draw_spd(rng, shape, n):
    return (_random_spd_matrix(rng, shape.nstar),)


def _draw_factors(rng, shape, n):
    # One positive definite factor per mode.
    return tuple(_random_spd_matrix(rng, nk) for nk in shape.dims)


def _draw_dense(rng, shape, n):
    return (rng.standard_normal(shape.dims),)


def _draw_sample_set(rng, shape, n):
    return (_random_rows(rng, shape, int(rng.integers(3, 51))),)


def _draw_two_sample_sets(rng, shape, n):
    count = int(rng.integers(3, 51))
    return _random_rows(rng, shape, count), _random_rows(rng, shape, count)


def _draw_seed(rng, shape, n):
    return (int(rng.integers(2**63)),)


def _draw_law_and_point(rng, shape, n):
    # A location, a positive definite scale and a point one standard
    # normal draw per cell away from the location.
    loc = rng.standard_normal(shape.dims)
    scale = _random_spd_matrix(rng, shape.nstar)
    return loc, scale, loc + rng.standard_normal(shape.dims)


# ---------------------------------------------------------------------------
# checks: each evaluates a stack of instances and returns one deviation per
# instance; the table below registers it with the draws an instance is made
# of, its tolerance, instance count and what its n= column counts.


def _mat_roundtrip(shape, n, x):
    t = _unmatricize_stack(x, shape)
    return _worst(np.abs(_unmatricize_stack(_matricize_stack(t, shape), shape) - t))


def _mat_linearity(shape, n, x, y, alpha):
    tx, ty = _unmatricize_stack(x, shape), _unmatricize_stack(y, shape)
    lhs = _matricize_stack(alpha.reshape((-1,) + (1,) * (tx.ndim - 1)) * tx + ty, shape)
    rhs = alpha[:, None, None] * _matricize_stack(tx, shape) + _matricize_stack(ty, shape)
    return _worst(np.abs(lhs - rhs))


def _mat_transpose(shape, n, x):
    t = _unmatricize_stack(x, shape)
    got = _matricize_stack(_transpose2d_stack(t, shape.order), shape)
    return _worst(np.abs(got - _matricize_stack(t, shape).transpose(0, 2, 1)))


def _mat_product(shape, n, x, y):
    tx, ty = _unmatricize_stack(x, shape), _unmatricize_stack(y, shape)
    ref = np.matmul(_matricize_stack(tx, shape), _matricize_stack(ty, shape))
    got = _matricize_stack(_contract_stack(tx, ty), shape)
    return _rel(_norms(got - ref), _norms(ref))


def _det_identity(shape, n):
    return np.abs(linalg._dets(np.eye(shape.nstar)[None]) - 1.0)


def _det_zero(shape, n):
    return np.abs(linalg._dets(np.zeros((1, shape.nstar, shape.nstar))))


def _det_scale(shape, n, g, svals, lam):
    # det(lam X) = lam^nstar det(X), stated on signs and log |det| so that
    # it holds where the determinants leave float64.  The deviation is the
    # relative error of det(lam X), read from the log difference d as
    # |e^d - 1| when the signs agree and e^d + 1 when they do not.
    x = _well_conditioned(g, svals)
    sign, log_abs = linalg._slogdets(x)
    got_sign, got_log_abs = linalg._slogdets(lam[:, None, None] * x)
    ref_sign = sign * np.sign(lam) ** shape.nstar
    rel = np.expm1(got_log_abs - (shape.nstar * np.log(np.abs(lam)) + log_abs))
    return np.where(got_sign == ref_sign, np.abs(rel), rel + 2.0)


def _det_transpose(shape, n, *draws):
    x = _well_conditioned(*draws)
    ref = linalg._dets(x)
    transposed = _transpose2d_stack(_unmatricize_stack(x, shape), shape.order)
    got = linalg._dets(_matricize_stack(transposed, shape))
    return _rel(np.abs(got - ref), ref)


def _det_product(shape, n, *draws):
    x, y = _well_conditioned(*draws[:2]), _well_conditioned(*draws[2:])
    ref = linalg._dets(x) * linalg._dets(y)
    product = _contract_stack(_unmatricize_stack(x, shape), _unmatricize_stack(y, shape))
    return _rel(np.abs(linalg._dets(_matricize_stack(product, shape)) - ref), ref)


def _det_inverse(shape, n, *draws):
    x = _well_conditioned(*draws)
    ref = 1.0 / linalg._dets(x)
    return _rel(np.abs(linalg._dets(linalg._inverses(x)) - ref), ref)


def _inverse_contract(shape, n, x):
    t, inv = _unmatricize_stack(x, shape), _unmatricize_stack(linalg._inverses(x), shape)
    eye = _unmatricize_stack(np.eye(shape.nstar)[None], shape)
    return np.maximum(
        _worst(np.abs(_contract_stack(t, inv) - eye)),
        _worst(np.abs(_contract_stack(inv, t) - eye)),
    )


def _kron_mode_scaling(shape, n, a):
    # Pins the factor-order convention: the factor stored for mode 1 must
    # weight entries by their mode-1 index in the quadratic form.
    weights = np.arange(1.0, shape.dims[0] + 1.0)
    factors = (np.diag(weights),) + tuple(np.eye(nk) for nk in shape.dims[1:])
    assembled = kronecker_assemble(KroneckerFactors(factors))
    v = _reshape_each(a, (shape.nstar,))
    got = _quadratic(v, assembled[None])
    ref = np.sum(np.resize(weights, shape.nstar) * v**2, axis=1)
    return _rel(np.abs(got - ref), ref)


def _kron_quadratic_form(shape, n, *stacks):
    *factors, a = stacks
    assembled = _kron_stack(factors)
    ref = _quadratic(_reshape_each(a, (shape.nstar,)), assembled)
    got = _double_dot_stack(a, _unmatricize_stack(assembled, shape), a)
    return _rel(np.abs(got - ref), ref)


@_one_by_one
def _kron_equivalence(shape, n, *inputs):
    *arrays, loc, seed = inputs
    factors = KroneckerFactors(tuple(arrays))
    location = DenseTensor._wrap(loc, shape)
    dense = TensorNormalParams(location, unmatricize(kronecker_assemble(factors), shape))
    structured = TensorNormalParams(location, factors)
    report = kronecker_equivalence_check(
        dense, structured, probes=PROBES, seed=RngSeed(int(seed), 0)
    )
    return report.max_abs_deviation


def _cov_mat_consistency(shape, n, rows):
    got = _matricize_stack(_cross_covariances(rows, rows, shape, shape, "unbiased"), shape)
    return _worst(np.abs(got - _vec_covariances(rows, "unbiased")))


def _cov_moment_identity(shape, n, rows):
    # The MLE covariance against the second moment less the squared mean,
    # accumulated one observation at a time.
    count = rows.shape[1]
    mean = rows.mean(axis=1)
    acc = np.zeros((len(rows), shape.nstar, shape.nstar))
    for k in range(count):
        acc += rows[:, k, :, None] * rows[:, k, None, :]
    ref = acc / count - mean[:, :, None] * mean[:, None, :]
    got = _matricize_stack(_cross_covariances(rows, rows, shape, shape, "mle"), shape)
    return _worst(np.abs(got - ref))


def _cov_sum_expansion(shape, n, x, y):
    def cov(a, b):
        return _cross_covariances(a, b, shape, shape, "unbiased")

    total = x + y
    parts = cov(x, x) + cov(x, y) + cov(y, x) + cov(y, y)
    return _worst(np.abs(cov(total, total) - parts))


def _cov_index_swap(shape, n, x, y):
    kxy = _matricize_stack(_cross_covariances(x, y, shape, shape, "unbiased"), shape)
    kyx = _matricize_stack(_cross_covariances(y, x, shape, shape, "unbiased"), shape)
    return _worst(np.abs(kxy - kyx.transpose(0, 2, 1)))


def _corr_unit_diagonal(shape, n, rows):
    r, _sd = _correlations(rows, shape, "error")
    return _worst(np.abs(np.diagonal(r, axis1=1, axis2=2) - 1.0))


def _corr_bounds(shape, n, rows):
    return np.maximum(_worst(np.abs(_correlations(rows, shape, "error")[0])) - 1.0, 0.0)


@_one_by_one
def _independence(shape, n, base):
    p = TensorNormalParams(DenseTensor.zeros(shape), SquareTensor.identity(shape))
    sx = normal_sample(p, RngSeed(int(base), 0), n)
    sy = normal_sample(p, RngSeed(int(base), 1), n)
    return float(np.abs(matricize(cross_covariance(sx, sy).value)).max())


@_one_by_one
def _density_equivalence(shape, n, loc, scale, x):
    p = TensorNormalParams(DenseTensor._wrap(loc, shape), unmatricize(scale, shape))
    point = DenseTensor._wrap(x, shape)
    return abs(normal_log_density(p, point) - normal_log_density_vec_oracle(p, point))


def _density_normalization(shape, n):
    # Fixed two-cell grid quadrature regardless of the configured shape:
    # the property is about the density normalizer, not the shape.  The
    # trapezoid rule converges geometrically on a smooth, fast-decaying
    # integrand: step 0.08 gives the same bits as step 0.01 (a test checks).
    axis = np.linspace(-8.0, 8.0, GRID)
    grid_shape = Shape((2,))
    p = TensorNormalParams(
        DenseTensor.zeros(grid_shape),
        unmatricize(np.array([[1.0, 0.3], [0.3, 1.0]]), grid_shape),
    )
    # (x_i, y_j) rows, x slowest.
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = np.exp(normal_log_density_batch(p, pts)).reshape(axis.size, axis.size)
    integral = float(np.trapezoid(np.trapezoid(dens, axis, axis=1), axis))
    return np.array([abs(integral - 1.0)])


@_one_by_one
def _moment_recovery_mean(shape, n, seed):
    p = _pattern_params(shape)
    s = normal_sample(p, RngSeed(int(seed), 0), n)
    return float(np.abs(mean_tensor(s).array - p.location.array).max())


@_one_by_one
def _moment_recovery_cov(shape, n, seed):
    p = _pattern_params(shape)
    s = normal_sample(p, RngSeed(int(seed), 0), n)
    return float(np.abs(matricize(cross_covariance(s, s).value) - p.scale_matrix).max())


def _elliptical_normal(shape, n, loc, scale, x):
    # The kernel route, normal kernel, against the paper's tensor form of
    # the Gaussian density: the double-dot quadratic form of the deviation
    # with the inverse scale, and the LU log-determinant of the scale.
    d = x - loc
    q = _double_dot_stack(d, _unmatricize_stack(linalg._inverses(scale), shape), d)
    _sign, log_det = linalg._slogdets(scale)
    ref = -0.5 * (shape.nstar * LN_2PI + log_det + q)
    got = [
        elliptical_log_density(
            EllipticalParams(DenseTensor._wrap(m, shape), unmatricize(c, shape), NormalKernel()),
            DenseTensor._wrap(point, shape),
        )
        for m, c, point in zip(loc, scale, x)
    ]
    return np.abs(np.array(got) - ref)


@_one_by_one
def _elliptical_student_cov(shape, n, seed):
    kernel = StudentKernel(nu=5.0)
    p = EllipticalParams(DenseTensor.zeros(shape), SquareTensor.identity(shape), kernel)
    s = elliptical_sample(p, RngSeed(int(seed), 0), 2 * n)
    expected = kernel.covariance_scale(shape.nstar) * np.eye(shape.nstar)
    return float(np.abs(matricize(cross_covariance(s, s).value) - expected).max())


@_one_by_one
def _sampling_determinism(shape, n, seed, *arrays):
    p = _pattern_params(shape)
    seed = RngSeed(int(seed), 3)
    factors = KroneckerFactors(tuple(arrays))
    student = StudentKernel(nu=5.0)
    # Dense scales sample through the dense Cholesky factor, Kronecker
    # scales one mode at a time; both must repeat bit for bit.
    cases = (
        (normal_sample, p),
        (elliptical_sample, EllipticalParams(p.location, p.scale, student)),
        (elliptical_sample, EllipticalParams(p.location, factors, NormalKernel())),
        (elliptical_sample, EllipticalParams(p.location, factors, student)),
    )
    for draw, params in cases:
        a = draw(params, seed, REPEAT_DRAWS).to_matrix()
        b = draw(params, seed, REPEAT_DRAWS).to_matrix()
        if not np.array_equal(a, b):
            return float(np.abs(a - b).max())
    return 0.0


@dataclass(frozen=True)
class _Check:
    """One check: its tolerance, the draws of an instance and how to evaluate a stack.

    ``draws`` are the draws one instance is made of: each
    ``draw(rng, shape, n)`` returns a tuple of arrays and numbers, and the
    instance's inputs are their outputs joined in order.  A check with no
    draws evaluates constants and consumes nothing of its random stream.
    ``evaluate(shape, n, *stacks)`` takes the inputs of several instances,
    each stacked along a new leading axis, and returns one deviation per
    instance.  ``per_instance(n)`` is how many samples of the ``n=`` column
    one instance adds.
    """

    name: str
    tolerance: float
    instances: int
    draws: tuple[Callable, ...]
    evaluate: Callable
    per_instance: Callable[[int], int]

    def draw(self, rng: np.random.Generator, shape: Shape, n: int) -> tuple:
        """One instance's inputs: the outputs of ``draws``, joined in order."""
        return tuple(v for draw in self.draws for v in draw(rng, shape, n))


def _identity(name, tolerance, draws, evaluate, instances=INSTANCES):
    return _Check(name, tolerance, instances, draws, evaluate, lambda n: 1)


# The position in this table picks the check's seed substream.
_CHECKS: tuple[_Check, ...] = (
    _identity("mat-roundtrip", 0.0, (_draw_square,), _mat_roundtrip),
    _identity("mat-linearity", 0.0, (_draw_square, _draw_square, _draw_alpha), _mat_linearity),
    _identity("mat-transpose", 0.0, (_draw_square,), _mat_transpose),
    _identity("mat-product", 1e-12, (_draw_square, _draw_square), _mat_product),
    _identity("det-identity", 0.0, (), _det_identity, instances=1),
    _identity("det-zero", 0.0, (), _det_zero, instances=1),
    _identity("det-scale", 1e-9, (_draw_well_conditioned, _draw_lambda), _det_scale),
    _identity("det-transpose", 1e-10, (_draw_well_conditioned,), _det_transpose),
    _identity("det-product", 1e-9, (_draw_well_conditioned, _draw_well_conditioned),
              _det_product),
    _identity("det-inverse", 1e-9, (_draw_well_conditioned,), _det_inverse),
    _identity("inverse-contract", 1e-10, (_draw_spd,), _inverse_contract),
    _identity("kronecker-mode-scaling", 1e-12, (_draw_dense,), _kron_mode_scaling),
    _identity("kronecker-quadratic-form", 1e-12, (_draw_factors, _draw_dense),
              _kron_quadratic_form),
    _Check("kronecker-equivalence", 1e-10, 10, (_draw_factors, _draw_dense, _draw_seed),
           _kron_equivalence, lambda n: PROBES),
    _identity("cov-mat-consistency", 1e-12, (_draw_sample_set,), _cov_mat_consistency),
    _identity("cov-moment-identity", 1e-12, (_draw_sample_set,), _cov_moment_identity),
    _identity("cov-sum-expansion", 1e-12, (_draw_two_sample_sets,), _cov_sum_expansion),
    _identity("cov-index-swap", 0.0, (_draw_two_sample_sets,), _cov_index_swap),
    _identity("corr-unit-diagonal", 0.0, (_draw_sample_set,), _corr_unit_diagonal),
    _identity("corr-bounds", 1e-12, (_draw_sample_set,), _corr_bounds),
    _Check("independence-zero-crosscov", 0.02, 1, (_draw_seed,), _independence, lambda n: n),
    _identity("density-equivalence", 1e-10, (_draw_law_and_point,), _density_equivalence),
    _Check("density-normalization", 1e-3, 1, (), _density_normalization, lambda n: GRID**2),
    _Check("moment-recovery-mean", 0.02, 1, (_draw_seed,), _moment_recovery_mean, lambda n: n),
    _Check("moment-recovery-cov", 0.05, 1, (_draw_seed,), _moment_recovery_cov, lambda n: n),
    _identity("elliptical-normal-consistency", 1e-12, (_draw_law_and_point,),
              _elliptical_normal),
    _Check("elliptical-student-covariance", 0.1, 1, (_draw_seed,), _elliptical_student_cov,
           lambda n: 2 * n),
    _Check("sampling-determinism", 0.0, 1, (_draw_seed, _draw_factors), _sampling_determinism,
           lambda n: REPEAT_DRAWS),
)

CHECK_NAMES = tuple(check.name for check in _CHECKS)


def _instance_bytes(inputs: tuple, shape: Shape) -> int:
    # An instance's drawn inputs, and at least one nstar x nstar float64
    # matrix: most evaluations build square tensors from small inputs.
    return max(sum(np.asarray(v).nbytes for v in inputs), 8 * shape.nstar**2)


def _batches(check: _Check, rng: np.random.Generator, shape: Shape, n: int):
    # The check's instances, drawn in order, in batches of at least one
    # instance that stop once their bytes reach BATCH_BYTES.
    batch, size = [], 0
    for _ in range(check.instances):
        batch.append(check.draw(rng, shape, n))
        size += _instance_bytes(batch[-1], shape)
        if size >= BATCH_BYTES:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def _evaluate(check: _Check, shape: Shape, n: int, batch: list) -> np.ndarray:
    # One evaluation per group of instances whose inputs have equal shapes
    # (the sample-set checks draw their counts), each input stacked.
    groups: dict[tuple, list] = {}
    for inputs in batch:
        groups.setdefault(tuple(np.shape(v) for v in inputs), []).append(inputs)
    return np.concatenate([
        check.evaluate(shape, n, *(np.stack(column) for column in zip(*group)))
        for group in groups.values()
    ])


def _run_check(index: int, seed: int, shape: Shape, n: int) -> tuple[float, int]:
    # Draws the check's instances on its substream, evaluates them batch by
    # batch and reports the largest deviation, NaN if any instance gave
    # NaN, and the samples its n= column counts.
    check = _CHECKS[index]
    rng = RngSeed(seed, index).generator()
    devs = [_evaluate(check, shape, n, batch) for batch in _batches(check, rng, shape, n)]
    return float(np.max(np.concatenate(devs))), check.instances * check.per_instance(n)


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
    n = _integer("n", n)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if corrupt is not None and corrupt not in CHECK_NAMES:
        raise ValueError(f"unknown check {corrupt!r}; known checks: {', '.join(CHECK_NAMES)}")
    results = []
    for index, check in enumerate(_CHECKS):
        deviation, samples = _run_check(index, seed, shape, n)
        if corrupt == check.name:
            deviation = check.tolerance + max(1.0, check.tolerance)
        results.append(
            CheckResult(
                name=check.name,
                passed=deviation <= check.tolerance,
                deviation=deviation,
                tolerance=check.tolerance,
                samples=samples,
            )
        )
    return VerifyReport(shape=shape, n=n, seed=seed, results=tuple(results))
