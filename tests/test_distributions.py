"""Tests for tensor normal and elliptical distributions."""

import math

import numpy as np
import pytest
from scipy.stats import multivariate_normal, multivariate_t

from tensorstat.distributions import (
    EllipticalParams,
    NormalKernel,
    RadialKernel,
    RngSeed,
    StudentKernel,
    TensorNormalParams,
    elliptical_density,
    elliptical_log_density,
    elliptical_sample,
    fit_normal,
    kernel_from_spec,
    kronecker_equivalence_check,
    normal_density,
    normal_log_density,
    normal_log_density_batch,
    normal_log_density_vec_oracle,
    normal_sample,
)
from tensorstat.errors import (
    DefinitenessError,
    ShapeError,
    SymmetryError,
    UnsupportedKernelError,
)
from tensorstat.linalg import KroneckerFactors, inverse, kronecker_assemble
from tensorstat.stats import covariance, mean_tensor
from tensorstat.tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    double_dot_quadratic,
    matricize,
    unmatricize,
    vec,
)

SHAPES = [(2,), (3,), (2, 2), (2, 3), (3, 2, 2)]

LOG_2PI_HALF = 0.5 * math.log(2.0 * math.pi)


def random_spd(rng, dims, ridge=0.5):
    n = int(np.prod(dims))
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + ridge * np.eye(n)
    return unmatricize(0.5 * (m + m.T), Shape(dims))


def random_dense(rng, dims):
    return DenseTensor.from_array(rng.standard_normal(dims))


class TestRngSeed:
    def test_determinism(self):
        a = RngSeed(7, 0).generator().standard_normal(5)
        b = RngSeed(7, 0).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngSeed(7, 0).generator().standard_normal(5)
        b = RngSeed(7, 1).generator().standard_normal(5)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)
        with pytest.raises(ValueError):
            RngSeed(0, -1)


class TestKernels:
    def test_from_spec(self):
        assert isinstance(kernel_from_spec("normal"), NormalKernel)
        k = kernel_from_spec("student:5")
        assert isinstance(k, StudentKernel)
        assert k.nu == 5.0

    def test_unknown_spec(self):
        with pytest.raises(UnsupportedKernelError):
            kernel_from_spec("cauchyish")
        with pytest.raises(UnsupportedKernelError):
            kernel_from_spec("student:abc")
        with pytest.raises(UnsupportedKernelError):
            kernel_from_spec("normal:1")

    def test_student_requires_positive_nu(self):
        with pytest.raises(UnsupportedKernelError):
            StudentKernel(nu=0.0)

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
    def test_student_requires_finite_nu(self, nu):
        with pytest.raises(UnsupportedKernelError, match="finite nu"):
            StudentKernel(nu=nu)

    def test_covariance_scale(self):
        assert NormalKernel().covariance_scale(4) == 1.0
        assert StudentKernel(nu=5.0).covariance_scale(4) == pytest.approx(5.0 / 3.0)
        assert StudentKernel(nu=2.0).covariance_scale(4) is None

    def test_base_kernel_has_no_sampler(self):
        with pytest.raises(UnsupportedKernelError):
            RadialKernel().sample_radius(np.random.default_rng(0), 4, 1)


class TestParams:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((3,)))

    def test_kronecker_shape_mismatch(self):
        with pytest.raises(ShapeError):
            TensorNormalParams(
                DenseTensor.zeros((2, 2)),
                KroneckerFactors((np.eye(2), np.eye(3))),
            )

    def test_asymmetric_scale_rejected(self):
        rng = np.random.default_rng(60)
        bad = unmatricize(rng.standard_normal((4, 4)), Shape((2, 2)))
        with pytest.raises(SymmetryError):
            TensorNormalParams(DenseTensor.zeros((2, 2)), bad)

    def test_non_pd_scale_rejected(self):
        bad = unmatricize(np.diag([1.0, -1.0, 1.0, 1.0]), Shape((2, 2)))
        with pytest.raises(DefinitenessError):
            TensorNormalParams(DenseTensor.zeros((2, 2)), bad)

    def test_cached_log_det(self):
        rng = np.random.default_rng(61)
        s = random_spd(rng, (2, 2))
        p = TensorNormalParams(DenseTensor.zeros((2, 2)), s)
        _, ref = np.linalg.slogdet(matricize(s))
        assert p.log_det == pytest.approx(ref, rel=1e-12)

    def test_kronecker_scale_tensor(self):
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        p = TensorNormalParams(DenseTensor.zeros((2, 2)), f)
        np.testing.assert_array_equal(p.scale_matrix, kronecker_assemble(f))
        assert p.scale_tensor == unmatricize(kronecker_assemble(f), Shape((2, 2)))


class TestNormalDensity:
    def test_standard_scalar_at_zero(self):
        p = TensorNormalParams(DenseTensor.zeros((1,)), SquareTensor.identity((1,)))
        got = normal_log_density(p, DenseTensor.zeros((1,)))
        assert got == pytest.approx(-LOG_2PI_HALF, abs=1e-15)
        assert normal_density(p, DenseTensor.zeros((1,))) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-15
        )

    def test_at_location_closed_form(self):
        rng = np.random.default_rng(62)
        for dims in SHAPES:
            s = random_spd(rng, dims)
            loc = random_dense(rng, dims)
            p = TensorNormalParams(loc, s)
            got = normal_log_density(p, loc)
            ref = -p.nstar * LOG_2PI_HALF - 0.5 * p.log_det
            assert got == pytest.approx(ref, abs=1e-12)

    def test_identity_scale_reduces_to_squared_norm(self):
        rng = np.random.default_rng(63)
        loc = random_dense(rng, (2, 2))
        x = random_dense(rng, (2, 2))
        p = TensorNormalParams(loc, SquareTensor.identity((2, 2)))
        ref = -4 * LOG_2PI_HALF - 0.5 * float(np.sum((vec(x) - vec(loc)) ** 2))
        assert normal_log_density(p, x) == pytest.approx(ref, abs=1e-12)

    def test_equals_vec_oracle(self):
        rng = np.random.default_rng(64)
        for dims in SHAPES:
            for _ in range(10):
                p = TensorNormalParams(random_dense(rng, dims), random_spd(rng, dims))
                x = random_dense(rng, dims)
                a = normal_log_density(p, x)
                b = normal_log_density_vec_oracle(p, x)
                assert abs(a - b) <= 1e-10

    def test_equals_scipy_oracle(self):
        rng = np.random.default_rng(65)
        p = TensorNormalParams(random_dense(rng, (2, 2)), random_spd(rng, (2, 2)))
        x = random_dense(rng, (2, 2))
        ref = multivariate_normal(mean=vec(p.location), cov=p.scale_matrix).logpdf(vec(x))
        assert normal_log_density(p, x) == pytest.approx(float(ref), abs=1e-10)

    def test_quadratic_form_matches_double_dot_of_inverse(self):
        # ties the Cholesky-solve quadratic form to the contraction against
        # the explicitly inverted scale tensor
        rng = np.random.default_rng(66)
        s = random_spd(rng, (2, 2))
        loc = random_dense(rng, (2, 2))
        p = TensorNormalParams(loc, s)
        x = random_dense(rng, (2, 2))
        diff = DenseTensor(vec(x) - vec(loc), x.shape)
        q_ref = double_dot_quadratic(diff, inverse(s), diff)
        got = normal_log_density(p, x)
        ref = -p.nstar * LOG_2PI_HALF - 0.5 * p.log_det - 0.5 * q_ref
        assert got == pytest.approx(ref, abs=1e-10)

    def test_shape_mismatch(self):
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(ShapeError):
            normal_log_density(p, DenseTensor.zeros((3,)))

    def test_affine_sanity_doubling_scale(self):
        rng = np.random.default_rng(67)
        for dims in [(2,), (2, 2)]:
            s = random_spd(rng, dims)
            loc = random_dense(rng, dims)
            p1 = TensorNormalParams(loc, s)
            p2 = TensorNormalParams(loc, 2.0 * s)
            drop = normal_log_density(p1, loc) - normal_log_density(p2, loc)
            nstar = int(np.prod(dims))
            assert drop == pytest.approx(0.5 * nstar * math.log(2.0), abs=1e-12)


class TestBatchDensity:
    def test_matches_pointwise(self):
        rng = np.random.default_rng(68)
        p = TensorNormalParams(random_dense(rng, (2, 2)), random_spd(rng, (2, 2)))
        pts = rng.standard_normal((50, 4))
        batch = normal_log_density_batch(p, pts)
        for k in range(50):
            single = normal_log_density(p, DenseTensor(pts[k], Shape((2, 2))))
            assert abs(batch[k] - single) <= 1e-12

    def test_shape_validation(self):
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(ShapeError):
            normal_log_density_batch(p, np.zeros((5, 3)))

    def test_scalar_grid_integrates_to_one(self):
        p = TensorNormalParams(DenseTensor.zeros((1,)), SquareTensor.identity((1,)))
        axis = np.linspace(-8.0, 8.0, 1601)
        dens = np.exp(normal_log_density_batch(p, axis[:, None]))
        assert float(np.trapezoid(dens, axis)) == pytest.approx(1.0, abs=1e-6)


class TestNormalSample:
    def test_count_zero_gives_empty_set(self):
        p = TensorNormalParams(DenseTensor.zeros((2, 2)), SquareTensor.identity((2, 2)))
        s = normal_sample(p, RngSeed(1), 0)
        assert len(s) == 0
        assert s.shape == Shape((2, 2))

    def test_negative_count_rejected(self):
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(ValueError):
            normal_sample(p, RngSeed(1), -1)

    def test_deterministic(self):
        rng = np.random.default_rng(69)
        p = TensorNormalParams(random_dense(rng, (2, 2)), random_spd(rng, (2, 2)))
        a = normal_sample(p, RngSeed(5, 2), 100).to_matrix()
        b = normal_sample(p, RngSeed(5, 2), 100).to_matrix()
        np.testing.assert_array_equal(a, b)

    def test_moments_smoke(self):
        rng = np.random.default_rng(70)
        loc = random_dense(rng, (2, 2))
        s = random_spd(rng, (2, 2))
        p = TensorNormalParams(loc, s)
        draws = normal_sample(p, RngSeed(77), 20_000)
        assert np.abs(mean_tensor(draws).array - loc.array).max() <= 0.05
        assert np.abs(covariance(draws).value.array - p.scale_tensor.array).max() <= 0.1


class TestElliptical:
    def test_normal_kernel_matches_normal(self):
        rng = np.random.default_rng(71)
        for dims in SHAPES:
            loc = random_dense(rng, dims)
            s = random_spd(rng, dims)
            pn = TensorNormalParams(loc, s)
            pe = EllipticalParams(loc, s, NormalKernel())
            for _ in range(5):
                x = random_dense(rng, dims)
                diff = abs(elliptical_log_density(pe, x) - normal_log_density(pn, x))
                assert diff <= 1e-12

    def test_at_location_equals_normalizer_plus_g0(self):
        rng = np.random.default_rng(72)
        loc = random_dense(rng, (2, 2))
        s = random_spd(rng, (2, 2))
        pe = EllipticalParams(loc, s, StudentKernel(nu=7.0))
        got = elliptical_log_density(pe, loc)
        assert got == pytest.approx(
            pe.log_normalizer + float(pe.kernel.log_g(0.0, pe.nstar)), abs=1e-14
        )
        assert elliptical_density(pe, loc) == pytest.approx(math.exp(got), rel=1e-14)

    def test_student_matches_scipy_oracle(self):
        rng = np.random.default_rng(73)
        for dims in [(3,), (2, 2)]:
            loc = random_dense(rng, dims)
            s = random_spd(rng, dims)
            pe = EllipticalParams(loc, s, StudentKernel(nu=4.5))
            ref_dist = multivariate_t(loc=vec(loc), shape=pe.scale_matrix, df=4.5)
            for _ in range(5):
                x = random_dense(rng, dims)
                ref = float(ref_dist.logpdf(vec(x)))
                assert elliptical_log_density(pe, x) == pytest.approx(ref, abs=1e-10)

    def test_large_nu_student_approaches_normal(self):
        rng = np.random.default_rng(74)
        loc = random_dense(rng, (2, 2))
        s = random_spd(rng, (2, 2))
        x = random_dense(rng, (2, 2))
        pn = TensorNormalParams(loc, s)
        pe = EllipticalParams(loc, s, StudentKernel(nu=1e6))
        diff = abs(elliptical_log_density(pe, x) - normal_log_density(pn, x))
        assert diff <= 1e-3

    def test_normal_kernel_sampling_moments(self):
        rng = np.random.default_rng(75)
        s = random_spd(rng, (2, 2))
        pe = EllipticalParams(DenseTensor.zeros((2, 2)), s, NormalKernel())
        draws = elliptical_sample(pe, RngSeed(88), 20_000)
        assert np.abs(mean_tensor(draws).array).max() <= 0.05
        assert np.abs(covariance(draws).value.array - pe.scale_tensor.array).max() <= 0.1

    def test_student_sampling_covariance_proportionality(self):
        kernel = StudentKernel(nu=5.0)
        pe = EllipticalParams(
            DenseTensor.zeros((2, 2)), SquareTensor.identity((2, 2)), kernel
        )
        draws = elliptical_sample(pe, RngSeed(99), 50_000)
        expected = kernel.covariance_scale(4) * np.eye(4)
        got = matricize(covariance(draws).value)
        assert np.abs(got - expected).max() <= 0.2

    def test_count_zero(self):
        pe = EllipticalParams(
            DenseTensor.zeros((2,)), SquareTensor.identity((2,)), StudentKernel(nu=3.0)
        )
        assert len(elliptical_sample(pe, RngSeed(1), 0)) == 0

    def test_overflowing_radius_is_refused(self):
        # F(nstar, 1e-300) variates are inf; the product with L would be NaN.
        pe = EllipticalParams(
            DenseTensor.zeros((2,)), SquareTensor.identity((2,)), StudentKernel(nu=1e-300)
        )
        with pytest.raises(UnsupportedKernelError, match="nu=1e-300"):
            elliptical_sample(pe, RngSeed(1), 4)

    def test_deterministic(self):
        pe = EllipticalParams(
            DenseTensor.zeros((2,)), SquareTensor.identity((2,)), StudentKernel(nu=3.0)
        )
        a = elliptical_sample(pe, RngSeed(4, 1), 64).to_matrix()
        b = elliptical_sample(pe, RngSeed(4, 1), 64).to_matrix()
        np.testing.assert_array_equal(a, b)

    def test_normal_params_are_elliptical_with_normal_kernel(self):
        rng = np.random.default_rng(76)
        loc = random_dense(rng, (2, 3))
        s = random_spd(rng, (2, 3))
        pn = TensorNormalParams(loc, s)
        assert isinstance(pn, EllipticalParams)
        assert isinstance(pn.kernel, NormalKernel)
        a = elliptical_sample(pn, RngSeed(12, 2), 50).to_matrix()
        b = normal_sample(pn, RngSeed(12, 2), 50).to_matrix()
        np.testing.assert_array_equal(a, b)

    def test_normal_sample_ignores_the_kernel(self):
        rng = np.random.default_rng(77)
        loc = random_dense(rng, (3, 2))
        factors = KroneckerFactors(
            (np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]), np.eye(2))
        )
        pe = EllipticalParams(loc, factors, StudentKernel(nu=5.0))
        pn = TensorNormalParams(loc, factors)
        a = normal_sample(pe, RngSeed(13), 40).to_matrix()
        b = normal_sample(pn, RngSeed(13), 40).to_matrix()
        np.testing.assert_array_equal(a, b)

    def test_kernel_without_sampler(self):
        class LaplaceLikeKernel(RadialKernel):
            # density pieces only, no registered radial sampler
            name = "laplace-like"

            def log_g(self, q, nstar):
                return -np.sqrt(q)

            def log_norm_constant(self, nstar):
                return 0.0

        pe = EllipticalParams(
            DenseTensor.zeros((2,)), SquareTensor.identity((2,)), LaplaceLikeKernel()
        )
        assert math.isfinite(elliptical_log_density(pe, DenseTensor([1.0, 2.0], (2,))))
        with pytest.raises(UnsupportedKernelError):
            elliptical_sample(pe, RngSeed(0), 4)


class TestFitNormal:
    def test_requires_two_observations(self):
        s_single = normal_sample(
            TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,))),
            RngSeed(3),
            1,
        )
        with pytest.raises(ValueError):
            fit_normal(s_single)

    def test_duplicate_observations_raise_definiteness(self):
        x = DenseTensor([1.0, 2.0], (2,))
        from tensorstat.stats import SampleSet

        s = SampleSet.from_observations([x, x])
        with pytest.raises(DefinitenessError) as info:
            fit_normal(s)
        assert "ridge" in str(info.value)

    def test_d1_matches_classical_moments(self):
        rng = np.random.default_rng(76)
        p = TensorNormalParams(
            DenseTensor([1.0, -1.0, 0.5], (3,)), random_spd(rng, (3,))
        )
        s = normal_sample(p, RngSeed(123), 500)
        fitted = fit_normal(s)
        v = s.to_matrix()
        np.testing.assert_allclose(
            vec(fitted.location), v.mean(axis=0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            fitted.scale_matrix, np.cov(v, rowvar=False, ddof=1), rtol=0, atol=1e-12
        )

    def test_recovers_parameters(self):
        rng = np.random.default_rng(77)
        loc = random_dense(rng, (2, 2))
        s = random_spd(rng, (2, 2))
        p = TensorNormalParams(loc, s)
        fitted = fit_normal(normal_sample(p, RngSeed(321), 50_000))
        assert np.abs(fitted.location.array - loc.array).max() <= 0.03
        assert np.abs(fitted.scale_matrix - p.scale_matrix).max() <= 0.07


class TestKroneckerEquivalence:
    def test_identity_factors_zero_deviation(self):
        shape = Shape((2, 2))
        loc = DenseTensor.zeros(shape)
        dense = TensorNormalParams(loc, SquareTensor.identity(shape))
        structured = TensorNormalParams(
            loc, KroneckerFactors((np.eye(2), np.eye(2)))
        )
        report = kronecker_equivalence_check(dense, structured, probes=20, seed=RngSeed(9))
        assert report.passed
        assert report.max_abs_deviation == 0.0

    def test_diagonal_factors(self):
        shape = Shape((2, 2))
        rng = np.random.default_rng(78)
        loc = random_dense(rng, (2, 2))
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        dense = TensorNormalParams(loc, unmatricize(kronecker_assemble(f), shape))
        structured = TensorNormalParams(loc, f)
        report = kronecker_equivalence_check(dense, structured, probes=50, seed=RngSeed(10))
        assert report.passed
        assert report.max_abs_deviation <= 1e-10

    def test_random_spd_factors(self):
        rng = np.random.default_rng(79)
        shape = Shape((2, 2))
        mats = []
        for nk in (2, 2):
            a = rng.standard_normal((nk, nk))
            m = a @ a.T / nk + 0.5 * np.eye(nk)
            mats.append(0.5 * (m + m.T))
        f = KroneckerFactors(tuple(mats))
        loc = random_dense(rng, (2, 2))
        dense = TensorNormalParams(loc, unmatricize(kronecker_assemble(f), shape))
        structured = TensorNormalParams(loc, f)
        report = kronecker_equivalence_check(dense, structured, probes=100, seed=RngSeed(11))
        assert report.probes == 100
        assert report.passed

    def test_shape_mismatch(self):
        a = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        b = TensorNormalParams(DenseTensor.zeros((3,)), SquareTensor.identity((3,)))
        with pytest.raises(ShapeError):
            kronecker_equivalence_check(a, b)

    def test_elliptical_kronecker_matches_dense(self):
        # same assembly path backs the elliptical family
        rng = np.random.default_rng(80)
        shape = Shape((2, 3))
        mats = []
        for nk in (2, 3):
            a = rng.standard_normal((nk, nk))
            m = a @ a.T / nk + 0.5 * np.eye(nk)
            mats.append(0.5 * (m + m.T))
        f = KroneckerFactors(tuple(mats))
        loc = random_dense(rng, (2, 3))
        kernel = StudentKernel(nu=6.0)
        dense = EllipticalParams(loc, unmatricize(kronecker_assemble(f), shape), kernel)
        structured = EllipticalParams(loc, f, kernel)
        for _ in range(20):
            x = random_dense(rng, (2, 3))
            diff = abs(
                elliptical_log_density(dense, x) - elliptical_log_density(structured, x)
            )
            assert diff <= 1e-10


def random_spd_factors(rng, dims):
    mats = []
    for nk in dims:
        a = rng.standard_normal((nk, nk))
        m = a @ a.T / nk + 0.5 * np.eye(nk)
        mats.append(0.5 * (m + m.T))
    return KroneckerFactors(tuple(mats))


class TestStructuredKronecker:
    """Kronecker params evaluate densities from per-mode factors only."""

    @pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 3, 4)])
    def test_structured_matches_dense(self, dims):
        rng = np.random.default_rng(81)
        shape = Shape(dims)
        f = random_spd_factors(rng, dims)
        loc = random_dense(rng, dims)
        dense_scale = unmatricize(kronecker_assemble(f), shape)
        student = StudentKernel(nu=5.0)
        dense_n, structured_n = TensorNormalParams(loc, dense_scale), TensorNormalParams(loc, f)
        dense_t = EllipticalParams(loc, dense_scale, student)
        structured_t = EllipticalParams(loc, f, student)
        for _ in range(10):
            x = random_dense(rng, dims)
            assert abs(
                normal_log_density(dense_n, x) - normal_log_density(structured_n, x)
            ) <= 1e-10
            assert abs(
                elliptical_log_density(dense_t, x) - elliptical_log_density(structured_t, x)
            ) <= 1e-10
        pts = rng.standard_normal((7, shape.nstar))
        np.testing.assert_allclose(
            normal_log_density_batch(structured_n, pts),
            normal_log_density_batch(dense_n, pts),
            rtol=0,
            atol=1e-10,
        )

    def test_densities_never_assemble(self, monkeypatch):
        import tensorstat.distributions as dist

        def refuse(*_args, **_kwargs):
            raise AssertionError("dense route taken")

        monkeypatch.setattr(dist, "kronecker_assemble", refuse)
        monkeypatch.setattr(dist, "cholesky_lower", refuse)
        rng = np.random.default_rng(82)
        f = random_spd_factors(rng, (2, 3, 4))
        loc = random_dense(rng, (2, 3, 4))
        p = TensorNormalParams(loc, f)
        pe = EllipticalParams(loc, f, StudentKernel(nu=5.0))
        x = random_dense(rng, (2, 3, 4))
        assert math.isfinite(normal_log_density(p, x))
        assert math.isfinite(elliptical_log_density(pe, x))
        assert np.isfinite(normal_log_density_batch(p, rng.standard_normal((3, 24)))).all()

    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_sample_uses_dense_cholesky(self, kernel):
        rng = np.random.default_rng(83)
        f = random_spd_factors(rng, (2, 3, 2))
        loc = random_dense(rng, (2, 3, 2))
        p = EllipticalParams(loc, f, kernel)
        got = elliptical_sample(p, RngSeed(5), 20).to_matrix()
        w = kernel._standard_draws(RngSeed(5).generator(), p.nstar, 20)
        want = vec(loc) + w @ np.linalg.cholesky(kronecker_assemble(f)).T
        np.testing.assert_array_equal(got, want)

    def test_negated_factors_accepted(self):
        rng = np.random.default_rng(84)
        f = random_spd_factors(rng, (2, 3))
        neg = KroneckerFactors(tuple(-a for a in f.factors))
        loc = DenseTensor.zeros((2, 3))
        p = TensorNormalParams(loc, f)
        q = TensorNormalParams(loc, neg)
        assert q.log_det == pytest.approx(p.log_det, rel=1e-12)

    @pytest.mark.parametrize(
        "factors, pivot",
        [
            ((np.diag([1.0, -1.0]), np.eye(2)), 1),
            ((np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(3)), 1),
            ((np.eye(3), np.array([[1.0, 2.0], [2.0, 1.0]])), 3),
        ],
    )
    def test_non_pd_product_names_pivot(self, factors, pivot):
        loc = DenseTensor.zeros(tuple(a.shape[0] for a in factors))
        with pytest.raises(DefinitenessError) as info:
            TensorNormalParams(loc, KroneckerFactors(factors))
        assert info.value.pivot == pivot
        assert str(info.value) == f"matrix is not positive definite: pivot {pivot} is non-positive"

    def test_density_memory_stays_small(self):
        # The dense route at 16x16x16 holds several 128 MiB matrices.
        import tracemalloc

        rng = np.random.default_rng(85)
        f = random_spd_factors(rng, (16, 16, 16))
        loc = DenseTensor.zeros((16, 16, 16))
        x = random_dense(rng, (16, 16, 16))
        tracemalloc.start()
        try:
            p = EllipticalParams(loc, f, StudentKernel(nu=5.0))
            value = elliptical_log_density(p, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(value)
        assert peak < 8 * 2**20
