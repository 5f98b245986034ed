"""Tests for tensor normal and elliptical distributions."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal, multivariate_t

from tensorstat import distributions, linalg
from tensorstat.distributions import (
    EllipticalParams,
    NormalKernel,
    RadialKernel,
    RngSeed,
    StudentKernel,
    TensorNormalParams,
    elliptical_density,
    elliptical_log_density,
    elliptical_log_density_batch,
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
        for seed, stream in [(1.5, 0), (1, 0.9), ("7", 0), (True, 0), (1, False), (None, 0)]:
            with pytest.raises(ValueError, match="must be an integer"):
                RngSeed(seed, stream)

    def test_numpy_integers_are_plain_ints(self):
        s = RngSeed(np.uint64(7), np.int32(1))
        assert s == RngSeed(7, 1)
        assert type(s.seed) is int and type(s.stream) is int


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

    @pytest.mark.parametrize("nu", [True, False, "5", None, 1j, [5.0]])
    def test_student_requires_real_nu(self, nu):
        with pytest.raises(UnsupportedKernelError, match="real number nu"):
            StudentKernel(nu=nu)

    @pytest.mark.parametrize("nu", [5, np.float64(5.0), np.int64(5)])
    def test_student_accepts_real_numbers(self, nu):
        assert StudentKernel(nu=nu).nu == 5

    def test_normal_radius_is_chi_distributed(self):
        # r**2 is chi-square(nstar): mean nstar, variance 2 nstar.
        nstar, count = 6, 4000
        r = NormalKernel().sample_radius(np.random.default_rng(12), nstar, count)
        assert r.shape == (count,)
        assert (r >= 0).all()
        assert abs(np.mean(r**2) - nstar) <= 5 * math.sqrt(2 * nstar / count)

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

    @pytest.mark.parametrize(
        "scale",
        [
            unmatricize(np.triu(np.ones((3, 3))), Shape((3,))),
            KroneckerFactors((np.eye(3),)),
        ],
        ids=["asymmetric-dense", "kronecker"],
    )
    def test_shape_is_checked_first(self, scale):
        # One message for both scale kinds, before any symmetry check.
        with pytest.raises(ShapeError, match="^scale shape 3 does not match location shape 2$"):
            TensorNormalParams(DenseTensor.zeros((2,)), scale)

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

    @pytest.mark.parametrize(
        "m, pivot, attempts",
        [(-np.eye(2), 0, 0), (np.array([[1.0, 2.0], [2.0, 1.0]]), 1, 1)],
        ids=["negative-definite", "indefinite"],
    )
    def test_non_pd_dense_scale_names_its_pivot(self, m, pivot, attempts, monkeypatch):
        # A dense scale goes through the Kronecker sign rule as one factor:
        # a negative first entry is refused before any factorization, and
        # a positive one is factored once, as itself, never negated.
        import tensorstat.linalg as la

        tried = []
        factor = la._cholesky_or_none
        monkeypatch.setattr(la, "_cholesky_or_none", lambda a: tried.append(a) or factor(a))
        message = f"^matrix is not positive definite: pivot {pivot} is non-positive$"
        with pytest.raises(DefinitenessError, match=message) as info:
            TensorNormalParams(DenseTensor.zeros((2,)), unmatricize(m, Shape((2,))))
        assert info.value.pivot == pivot
        assert len(tried) == attempts
        assert all(np.array_equal(a, m) for a in tried)

    @pytest.mark.parametrize(
        "location, scale, kernel",
        [
            (SquareTensor.identity((2,)), SquareTensor.identity((2,)), NormalKernel()),
            (DenseTensor.zeros((2,)), np.eye(2), NormalKernel()),
            (DenseTensor.zeros((2,)), SquareTensor.identity((2,)), "normal"),
        ],
        ids=["square-location", "array-scale", "string-kernel"],
    )
    def test_wrong_argument_type_is_refused(self, location, scale, kernel):
        with pytest.raises(TypeError):
            EllipticalParams(location, scale, kernel)

    @pytest.mark.parametrize(
        "name", ["location", "scale", "kernel", "log_det", "scale_matrix", "chol"]
    )
    @pytest.mark.parametrize(
        "make",
        [lambda loc, s: EllipticalParams(loc, s, StudentKernel(nu=5.0)), TensorNormalParams],
        ids=["elliptical", "normal"],
    )
    @pytest.mark.parametrize(
        "scale",
        [SquareTensor.identity((2, 2)), KroneckerFactors((np.eye(2), 2.0 * np.eye(2)))],
        ids=["dense", "kronecker"],
    )
    def test_attributes_cannot_be_assigned(self, make, scale, name):
        p = make(DenseTensor.zeros((2, 2)), scale)
        before = getattr(p, name)
        with pytest.raises(AttributeError):
            setattr(p, name, 5.0)
        assert getattr(p, name) is before
        assert normal_log_density(p, DenseTensor.zeros((2, 2))) == pytest.approx(
            -2.0 * math.log(2.0 * math.pi) - 0.5 * p.log_det, rel=1e-15
        )

    def test_kronecker_scale_matrix_peaks_near_its_size(self):
        # The assembled factors are exactly symmetric: no second copy is
        # taken to symmetrize them.
        rng = np.random.default_rng(62)
        mats = tuple(matricize(random_spd(rng, (8,))) for _ in range(3))
        p = TensorNormalParams(DenseTensor.zeros((8, 8, 8)), KroneckerFactors(mats))
        tracemalloc.start()
        try:
            m = p.scale_matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * m.nbytes
        np.testing.assert_array_equal(m, m.T)

    def test_dense_scale_is_checked_for_symmetry_once(self, monkeypatch):
        # The factors are taken at construction; scale_matrix reads them.
        calls = []
        exact = linalg.symmetry

        def counted(m, *args, **kwargs):
            calls.append(m.shape)
            return exact(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "symmetry", counted)
        monkeypatch.setattr(distributions, "symmetry", counted)
        m = np.array(matricize(random_spd(np.random.default_rng(62), (2, 3))))
        m[0, 1] += 1e-15
        p = TensorNormalParams(DenseTensor.zeros((2, 3)), SquareTensor.from_matrix(m, (2, 3)))
        sym = p.scale_matrix
        assert calls == [(6, 6)]
        np.testing.assert_array_equal(sym, exact(m)[0])
        assert sym is p.scale_matrix and not sym.flags.writeable

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

    def test_dense_factor_is_read_only(self):
        # chol.lower of a dense scale is the factor densities whiten with.
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        x = DenseTensor([1.0, 1.0], (2,))
        before = normal_log_density(p, x)
        with pytest.raises(ValueError, match="read-only"):
            p.chol.lower[0, 0] = 2.0
        assert normal_log_density(p, x) == before
        assert p.log_det == 0.0

    def test_kronecker_factors_are_read_only(self):
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([3.0, 4.0, 5.0])))
        p = TensorNormalParams(DenseTensor.zeros((2, 3)), f)
        for low in p._lowers + (p.chol.lower,):
            with pytest.raises(ValueError, match="read-only"):
                low[0, 0] = 2.0


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

    @pytest.mark.parametrize(
        "density",
        [normal_log_density, elliptical_log_density, normal_density, elliptical_density,
         normal_log_density_vec_oracle],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize(
        "point",
        [SquareTensor.identity((2,)), np.zeros(2), [0.0, 0.0]],
        ids=["square", "ndarray", "list"],
    )
    def test_point_must_be_a_dense_tensor(self, density, point):
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(TypeError, match="^point must be a DenseTensor, got "):
            density(p, point)

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

    def test_dense_draws_are_white_noise_times_cholesky_transpose(self):
        # Pins the dense orientation W @ L^T bit for bit; L @ W^T rounds
        # differently here, and diagonal scales cannot tell the two apart.
        rng = np.random.default_rng(71)
        loc, s = random_dense(rng, (4, 4, 4)), random_spd(rng, (4, 4, 4))
        p = TensorNormalParams(loc, s)
        got = normal_sample(p, RngSeed(3), 300).to_matrix()
        w = NormalKernel()._standard_draws(RngSeed(3).generator(), 64, 300)
        want = vec(loc) + w @ np.linalg.cholesky(matricize(s)).T
        np.testing.assert_array_equal(got, want)

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


class TestKernelArrays:
    @pytest.mark.parametrize("nu", [5.0, 0.5, 1e-300])
    def test_student_log_g_over_an_array_equals_pointwise(self, nu):
        # q = 0, ordinary q, and at nu = 1e-300 a q whose q / nu overflows
        # float64, so the branch without the quotient; no warning either way.
        kernel = StudentKernel(nu=nu)
        q = np.array([0.0, 0.5, 3.0, 17.25, 2e10])
        got = kernel.log_g(q, 4)
        assert got.shape == q.shape
        np.testing.assert_array_equal(got, [kernel.log_g(float(v), 4) for v in q])
        assert np.isfinite(got).all()


@pytest.mark.parametrize(
    "kernel", [NormalKernel(), StudentKernel(nu=5.0)], ids=["normal", "student:5"]
)
def test_overflowing_linear_density_is_inf(kernel):
    # At scale 1e-200 I the log-density at the location is about 917, beyond
    # exp's float64 range; the linear wrappers give inf, as det does.
    loc = DenseTensor.zeros((2, 2))
    p = EllipticalParams(loc, 1e-200 * SquareTensor.identity((2, 2)), kernel)
    assert 709.8 < elliptical_log_density(p, loc) < math.inf
    assert elliptical_density(p, loc) == math.inf
    assert 709.8 < normal_log_density(p, loc) < math.inf
    assert normal_density(p, loc) == math.inf


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

    def test_nan_deviation_fails(self, monkeypatch):
        import tensorstat.distributions as dist

        shape = Shape((2, 2))
        f = KroneckerFactors((np.eye(2), np.eye(2)))
        dense = TensorNormalParams(DenseTensor.zeros(shape), SquareTensor.identity(shape))
        structured = TensorNormalParams(DenseTensor.zeros(shape), f)
        exact = dist.normal_log_density_batch
        monkeypatch.setattr(
            dist,
            "normal_log_density_batch",
            lambda p, pts: np.full(len(pts), math.nan) if p is structured else exact(p, pts),
        )
        report = kronecker_equivalence_check(dense, structured, probes=5, seed=RngSeed(9))
        assert math.isnan(report.max_abs_deviation)
        assert not report.passed

    def test_shape_mismatch(self):
        a = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        b = TensorNormalParams(DenseTensor.zeros((3,)), SquareTensor.identity((3,)))
        with pytest.raises(ShapeError):
            kronecker_equivalence_check(a, b)

    @pytest.mark.parametrize("probes", [0, -1])
    def test_needs_a_probe(self, probes):
        # No probe would compare nothing and still report a pass.
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(ValueError, match="probes must be at least 1"):
            kronecker_equivalence_check(p, p, probes=probes)

    @pytest.mark.parametrize("tolerance", [math.nan, -1e-10, -math.inf])
    def test_needs_a_tolerance_that_can_pass(self, tolerance):
        # A NaN tolerance fails every comparison and a negative one any.
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        with pytest.raises(ValueError, match="tolerance must be a non-negative number"):
            kronecker_equivalence_check(p, p, tolerance=tolerance)

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


def negate(f, modes):
    return KroneckerFactors(tuple(-a if k in modes else a for k, a in enumerate(f.factors)))


def refuse_dense_route(monkeypatch):
    # Fail on any Kronecker assembly or dense Cholesky; linalg.cholesky
    # factors through linalg.cholesky_lower.
    import tensorstat.distributions as dist
    import tensorstat.linalg as la

    def refuse(*_args, **_kwargs):
        raise AssertionError("dense route taken")

    monkeypatch.setattr(dist, "kronecker_assemble", refuse)
    monkeypatch.setattr(la, "kronecker_assemble", refuse)
    monkeypatch.setattr(la, "cholesky_lower", refuse)


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
        refuse_dense_route(monkeypatch)
        rng = np.random.default_rng(82)
        f = random_spd_factors(rng, (2, 3, 4))
        loc = random_dense(rng, (2, 3, 4))
        p = TensorNormalParams(loc, f)
        pe = EllipticalParams(loc, f, StudentKernel(nu=5.0))
        x = random_dense(rng, (2, 3, 4))
        assert math.isfinite(normal_log_density(p, x))
        assert math.isfinite(elliptical_log_density(pe, x))
        assert np.isfinite(normal_log_density_batch(p, rng.standard_normal((3, 24)))).all()

    @pytest.mark.parametrize("count", [0, 20])
    @pytest.mark.parametrize(
        "dims", [(3,), (2, 3), (2, 3, 4), (2, 1, 3)], ids=["3", "2x3", "2x3x4", "2x1x3"]
    )
    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_sample_matches_dense_cholesky(self, kernel, dims, count):
        # The same law as the dense Cholesky factor of the assembled scale;
        # only the rounding of the per-mode products differs.
        rng = np.random.default_rng(83)
        f = random_spd_factors(rng, dims)
        loc = random_dense(rng, dims)
        p = EllipticalParams(loc, f, kernel)
        got = elliptical_sample(p, RngSeed(5), count).to_matrix()
        w = kernel._standard_draws(RngSeed(5).generator(), p.nstar, count)
        want = vec(loc) + w @ np.linalg.cholesky(kronecker_assemble(f)).T
        assert got.shape == want.shape == (count, p.nstar)
        worst = np.abs(got - want).max(initial=0.0)
        assert worst <= 1e-12 * np.abs(want).max(initial=1.0)

    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_sample_is_deterministic(self, kernel):
        rng = np.random.default_rng(86)
        f = random_spd_factors(rng, (3, 2, 4))
        p = EllipticalParams(random_dense(rng, (3, 2, 4)), f, kernel)
        a = elliptical_sample(p, RngSeed(9, 2), 40).to_matrix()
        b = elliptical_sample(p, RngSeed(9, 2), 40).to_matrix()
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_sample_never_assembles(self, monkeypatch, kernel):
        refuse_dense_route(monkeypatch)
        rng = np.random.default_rng(87)
        f = random_spd_factors(rng, (2, 3, 4))
        p = EllipticalParams(random_dense(rng, (2, 3, 4)), f, kernel)
        assert np.isfinite(elliptical_sample(p, RngSeed(1), 10).to_matrix()).all()
        assert np.isfinite(normal_sample(p, RngSeed(1), 10).to_matrix()).all()

    def test_negated_factors_are_the_same_law(self, monkeypatch):
        # An even number of negative definite factors is the same scale:
        # the same per-mode factors, so the same bytes, and no assembly.
        rng = np.random.default_rng(88)
        refuse_dense_route(monkeypatch)
        for dims, negated in (((2, 3), (0, 1)), ((2, 3, 4), (0, 2))):
            f = random_spd_factors(rng, dims)
            loc = random_dense(rng, dims)
            points = rng.standard_normal((5, f.shape.nstar))
            for kernel in (NormalKernel(), StudentKernel(nu=5.0)):
                p = EllipticalParams(loc, f, kernel)
                q = EllipticalParams(loc, negate(f, negated), kernel)
                assert q.log_det == p.log_det
                np.testing.assert_array_equal(
                    elliptical_sample(q, RngSeed(4), 15).to_matrix(),
                    elliptical_sample(p, RngSeed(4), 15).to_matrix(),
                )
                for x in points:
                    t = DenseTensor.from_array(x.reshape(dims, order="F"))
                    assert elliptical_log_density(q, t) == elliptical_log_density(p, t)
                np.testing.assert_array_equal(
                    normal_log_density_batch(q, points), normal_log_density_batch(p, points)
                )

    @pytest.mark.parametrize(
        "dims", [(2, 2), (2, 3, 4), (16, 16, 4), (16, 16, 16)], ids=lambda d: "x".join(map(str, d))
    )
    @pytest.mark.parametrize(
        "kernel", [NormalKernel(), StudentKernel(nu=5.0)], ids=["normal", "student:5"]
    )
    def test_batch_equals_pointwise_bit_for_bit(self, dims, kernel):
        # A point's log-density is the one-row case of the batch: the same
        # whitening and one contiguous dot per row, whatever the block.
        rng = np.random.default_rng(89)
        f = random_spd_factors(rng, dims)
        p = EllipticalParams(random_dense(rng, dims), f, kernel)
        pts = rng.standard_normal((6, f.shape.nstar))
        points = [DenseTensor(x, f.shape) for x in pts]
        single = [normal_log_density(p, x) for x in points]
        np.testing.assert_array_equal(normal_log_density_batch(p, pts), single)
        single = [elliptical_log_density(p, x) for x in points]
        np.testing.assert_array_equal(elliptical_log_density_batch(p, pts), single)

    @pytest.mark.parametrize(
        "kernel", [NormalKernel(), StudentKernel(nu=5.0)], ids=["normal", "student:5"]
    )
    def test_far_row_is_minus_inf_beside_a_near_row(self, kernel):
        # The far row's deviation overflows float64 though every entry is
        # finite; its log-density is -inf with no warning, and the near row
        # keeps its one-row bits.
        coupled = np.array([[1.0, 0.5], [0.5, 1.0]])
        loc = DenseTensor([-1.7e308, 0.0, 0.0, 0.0], (2, 2))
        p = EllipticalParams(loc, KroneckerFactors((coupled, coupled)), kernel)
        near = np.array([0.25, -1.0, 0.5, 2.0])
        rows = np.array([[1.7e308] * 4, near])
        batch = elliptical_log_density_batch(p, rows)
        assert batch[0] == -math.inf
        assert batch[1] == elliptical_log_density(p, DenseTensor(near, (2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "batch", [elliptical_log_density_batch, normal_log_density_batch],
        ids=["elliptical", "normal"],
    )
    def test_non_finite_row_is_refused(self, batch, bad):
        # A row is refused as a DenseTensor point would be, not given NaN.
        p = EllipticalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)), NormalKernel())
        with pytest.raises(ValueError, match="must be finite"):
            batch(p, np.array([[0.5, 1.0], [bad, 0.0]]))

    @pytest.mark.parametrize("dims", [(2,), (2, 2), (4, 4, 4)], ids=["2", "2x2", "4x4x4"])
    def test_dense_rows_do_not_depend_on_their_block(self, dims):
        # LAPACK solves a lone right-hand side with trsv and several with
        # trsm, which round differently.  So a dense scale's one-point case
        # may sit an ulp or two from the batch, while a row gets the same
        # bits in every batch of two or more rows.
        rng = np.random.default_rng(90)
        p = TensorNormalParams(random_dense(rng, dims), random_spd(rng, dims))
        shape = p.shape
        pts = rng.standard_normal((8, shape.nstar))
        batch = normal_log_density_batch(p, pts)
        pairs = [normal_log_density_batch(p, pts[[k, k - 1]])[0] for k in range(8)]
        np.testing.assert_array_equal(pairs, batch)
        single = np.array([normal_log_density(p, DenseTensor(x, shape)) for x in pts])
        assert np.all(np.abs(single - batch) <= 4 * np.spacing(np.abs(batch)))

    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_one_factor_draws_equal_the_dense_scale(self, kernel):
        # One row operator for every scale: a one-factor Kronecker scale is
        # the dense scale, down to the bytes of its draws.
        rng = np.random.default_rng(91)
        a = matricize(random_spd(rng, (16,)))
        loc = random_dense(rng, (16,))
        dense = EllipticalParams(loc, unmatricize(a, Shape((16,))), kernel)
        kron = EllipticalParams(loc, KroneckerFactors((a,)), kernel)
        np.testing.assert_array_equal(
            elliptical_sample(kron, RngSeed(12), 500).to_matrix(),
            elliptical_sample(dense, RngSeed(12), 500).to_matrix(),
        )

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
            ((-np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(3)), 0),
            ((-np.array([[2.0, 1.0], [1.0, 2.0]]), -np.array([[1.0, 2.0], [2.0, 1.0]])), 2),
        ],
    )
    def test_non_pd_product_names_pivot(self, factors, pivot):
        loc = DenseTensor.zeros(tuple(a.shape[0] for a in factors))
        with pytest.raises(DefinitenessError) as info:
            TensorNormalParams(loc, KroneckerFactors(factors))
        assert info.value.pivot == pivot
        assert str(info.value) == f"matrix is not positive definite: pivot {pivot} is non-positive"

    def test_density_memory_stays_small(self):
        # The dense route at 16x16x16 holds several 128 MiB matrices; the
        # same law with two negated factors must not take it either.
        import tracemalloc

        rng = np.random.default_rng(85)
        f = random_spd_factors(rng, (16, 16, 16))
        loc = DenseTensor.zeros((16, 16, 16))
        x = random_dense(rng, (16, 16, 16))
        for scale in (f, negate(f, (0, 1))):
            tracemalloc.start()
            try:
                p = EllipticalParams(loc, scale, StudentKernel(nu=5.0))
                value = elliptical_log_density(p, x)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert math.isfinite(value)
            assert peak < 8 * 2**20

    def test_refusal_memory_stays_small(self):
        # The assembled 16x16x16 product alone is 128 MiB; the refusal reads
        # its pivot, 16 * 16 * 15, from the factors.
        import tracemalloc

        last = np.diag([1.0] * 15 + [-1.0])
        f = KroneckerFactors((np.eye(16), np.eye(16), last))
        loc = DenseTensor.zeros((16, 16, 16))
        tracemalloc.start()
        try:
            with pytest.raises(DefinitenessError) as info:
                TensorNormalParams(loc, f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info.value.pivot == 3840
        assert peak < 2**20

    @pytest.mark.parametrize("kernel", [NormalKernel(), StudentKernel(nu=5.0)])
    def test_sample_memory_stays_small(self, kernel):
        # The dense factor at 16x16x16 alone is 128 MiB; 50 rows are 1.6 MiB.
        import tracemalloc

        rng = np.random.default_rng(89)
        f = random_spd_factors(rng, (16, 16, 16))
        loc = DenseTensor.zeros((16, 16, 16))
        tracemalloc.start()
        try:
            p = EllipticalParams(loc, f, kernel)
            rows = elliptical_sample(p, RngSeed(6), 50).to_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(rows).all()
        assert peak < 16 * 2**20
