"""Tests for sample sets and the covariance/correlation estimators."""

import numpy as np
import pytest

from tensorstat import stats
from tensorstat.distributions import RngSeed, TensorNormalParams, fit_normal, normal_sample
from tensorstat.errors import DegenerateVarianceError, ShapeError
from tensorstat.stats import (
    SampleSet,
    correlation,
    covariance,
    covariance_of_vec,
    cross_correlation,
    cross_covariance,
    mean_tensor,
)
from tensorstat.tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    matricize,
    outer,
    transpose2d,
)


def make_set(arrays, dims):
    return SampleSet(
        shape=Shape(dims),
        observations=tuple(DenseTensor.from_array(np.reshape(a, dims)) for a in arrays),
    )


def random_set(rng, dims, n):
    return SampleSet(
        shape=Shape(dims),
        observations=tuple(
            DenseTensor.from_array(rng.standard_normal(dims)) for _ in range(n)
        ),
    )


class TestSampleSet:
    def test_from_observations_infers_shape(self):
        s = SampleSet.from_observations([DenseTensor([1.0, 2.0], (2,))])
        assert s.shape == Shape((2,))
        assert len(s) == 1

    def test_from_observations_empty_rejected(self):
        with pytest.raises(ValueError):
            SampleSet.from_observations([])

    def test_empty_with_explicit_shape_allowed(self):
        s = SampleSet(shape=Shape((2, 2)), observations=())
        assert len(s) == 0
        assert s.to_matrix().shape == (0, 4)

    def test_shape_disagreement_rejected(self):
        with pytest.raises(ShapeError):
            SampleSet(
                shape=Shape((2,)),
                observations=(DenseTensor([1.0, 2.0, 3.0], (3,)),),
            )

    def test_to_matrix_rows_are_vecs(self):
        s = make_set([[1.0, 2.0], [3.0, 4.0]], (2,))
        np.testing.assert_array_equal(s.to_matrix(), [[1.0, 2.0], [3.0, 4.0]])

    def test_observations_are_read_only_views_of_the_block(self):
        rng = np.random.default_rng(30)
        tensors = [DenseTensor.from_array(rng.standard_normal((3, 2, 2))) for _ in range(4)]
        s = SampleSet.from_observations(tensors)
        assert s.observations == tuple(tensors)
        assert list(s) == tensors
        assert s[-1] == tensors[-1]
        for k, t in enumerate(tensors):
            np.testing.assert_array_equal(s.to_matrix()[k], t.data)
            np.testing.assert_array_equal(s.block[k], t.array)
            assert np.shares_memory(s[k].array, s.to_matrix())
        assert s.block.shape == (4, 3, 2, 2)
        with pytest.raises(ValueError):
            s.to_matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            s[0].array[0, 0, 0] = 1.0

    def test_constructor_copies_its_inputs(self):
        x = DenseTensor([1.0, 2.0], (2,))
        s = SampleSet.from_observations([x, x])
        assert s == SampleSet(shape=(2,), observations=[x, x])
        assert not np.shares_memory(s.to_matrix(), x.array)

    def test_non_tensor_observation_rejected(self):
        with pytest.raises(TypeError):
            SampleSet(shape=Shape((2,)), observations=([1.0, 2.0],))


class TestMean:
    def test_singleton(self):
        x = DenseTensor([1.0, -2.0], (2,))
        s = SampleSet.from_observations([x])
        assert mean_tensor(s) == x

    def test_midpoint(self):
        s = make_set([[0.0, 0.0], [2.0, 2.0]], (2,))
        np.testing.assert_array_equal(mean_tensor(s).data, [1.0, 1.0])

    def test_cancellation(self):
        rng = np.random.default_rng(40)
        x = DenseTensor.from_array(rng.standard_normal((2, 2)))
        s = SampleSet.from_observations([x, -1.0 * x])
        assert mean_tensor(s) == DenseTensor.zeros((2, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_tensor(SampleSet(shape=Shape((2,)), observations=()))


class TestCovariance:
    def test_constant_samples_are_zero(self):
        x = DenseTensor([1.0, 2.0], (2,))
        s = SampleSet.from_observations([x, x, x])
        assert covariance(s).value == SquareTensor.zeros((2,))

    def test_two_point_hand_oracle(self):
        # deviations are +-1, sum of squares 2, unbiased divides by N-1=1
        s = make_set([[0.0], [2.0]], (1,))
        np.testing.assert_array_equal(matricize(covariance(s).value), [[2.0]])

    def test_two_point_2d_hand_oracle(self):
        s = make_set([[0.0, 0.0], [2.0, 2.0]], (2,))
        np.testing.assert_array_equal(
            matricize(covariance(s).value), [[2.0, 2.0], [2.0, 2.0]]
        )

    def test_mle_normalization(self):
        s = make_set([[0.0], [2.0]], (1,))
        np.testing.assert_array_equal(matricize(covariance(s, "mle").value), [[1.0]])

    def test_unbiased_needs_two(self):
        s = SampleSet.from_observations([DenseTensor([1.0], (1,))])
        with pytest.raises(ValueError):
            covariance(s)
        assert covariance(s, "mle").value == SquareTensor.zeros((1,))

    def test_unknown_normalization(self):
        s = make_set([[0.0], [2.0]], (1,))
        with pytest.raises(ValueError):
            covariance(s, "bogus")

    def test_mle_needs_one(self):
        with pytest.raises(ValueError, match="at least one observation"):
            covariance(SampleSet(shape=Shape((2,)), observations=()), "mle")

    @pytest.mark.parametrize(
        "m, message",
        [([[1.0, 0.5], [0.0, 1.0]], "symmetric"), ([[1.0, 2.0], [2.0, 1.0]], "semidefinite")],
        ids=["asymmetric", "indefinite"],
    )
    def test_cov_tensor_refuses_a_non_covariance(self, m, message):
        with pytest.raises(ValueError, match=message):
            stats.CovTensor(value=SquareTensor.from_matrix(m, (2,)), normalization="mle")

    @pytest.mark.parametrize(
        "estimator",
        [
            covariance,
            lambda s: covariance(s, "mle"),
            lambda s: cross_covariance(s, make_set([[1e200], [-1e200], [0.0]], (1,))),
            correlation,
            lambda s: cross_correlation(s, s),
            covariance_of_vec,
        ],
        ids=["cov", "cov-mle", "crosscov", "corr", "crosscorr", "cov-of-vec"],
    )
    def test_overflow_is_refused(self, estimator):
        # Finite observations whose products of deviations exceed float64;
        # RuntimeWarnings are errors under this suite's configuration.
        s = make_set([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]], (2,))
        with pytest.raises(ValueError, match="^sample covariance overflows float64$"):
            estimator(s)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(41)
        s = random_set(rng, (2, 2), 7)
        c = covariance(s).value
        assert transpose2d(c) == c

    def test_moment_identity_mle(self):
        rng = np.random.default_rng(42)
        s = random_set(rng, (2, 2), 9)
        mean = mean_tensor(s)
        acc = np.zeros((2, 2, 2, 2))
        for t in s:
            acc += np.multiply.outer(t.array, t.array)
        ref = acc / len(s) - np.asarray(outer(mean, mean).array)
        got = covariance(s, "mle").value.array
        assert np.abs(got - ref).max() <= 1e-12

    def test_diagnostics_match_the_matricization(self):
        rng = np.random.default_rng(31)
        cov = covariance(random_set(rng, (3, 2), 12))
        m = matricize(cov.value)
        assert cov.symmetry_residual == float(np.abs(m - m.T).max()) == 0.0
        assert cov.min_eigenvalue == float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())

    def test_sum_expansion(self):
        rng = np.random.default_rng(43)
        sx = random_set(rng, (2, 2), 11)
        sy = random_set(rng, (2, 2), 11)
        sz = SampleSet(
            shape=sx.shape, observations=tuple(x + y for x, y in zip(sx, sy))
        )
        total = covariance(sz).value.array
        parts = (
            covariance(sx).value.array
            + cross_covariance(sx, sy).value.array
            + cross_covariance(sy, sx).value.array
            + covariance(sy).value.array
        )
        assert np.abs(total - parts).max() <= 1e-12


class TestCrossCovariance:
    def test_self_equals_covariance_bitwise(self):
        rng = np.random.default_rng(44)
        s = random_set(rng, (2, 2), 6)
        self_cross = cross_covariance(s, s).value
        cov = covariance(s).value
        np.testing.assert_array_equal(self_cross.array, cov.array)

    def test_unequal_counts_rejected(self):
        rng = np.random.default_rng(45)
        with pytest.raises(ValueError):
            cross_covariance(random_set(rng, (2,), 3), random_set(rng, (2,), 4))

    def test_negated_second_argument(self):
        rng = np.random.default_rng(46)
        sx = random_set(rng, (2, 2), 8)
        sy = SampleSet(shape=sx.shape, observations=tuple(-1.0 * x for x in sx))
        got = cross_covariance(sx, sy).value.array
        ref = -1.0 * covariance(sx).value.array
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-15)

    def test_index_swap_exact(self):
        rng = np.random.default_rng(47)
        sx = random_set(rng, (2, 2), 10)
        sy = random_set(rng, (2, 2), 10)
        kxy = matricize(cross_covariance(sx, sy).value)
        kyx = matricize(cross_covariance(sy, sx).value)
        np.testing.assert_array_equal(kxy, kyx.T)

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(48)
        sx = random_set(rng, (2,), 12)
        sy = random_set(rng, (3,), 12)
        cross = cross_covariance(sx, sy)
        assert isinstance(cross.value, DenseTensor)
        assert cross.value.shape == Shape((2, 3))
        # entry (i, j) oracle: plain sample covariance of the two cells
        vx = sx.to_matrix()
        vy = sy.to_matrix()
        dx = vx - vx.mean(axis=0)
        dy = vy - vy.mean(axis=0)
        ref = dx.T @ dy / (len(sx) - 1)
        got = cross.value.data.reshape((2, 3), order="F")
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)
        # swap transposes the blocks even in the rectangular case
        swapped = cross_covariance(sy, sx).value.data.reshape((3, 2), order="F")
        np.testing.assert_array_equal(got, swapped.T)

    def test_additivity_in_first_argument(self):
        rng = np.random.default_rng(49)
        n = 9
        sx = random_set(rng, (2, 2), n)
        sy = random_set(rng, (2, 2), n)
        sz = random_set(rng, (2, 2), n)
        sxy = SampleSet(
            shape=sx.shape, observations=tuple(x + y for x, y in zip(sx, sy))
        )
        lhs = cross_covariance(sxy, sz).value.array
        rhs = cross_covariance(sx, sz).value.array + cross_covariance(sy, sz).value.array
        assert np.abs(lhs - rhs).max() <= 1e-12

    @staticmethod
    def _gemm_sized(seed, *dims, n=300):
        # Large enough that the contraction runs through blocked BLAS
        # kernels, whose summation order need not match between Kxy and Kyx.
        rng = np.random.default_rng(seed)
        return [random_set(rng, d, n) for d in dims]

    def test_index_swap_exact_at_gemm_size(self):
        sx, sy = self._gemm_sized(50, (8, 8, 2), (8, 8, 2))
        kxy = matricize(cross_covariance(sx, sy).value)
        kyx = matricize(cross_covariance(sy, sx).value)
        np.testing.assert_array_equal(kxy, kyx.T)

    def test_rectangular_swap_exact_at_gemm_size(self):
        sx, sy = self._gemm_sized(51, (4, 4), (8, 2))
        got = cross_covariance(sx, sy).value
        swapped = cross_covariance(sy, sx).value
        assert got.shape == Shape((4, 4, 8, 2))
        assert swapped.shape == Shape((8, 2, 4, 4))
        np.testing.assert_array_equal(
            got.data.reshape((16, 16), order="F"),
            swapped.data.reshape((16, 16), order="F").T,
        )

    def test_matches_outer_product_loop_at_gemm_size(self):
        sx, sy = self._gemm_sized(54, (4, 4), (8, 2))
        mx, my = mean_tensor(sx).array, mean_tensor(sy).array
        acc = np.zeros((4, 4, 8, 2))
        for x, y in zip(sx, sy):
            acc += np.multiply.outer(x.array - mx, y.array - my)
        got = cross_covariance(sx, sy).value.array
        np.testing.assert_allclose(got, acc / (len(sx) - 1), rtol=0, atol=1e-12)

    def test_self_equals_covariance_bitwise_at_gemm_size(self):
        (s,) = self._gemm_sized(52, (8, 8, 2))
        cov = covariance(s).value
        np.testing.assert_array_equal(cross_covariance(s, s).value.array, cov.array)
        # a separately built set with the same observations gives the same bits
        twin = SampleSet(shape=s.shape, observations=tuple(s))
        np.testing.assert_array_equal(cross_covariance(s, twin).value.array, cov.array)
        m = matricize(cov)
        np.testing.assert_array_equal(m, m.T)

    def test_matches_vec_route_at_gemm_size(self):
        (s,) = self._gemm_sized(53, (8, 8, 2))
        m = matricize(covariance(s).value)
        np.testing.assert_allclose(m, covariance_of_vec(s), rtol=0, atol=1e-12)

    def test_independent_streams_near_zero(self):
        # independent draws decorrelate at the Monte-Carlo rate
        p = TensorNormalParams(DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        sx = normal_sample(p, RngSeed(91, 0), 100_000)
        sy = normal_sample(p, RngSeed(91, 1), 100_000)
        k = matricize(cross_covariance(sx, sy).value)
        assert np.abs(k).max() <= 0.02


class TestCovarianceOfVec:
    def test_matches_matricized_covariance(self):
        rng = np.random.default_rng(50)
        for dims in [(2,), (2, 2), (3, 2)]:
            s = random_set(rng, dims, 13)
            diff = matricize(covariance(s).value) - covariance_of_vec(s)
            assert np.abs(diff).max() <= 1e-12

    def test_constant_samples(self):
        x = DenseTensor([3.0, 4.0], (2,))
        s = SampleSet.from_observations([x, x])
        np.testing.assert_array_equal(covariance_of_vec(s), np.zeros((2, 2)))

    def test_d1_matches_numpy_cov(self):
        rng = np.random.default_rng(51)
        s = random_set(rng, (3,), 10)
        ref = np.cov(s.to_matrix(), rowvar=False, ddof=1)
        np.testing.assert_allclose(covariance_of_vec(s), ref, rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "estimator",
    [lambda s, mode: correlation(s, mode), lambda s, mode: cross_correlation(s, s, mode)],
    ids=["corr", "crosscorr"],
)
def test_unknown_on_degenerate_is_refused(estimator):
    s = make_set([[0.0], [2.0]], (1,))
    with pytest.raises(ValueError, match="on_degenerate must be"):
        estimator(s, "bogus")


class TestCorrelation:
    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(52)
        s = random_set(rng, (2, 2), 15)
        diag = np.diag(matricize(correlation(s).value))
        np.testing.assert_array_equal(diag, np.ones(4))

    def test_perfectly_correlated_cells(self):
        s = make_set([[0.0, 0.0], [2.0, 2.0]], (2,))
        np.testing.assert_allclose(
            matricize(correlation(s).value), np.ones((2, 2)), rtol=0, atol=1e-15
        )

    def test_constant_cell_raises_with_index(self):
        s = make_set([[0.0, 5.0], [2.0, 5.0]], (2,))
        with pytest.raises(DegenerateVarianceError) as info:
            correlation(s)
        assert info.value.index == (1,)
        assert "(1,)" in str(info.value)

    def test_substitute_mode(self):
        s = make_set([[0.0, 5.0], [2.0, 5.0]], (2,))
        r = matricize(correlation(s, on_degenerate="substitute").value)
        np.testing.assert_array_equal(r, [[1.0, 0.0], [0.0, 1.0]])

    def test_bounds(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            s = random_set(rng, (2, 2), int(rng.integers(3, 30)))
            r = matricize(correlation(s).value)
            assert np.abs(r).max() <= 1.0 + 1e-12

    def test_stddev_field(self):
        s = make_set([[0.0, 0.0], [2.0, 4.0]], (2,))
        corr = correlation(s)
        # MLE standard deviations: deviations +-1 and +-2
        np.testing.assert_allclose(corr.stddev.data, [1.0, 2.0], rtol=0, atol=1e-15)

    def test_anticorrelated(self):
        s = make_set([[0.0, 2.0], [2.0, 0.0]], (2,))
        r = matricize(correlation(s).value)
        np.testing.assert_allclose(r, [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-15)


class TestCrossCorrelation:
    def test_matches_self_correlation_off_diagonal(self):
        rng = np.random.default_rng(54)
        s = random_set(rng, (2,), 14)
        r_self = matricize(correlation(s).value)
        r_cross = matricize(cross_correlation(s, s).value)
        np.testing.assert_allclose(r_cross, r_self, rtol=0, atol=1e-12)

    def test_rectangular(self):
        rng = np.random.default_rng(55)
        sx = random_set(rng, (2,), 16)
        sy = random_set(rng, (3,), 16)
        r = cross_correlation(sx, sy)
        assert r.value.shape == Shape((2, 3))
        assert np.abs(r.value.array).max() <= 1.0 + 1e-12

    def test_rectangular_matches_corrcoef_column_major(self):
        rng = np.random.default_rng(56)
        sx = random_set(rng, (2, 3), 40)
        sy = random_set(rng, (3,), 40)
        r = cross_correlation(sx, sy)
        assert isinstance(r.value, DenseTensor)
        assert r.value.shape == Shape((2, 3, 3))
        ref = np.corrcoef(sx.to_matrix(), sy.to_matrix(), rowvar=False)[:6, 6:]
        np.testing.assert_allclose(
            r.value.array, ref.reshape((2, 3, 3), order="F"), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            r.stddev_x.array, sx.to_matrix().std(axis=0).reshape((2, 3), order="F"),
            rtol=1e-12,
        )
        np.testing.assert_allclose(r.stddev_y.array, sy.to_matrix().std(axis=0), rtol=1e-12)

    def test_degenerate_names_argument_and_cell(self):
        sx = make_set([[0.0], [2.0]], (1,))
        sy = make_set([[5.0], [5.0]], (1,))
        with pytest.raises(DegenerateVarianceError) as info:
            cross_correlation(sx, sy)
        assert info.value.index == (0,)
        assert "second-argument" in str(info.value)

    def test_substitute_mode_zeroes_degenerate(self):
        sx = make_set([[0.0], [2.0]], (1,))
        sy = make_set([[5.0], [5.0]], (1,))
        r = cross_correlation(sx, sy, on_degenerate="substitute")
        np.testing.assert_array_equal(r.value.data, [0.0])


def bits(a):
    return np.ascontiguousarray(a).tobytes()


# Shapes and sample counts for the stacked estimator cores; the last count
# makes every contraction a full-size BLAS GEMM.
STACK_CASES = [((2,), 6), ((2, 2), 9), ((3, 2, 2), 12), ((8, 8), 2000)]


class TestStackedCores:
    # Each stacked estimator over G=3 sets gives, set by set, the bits of
    # the public call on that one set.

    @staticmethod
    def stack(rng, dims, n):
        rows = rng.standard_normal((3, n, int(np.prod(dims))))
        return rows, [SampleSet._wrap(r, Shape(dims)) for r in rows]

    @pytest.mark.parametrize("dims, n", STACK_CASES)
    @pytest.mark.parametrize("normalization", ["unbiased", "mle"])
    def test_cross_covariances(self, dims, n, normalization):
        rng = np.random.default_rng(n)
        shape = Shape(dims)
        rx, sets_x = self.stack(rng, dims, n)
        ry, sets_y = self.stack(rng, dims, n)
        pairs = stats._cross_covariances(rx, ry, shape, shape, normalization)
        selves = stats._cross_covariances(rx, rx, shape, shape, normalization)
        for g in range(3):
            ref = cross_covariance(sets_x[g], sets_y[g], normalization).value.array
            assert bits(pairs[g]) == bits(ref)
            ref = cross_covariance(sets_x[g], sets_x[g], normalization).value.array
            assert bits(selves[g]) == bits(ref)

    @pytest.mark.parametrize("dims, n", STACK_CASES)
    @pytest.mark.parametrize("normalization", ["unbiased", "mle"])
    def test_vec_covariances(self, dims, n, normalization):
        rows, sets = self.stack(np.random.default_rng(n), dims, n)
        got = stats._vec_covariances(rows, normalization)
        for g in range(3):
            assert bits(got[g]) == bits(covariance_of_vec(sets[g], normalization))

    @pytest.mark.parametrize("dims, n", STACK_CASES)
    def test_correlations(self, dims, n):
        rows, sets = self.stack(np.random.default_rng(n), dims, n)
        r, sd = stats._correlations(rows, Shape(dims), "error")
        for g in range(3):
            corr = correlation(sets[g])
            assert bits(r[g]) == bits(matricize(corr.value))
            assert bits(sd[g]) == bits(corr.stddev.data)


def test_correlation_and_fit_normal_take_no_eigen_decomposition(monkeypatch):
    # Only covariance returns the CovTensor diagnostics; the estimators that
    # use a covariance's value alone never pay for its eigenvalues.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    s = random_set(np.random.default_rng(56), (2, 2), 20)
    correlation(s)
    fit_normal(s)
