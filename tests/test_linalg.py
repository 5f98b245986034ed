"""Tests for determinant, inverse, Cholesky and Kronecker assembly."""

import math
import re
import warnings

import numpy as np
import pytest

from tensorstat.errors import DefinitenessError, ShapeError, SingularTensorError, SymmetryError
from tensorstat.linalg import (
    RCOND_LIMIT,
    CholeskyFactor,
    KroneckerFactors,
    _first_nonpositive_pivot,
    _inverse_and_rcond,
    cholesky,
    det,
    inverse,
    is_positive_definite,
    is_symmetric,
    kronecker_assemble,
    kronecker_cholesky,
    slogdet,
)
from tensorstat.tensor_core import (
    DenseTensor,
    Shape,
    SquareTensor,
    _kron,
    contract_product,
    double_dot_quadratic,
    matricize,
    outer,
    transpose2d,
    unmatricize,
    vec,
)

SHAPES = [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]


def well_conditioned(rng, dims):
    n = int(np.prod(dims))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = rng.uniform(0.5, 2.0, size=n)
    return unmatricize(q1 @ (svals[:, None] * q2), Shape(dims))


def random_spd(rng, dims, ridge=0.5):
    n = int(np.prod(dims))
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + ridge * np.eye(n)
    return unmatricize(0.5 * (m + m.T), Shape(dims))


class TestDet:
    def test_identity(self):
        assert det(SquareTensor.identity((2, 2))) == 1.0

    def test_zero(self):
        assert det(SquareTensor.zeros((2, 2))) == 0.0

    def test_scaled_identity(self):
        # oracle: determinant of diag(3,3,3,3)
        assert det(3.0 * SquareTensor.identity((2, 2))) == pytest.approx(81.0, rel=1e-12)

    def test_scale_property(self):
        rng = np.random.default_rng(20)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            lam = float(rng.uniform(0.5, 2.0))
            nstar = int(np.prod(dims))
            ref = lam**nstar * det(x)
            assert det(lam * x) == pytest.approx(ref, rel=1e-9)

    def test_transpose_property(self):
        rng = np.random.default_rng(21)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            assert det(transpose2d(x)) == pytest.approx(det(x), rel=1e-10)

    def test_product_property(self):
        rng = np.random.default_rng(22)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            y = well_conditioned(rng, dims)
            assert det(contract_product(x, y)) == pytest.approx(
                det(x) * det(y), rel=1e-9
            )

    def test_inverse_property(self):
        rng = np.random.default_rng(23)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            assert det(inverse(x)) == pytest.approx(1.0 / det(x), rel=1e-9)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(24)
        x = well_conditioned(rng, (2, 2))
        assert det(x) == np.linalg.det(matricize(x))


class TestInverse:
    def test_identity_self_inverse(self):
        eye = SquareTensor.identity((2, 2))
        assert inverse(eye) == eye

    def test_scalar_matrix(self):
        x = 2.0 * SquareTensor.identity((2,))
        np.testing.assert_allclose(
            matricize(inverse(x)), 0.5 * np.eye(2), rtol=0, atol=1e-15
        )

    def test_diagonal_oracle(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        x = unmatricize(m, Shape((2, 2)))
        np.testing.assert_allclose(
            matricize(inverse(x)), np.linalg.inv(m), rtol=1e-14, atol=0
        )

    def test_contract_to_identity(self):
        rng = np.random.default_rng(25)
        eye = SquareTensor.identity((2, 2))
        for _ in range(20):
            x = random_spd(rng, (2, 2))
            inv = inverse(x)
            assert np.abs(contract_product(x, inv).array - eye.array).max() <= 1e-10
            assert np.abs(contract_product(inv, x).array - eye.array).max() <= 1e-10

    def test_matches_matrix_inverse(self):
        rng = np.random.default_rng(26)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            np.testing.assert_allclose(
                matricize(inverse(x)),
                np.linalg.inv(matricize(x)),
                rtol=0,
                atol=1e-10,
            )

    def test_singular_refused_with_rcond(self):
        with pytest.raises(SingularTensorError) as info:
            inverse(SquareTensor.zeros((2, 2)))
        assert info.value.rcond == 0.0

    def test_near_singular_refused(self):
        m = np.diag([1.0, 1.0, 1.0, 1e-14])
        with pytest.raises(SingularTensorError) as info:
            inverse(unmatricize(m, Shape((2, 2))))
        assert info.value.rcond < 1e-12

    def test_rcond_estimate_within_factor_nstar(self):
        rng = np.random.default_rng(27)
        for dims in SHAPES + [(4, 5)]:
            m = matricize(well_conditioned(rng, dims))
            sv = np.linalg.svd(m, compute_uv=False)
            exact = sv[-1] / sv[0]
            n = m.shape[0]
            assert exact / n <= _inverse_and_rcond(m)[1] <= exact * n

    def test_subnormal_pivot_refused_with_zero_rcond(self):
        # The inverse overflows to inf; the refusal carries 0.0, not NaN.
        m = np.diag([1.0, 1.0, 1.0, 1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularTensorError) as info:
                inverse(unmatricize(m, Shape((2, 2))))
        assert info.value.rcond == 0.0

    def test_rank_deficient_refused(self):
        # Exactly singular LU (rcond 0.0) and rank deficient up to rounding.
        rng = np.random.default_rng(28)
        cases = [((2,), np.array([[1.0, 2.0], [2.0, 4.0]]))]
        for dims in [(2, 2), (2, 3)]:
            v = rng.standard_normal((math.prod(dims), math.prod(dims) - 1))
            cases.append((dims, v @ v.T))
        for dims, m in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SingularTensorError) as info:
                    inverse(unmatricize(m, Shape(dims)))
            assert info.value.rcond < RCOND_LIMIT


class TestSlogdet:
    def test_large_identity_multiple_does_not_overflow(self):
        x = unmatricize(10.0 * np.eye(400), Shape((20, 20)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sign, logabsdet = slogdet(x)
        assert sign == 1.0
        assert logabsdet == pytest.approx(400 * math.log(10.0), rel=1e-12)

    def test_sign_and_singular(self):
        assert slogdet(unmatricize(np.diag([-2.0, 3.0]), Shape((2,)))) == pytest.approx(
            (-1.0, math.log(6.0)), rel=1e-14
        )
        assert slogdet(SquareTensor.zeros((2,))) == (0.0, -math.inf)

    def test_matches_det(self):
        rng = np.random.default_rng(28)
        for dims in SHAPES:
            x = well_conditioned(rng, dims)
            sign, logabsdet = slogdet(x)
            assert sign * math.exp(logabsdet) == pytest.approx(det(x), rel=1e-12)


class TestCholesky:
    def test_identity(self):
        fac = cholesky(SquareTensor.identity((2, 2)))
        np.testing.assert_array_equal(fac.lower, np.eye(4))

    def test_hand_oracle_2x2(self):
        x = unmatricize(np.array([[4.0, 2.0], [2.0, 3.0]]), Shape((2,)))
        fac = cholesky(x)
        np.testing.assert_allclose(
            fac.lower, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], rtol=1e-15
        )

    def test_reconstruction(self):
        rng = np.random.default_rng(27)
        for dims in SHAPES:
            s = random_spd(rng, dims)
            fac = cholesky(s)
            m = matricize(s)
            rel = np.linalg.norm(fac.lower @ fac.lower.T - m) / np.linalg.norm(m)
            assert rel <= 1e-10
            assert np.diag(fac.lower).min() > 0.0

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(28)
        s = random_spd(rng, (2, 2))
        _, ref = np.linalg.slogdet(matricize(s))
        assert cholesky(s).log_det == pytest.approx(ref, rel=1e-12)

    def test_non_symmetric_rejected(self):
        rng = np.random.default_rng(29)
        x = unmatricize(rng.standard_normal((4, 4)), Shape((2, 2)))
        with pytest.raises(SymmetryError):
            cholesky(x)

    def test_nan_tolerance_refuses(self):
        # ``not asym <= tol`` fails for a NaN tolerance, even on the identity.
        eye = SquareTensor.identity((2,))
        with pytest.raises(SymmetryError):
            cholesky(eye, tol=math.nan)
        assert not is_symmetric(eye, math.nan)
        assert not is_positive_definite(eye, math.nan)

    def test_negative_eigenvalue_names_pivot(self):
        # eigenvalue -1 injected along the second axis
        m = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(DefinitenessError) as info:
            cholesky(unmatricize(m, Shape((3,))))
        assert info.value.pivot == 1
        assert "pivot 1" in str(info.value)

    def test_solve_lower(self):
        rng = np.random.default_rng(30)
        s = random_spd(rng, (2,))
        fac = cholesky(s)
        rhs = rng.standard_normal(2)
        np.testing.assert_allclose(fac.lower @ fac.solve_lower(rhs), rhs, atol=1e-14)

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        s = random_spd(rng, (2, 2))
        a = cholesky(s).lower
        b = cholesky(s).lower
        np.testing.assert_array_equal(a, b)


class TestSymmetryPD:
    def test_identity(self):
        eye = SquareTensor.identity((2, 2))
        assert is_symmetric(eye, 1e-10)
        assert is_positive_definite(eye, 1e-10)

    def test_gram_plus_ridge(self):
        rng = np.random.default_rng(32)
        a = DenseTensor.from_array(rng.standard_normal((2, 2)))
        s = outer(a, a) + 1e-6 * SquareTensor.identity((2, 2))
        assert is_symmetric(s, 1e-10)
        assert is_positive_definite(s, 1e-10)
        # oracle: eigenvalues of the matricization
        assert np.linalg.eigvalsh(matricize(s)).min() > 0.0

    def test_asymmetric_detected(self):
        rng = np.random.default_rng(33)
        x = unmatricize(rng.standard_normal((4, 4)), Shape((2, 2)))
        assert not is_symmetric(x, 1e-10)
        assert not is_positive_definite(x, 1e-10)

    def test_indefinite_detected(self):
        x = unmatricize(np.diag([1.0, -1.0, 1.0, 1.0]), Shape((2, 2)))
        assert is_symmetric(x, 1e-10)
        assert not is_positive_definite(x, 1e-10)

    def test_tolerance_is_overridable(self):
        m = np.eye(2)
        m[0, 1] = 1e-8
        x = unmatricize(m, Shape((2,)))
        assert not is_symmetric(x, 1e-10)
        assert is_symmetric(x, 1e-6)


class TestKronecker:
    def test_identity_factors(self):
        f = KroneckerFactors((np.eye(2), np.eye(2)))
        np.testing.assert_array_equal(kronecker_assemble(f), np.eye(4))

    def test_diagonal_factors_convention(self):
        # direct Kronecker definition with the mode-1 factor varying fastest
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        assembled = kronecker_assemble(f)
        np.testing.assert_array_equal(np.diag(assembled), [3.0, 6.0, 4.0, 8.0])
        # vec-consistency through the quadratic form
        rng = np.random.default_rng(34)
        a = DenseTensor.from_array(rng.standard_normal((2, 2)))
        got = double_dot_quadratic(a, unmatricize(assembled, Shape((2, 2))), a)
        ref = sum(
            (i1 + 1.0) * (3.0 + j * 1.0) * a.array[i1, j] ** 2
            for i1 in range(2)
            for j in range(2)
        )
        assert got == pytest.approx(ref, rel=1e-13)

    def test_single_factor_is_itself(self):
        m = np.array([[2.0, 1.0], [1.0, 3.0]])
        f = KroneckerFactors((m,))
        np.testing.assert_array_equal(kronecker_assemble(f), m)

    def test_mode_scaling_pins_factor_order(self):
        # the factor stored for mode 1 must weight entries by their mode-1 index
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.eye(2)))
        assembled = kronecker_assemble(f)
        rng = np.random.default_rng(35)
        a = DenseTensor.from_array(rng.standard_normal((2, 2)))
        v = vec(a)
        got = float(v @ assembled @ v)
        ref = sum(
            (2.0 if i1 == 1 else 1.0) * a.array[i1, i2] ** 2
            for i1 in range(2)
            for i2 in range(2)
        )
        assert got == pytest.approx(ref, rel=1e-13)

    def test_quadratic_form_consistency(self):
        rng = np.random.default_rng(36)
        for dims in SHAPES:
            mats = []
            for nk in dims:
                a = rng.standard_normal((nk, nk))
                m = a @ a.T / nk + 0.5 * np.eye(nk)
                mats.append(0.5 * (m + m.T))
            f = KroneckerFactors(tuple(mats))
            assembled = kronecker_assemble(f)
            t = DenseTensor.from_array(rng.standard_normal(dims))
            ref = float(vec(t) @ assembled @ vec(t))
            got = double_dot_quadratic(t, unmatricize(assembled, Shape(dims)), t)
            assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)

    def test_shape_property(self):
        f = KroneckerFactors((np.eye(2), np.eye(3)))
        assert f.shape == Shape((2, 3))
        assert kronecker_assemble(f).shape == (6, 6)

    def test_validation(self):
        with pytest.raises(ShapeError):
            KroneckerFactors(())
        with pytest.raises(ShapeError):
            KroneckerFactors((np.zeros((2, 3)),))
        with pytest.raises(SymmetryError):
            KroneckerFactors((np.array([[1.0, 1e-6], [0.0, 1.0]]),))

    def test_empty_factor_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="factor 1 must be a square matrix"):
            KroneckerFactors((np.eye(2), np.zeros((0, 0))))

    def test_asymmetric_factor_message(self):
        message = (
            "factor 0 is not symmetric: max |m - m.T| = 1.000e-06 exceeds "
            "tolerance 1e-10 relative to max |m| = 1.000e+00"
        )
        with pytest.raises(SymmetryError, match=f"^{re.escape(message)}$"):
            KroneckerFactors((np.array([[1.0, 1e-6], [0.0, 1.0]]),))

    def test_factor_is_stored_as_its_symmetric_part(self):
        # An asymmetry within tolerance is removed once, at construction,
        # so the assembled product is exactly symmetric.
        a = np.array([[2.0, 0.5], [0.5 + 5e-13, 3.0]])
        b = np.array([[1.0, 0.25], [0.25, 2.0]])
        f = KroneckerFactors((a, b))
        np.testing.assert_array_equal(f.factors[0], 0.5 * (a + a.T))
        np.testing.assert_array_equal(f.factors[1], b)
        m = kronecker_assemble(f)
        np.testing.assert_array_equal(m, m.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_rejected(self, bad):
        factor = np.array([[bad, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                KroneckerFactors((factor, np.eye(2)))
            with pytest.raises(ValueError, match="finite"):
                KroneckerFactors((np.eye(2), factor))


def random_signed_factor(rng, n):
    # Q diag(ev) Q^T with |ev| in [0.5, 2] and eigenvalue signs all +,
    # all - or mixed.
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = [np.ones(n), -np.ones(n), rng.choice([-1.0, 1.0], size=n)][rng.integers(3)]
    m = q @ (signs * rng.uniform(0.5, 2.0, size=n) * q).T
    return 0.5 * (m + m.T)


ZERO_CORNER_FACTORS = [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
    np.array([[-0.0, 2.0], [2.0, -3.0]]),
]


class TestKroneckerCholesky:
    """The product's verdict and pivot are read from its factors alone."""

    def test_derived_pivot_matches_assembled_loop(self):
        # The assembled product and its column sweep are the oracle here:
        # either the lowers reassemble the product's Cholesky factor, or
        # the refusal names the product's first non-positive pivot.
        rng = np.random.default_rng(2201)
        accepted = refused = 0
        for _ in range(600):
            factors = []
            for _ in range(rng.integers(1, 4)):
                if rng.random() < 0.1:
                    factors.append(ZERO_CORNER_FACTORS[rng.integers(len(ZERO_CORNER_FACTORS))])
                else:
                    factors.append(random_signed_factor(rng, int(rng.integers(1, 5))))
            product = _kron(factors)
            try:
                lowers = kronecker_cholesky(tuple(factors))
            except DefinitenessError as e:
                assert e.pivot == _first_nonpositive_pivot(product)
                refused += 1
                continue
            low = _kron(lowers)
            assert np.all(np.diag(low) > 0.0)
            assert np.abs(low @ low.T - product).max() <= 1e-12 * np.abs(product).max()
            accepted += 1
        assert accepted >= 100 and refused >= 100

    def test_tiny_first_entries_are_accepted(self):
        # The product of the first entries underflows to 0; their signs
        # decide, not their values.
        factors = (np.diag([1e-110, 1.0]),) * 3
        lowers = kronecker_cholesky(factors)
        for low in lowers:
            np.testing.assert_array_equal(low, np.diag([1e-55, 1.0]))


class TestCholeskyFactorValue:
    def test_fields(self):
        fac = CholeskyFactor(row_shape=Shape((2,)), lower=np.eye(2))
        assert fac.log_det == 0.0
        assert fac.row_shape == Shape((2,))
