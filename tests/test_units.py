"""Units do not change an answer.

A scale ``S`` and the same law in other units, ``(sqrt(c) M, c S)``, get
the same verdict from every symmetry and definiteness check, and their
densities and covariances differ by exactly the change of variables.  The
property suite draws shapes of up to three modes (``nstar <= 64``), the
normal and ``student:5`` kernels and units ``c`` in ``10^[-100, 100]``;
the first tests pin the three cases in which absolute tolerances gave the
wrong verdict.
"""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorstat.distributions import (
    EllipticalParams,
    NormalKernel,
    RngSeed,
    elliptical_log_density,
    kernel_from_spec,
    normal_log_density,
    normal_log_density_vec_oracle,
    normal_sample,
)
from tensorstat.errors import DefinitenessError, SymmetryError
from tensorstat.linalg import KroneckerFactors, symmetry
from tensorstat.stats import CovTensor, SampleSet, covariance, covariance_of_vec
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor, matricize, vec

EPS = np.finfo(np.float64).eps

UNITS = settings(max_examples=60, deadline=None, derandomize=True)


def rounded_spd(n=8, seed=0):
    # Q diag(s) Q^T: symmetric up to rounding only (5.8e-17 of its largest
    # entry at the default seed), positive definite with eigenvalues s.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T


def law(scale, dims, kernel=None, location=None):
    loc = DenseTensor.zeros(dims) if location is None else location
    return EllipticalParams(loc, scale, kernel or NormalKernel())


@pytest.mark.parametrize("units", [1e-6, 1.0, 1e6, 1e12])
def test_rounding_asymmetry_gets_one_verdict_in_any_units(units):
    m = rounded_spd() * units
    assert 0.0 < np.abs(m - m.T).max() <= 1e-16 * np.abs(m).max()
    tensor = SquareTensor.from_matrix(m, Shape((8,)))
    factored, dense = law(KroneckerFactors((m,)), (8,)), law(tensor, (8,))
    x = DenseTensor(np.linspace(-1.0, 1.0, 8) * math.sqrt(units), Shape((8,)))
    assert elliptical_log_density(factored, x) == elliptical_log_density(dense, x)
    cov = CovTensor(tensor, "unbiased")
    assert cov.symmetry_residual == np.abs(m - m.T).max()


def test_largest_exactly_symmetric_scale_is_used_as_is():
    m = np.array([[1.5, 0.5], [0.5, 1.0]]) * 1e308
    x = DenseTensor([1.0, 1.0], Shape((2,)))
    for scale in (SquareTensor.from_matrix(m, Shape((2,))), KroneckerFactors((m,))):
        assert elliptical_log_density(law(scale, (2,)), x) == -711.1456574842324


def test_largest_rounding_asymmetric_scale_is_symmetrized_without_overflow():
    # m + m.T overflows here; the symmetric part halves each term first.
    m = np.array([[1.5, 0.5], [0.5 * (1 + 2.0**-52), 1.0]]) * 1e308
    assert m[0, 1] != m[1, 0]
    x = DenseTensor([1.0, 1.0], Shape((2,)))
    for scale in (SquareTensor.from_matrix(m, Shape((2,))), KroneckerFactors((m,))):
        assert elliptical_log_density(law(scale, (2,)), x) == -711.1456574842324


def test_symmetric_part_keeps_the_bits_of_the_halved_sum():
    # Halving each term first moves no bit where neither form over- or underflows.
    for exponent in range(-300, 301, 25):
        for seed in range(20):
            m = rounded_spd(seed=seed) * 10.0**exponent
            np.testing.assert_array_equal(symmetry(m)[0], 0.5 * (m + m.T))


def test_exactly_symmetric_factor_is_stored_as_a_copy():
    m = rounded_spd()
    m = 0.5 * (m + m.T)
    stored = KroneckerFactors((m,)).factors[0]
    np.testing.assert_array_equal(stored, m)
    assert stored is not m and m.flags.writeable and not stored.flags.writeable


@pytest.mark.parametrize("units", [1e-12, 1e-6, 1.0])
def test_indefinite_covariance_is_refused_in_any_units(units):
    m = np.array([[1.0, 2.0], [2.0, 1.0]]) * units
    message = (
        f"covariance matricization must be positive semidefinite, min eigenvalue {-units:.3e}"
    )
    with pytest.raises(DefinitenessError, match=f"^{re.escape(message)}$"):
        CovTensor(SquareTensor.from_matrix(m, Shape((2,))), "unbiased")


def test_asymmetric_covariance_is_a_symmetry_error():
    m = np.array([[1.0, 0.5], [0.5 + 1e-9, 1.0]]) * 1e-20
    with pytest.raises(SymmetryError, match="^covariance tensor must be symmetric$"):
        CovTensor(SquareTensor.from_matrix(m, Shape((2,))), "unbiased")


# ---------------------------------------------------------------------------
# the property suite

DIMS = st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(lambda d: math.prod(d) <= 64)


@st.composite
def problems(draw):
    """(dims, factors, units exponent, kernel, seed) for one law in two units.

    Each factor is ``Q diag(sign * ev) Q^T`` with ``log ev`` in [-2, 2]:
    positive definite, negative definite (a refused sign unless another
    factor's flips it back) or indefinite, and off its symmetry by a
    relative 0, 1e-14 (accepted) or 1e-6 (refused).
    """
    dims = draw(DIMS)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    factors = []
    for n in dims:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ev = np.exp(rng.uniform(-2.0, 2.0, n))
        signs = draw(st.sampled_from(["+", "+", "+", "-", "mixed"]))
        if signs == "-":
            ev = -ev
        elif signs == "mixed" and n > 1:
            ev[draw(st.integers(0, n - 1))] *= -1.0
        f = q @ (ev * q).T
        f = 0.5 * (f + f.T)
        skew = draw(st.sampled_from([0.0, 0.0, 1e-14, 1e-6]))
        if skew and n > 1:
            f[0, -1] += skew * np.abs(f).max()
        factors.append(f)
    exponent = draw(st.integers(-100, 100))
    kernel = draw(st.sampled_from(["normal", "student:5"]))
    return tuple(dims), factors, exponent, kernel, seed


def verdict(build):
    # (refusal, law): the refusal's type and pivot, or None and the law.
    try:
        return None, build()
    except (SymmetryError, DefinitenessError) as e:
        return (type(e), getattr(e, "pivot", None)), None


def condition(factors):
    return math.prod(np.linalg.cond(0.5 * (f + f.T)) for f in factors)


def close(a, b, cond, scale):
    return abs(a - b) <= 64.0 * cond * EPS * max(1.0, abs(a), abs(b), scale)


@UNITS
@given(problems())
def test_units_change_no_verdict_and_shift_the_log_density(problem):
    dims, factors, exponent, spec, seed = problem
    c, shape, kernel = 10.0**exponent, Shape(dims), kernel_from_spec(spec)
    rng = np.random.default_rng(seed + 1)
    m, x = rng.standard_normal(shape.nstar), rng.standard_normal(shape.nstar)
    routes, points = [], []
    for units, fs in ((1.0, factors), (c, [c * factors[0]] + factors[1:])):
        loc = DenseTensor(math.sqrt(units) * m, shape)
        dense = SquareTensor.from_matrix(functools.reduce(np.kron, reversed(fs)), shape)
        routes.append((verdict(lambda: law(KroneckerFactors(tuple(fs)), dims, kernel, loc)),
                       verdict(lambda: law(dense, dims, kernel, loc))))
        points.append(DenseTensor(math.sqrt(units) * x, shape))
    # Each route refuses (M, S) exactly when it refuses (sqrt(c) M, c S).
    (kron, dense), (kron_c, dense_c) = routes
    assert kron[0] == kron_c[0] and dense[0] == dense_c[0]
    kron, kron_c = kron[1], kron_c[1]
    if kron is None:
        return

    cond, shift = condition(factors), 0.5 * shape.nstar * math.log(c)
    lp = elliptical_log_density(kron, points[0])
    for p, point, want in ((kron, points[0], lp), (kron_c, points[1], lp - shift)):
        # The dense route of the same (symmetrized) scale, and the LU oracle.
        dense = law(SquareTensor.from_matrix(p.scale_matrix, shape), dims, kernel, p.location)
        for got in (elliptical_log_density(p, point), elliptical_log_density(dense, point)):
            assert close(got, want, cond, abs(shift))
        assert close(normal_log_density(p, point), normal_log_density_vec_oracle(p, point),
                     cond, abs(shift))


@UNITS
@given(dims=DIMS, exponent=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
def test_units_scale_the_covariance(dims, exponent, seed):
    shape = Shape(dims)
    c = 10.0**exponent
    n = 2 * shape.nstar + 3
    draws = normal_sample(law(SquareTensor.identity(dims), dims), RngSeed(seed), n)
    scaled = SampleSet(shape, (DenseTensor(math.sqrt(c) * vec(t), shape) for t in draws))
    cov, cov_c = covariance(draws), covariance(scaled)
    for s, got in ((draws, cov), (scaled, cov_c)):
        m = matricize(got.value)
        assert np.abs(m - covariance_of_vec(s)).max() <= 4 * n * EPS * np.abs(m).max()
        assert got.symmetry_residual == 0.0
    want = c * matricize(cov.value)
    assert np.abs(matricize(cov_c.value) - want).max() <= 4 * n * EPS * np.abs(want).max()
