"""Tests for the verification harness behind ``tensorstat verify``."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from tensorstat import distributions, linalg, verify
from tensorstat.distributions import (
    NormalKernel,
    TensorNormalParams,
    normal_log_density_batch,
)
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, unmatricize, vec


def test_perturbed_determinant_fails_det_product(monkeypatch):
    exact = linalg._dets
    monkeypatch.setattr(linalg, "_dets", lambda m: exact(m) + 1e-3)
    report = verify.run_verification(Shape((2, 2)), n=2000, seed=1729)
    assert "det-product" in report.failed_names


@pytest.mark.parametrize("n", [2.5, 3.0, "3", True, None])
def test_non_integer_n_is_refused_before_any_check_runs(monkeypatch, n):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_run_check", no_check)
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {re.escape(repr(n))}$"):
        verify.run_verification(Shape((2, 2)), n=n)


def test_numpy_integer_n_is_a_plain_int():
    report = verify.run_verification(Shape((1,)), n=np.int64(2), seed=1)
    assert type(report.n) is int and report.lines()[0] == "shape=1 n=2 seed=1"


def test_nan_determinant_fails_every_det_check(monkeypatch):
    # det-scale reads log |det| from slogdet; the other five read det.
    monkeypatch.setattr(linalg, "_dets", lambda m: np.full(len(m), math.nan))
    monkeypatch.setattr(
        linalg, "_slogdets", lambda m: (np.ones(len(m)), np.full(len(m), math.nan))
    )
    report = verify.run_verification(Shape((2, 2)), n=2000, seed=1729)
    det_checks = [r for r in report.results if r.name.startswith("det-")]
    assert len(det_checks) == 6
    for r in det_checks:
        assert not r.passed and math.isnan(r.deviation), r.line()


def test_one_nan_product_fails_mat_product(monkeypatch):
    # One NaN element in the first stacked contraction: the check sees it
    # among its 200 instances.
    exact = verify._contract_stack
    calls = []

    def nan_once(xs, ys):
        calls.append(len(xs))
        out = exact(xs, ys)
        if len(calls) == 1:
            out[7] = math.nan
        return out

    monkeypatch.setattr(verify, "_contract_stack", nan_once)
    report = verify.run_verification(Shape((2, 2)), n=2000, seed=1729)
    result = next(r for r in report.results if r.name == "mat-product")
    assert not result.passed and math.isnan(result.deviation)
    assert result.samples == verify.INSTANCES
    assert calls[0] == verify.INSTANCES


def uniform_check(calls):
    # A check whose instance is one uniform draw and whose deviation is
    # that draw, NaN for the 17th instance drawn.
    def draw(rng, shape, n):
        calls.append("draw")
        return (float(rng.uniform()),)

    def evaluate(shape, n, values):
        calls.append(len(values))
        first = calls.count("draw") - len(values)
        out = values.copy()
        if first <= 16 < first + len(values):
            out[16 - first] = math.nan
        return out

    check = verify._CHECKS[0]
    assert check.instances == verify.INSTANCES
    return verify._Check(check.name, check.tolerance, check.instances, (draw,), evaluate,
                         lambda n: 1)


def test_driver_reduces_one_nan_instance_to_nan(monkeypatch):
    # Whether the 200 instances are evaluated as one stack or one by one,
    # the NaN of one of them is the check's deviation.
    for batch_bytes, stacks in [(4 << 20, [200]), (1, [1] * 200)]:
        calls = []
        table = (uniform_check(calls),) + verify._CHECKS[1:]
        monkeypatch.setattr(verify, "_CHECKS", table)
        monkeypatch.setattr(verify, "BATCH_BYTES", batch_bytes)
        deviation, samples = verify._run_check(0, 1729, Shape((2,)), 10)
        assert [c for c in calls if c != "draw"] == stacks
        assert calls.count("draw") == samples == verify.INSTANCES
        assert math.isnan(deviation)


def one_at_a_time(index, shape, n):
    # Every instance of the check drawn as _run_check draws them, each
    # evaluated alone.
    check = verify._CHECKS[index]
    rng = distributions.RngSeed(1729, index).generator()
    inputs = [check.draw(rng, shape, n) for _ in range(check.instances)]
    return [float(verify._evaluate(check, shape, n, [i])[0]) for i in inputs]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
def test_stacked_deviation_is_the_largest_one_at_a_time(dims):
    shape = Shape(dims)
    for index, check in enumerate(verify._CHECKS):
        rng = distributions.RngSeed(1729, index).generator()
        assert len(list(verify._batches(check, rng, shape, 100))) == 1
        stacked, _samples = verify._run_check(index, 1729, shape, 100)
        assert stacked == max(one_at_a_time(index, shape, 100)), check.name


# sha256 of each check's drawn inputs at 2x3x2, seed 1729, with every
# positive definite matrix replaced by its Gaussian draw: a GEMM's rounding
# depends on the BLAS kernel, the generator's output does not.
DRAW_DIGESTS = {
    "mat-roundtrip": "62aa6615fcca6e6c94241856023b8314f8bdcb24bdce16c44d608ff08550d346",
    "mat-linearity": "d5a23ba65274b9d4162733d84ca0a56451df05299bf7026005e71457c568552b",
    "mat-transpose": "1303ca25e62a10e0eb933dd0cd27c6eae8ffb33d11a7423312771e316f9f3338",
    "mat-product": "c74254b39cd60636b011711e11e00c763be34ec380e54db0c70d7f1b796d781f",
    "det-scale": "af7021e383a1dd4839f258fa190c443e513820a2e868f02ae211945cb4131c8d",
    "det-transpose": "1b9998fb36a879b795d24057b62c2a2fabc735bfed23155b6e7476be66853ea2",
    "det-product": "6a5bca2666b994f7b357af3b8aab8b8cd30de55a737266ce163d7c69caaf12c5",
    "det-inverse": "13a99844f9a027c305ebd7ff07e7a9085c48f88c5a214c1790ece12b974daf65",
    "inverse-contract": "61a4fb21e536776a9bee2b44bb133d0282ea47b6752cbdc3a4731f024475b0e2",
    "kronecker-mode-scaling": "1e2eb84d63ab8a3aefced3506c4da160db0f744b8b8b839a2d7d8c1e5fb9710c",
    "kronecker-quadratic-form": "c07f225075171ccb35bacd1f87bc7ff183673c7f4d2337006f8bd79dfbab74b6",
    "kronecker-equivalence": "434c01a9f2a540d29670aa07251df32fbbe62fbcc7fb20166a0130728c2838d9",
    "cov-mat-consistency": "73c4be6ceaed36fdbaa2ca252413ef0c322d96d2c21209e98d75f49d53d80221",
    "cov-moment-identity": "03720df05581bf207f22bf8eb85ab459424edc518081a20a5c26e449bfc485e0",
    "cov-sum-expansion": "b842679dc85085c8a1025c8b54220cab3269126311591b1e2e9aee1b1834cdde",
    "cov-index-swap": "fb02f2f3b102275744e8654df9f0f91efe989c7baf3d9f7a222135f1687271a0",
    "corr-unit-diagonal": "5c5bc1e725a32f0932643a3d60eb0c39ff93219f39f17e40d7f0db8d96969191",
    "corr-bounds": "2425941c734e0ebb97a670a9131c7e58966ea01a5a6ddcf01dd3d424c67fa269",
    "independence-zero-crosscov": "46cd608f119547ee4420e1d897c5856e77bb966ebb3788f3f2408fabcb480559",
    "density-equivalence": "440b121d21cbbf2302e7b93523450de5bc12f0b13208d71d4e1f20d4b6495411",
    "moment-recovery-mean": "9c12f5f755c3a210d361f53b6c9bdb72056b682d53584b06383a22bd37e5bdae",
    "moment-recovery-cov": "deef40b1e41e2bab83d93c238e69822aa983822681d7e38b2be231365837cda2",
    "elliptical-normal-consistency": "d78cb97a2013f805c7672e1c14f60f49bc8198ccd545207c8829d1fb92c53f75",
    "elliptical-student-covariance": "a57db521b55b57fc576a39cad8e273e2dc5585010e963beac47d48c7c7a0de4e",
    "sampling-determinism": "40f2dcd22f8aeb36f83ce94aca26c321db864dfd2f0fbfab223fffb9e561baf4",
}
CONSTANT_CHECKS = ("det-identity", "det-zero", "density-normalization")


def test_every_check_draws_the_pinned_inputs(monkeypatch):
    # A refactor of the draws must keep every random input, in order.  The
    # checks whose inputs are constants must not touch their stream.
    monkeypatch.setattr(verify, "_random_spd_matrix",
                        lambda rng, n, *args: rng.standard_normal((n, n)))
    shape = Shape((2, 3, 2))
    assert set(DRAW_DIGESTS) | set(CONSTANT_CHECKS) == set(verify.CHECK_NAMES)
    for index, check in enumerate(verify._CHECKS):
        rng = distributions.RngSeed(1729, index).generator()
        state = rng.bit_generator.state
        digest = hashlib.sha256()
        for batch in verify._batches(check, rng, shape, 100):
            for inputs in batch:
                for value in map(np.asarray, inputs):
                    digest.update(f"{value.dtype.str}{value.shape}".encode())
                    digest.update(value.tobytes())
        if check.name in CONSTANT_CHECKS:
            assert rng.bit_generator.state == state, check.name
        else:
            assert digest.hexdigest() == DRAW_DIGESTS[check.name], check.name


@pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
def test_tolerance_zero_checks_read_exactly_zero(dims):
    report = verify.run_verification(Shape(dims), n=2000, seed=1729)
    exact = [r for r in report.results if r.tolerance == 0.0]
    assert [r.name for r in exact] == [
        "mat-roundtrip", "mat-linearity", "mat-transpose", "det-identity", "det-zero",
        "cov-index-swap", "corr-unit-diagonal", "sampling-determinism",
    ]
    for r in exact:
        assert r.deviation == 0.0, r.line()


def test_det_scale_holds_beyond_float64_determinants():
    # X = Q diag(1e50) at 4x4: log |det X| = 16 log 1e50, about 1842 > 709,
    # so det(X) is inf and the identity lam^16 det(X) = det(lam X) reads NaN.
    shape = Shape((4, 4))
    g = np.random.default_rng(3).standard_normal((2, 16, 16))
    svals = np.full((2, 16), 1e50)
    lam = np.array([-1.7, 0.6])
    assert np.isinf(linalg._dets(verify._well_conditioned(g, svals))).all()
    deviation = verify._det_scale(shape, 100, g, svals, lam)
    tolerance = verify._CHECKS[verify.CHECK_NAMES.index("det-scale")].tolerance
    assert np.isfinite(deviation).all()
    assert (deviation <= tolerance).all()


@pytest.mark.parametrize("nstar", [1, 4, 12])
def test_well_conditioned_matrices_have_the_drawn_singular_values(nstar):
    rng = np.random.default_rng(11)
    draws = [verify._draw_well_conditioned(rng, Shape((nstar,)), 100) for _ in range(3)]
    g, svals = (np.stack(column) for column in zip(*draws))
    x = verify._well_conditioned(g, svals)
    got = np.linalg.svd(x, compute_uv=False)
    want = -np.sort(-svals, axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert ((svals >= 0.5) & (svals <= 2.0)).all()
    if nstar >= 2:
        # det-transpose compares det X with det X^T: X must not be symmetric.
        assert all(not np.allclose(m, m.T) for m in x)


@pytest.mark.parametrize("name", ["moment-recovery-cov", "elliptical-student-covariance"])
def test_covariance_checks_take_no_eigen_decomposition(monkeypatch, name):
    # The checks compare a covariance's value; its diagnostics would be
    # computed and thrown away.
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    deviation, _tolerance, _samples = run_one(name)
    assert 0.0 < deviation < math.inf


def test_batches_are_sized_by_bytes_at_16x16():
    # 200 dense 16x16 square tensors are 100 MiB, and the checks hold
    # several per instance; in batches the whole run stays far below.
    tracemalloc.start()
    try:
        report = verify.run_verification(Shape((16, 16)), n=2000, seed=1729)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert len(report.results) == 28


def test_density_normalization_matches_the_full_grid():
    # The quadrature runs on a 201 x 201 grid over the same box; its
    # deviation must be the one the whole 1601 x 1601 grid gives, bit for bit.
    shape = Shape((2,))
    p = TensorNormalParams(
        DenseTensor.zeros(shape), unmatricize(np.array([[1.0, 0.3], [0.3, 1.0]]), shape)
    )
    axis = np.linspace(-8.0, 8.0, 1601)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = np.exp(normal_log_density_batch(p, pts)).reshape(1601, 1601)
    full = abs(float(np.trapezoid(np.trapezoid(dens, axis, axis=1), axis, axis=0)) - 1.0)
    deviation, samples = run_one("density-normalization")[::2]
    assert samples == 201**2
    assert deviation.hex() == full.hex()


def run_one(name):
    index = verify.CHECK_NAMES.index(name)
    deviation, samples = verify._run_check(index, 1729, Shape((2, 2)), 100)
    return deviation, verify._CHECKS[index].tolerance, samples


def density_normalization():
    deviation, tolerance, _samples = run_one("density-normalization")
    return deviation, tolerance


def test_density_normalization_reads_rounding_only():
    deviation, _tolerance = density_normalization()
    assert deviation <= 1e-14


@pytest.mark.parametrize("factor, expected", [(1.0011, 1.1e-3), (0.998, 2.0e-3)])
def test_scaled_normalizer_fails_density_normalization(monkeypatch, factor, expected):
    exact = NormalKernel.log_norm_constant
    monkeypatch.setattr(
        NormalKernel,
        "log_norm_constant",
        lambda kernel, nstar: exact(kernel, nstar) + math.log(factor),
    )
    deviation, tolerance = density_normalization()
    assert deviation > tolerance
    assert deviation == pytest.approx(expected, rel=1e-6)


def test_doubled_log_det_fails_density_normalization(monkeypatch):
    exact = distributions._log_normalizer
    monkeypatch.setattr(
        distributions, "_log_normalizer", lambda p, kernel: exact(p, kernel) - 0.5 * p.log_det
    )
    deviation, tolerance = density_normalization()
    assert deviation > tolerance
    assert deviation == pytest.approx(4.83e-2, rel=1e-3)


def elliptical_normal_consistency():
    deviation, tolerance, samples = run_one("elliptical-normal-consistency")
    assert samples == verify.INSTANCES
    return deviation, tolerance


def test_elliptical_normal_consistency_compares_two_computations():
    # The kernel route against the tensor form: rounding apart, not equal.
    deviation, tolerance = elliptical_normal_consistency()
    assert 0.0 < deviation <= tolerance


def test_perturbed_whitening_fails_elliptical_normal_consistency(monkeypatch):
    # A whitening off by one part in a million must show.
    exact = distributions._mode_product
    monkeypatch.setattr(
        distributions, "_mode_product", lambda rows, mats, op: exact(rows, mats, op) * (1 + 1e-6)
    )
    deviation, tolerance = elliptical_normal_consistency()
    assert deviation > tolerance


@pytest.mark.parametrize("n", [2000, 3000])
def test_samples_column_counts_what_each_check_ran(n):
    fixed = {
        "kronecker-equivalence": 100,
        "density-normalization": 201**2,
        "sampling-determinism": 64,
        "det-identity": 1,
        "det-zero": 1,
        "independence-zero-crosscov": n,
        "moment-recovery-mean": n,
        "moment-recovery-cov": n,
        "elliptical-student-covariance": 2 * n,
    }
    report = verify.run_verification(Shape((2, 2)), n=n, seed=1729)
    assert [r.name for r in report.results] == list(verify.CHECK_NAMES)
    for r in report.results:
        assert r.samples == fixed.get(r.name, verify.INSTANCES), r.line()
    assert sum(r.samples == verify.INSTANCES for r in report.results) == 19


@pytest.mark.parametrize("n", [1, 0, -1])
def test_fewer_than_two_observations_refused_before_any_check(monkeypatch, n):
    def no_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verify, "_run_check", no_check)
    with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
        verify.run_verification(Shape((2, 2)), n=n)


@pytest.mark.parametrize("name", ["mat-roundtrip", "det-product", "sampling-determinism"])
def test_corrupt_marks_only_the_named_check(name):
    report = verify.run_verification(Shape((2,)), n=2000, seed=1729, corrupt=name)
    result = next(r for r in report.results if r.name == name)
    assert not result.passed
    assert result.deviation == result.tolerance + max(1.0, result.tolerance)
    clean = verify.run_verification(Shape((2,)), n=2000, seed=1729)
    assert set(report.failed_names) - set(clean.failed_names) == {name}


def test_perturbed_sampler_fails_sampling_determinism(monkeypatch):
    # Every second draw is off by one part in 1e12: the repeated draws of
    # one seed then differ, and the tolerance-0 check must see it.
    calls = []

    def every_second(draw):
        def perturbed(p, seed, count):
            calls.append(None)
            s = draw(p, seed, count)
            if len(calls) % 2:
                return s
            return SampleSet._wrap(s.to_matrix() * (1 + 1e-12), s.shape)
        return perturbed

    for name in ("normal_sample", "elliptical_sample"):
        monkeypatch.setattr(verify, name, every_second(getattr(verify, name)))
    report = verify.run_verification(Shape((2,)), n=2000, seed=1729)
    result = next(r for r in report.results if r.name == "sampling-determinism")
    assert not result.passed
    assert result.deviation > 0.0


@pytest.mark.parametrize("dims", [(2,), (2, 2), (3, 2), (3, 2, 2)])
@pytest.mark.parametrize("n", [1, 3, 50])
def test_random_sample_set_rows_match_single_draws(dims, n):
    shape = Shape(dims)
    block = verify._random_rows(np.random.default_rng(9), shape, n)
    rng = np.random.default_rng(9)
    rows = np.array([
        vec(DenseTensor._wrap(rng.standard_normal(shape.dims), shape)) for _ in range(n)
    ])
    np.testing.assert_array_equal(block, rows)
