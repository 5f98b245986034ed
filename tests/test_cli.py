"""Tests for the command-line front end and its exit-code contract."""

import io
import json
import math

import numpy as np
import pytest

from tensorstat.cli import main
from tensorstat.linalg import KroneckerFactors, kronecker_assemble
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, SquareTensor, unmatricize
from tensorstat.tensorfile import (
    read_sample_set,
    read_tensor,
    tensor_to_obj,
    write_params,
    write_sample_set,
    write_tensor,
)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj) + "\n")


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "eye.json"
    write_tensor(str(path), SquareTensor.identity((2, 2)))
    return str(path)


class TestDet:
    def test_identity_prints_one(self, capsys, identity_file):
        code, out, _ = run(capsys, "det", identity_file)
        assert code == 0
        assert out.strip() == "1"

    def test_zero_prints_zero(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        write_tensor(str(path), SquareTensor.zeros((2, 2)))
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert out.strip() == "0"

    def test_diagonal_oracle(self, capsys, tmp_path):
        path = tmp_path / "diag.json"
        write_tensor(str(path), unmatricize(np.diag([1.0, 2.0, 3.0, 4.0]), Shape((2, 2))))
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert float(out) == pytest.approx(24.0, rel=1e-12)

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "det", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "det", str(tmp_path / "absent.json"))
        assert code == 2

    def test_non_square_tensor_exits_2(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        write_tensor(str(path), DenseTensor([1.0, 2.0], (2,)))
        code, _, _ = run(capsys, "det", str(path))
        assert code == 2

    def test_binary_even_order_accepted(self, capsys, tmp_path):
        path = tmp_path / "t.bin"
        write_tensor(str(path), unmatricize(np.diag([2.0, 2.0]), Shape((2,))), binary=True)
        code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert float(out) == pytest.approx(4.0)

    def test_log_prints_sign_then_log_abs(self, capsys, tmp_path):
        path = tmp_path / "neg.json"
        write_tensor(str(path), unmatricize(np.diag([-1.0, 2.0, 3.0, 4.0]), Shape((2, 2))))
        code, out, _ = run(capsys, "det", "--log", str(path))
        assert code == 0
        sign, logabsdet = out.splitlines()
        assert sign == "-1"
        assert float(logabsdet) == pytest.approx(math.log(24.0), rel=1e-14)
        assert logabsdet == f"{float(logabsdet):.17g}"

    def test_log_of_singular(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        write_tensor(str(path), SquareTensor.zeros((2, 2)))
        code, out, _ = run(capsys, "det", "--log", str(path))
        assert code == 0
        assert out.splitlines() == ["0", "-inf"]

    def test_overflow_plain_and_log(self, capsys, tmp_path):
        path = tmp_path / "big.bin"
        write_tensor(str(path), unmatricize(10.0 * np.eye(400), Shape((20, 20))), binary=True)
        with np.errstate(over="ignore"):
            code, out, _ = run(capsys, "det", str(path))
        assert code == 0
        assert out == "inf\n"
        code, out, _ = run(capsys, "det", "--log", str(path))
        assert code == 0
        sign, logabsdet = out.splitlines()
        assert sign == "1"
        assert float(logabsdet) == pytest.approx(400 * math.log(10.0), rel=1e-12)


class TestInvert:
    def test_writes_inverse(self, capsys, tmp_path):
        src = tmp_path / "x.json"
        dst = tmp_path / "inv.json"
        write_tensor(str(src), unmatricize(np.diag([1.0, 2.0, 4.0, 5.0]), Shape((2, 2))))
        code, _, _ = run(capsys, "invert", str(src), str(dst))
        assert code == 0
        inv = read_tensor(str(dst))
        from tensorstat.tensor_core import matricize

        np.testing.assert_allclose(
            np.diag(matricize(inv)), [1.0, 0.5, 0.25, 0.2], rtol=1e-14
        )

    def test_singular_exits_3(self, capsys, tmp_path):
        src = tmp_path / "z.json"
        dst = tmp_path / "never.json"
        write_tensor(str(src), SquareTensor.zeros((2, 2)))
        code, _, err = run(capsys, "invert", str(src), str(dst))
        assert code == 3
        assert not dst.exists()


class TestMatricize:
    def test_writes_matrix_tensor(self, capsys, tmp_path, identity_file):
        dst = tmp_path / "m.json"
        code, _, _ = run(capsys, "matricize", identity_file, str(dst))
        assert code == 0
        m = read_tensor(str(dst))
        assert isinstance(m, DenseTensor)
        assert m.shape == Shape((4, 4))
        np.testing.assert_array_equal(m.array, np.eye(4))


class TestEstimate:
    def write_samples(self, tmp_path, rows, dims, name="s.json"):
        s = SampleSet.from_observations(
            [DenseTensor.from_array(np.reshape(r, dims)) for r in rows]
        )
        path = tmp_path / name
        write_sample_set(str(path), s)
        return str(path)

    def test_two_sample_cov(self, capsys, tmp_path):
        src = self.write_samples(tmp_path, [[0.0], [2.0]], (1,))
        dst = tmp_path / "cov.json"
        code, out, _ = run(capsys, "estimate", src, str(dst), "--kind", "cov")
        assert code == 0
        from tensorstat.tensor_core import matricize

        np.testing.assert_array_equal(matricize(read_tensor(str(dst))), [[2.0]])
        assert "symmetry residual" in out

    def test_constant_samples_corr_exits_3(self, capsys, tmp_path):
        src = self.write_samples(tmp_path, [[1.0, 1.0], [1.0, 5.0]], (2,))
        dst = tmp_path / "corr.json"
        code, _, err = run(capsys, "estimate", src, str(dst), "--kind", "corr")
        assert code == 3
        assert "variance" in err

    def test_self_crosscov_bytes_equal_cov(self, capsys, tmp_path):
        rng = np.random.default_rng(200)
        rows = rng.standard_normal((6, 4))
        src = self.write_samples(tmp_path, rows, (2, 2))
        cov_path = tmp_path / "cov.json"
        cross_path = tmp_path / "cross.json"
        assert run(capsys, "estimate", src, str(cov_path), "--kind", "cov")[0] == 0
        assert run(capsys, "estimate", src, str(cross_path), "--kind", "crosscov")[0] == 0
        assert cov_path.read_bytes() == cross_path.read_bytes()

    def test_crosscov_with_other(self, capsys, tmp_path):
        rng = np.random.default_rng(201)
        a = self.write_samples(tmp_path, rng.standard_normal((5, 2)), (2,), "a.json")
        b = self.write_samples(tmp_path, rng.standard_normal((5, 3)), (3,), "b.json")
        dst = tmp_path / "cross.json"
        code, out, _ = run(
            capsys, "estimate", a, str(dst), "--kind", "crosscov", "--other", b
        )
        assert code == 0
        t = read_tensor(str(dst))
        assert t.shape == Shape((2, 3))

    def test_cov_diagnostics_are_those_of_the_written_tensor(self, capsys, tmp_path):
        rng = np.random.default_rng(202)
        src = self.write_samples(tmp_path, rng.standard_normal((40, 6)), (3, 2))
        dst = tmp_path / "cov.json"
        code, out, _ = run(capsys, "estimate", src, str(dst), "--kind", "cov")
        assert code == 0
        m = read_tensor(str(dst)).data.reshape((6, 6), order="F")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        assert out.splitlines() == [
            "shape: 3x2x3x2",
            f"symmetry residual: {float(np.abs(m - m.T).max()):.3e}",
            f"min matricized eigenvalue: {min_eig:.17g}",
        ]

    def test_count_disagreement_exits_2(self, capsys, tmp_path):
        src = self.write_samples(tmp_path, [[0.0], [2.0]], (1,))
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["count"] = 5
        write_json(tmp_path / "s.json", doc)
        code, _, err = run(capsys, "estimate", src, str(tmp_path / "c.json"), "--kind", "cov")
        assert code == 2
        assert "count" in err

    def test_short_binary_header_is_a_plain_error(self, capsys, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"TST1\x05\x00")
        code, _, err = run(capsys, "estimate", str(path), str(tmp_path / "c.json"), "--kind", "cov")
        assert code == 2
        assert err.startswith("error: binary header is truncated")
        assert "unpack" not in err and len(err.splitlines()) == 1

    def test_shape_disagreement_exits_2(self, capsys, tmp_path):
        objs = [
            tensor_to_obj(DenseTensor([1.0, 2.0], (2,))),
            tensor_to_obj(DenseTensor([1.0, 2.0, 3.0], (3,))),
        ]
        path = tmp_path / "bad.json"
        write_json(path, objs)
        dst = tmp_path / "out.json"
        code, _, _ = run(capsys, "estimate", str(path), str(dst), "--kind", "cov")
        assert code == 2

    def test_single_sample_unbiased_exits_2(self, capsys, tmp_path):
        src = self.write_samples(tmp_path, [[1.0]], (1,))
        dst = tmp_path / "out.json"
        code, _, _ = run(capsys, "estimate", src, str(dst), "--kind", "cov")
        assert code == 2

    def test_directory_input(self, capsys, tmp_path):
        d = tmp_path / "samples"
        d.mkdir()
        write_tensor(str(d / "a.json"), DenseTensor([0.0], (1,)))
        write_tensor(str(d / "b.json"), DenseTensor([2.0], (1,)))
        dst = tmp_path / "cov.json"
        code, _, _ = run(capsys, "estimate", str(d), str(dst), "--kind", "cov")
        assert code == 0
        from tensorstat.tensor_core import matricize

        np.testing.assert_array_equal(matricize(read_tensor(str(dst))), [[2.0]])

    def test_mle_normalization_flag(self, capsys, tmp_path):
        src = self.write_samples(tmp_path, [[0.0], [2.0]], (1,))
        dst = tmp_path / "cov.json"
        code, _, _ = run(
            capsys, "estimate", src, str(dst), "--kind", "cov", "--normalization", "mle"
        )
        assert code == 0
        from tensorstat.tensor_core import matricize

        np.testing.assert_array_equal(matricize(read_tensor(str(dst))), [[1.0]])


@pytest.fixture
def std_normal_params(tmp_path):
    path = tmp_path / "params.json"
    write_params(str(path), DenseTensor.zeros((1,)), SquareTensor.identity((1,)))
    return str(path)


class TestDensity:
    def test_standard_normal_log_at_zero(self, capsys, tmp_path, std_normal_params):
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((1,)))
        code, out, _ = run(
            capsys, "density", std_normal_params, str(point), "--log"
        )
        assert code == 0
        # the printed 17 significant digits parse to exactly the double
        # nearest -0.5*ln(2*pi); "-0.91893853320467274" denotes that same
        # double (its own 17-digit form ends ...78)
        assert float(out) == float("-0.91893853320467274")
        digits = out.strip().lstrip("-").replace(".", "").lstrip("0")
        assert len(digits) == 17

    def test_linear_density_default(self, capsys, tmp_path, std_normal_params):
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((1,)))
        code, out, _ = run(capsys, "density", std_normal_params, str(point))
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_at_location_identity_scale(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        write_params(str(params), DenseTensor.zeros((2, 2)), SquareTensor.identity((2, 2)))
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((2, 2)))
        code, out, _ = run(capsys, "density", str(params), str(point), "--log")
        assert code == 0
        assert float(out) == pytest.approx(-4 * 0.9189385332046727, rel=1e-14)

    def test_kronecker_params_match_dense(self, capsys, tmp_path):
        f = KroneckerFactors((np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))
        loc = DenseTensor.zeros((2, 2))
        kron_params = tmp_path / "kron.json"
        dense_params = tmp_path / "dense.json"
        write_params(str(kron_params), loc, f)
        write_params(
            str(dense_params), loc, unmatricize(kronecker_assemble(f), Shape((2, 2)))
        )
        point = tmp_path / "pt.json"
        write_tensor(
            str(point), DenseTensor([0.3, -0.4, 1.2, 0.8], (2, 2))
        )
        _, out_kron, _ = run(capsys, "density", str(kron_params), str(point), "--log")
        _, out_dense, _ = run(capsys, "density", str(dense_params), str(point), "--log")
        assert abs(float(out_kron) - float(out_dense)) <= 1e-10

    def test_student_family(self, capsys, tmp_path, std_normal_params):
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((1,)))
        code, out, _ = run(
            capsys,
            "density",
            std_normal_params,
            str(point),
            "--family",
            "student:5",
            "--log",
        )
        assert code == 0
        from scipy.stats import multivariate_t

        ref = float(multivariate_t(loc=[0.0], shape=[[1.0]], df=5.0).logpdf([0.0]))
        assert float(out) == pytest.approx(ref, abs=1e-12)

    def test_non_pd_scale_exits_3(self, capsys, tmp_path):
        params = tmp_path / "p.json"
        write_json(
            params,
            {
                "location": tensor_to_obj(DenseTensor.zeros((2,))),
                "scale": tensor_to_obj(
                    unmatricize(np.diag([1.0, -1.0]), Shape((2,)))
                ),
            },
        )
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((2,)))
        code, _, _ = run(capsys, "density", str(params), str(point))
        assert code == 3

    def test_unknown_family_exits_2(self, capsys, tmp_path, std_normal_params):
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((1,)))
        code, _, _ = run(
            capsys, "density", std_normal_params, str(point), "--family", "cauchy"
        )
        assert code == 2

    def test_shape_mismatch_exits_2(self, capsys, tmp_path, std_normal_params):
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor.zeros((2,)))
        code, _, _ = run(capsys, "density", std_normal_params, str(point))
        assert code == 2


class TestSample:
    def test_zero_count_writes_valid_empty_file(self, capsys, tmp_path, std_normal_params):
        out_path = tmp_path / "s.json"
        code, _, _ = run(
            capsys, "sample", std_normal_params, str(out_path), "--count", "0"
        )
        assert code == 0
        s = read_sample_set(str(out_path))
        assert len(s) == 0
        assert s.shape == Shape((1,))

    def test_same_seed_byte_identical(self, capsys, tmp_path, std_normal_params):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                capsys,
                "sample",
                std_normal_params,
                str(path),
                "--count",
                "50",
                "--seed",
                "7",
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_records_seed(self, capsys, tmp_path, std_normal_params):
        out_path = tmp_path / "s.json"
        run(capsys, "sample", std_normal_params, str(out_path), "--count", "3", "--seed", "11")
        doc = json.loads(out_path.read_text())
        assert doc["seed"] == 11

    def test_env_seed_fallback_and_flag_wins(
        self, capsys, tmp_path, std_normal_params, monkeypatch
    ):
        monkeypatch.setenv("TENSORSTAT_SEED", "13")
        env_path = tmp_path / "env.json"
        run(capsys, "sample", std_normal_params, str(env_path), "--count", "5")
        assert json.loads(env_path.read_text())["seed"] == 13

        flag_path = tmp_path / "flag.json"
        run(
            capsys,
            "sample",
            std_normal_params,
            str(flag_path),
            "--count",
            "5",
            "--seed",
            "99",
        )
        assert json.loads(flag_path.read_text())["seed"] == 99
        # explicit seed 13 must reproduce the env-derived file
        explicit = tmp_path / "explicit.json"
        run(
            capsys,
            "sample",
            std_normal_params,
            str(explicit),
            "--count",
            "5",
            "--seed",
            "13",
        )
        assert explicit.read_bytes() == env_path.read_bytes()

    def test_binary_extension_switches_format(self, capsys, tmp_path, std_normal_params):
        out_path = tmp_path / "s.bin"
        code, _, _ = run(
            capsys, "sample", std_normal_params, str(out_path), "--count", "4"
        )
        assert code == 0
        assert out_path.read_bytes().startswith(b"TST1")
        assert len(read_sample_set(str(out_path))) == 4

    def test_student_family_sampling(self, capsys, tmp_path, std_normal_params):
        out_path = tmp_path / "s.json"
        code, _, _ = run(
            capsys,
            "sample",
            std_normal_params,
            str(out_path),
            "--count",
            "8",
            "--family",
            "student:5",
        )
        assert code == 0
        assert len(read_sample_set(str(out_path))) == 8

    def test_sample_then_estimate_pipeline(self, capsys, tmp_path):
        rng = np.random.default_rng(202)
        m = rng.standard_normal((4, 4))
        scale = unmatricize(0.5 * (m @ m.T + (m @ m.T).T) / 4 + np.eye(4), Shape((2, 2)))
        params = tmp_path / "p.json"
        write_params(str(params), DenseTensor.zeros((2, 2)), scale)
        samples = tmp_path / "draws.json"
        code, _, _ = run(
            capsys, "sample", str(params), str(samples), "--count", "20000", "--seed", "5"
        )
        assert code == 0
        est = tmp_path / "cov.json"
        code, _, _ = run(capsys, "estimate", str(samples), str(est), "--kind", "cov")
        assert code == 0
        from tensorstat.tensor_core import matricize

        got = matricize(read_tensor(str(est)))
        np.testing.assert_allclose(got, matricize(scale), atol=0.12)



class TestStudentDegreesOfFreedom:
    """Extreme ``student:NU`` end with one error line, never a warning or NaN."""

    @pytest.fixture
    def files(self, tmp_path):
        params = tmp_path / "p.json"
        write_params(str(params), DenseTensor.zeros((2, 2)), SquareTensor.identity((2, 2)))
        point = tmp_path / "pt.json"
        write_tensor(str(point), DenseTensor([0.5, -1.0, 0.25, 2.0], (2, 2)))
        return str(params), str(point), tmp_path / "s.json"

    @staticmethod
    def assert_one_error_line(err, *words):
        assert err.startswith("error: ") and err.count("\n") == 1
        for word in words:
            assert word in err

    @pytest.mark.parametrize("nu", ["inf", "nan"])
    def test_non_finite_nu_exits_2(self, capsys, files, nu):
        params, point, out_path = files
        code, out, err = run(capsys, "density", params, point, "--family", f"student:{nu}")
        assert (code, out) == (2, "")
        self.assert_one_error_line(err, "nu", nu)
        code, out, err = run(
            capsys, "sample", params, str(out_path), "--count", "3", "--family", f"student:{nu}"
        )
        assert (code, out) == (2, "")
        self.assert_one_error_line(err, "nu", nu)
        assert not out_path.exists()

    def test_tiny_nu_density_is_finite(self, capsys, files):
        params, point, _ = files
        code, out, err = run(
            capsys, "density", params, point, "--family", "student:1e-300", "--log"
        )
        assert (code, err) == (0, "")
        assert math.isfinite(float(out))

    # At 1e-300 the F variates are inf; at 0.01 (seed 17) one is finite
    # but nstar times it overflows.
    @pytest.mark.parametrize("nu, count, seed", [("1e-300", "3", "0"), ("0.01", "200", "17")])
    def test_tiny_nu_sample_exits_2_without_a_file(self, capsys, files, nu, count, seed):
        params, _, out_path = files
        code, out, err = run(
            capsys, "sample", params, str(out_path), "--count", count, "--seed", seed,
            "--family", f"student:{nu}",
        )
        assert (code, out) == (2, "")
        self.assert_one_error_line(err, f"nu={nu}")
        assert not out_path.exists()

    def test_huge_nu_density_normalizer_exits_2(self, capsys, files):
        params, point, _ = files
        code, out, err = run(capsys, "density", params, point, "--family", "student:1e307")
        assert (code, out) == (2, "")
        self.assert_one_error_line(err, "normalizing constant")

class TestVerifyCommand:
    def test_bad_shape_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--shape", "2xx", "--n", "10")
        assert code == 2

    def test_corrupted_det_product_exits_1_and_names_check(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--shape",
            "2x2",
            "--n",
            "100000",
            "--seed",
            "1729",
            "--corrupt",
            "det-product",
        )
        assert code == 1
        failing = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failing) == 1
        assert "det-product" in failing[0]
        assert "failed checks: det-product" in out

    def test_unknown_corrupt_name_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--corrupt", "not-a-check", "--n", "10")
        assert code == 2

    def test_nonpositive_n_exits_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "0")
        assert code == 2


class TestStdinStdout:
    def test_stdin_input(self, capsys, monkeypatch, tmp_path):
        payload = (json.dumps(tensor_to_obj(SquareTensor.identity((2, 2)))) + "\n").encode()

        class FakeStdin:
            buffer = io.BytesIO(payload)

        monkeypatch.setattr("sys.stdin", FakeStdin())
        code, out, _ = run(capsys, "det", "-")
        assert code == 0
        assert out.strip() == "1"

    def test_stdout_output(self, capsysbinary, tmp_path):
        src = tmp_path / "x.json"
        write_tensor(str(src), unmatricize(np.diag([1.0, 2.0]), Shape((2,))))
        code = main(["invert", str(src), "-"])
        captured = capsysbinary.readouterr()
        assert code == 0
        doc = json.loads(captured.out.decode())
        assert doc["kind"] == "square2d"

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run(capsys, "det")
        assert code == 2
        code, _, _ = run(capsys, "nonsense")
        assert code == 2
