"""Tests for the command-line front end and its exit-code contract."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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

SRC = Path(__file__).resolve().parents[1] / "src"


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

    def test_non_number_entries_exit_2(self, capsys, tmp_path):
        # numpy would read "1.5" as 1.5 and true as 1.0; JSON says they are
        # not numbers.
        path = tmp_path / "x.json"
        path.write_text('{"kind": "square2d", "rowShape": [2], "data": ["1.5", true, false, "2"]}')
        code, out, err = run(capsys, "det", str(path))
        assert (code, out) == (2, "")
        assert err == "error: tensor data must be a flat list of numbers\n"

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
        code, out, err = run(capsys, "det", str(path))
        assert code == 0
        assert out == "inf\n"
        assert err == ""
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

    @pytest.mark.parametrize("kind", ["cov", "corr", "crosscov"])
    def test_overflowing_covariance_exits_2_without_output(self, capsys, tmp_path, kind):
        rows = [[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]]
        src = self.write_samples(tmp_path, rows, (2,))
        dst = tmp_path / "out.json"
        code, out, err = run(capsys, "estimate", src, str(dst), "--kind", kind)
        assert (code, out, err) == (2, "", "error: sample covariance overflows float64\n")
        assert not dst.exists()

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

    def test_self_crosscov_reads_its_input_once(self, capsys, tmp_path, monkeypatch):
        import tensorstat.cli as cli

        src = self.write_samples(tmp_path, np.eye(3), (3,))
        paths = []

        def counting_read(path):
            paths.append(path)
            return read_sample_set(path)

        monkeypatch.setattr(cli, "read_sample_set", counting_read)
        dst = tmp_path / "cross.json"
        assert run(capsys, "estimate", src, str(dst), "--kind", "crosscov")[0] == 0
        assert paths == [src]

        # Read twice, stdin would be empty the second time.
        class FakeStdin:
            buffer = io.BytesIO((tmp_path / "s.json").read_bytes())

        monkeypatch.setattr("sys.stdin", FakeStdin())
        piped = tmp_path / "piped.json"
        assert run(capsys, "estimate", "-", str(piped), "--kind", "crosscov")[0] == 0
        assert paths == [src, "-"]
        assert piped.read_bytes() == dst.read_bytes()

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

    @pytest.mark.parametrize("kind", ["cov", "corr"])
    def test_other_is_refused_unless_crosscov(self, capsys, tmp_path, monkeypatch, kind):
        # Refused before any file is read or written: the input, the other
        # sample file and the output are never opened.
        import tensorstat.cli as cli

        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "read_sample_set", no_read)
        src = self.write_samples(tmp_path, [[0.0], [2.0]], (1,))
        dst = tmp_path / "out.json"
        code, out, err = run(
            capsys, "estimate", src, str(dst), "--kind", kind,
            "--other", str(tmp_path / "missing.json"),
        )
        assert (code, out) == (2, "")
        assert err == f"error: --other applies only to --kind crosscov, not {kind}\n"
        assert not dst.exists()

    def test_empty_other_is_a_missing_file(self, capsys, tmp_path):
        # An empty --other names no file; it does not fall back to the input.
        src = self.write_samples(tmp_path, [[0.0], [2.0]], (1,))
        dst = tmp_path / "cross.json"
        code, out, err = run(capsys, "estimate", src, str(dst), "--kind", "crosscov", "--other", "")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not dst.exists()

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
        mixed = [
            tensor_to_obj(DenseTensor([1.0, 2.0], (2,))),
            tensor_to_obj(DenseTensor([1.0, 2.0, 3.0], (3,))),
        ]
        # JSON true is not a dimension, though Python's bool is an int.
        obs = {"kind": "tensor", "shape": [True, 2], "data": [1.0, 2.0]}
        boolean = {"kind": "samples", "shape": [True, 2], "observations": [obs, obs]}
        path = tmp_path / "bad.json"
        dst = tmp_path / "out.json"
        for doc in (mixed, boolean):
            write_json(path, doc)
            code, _, err = run(capsys, "estimate", str(path), str(dst), "--kind", "cov")
            assert code == 2, err

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

    @pytest.mark.parametrize(
        "dims, family, expected",
        [
            ((2, 2), "normal", "-6.27533307457505"),
            ((2, 2), "student:5", "-6.1413190035488281"),
            ((16, 16, 4), "normal", "-1833.0109344802754"),
            ((16, 16, 4), "student:5", "-922.45265908614465"),
            ((16, 16, 16), "normal", "-7380.5616976236579"),
            ((16, 16, 16), "student:5", "-3576.3137736603003"),
        ],
    )
    def test_kronecker_log_density_strings_are_pinned(
        self, capsys, tmp_path, dims, family, expected
    ):
        # Benchmark-shaped Kronecker params; the strings pin the per-mode
        # whitening and the quadratic form to the last printed digit.
        rng = np.random.default_rng(2021)
        factors = []
        for n in dims:
            b = rng.standard_normal((n, n))
            m = b @ b.T / n + np.eye(n)
            factors.append(0.5 * (m + m.T))
        nstar = int(np.prod(dims))
        location = np.linspace(-1.0, 1.0, nstar)
        point = location + 0.5 * rng.standard_normal(nstar)
        params, x = tmp_path / "p.json", tmp_path / "x.json"
        write_params(str(params), DenseTensor(location, dims), KroneckerFactors(tuple(factors)))
        write_tensor(str(x), DenseTensor(point, dims))
        code, out, _ = run(capsys, "density", str(params), str(x), "--family", family, "--log")
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize("family", ["normal", "student:5"])
    def test_overflowing_linear_density_prints_inf(self, capsys, tmp_path, family):
        # At scale 1e-200 I the log-density at the location is about 917,
        # beyond exp's float64 range; the linear density is inf, as det's
        # is, with no warning.
        params, point = tmp_path / "p.json", tmp_path / "pt.json"
        loc = DenseTensor.zeros((2, 2))
        write_params(str(params), loc, 1e-200 * SquareTensor.identity((2, 2)))
        write_tensor(str(point), loc)
        code, out, err = run(capsys, "density", str(params), str(point), "--family", family)
        assert (code, out, err) == (0, "inf\n", "")
        code, out, err = run(
            capsys, "density", str(params), str(point), "--family", family, "--log"
        )
        assert (code, err) == (0, "")
        assert 709.8 < float(out) < math.inf

    @pytest.mark.parametrize("family", ["normal", "student:5"])
    @pytest.mark.parametrize(
        "location, scale, point",
        [
            ([-1.7e308, 0.0], [[1.0, 0.5], [0.5, 1.0]], [1.7e308, 1.7e308]),
            ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1e200, 0.0]),
        ],
        ids=["subtract-overflows", "square-overflows"],
    )
    def test_far_point_prints_minus_inf(self, capsys, tmp_path, family, location, scale, point):
        # Finite entries whose deviation or squared distance overflows
        # float64: the log-density is -inf, the density 0, with no warning.
        params, pt = tmp_path / "p.json", tmp_path / "pt.json"
        write_params(str(params), DenseTensor(location, (2,)), unmatricize(scale, Shape((2,))))
        write_tensor(str(pt), DenseTensor(point, (2,)))
        args = ("density", str(params), str(pt), "--family", family)
        assert run(capsys, *args, "--log") == (0, "-inf\n", "")
        assert run(capsys, *args) == (0, "0\n", "")

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

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
    def test_non_pd_kronecker_scale_is_refused_without_assembly(self, tmp_path):
        # The assembled 32x32x32 scale would take 8 GiB; under a 2 GiB
        # address-space limit the refusal must still exit 3, naming the
        # pivot 32 * 32 * 31 read from the factors.
        import resource

        dims = (32, 32, 32)
        last = np.diag([1.0] * 31 + [-1.0])
        params, point = tmp_path / "p.json", tmp_path / "pt.json"
        write_params(
            str(params), DenseTensor.zeros(dims), KroneckerFactors((np.eye(32), np.eye(32), last))
        )
        write_tensor(str(point), DenseTensor.zeros(dims))

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

        # One BLAS thread keeps the interpreter's own reservation small on
        # hosts with many cores.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", "from tensorstat.cli import entry; entry()",
             "density", str(params), str(point)],
            capture_output=True, text=True, env=env, preexec_fn=limit, timeout=120,
        )
        message = "error: matrix is not positive definite: pivot 31744 is non-positive\n"
        assert (proc.returncode, proc.stderr) == (3, message)

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

    def test_memory_error_exits_2_without_a_file(self, capsys, tmp_path, monkeypatch,
                                                 std_normal_params):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 291. TiB")

        monkeypatch.setattr("tensorstat.cli.elliptical_sample", too_large)
        out_path = tmp_path / "s.json"
        code, out, err = run(
            capsys, "sample", std_normal_params, str(out_path), "--count", "10000000000000"
        )
        assert (code, out, err) == (2, "", "error: Unable to allocate 291. TiB\n")
        assert not out_path.exists()

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

    def test_tiny_nu_far_point_density_is_finite(self, capsys, tmp_path):
        # q / nu = 2e10 / 1e-300 overflows float64; the log-density does not.
        params, point = tmp_path / "p.json", tmp_path / "far.json"
        write_params(str(params), DenseTensor.zeros((2,)), SquareTensor.identity((2,)))
        write_tensor(str(point), DenseTensor([1e5, -1e5], (2,)))
        nu, q = 1e-300, 2e10
        expected = (
            math.lgamma(1.0 + nu / 2) - math.lgamma(nu / 2) - math.log(nu * math.pi)
            - (1.0 + nu / 2) * (math.log(q) - math.log(nu))
        )
        code, out, err = run(
            capsys, "density", str(params), str(point), "--family", "student:1e-300", "--log"
        )
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(expected, rel=1e-12)
        assert float(out) == pytest.approx(-716.33, abs=0.01)
        code, out, err = run(
            capsys, "density", str(params), str(point), "--family", "student:1e-300"
        )
        assert (code, err) == (0, "")
        assert float(out) == pytest.approx(math.exp(expected), rel=1e-9)

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

    @pytest.mark.parametrize(
        "spec", ["1_6x1_6", " 2x2", "+2x2", "2 x2", "2x2 ", "2x2\n", "\u0662x2", "2X2", "x2", ""]
    )
    def test_shape_spec_takes_ascii_digits_joined_by_x_only(self, capsys, spec):
        # --n 1 is refused only after the shape parses, so no verify runs.
        code, out, err = run(capsys, "verify", "--shape", spec, "--n", "1")
        assert (code, out) == (2, "")
        assert err == f"error: invalid shape spec {spec!r}; expected the form 2x2 or 3x2x2\n"

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

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exits_2_as_sample_does(
        self, capsys, tmp_path, std_normal_params, seed
    ):
        message = "error: seed must fit in an unsigned 64-bit integer\n"
        code, out, err = run(capsys, "verify", "--n", "10", "--seed", seed)
        assert (code, out, err) == (2, "", message)
        out_path = tmp_path / "s.json"
        code, out, err = run(
            capsys, "sample", std_normal_params, str(out_path), "--count", "1", "--seed", seed
        )
        assert (code, out, err) == (2, "", message)
        assert not out_path.exists()

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 291. TiB")

        monkeypatch.setattr("tensorstat.cli.run_verification", too_large)
        code, out, err = run(capsys, "verify", "--shape", "2", "--n", "10000000000000")
        assert (code, out, err) == (2, "", "error: Unable to allocate 291. TiB\n")

    def test_one_observation_exits_2_before_any_check(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "1")
        assert (code, out, err) == (2, "", "error: --n must be at least 2\n")


class TestNonNumberData:
    """A string, boolean or null data entry exits 2 on every JSON reading path."""

    BAD = ['"1.5"', "true", "false", "null"]

    @pytest.fixture
    def files(self, tmp_path):
        write_params(str(tmp_path / "params.json"), DenseTensor([0.5, -1.0], (2,)),
                     unmatricize(np.diag([1.0, 2.0]), Shape((2,))))
        write_params(str(tmp_path / "kron.json"), DenseTensor([0.5, -1.0], (2,)),
                     KroneckerFactors((np.diag([1.0, 2.0]),)))
        write_tensor(str(tmp_path / "point.json"), DenseTensor([0.25, 4.0], (2,)))
        write_tensor(str(tmp_path / "square.json"),
                     unmatricize(np.diag([1.0, 2.0]), Shape((2,))))
        rows = np.array([[1.5, -2.0], [3.0, 4.25], [0.5, 6.0]])
        write_sample_set(str(tmp_path / "samples.json"), SampleSet._wrap(rows, Shape((2,))))
        doc = json.loads((tmp_path / "samples.json").read_text())
        (tmp_path / "indented.json").write_text(json.dumps(doc, indent=1))
        return tmp_path

    CASES = {
        # (file to spoil, the number in it to replace, argv)
        "det": ("square.json", "2.0", ["det", "{d}/square.json"]),
        "invert": ("square.json", "2.0", ["invert", "{d}/square.json", "{d}/out.json"]),
        "matricize": ("square.json", "2.0", ["matricize", "{d}/square.json", "{d}/out.json"]),
        "estimate-template": (
            "samples.json", "4.25", ["estimate", "{d}/samples.json", "{d}/out.json", "--kind", "cov"]
        ),
        "estimate-general": (
            "indented.json", "4.25",
            ["estimate", "{d}/indented.json", "{d}/out.json", "--kind", "cov"],
        ),
        "density-location": (
            "params.json", "-1.0", ["density", "{d}/params.json", "{d}/point.json"]
        ),
        "density-scale": ("params.json", "2.0", ["density", "{d}/params.json", "{d}/point.json"]),
        "density-point": ("point.json", "4.0", ["density", "{d}/params.json", "{d}/point.json"]),
        "sample-kronecker-factor": (
            "kron.json", "2.0", ["sample", "{d}/kron.json", "{d}/out.json", "--count", "2"]
        ),
    }

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_without_output(self, capsys, files, case, bad):
        name, number, argv = self.CASES[case]
        path = files / name
        text = path.read_text()
        assert number in text
        path.write_text(text.replace(number, bad, 1))
        code, out, err = run(capsys, *(a.format(d=files) for a in argv))
        assert (code, out) == (2, "")
        assert err == "error: tensor data must be a flat list of numbers\n"
        assert not (files / "out.json").exists()


class TestInputErrors:
    """Input errors on paths no other test runs: exit 2, one message, no file."""

    @staticmethod
    def seed_not_an_integer(d, monkeypatch):
        monkeypatch.setenv("TENSORSTAT_SEED", "abc")
        return (["sample", f"{d}/params.json", f"{d}/out.json", "--count", "2"],
                "TENSORSTAT_SEED must be an integer, got 'abc'")

    @staticmethod
    def negative_count(d, monkeypatch):
        return (["sample", f"{d}/params.json", f"{d}/out.json", "--count", "-1"],
                "--count must be non-negative")

    @staticmethod
    def empty_directory(d, monkeypatch):
        (d / "samples").mkdir()
        return (["estimate", f"{d}/samples", f"{d}/out.json", "--kind", "cov"],
                f"sample directory {str(d / 'samples')!r} is empty")

    @staticmethod
    def square_file_in_directory(d, monkeypatch):
        (d / "samples").mkdir()
        write_tensor(str(d / "samples" / "a.json"), SquareTensor.identity((2,)))
        return (["estimate", f"{d}/samples", f"{d}/out.json", "--kind", "cov"],
                "sample file 'a.json' is not a plain tensor")

    @staticmethod
    def square_location(d, monkeypatch):
        eye = tensor_to_obj(SquareTensor.identity((1,)))
        write_json(d / "params.json", {"location": eye, "scale": eye})
        return (["sample", f"{d}/params.json", f"{d}/out.json", "--count", "2"],
                "params location must be a plain tensor")

    @staticmethod
    def order_3_kronecker_factor(d, monkeypatch):
        factor = tensor_to_obj(DenseTensor.zeros((1, 1, 1)))
        write_json(d / "params.json", {
            "location": tensor_to_obj(DenseTensor.zeros((1,))),
            "scale": {"kind": "kronecker", "factors": [factor]},
        })
        return (["sample", f"{d}/params.json", f"{d}/out.json", "--count", "2"],
                "kronecker factors must be order-2 tensors")

    @pytest.mark.parametrize("case", [
        "seed_not_an_integer", "negative_count", "empty_directory",
        "square_file_in_directory", "square_location", "order_3_kronecker_factor",
    ])
    def test_exits_2_with_its_message(self, capsys, tmp_path, monkeypatch, case):
        write_params(str(tmp_path / "params.json"), DenseTensor.zeros((2,)),
                     SquareTensor.identity((2,)))
        argv, message = getattr(self, case)(tmp_path, monkeypatch)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "out.json").exists()


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
