"""Workloads of the tensorstat benchmark: inputs, CLI steps and output checks.

Every check recomputes the expected output by a route that shares no code
with tensorstat: files are parsed here with ``json`` / ``struct`` /
``np.frombuffer``, and references come from ``np.cov``, ``np.corrcoef``,
``np.linalg.slogdet``, ``scipy.stats`` or the per-factor Kronecker
identities.  A check returns ``None`` when the output is right and a short
reason when it is not.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import linalg as sla
from scipy import stats as sst
from scipy.special import gammaln

MAGIC = b"TST1"
STUDENT_NU = 5.0
VERIFY_CHECKS = 28
# Above this size the densities are checked against the structured
# per-factor reference instead of scipy's dense one.
DENSE_REFERENCE_MAX_NSTAR = 256
# A sample mean is accepted within this many standard errors of the location.
MEAN_SIGMAS = 7.0


@dataclass
class Inputs:
    """Generated inputs of one run, shared by the steps and their checks."""

    work: Path
    dims: tuple[int, ...]
    seed: int
    factors: tuple[np.ndarray, ...]
    location: np.ndarray  # vec order (first index fastest)
    point: np.ndarray  # vec order

    @property
    def nstar(self) -> int:
        return int(np.prod(self.dims))

    def path(self, name: str) -> Path:
        return self.work / name

    def scale_diag(self) -> np.ndarray:
        """Diagonal of the Kronecker scale in vec order."""
        diag = np.ones(1)
        for a in reversed(self.factors):
            diag = np.kron(diag, np.diag(a))
        return diag

    def input_bytes(self) -> dict[str, int]:
        return {p.name: p.stat().st_size for p in sorted(self.work.iterdir())}


@dataclass(frozen=True)
class Step:
    """One CLI invocation; ``argv`` may use ``{work}`` and ``{seed}``."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[Inputs, str], Optional[str]]
    sample_output: Optional[str] = None  # file whose sha256 must repeat

    def args(self, inputs: Inputs) -> list[str]:
        return [
            a.replace("{work}", str(inputs.work)).replace("{seed}", str(inputs.seed))
            for a in self.argv
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, ...]
    steps: tuple[Step, ...]


# ---------------------------------------------------------------------------
# inputs


def _spd(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n))
    m = b @ b.T / n + np.eye(n)
    return 0.5 * (m + m.T)  # exactly symmetric, as the params reader requires


def _tensor_obj(vec: np.ndarray, dims) -> dict:
    return {"kind": "tensor", "shape": list(dims), "data": [float(v) for v in vec]}


def make_inputs(dims: tuple[int, ...], seed: int, work: Path) -> Inputs:
    """Write ``params.json`` and ``point.json`` for ``dims`` from ``seed``."""
    rng = np.random.default_rng(seed)
    factors = tuple(_spd(rng, n) for n in dims)
    nstar = int(np.prod(dims))
    location = np.linspace(-1.0, 1.0, nstar)
    point = location + 0.5 * rng.standard_normal(nstar)
    params = {
        "location": _tensor_obj(location, dims),
        "scale": {
            "kind": "kronecker",
            "factors": [_tensor_obj(a.ravel(order="F"), a.shape) for a in factors],
        },
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / "params.json").write_text(json.dumps(params) + "\n")
    (work / "point.json").write_text(json.dumps(_tensor_obj(point, dims)) + "\n")
    return Inputs(work, tuple(dims), seed, factors, location, point)


# ---------------------------------------------------------------------------
# independent readers


def _binary_header(raw: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    order = raw[offset]
    dims = struct.unpack_from(f"<{order}I", raw, offset + 1)
    return dims, offset + 1 + 4 * order


def read_samples(path: Path) -> np.ndarray:
    """``(N, nstar)`` matrix of vectorized observations from a sample file."""
    raw = path.read_bytes()
    if raw.startswith(MAGIC):
        (count,) = struct.unpack_from("<Q", raw, 4)
        dims, offset = _binary_header(raw, 12)
        nstar = int(np.prod(dims))
        return np.frombuffer(raw, "<f8", count * nstar, offset).reshape(count, nstar)
    doc = json.loads(raw)
    return np.array([obs["data"] for obs in doc["observations"]], dtype=np.float64)


def read_square(path: Path, nstar: int) -> np.ndarray:
    """``nstar x nstar`` matricization of a square tensor file."""
    raw = path.read_bytes()
    if raw.startswith(MAGIC):
        _dims, offset = _binary_header(raw, 4)
        data = np.frombuffer(raw, "<f8", nstar * nstar, offset)
    else:
        data = np.array(json.loads(raw)["data"], dtype=np.float64)
    return data.reshape((nstar, nstar), order="F")


def _scalar(stdout: str) -> float:
    return float(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# references


def kron_scale(factors) -> np.ndarray:
    """Dense scale matrix; mode 1 varies fastest, so factors go in reverse."""
    out = np.ones((1, 1))
    for a in reversed(factors):
        out = np.kron(out, a)
    return out


def structured_log_density(inputs: Inputs, family: str) -> float:
    """Log-density from per-factor Cholesky factors, never forming the scale.

    ``log det = sum_k (nstar / n_k) log det A_k`` and the quadratic form is
    ``|z|^2`` with ``z`` the deviation solved mode by mode against each
    factor's lower Cholesky factor.
    """
    nstar = inputs.nstar
    z = (inputs.point - inputs.location).reshape(inputs.dims, order="F")
    log_det = 0.0
    for mode, a in enumerate(inputs.factors):
        low = np.linalg.cholesky(a)
        log_det += (nstar / a.shape[0]) * 2.0 * float(np.log(np.diag(low)).sum())
        moved = np.moveaxis(z, mode, 0)
        solved = sla.solve_triangular(low, moved.reshape(a.shape[0], -1), lower=True)
        z = np.moveaxis(solved.reshape(moved.shape), 0, mode)
    q = float(np.sum(z * z))
    if family == "normal":
        return -0.5 * (nstar * math.log(2.0 * math.pi) + log_det + q)
    nu = STUDENT_NU
    return float(
        gammaln(0.5 * (nu + nstar)) - gammaln(0.5 * nu)
        - 0.5 * nstar * math.log(nu * math.pi) - 0.5 * log_det
        - 0.5 * (nu + nstar) * math.log1p(q / nu)
    )


def dense_log_density(inputs: Inputs, family: str) -> float:
    cov = kron_scale(inputs.factors)
    if family == "normal":
        return float(sst.multivariate_normal(inputs.location, cov).logpdf(inputs.point))
    return float(sst.multivariate_t(inputs.location, cov, df=STUDENT_NU).logpdf(inputs.point))


def reference_log_density(inputs: Inputs, family: str) -> float:
    if inputs.nstar <= DENSE_REFERENCE_MAX_NSTAR:
        return dense_log_density(inputs, family)
    return structured_log_density(inputs, family)


# ---------------------------------------------------------------------------
# checks


def _close(got: np.ndarray, want: np.ndarray, rel: float) -> Optional[str]:
    err = float(np.max(np.abs(got - want)))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= rel * scale:
        return f"max abs error {err:.3e} exceeds {rel:g} x {scale:.3e}"
    return None


def check_sample(family: str, count: int, out: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, _stdout: str) -> Optional[str]:
        x = read_samples(inputs.path(out))
        if x.shape != (count, inputs.nstar):
            return f"sample matrix has shape {x.shape}, expected {(count, inputs.nstar)}"
        if not np.isfinite(x).all():
            return "sample file holds a non-finite entry"
        spread = 1.0 if family == "normal" else STUDENT_NU / (STUDENT_NU - 2.0)
        stderr = np.sqrt(spread * inputs.scale_diag() / count)
        worst = float(np.max(np.abs(x.mean(axis=0) - inputs.location) / stderr))
        if not worst <= MEAN_SIGMAS:
            return f"sample mean is {worst:.2f} standard errors from the location"
        return None

    return check


def check_cov(samples: str, out: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, _stdout: str) -> Optional[str]:
        want = np.cov(read_samples(inputs.path(samples)), rowvar=False)
        return _close(read_square(inputs.path(out), inputs.nstar), want, 1e-9)

    return check


def check_corr(samples: str, out: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, _stdout: str) -> Optional[str]:
        got = read_square(inputs.path(out), inputs.nstar)
        if not np.all(np.diag(got) == 1.0):
            return "correlation diagonal is not exactly 1"
        want = np.corrcoef(read_samples(inputs.path(samples)), rowvar=False)
        return _close(got, want, 1e-9)

    return check


def check_density(family: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, stdout: str) -> Optional[str]:
        got = _scalar(stdout)
        want = reference_log_density(inputs, family)
        if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
            return f"log-density {got!r}, reference {want!r}"
        return None

    return check


def check_det(matrix: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, stdout: str) -> Optional[str]:
        got = _scalar(stdout)
        sign, logabs = np.linalg.slogdet(read_square(inputs.path(matrix), inputs.nstar))
        with np.errstate(over="ignore"):
            want = float(sign * np.exp(logabs))
        # Outside the float64 range the printed value must be the rounded
        # one: a signed infinity or zero.
        if not math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-300):
            return f"determinant {got!r}, slogdet gives {float(sign):+g} x exp({float(logabs)!r})"
        return None

    return check


def check_inverse(matrix: str, out: str) -> Callable[[Inputs, str], Optional[str]]:
    def check(inputs: Inputs, _stdout: str) -> Optional[str]:
        c = read_square(inputs.path(matrix), inputs.nstar)
        ci = read_square(inputs.path(out), inputs.nstar)
        return _close(c @ ci, np.eye(inputs.nstar), 1e-6)

    return check


def check_verify(_inputs: Inputs, stdout: str) -> Optional[str]:
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    m = re.fullmatch(r"verification PASSED: (\d+)/(\d+) checks passed", last)
    if not m or m.group(1) != m.group(2) or int(m.group(2)) != VERIFY_CHECKS:
        return f"verify summary {last!r} is not {VERIFY_CHECKS}/{VERIFY_CHECKS} passed"
    return None


# ---------------------------------------------------------------------------
# workloads


def _shape_spec(dims) -> str:
    return "x".join(str(n) for n in dims)


def sample_step(name: str, family: str, count: int, out: str) -> Step:
    return Step(
        name,
        ("sample", "{work}/params.json", f"{{work}}/{out}", "--count", str(count),
         "--seed", "{seed}", "--family", family),
        check_sample(family, count, out),
        sample_output=out,
    )


def density_step(name: str, family: str) -> Step:
    return Step(
        name,
        ("density", "{work}/params.json", "{work}/point.json", "--log", "--family", family),
        check_density(family),
    )


def pipeline(dims=(2, 2), count=100_000, verify_n=100_000) -> Workload:
    """The documented default: JSON files, per-observation object work."""
    student = f"student:{STUDENT_NU:g}"
    return Workload("pipeline-2x2", tuple(dims), (
        sample_step("sample", "normal", count, "samples.json"),
        Step("estimate_cov",
             ("estimate", "{work}/samples.json", "{work}/cov.json", "--kind", "cov"),
             check_cov("samples.json", "cov.json")),
        Step("estimate_corr",
             ("estimate", "{work}/samples.json", "{work}/corr.json", "--kind", "corr"),
             check_corr("samples.json", "corr.json")),
        density_step("density", "normal"),
        density_step("density_student", student),
        Step("verify",
             ("verify", "--shape", _shape_spec(dims), "--n", str(verify_n), "--seed", "{seed}"),
             check_verify),
    ))


def wide(dims=(16, 16, 4), count=2000) -> Workload:
    """Large nstar, binary files: covariance accumulation and block I/O."""
    return Workload("wide-1024", tuple(dims), (
        sample_step("sample", "normal", count, "samples.bin"),
        Step("estimate_cov",
             ("estimate", "{work}/samples.bin", "{work}/cov.bin", "--kind", "cov"),
             check_cov("samples.bin", "cov.bin")),
        Step("invert", ("invert", "{work}/cov.bin", "{work}/cov_inv.bin"),
             check_inverse("cov.bin", "cov_inv.bin")),
        Step("det", ("det", "{work}/cov.bin"), check_det("cov.bin")),
        density_step("density", "normal"),
    ))


def kron(dims=(16, 16, 16), count=500) -> Workload:
    """Kronecker params at nstar = 4096: dense scale assembly and Cholesky."""
    student = f"student:{STUDENT_NU:g}"
    return Workload("kron-4096", tuple(dims), (
        density_step("density", "normal"),
        density_step("density_student", student),
        sample_step("sample", "normal", count, "samples.bin"),
        sample_step("sample_student", student, count, "samples_student.bin"),
    ))


WORKLOADS: dict[str, Callable[[], Workload]] = {
    "pipeline-2x2": pipeline,
    "wide-1024": wide,
    "kron-4096": kron,
}

STEP_NAMES = (
    "sample", "sample_student", "estimate_cov", "estimate_corr", "density",
    "density_student", "invert", "det", "verify",
)
