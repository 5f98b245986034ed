"""Batch command-line front end.

Subcommands: ``det``, ``invert``, ``matricize`` (linear algebra on square
tensor files), ``estimate`` (covariance/correlation estimation over sample
files), ``density`` and ``sample`` (tensor normal and elliptical laws), and
``verify`` (the full invariant and Monte-Carlo suite).

Exit codes: 0 success, 1 ``verify`` found a failing check, 2 malformed
input or usage error (a request too large to allocate included), 3
mathematical precondition failure (singular tensor, non-positive-definite
scale, degenerate variance).  Scalars print with 17 significant digits so
they round-trip.  ``TENSORSTAT_SEED`` supplies a default seed where one is
not given on the command line; the flag wins.  The path ``-`` means stdin
or stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import struct
import sys
from typing import Optional

from .distributions import (
    EllipticalParams,
    RngSeed,
    elliptical_density,
    elliptical_log_density,
    elliptical_sample,
    kernel_from_spec,
)
from .errors import (
    DefinitenessError,
    DegenerateVarianceError,
    FileFormatError,
    SingularTensorError,
    SymmetryError,
)
from .linalg import _square_diagnostics, det, inverse, slogdet
from .stats import (
    SampleSet,
    correlation,
    covariance,
    cross_covariance,
)
from .tensor_core import DenseTensor, Shape, SquareTensor, _square_row_shape, matricize
from .tensorfile import (
    read_params,
    read_sample_set,
    read_tensor,
    write_sample_set,
    write_tensor,
)
from .verify import run_verification

DEFAULT_VERIFY_SEED = 1729
DEFAULT_SAMPLE_SEED = 0

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _resolve_seed(value: Optional[int], default: int) -> int:
    if value is not None:
        return value
    env = os.environ.get("TENSORSTAT_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise FileFormatError(
                f"TENSORSTAT_SEED must be an integer, got {env!r}"
            ) from None
    return default


def _parse_shape_spec(spec: str) -> Shape:
    # ASCII digits joined by "x"; int() also takes "1_6", " 2", "+2" and non-ASCII digits.
    try:
        if not re.fullmatch("[0-9]+(x[0-9]+)*", spec):
            raise ValueError
        dims = tuple(int(part) for part in spec.split("x"))
    except ValueError:
        raise FileFormatError(
            f"invalid shape spec {spec!r}; expected the form 2x2 or 3x2x2"
        ) from None
    return Shape(dims)


def _as_square(t) -> SquareTensor:
    # Binary files carry no kind tag; accept any even-order tensor whose
    # index blocks agree and reinterpret it as square.  The reader has
    # already checked its entries and made it read-only, so share it.
    if isinstance(t, SquareTensor):
        return t
    row_shape = _square_row_shape(t.shape.dims) if isinstance(t, DenseTensor) else None
    if row_shape is None:
        raise FileFormatError("a square2d tensor is required (even order, matching index blocks)")
    return SquareTensor._wrap(t.array, row_shape)


def _read_samples(path: str) -> SampleSet:
    if path != "-" and os.path.isdir(path):
        names = sorted(
            entry for entry in os.listdir(path)
            if os.path.isfile(os.path.join(path, entry))
        )
        if not names:
            raise FileFormatError(f"sample directory {path!r} is empty")
        obs = []
        for name in names:
            t = read_tensor(os.path.join(path, name))
            if not isinstance(t, DenseTensor):
                raise FileFormatError(f"sample file {name!r} is not a plain tensor")
            obs.append(t)
        return SampleSet.from_observations(obs)
    return read_sample_set(path)


def _binary_output(path: str, flag: bool) -> bool:
    return flag or path.endswith((".bin", ".tst"))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_det(args) -> int:
    x = _as_square(read_tensor(args.input))
    if args.log:
        sign, logabsdet = slogdet(x)
        print(_fmt(sign))
        print(_fmt(logabsdet))
    else:
        print(_fmt(det(x)))
    return EXIT_OK


def _cmd_invert(args) -> int:
    x = _as_square(read_tensor(args.input))
    write_tensor(args.output, inverse(x), binary=_binary_output(args.output, args.binary))
    return EXIT_OK


def _cmd_matricize(args) -> int:
    x = _as_square(read_tensor(args.input))
    m = DenseTensor.from_array(matricize(x))
    write_tensor(args.output, m, binary=_binary_output(args.output, args.binary))
    return EXIT_OK


def _cmd_estimate(args) -> int:
    if args.other is not None and args.kind != "crosscov":
        raise FileFormatError(f"--other applies only to --kind crosscov, not {args.kind}")
    samples = _read_samples(args.input)
    diagnostics = None
    if args.kind == "cov":
        cov = covariance(samples, args.normalization)
        result = cov.value
        diagnostics = (cov.symmetry_residual, cov.min_eigenvalue)
    elif args.kind == "corr":
        result = correlation(samples).value
    else:
        other = _read_samples(args.other) if args.other is not None else samples
        result = cross_covariance(samples, other, args.normalization).value
    write_tensor(args.output, result, binary=_binary_output(args.output, args.binary))
    if isinstance(result, SquareTensor):
        sym_residual, min_eig = diagnostics or _square_diagnostics(matricize(result))[:2]
        print(f"shape: {result.row_shape}x{result.row_shape}")
        print(f"symmetry residual: {sym_residual:.3e}")
        print(f"min matricized eigenvalue: {_fmt(min_eig)}")
    else:
        print(f"shape: {result.shape}")
    return EXIT_OK


def _load_density_params(args) -> EllipticalParams:
    location, scale = read_params(args.params)
    return EllipticalParams(location, scale, kernel_from_spec(args.family))


def _cmd_density(args) -> int:
    params = _load_density_params(args)
    point = read_tensor(args.point)
    if not isinstance(point, DenseTensor):
        raise FileFormatError("the evaluation point must be a plain tensor")
    density = elliptical_log_density if args.log else elliptical_density
    print(_fmt(density(params, point)))
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise FileFormatError("--count must be non-negative")
    seed_value = _resolve_seed(args.seed, DEFAULT_SAMPLE_SEED)
    seed = RngSeed(seed_value, 0)
    samples = elliptical_sample(_load_density_params(args), seed, args.count)
    write_sample_set(
        args.output,
        samples,
        seed=seed_value,
        binary=_binary_output(args.output, args.binary),
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    shape = _parse_shape_spec(args.shape)
    # The unbiased covariance checks need two observations.
    if args.n < 2:
        raise FileFormatError("--n must be at least 2")
    seed = _resolve_seed(args.seed, DEFAULT_VERIFY_SEED)
    report = run_verification(shape, n=args.n, seed=seed, corrupt=args.corrupt)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorstat",
        description="Tensor linear algebra, covariance/correlation estimation, "
        "tensor normal and elliptical densities, sampling and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="print the determinant of a square tensor file")
    p.add_argument("input", help="square2d tensor file (or - for stdin)")
    p.add_argument(
        "--log",
        action="store_true",
        help="print the sign (-1, 0 or 1) and then log|det|, each on its own line",
    )
    p.set_defaults(func=_cmd_det)

    p = sub.add_parser("invert", help="write the inverse of a square tensor file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--binary", action="store_true", help="write the binary format")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("matricize", help="write the matricization as an order-2 tensor file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--binary", action="store_true", help="write the binary format")
    p.set_defaults(func=_cmd_matricize)

    p = sub.add_parser("estimate", help="estimate covariance/correlation tensors from samples")
    p.add_argument("input", help="multi-tensor sample file or directory of tensor files")
    p.add_argument("output", help="output tensor file")
    p.add_argument("--kind", choices=("cov", "corr", "crosscov"), required=True)
    p.add_argument(
        "--normalization", choices=("unbiased", "mle"), default="unbiased"
    )
    p.add_argument(
        "--other",
        help="second sample input, crosscov only (defaults to the first input)",
    )
    p.add_argument("--binary", action="store_true", help="write the binary format")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("density", help="evaluate a (log-)density at a point")
    p.add_argument("params", help="params file with location and scale")
    p.add_argument("point", help="tensor file with the evaluation point")
    p.add_argument(
        "--family",
        default="normal",
        help="distribution family: normal (default) or student:NU",
    )
    p.add_argument("--log", action="store_true", help="print the log-density")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("sample", help="draw tensors from a distribution")
    p.add_argument("params")
    p.add_argument("output")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--family",
        default="normal",
        help="distribution family: normal (default) or student:NU",
    )
    p.add_argument("--binary", action="store_true", help="write the binary format")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="run the invariant and Monte-Carlo suite")
    p.add_argument("--shape", default="2x2", help="shape spec such as 2x2 or 3x2x2")
    p.add_argument("--n", type=int, default=100_000, help="Monte-Carlo sample size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else EXIT_OK
    try:
        return args.func(args)
    except (SingularTensorError, SymmetryError, DefinitenessError, DegenerateVarianceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH
    except (OSError, struct.error, ValueError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
