"""Run one tensorstat CLI step with spans around each module's public calls.

Usage: ``python3 perfbench/tracer.py SPANS_OUT -- <tensorstat arguments>``
with ``src`` on ``PYTHONPATH``.  The step runs in this fresh process, as the
CLI pays it.  The wrappers live here, not in the library: each wrapped
function or constructor is rebound in every loaded ``tensorstat`` module, so
calls between modules are timed too.  Spans and counts stay in memory and
are written to ``SPANS_OUT`` as JSON once the step has returned, and the
time that took to ``SPANS_OUT.write_s``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    """In-memory spans ``(name, start, end, parent index)`` and counters."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + int(amount)

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent)
            if count is not None:
                count(self, args, result)
            return result

        return traced


def _file_bytes(counter: str):
    def count(tracer: Tracer, args, _result) -> None:
        tracer.add(counter, os.path.getsize(args[0]))

    return count


def _accumulated(pair):
    # N * nstar_x * nstar_y multiply-adds, computed from the shapes.
    def count(tracer: Tracer, args, _result) -> None:
        sx, sy = pair(args)
        tracer.add("stats.observations", len(sx))
        tracer.add("stats.cov_madds", len(sx) * sx.shape.nstar * sy.shape.nstar)

    return count


def _targets(ts):
    """``(owner, attribute, span name, counter)`` for every traced call."""
    read, written = _file_bytes("tensorfile.bytes_read"), _file_bytes("tensorfile.bytes_written")
    return [
        (ts.tensor_core.DenseTensor, "__init__", "tensor_core.dense_tensor_build",
         lambda t, a, r: t.add("tensor_core.dense_tensors_built", 1)),
        (ts.tensorfile, "read_sample_set", "tensorfile.read_sample_set", read),
        (ts.tensorfile, "write_sample_set", "tensorfile.write_sample_set", written),
        (ts.tensorfile, "read_tensor", "tensorfile.read_tensor", read),
        (ts.tensorfile, "write_tensor", "tensorfile.write_tensor", written),
        (ts.tensorfile, "read_params", "tensorfile.read_params", read),
        (ts.stats.SampleSet, "__init__", "stats.sampleset_build", None),
        (ts.stats, "mean_tensor", "stats.mean_tensor", None),
        (ts.stats, "covariance", "stats.covariance", None),
        (ts.stats, "covariance_of_vec", "stats.covariance_of_vec",
         _accumulated(lambda a: (a[0], a[0]))),
        (ts.stats, "correlation", "stats.correlation", None),
        (ts.stats, "cross_covariance", "stats.cross_covariance",
         _accumulated(lambda a: (a[0], a[1]))),
        (ts.linalg, "kronecker_assemble", "linalg.kronecker_assemble",
         lambda t, a, r: t.add("linalg.dense_scale_bytes", r.nbytes)),
        (ts.linalg, "cholesky", "linalg.cholesky", None),
        (ts.linalg, "cholesky_lower", "linalg.cholesky", None),
        (ts.linalg, "det", "linalg.det", None),
        (ts.linalg, "inverse", "linalg.inverse", None),
        (ts.distributions.TensorNormalParams, "__init__", "distributions.params_build", None),
        (ts.distributions.EllipticalParams, "__init__",
         "distributions.elliptical_params_build", None),
        (ts.distributions, "normal_sample", "distributions.normal_sample", None),
        (ts.distributions, "elliptical_sample", "distributions.elliptical_sample", None),
        (ts.distributions, "normal_log_density", "distributions.normal_log_density", None),
        (ts.distributions, "elliptical_log_density",
         "distributions.elliptical_log_density", None),
        (ts.distributions, "normal_log_density_vec_oracle", "distributions.vec_oracle", None),
        (ts.verify, "run_verification", "verify.run_verification",
         lambda t, a, r: t.add("verify.checks_passed", sum(c.passed for c in r.results))),
    ]


def install(tracer: Tracer) -> None:
    import tensorstat as ts
    import tensorstat.cli  # noqa: F401  (imports every module the CLI calls)

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tensorstat"]
    for owner, attr, name, count in _targets(ts):
        original = owner.__dict__[attr]
        traced = tracer.wrap(name, original, count)
        if isinstance(owner, type):
            setattr(owner, attr, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py SPANS_OUT -- <tensorstat arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from tensorstat.cli import main as cli_main

    code = cli_main(argv)
    sys.stdout.flush()
    write_start = time.perf_counter()
    with open(out, "w") as fh:
        json.dump({"exit": code, "counts": tracer.counts, "spans": tracer.spans}, fh)
    # The caller subtracts the time spent here from the step's wall time.
    with open(out + ".write_s", "w") as fh:
        fh.write(repr(time.perf_counter() - write_start))
    return code


if __name__ == "__main__":
    sys.exit(main())
