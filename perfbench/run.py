"""tensorstat benchmark: the batch CLI run step by step on fixed workloads.

Run from the repository root::

    python3 perfbench/run.py --workload pipeline-2x2 --seed 1 --seconds 34 --trace 0

One benchmark process is the single client of a closed loop: it runs the
workload's CLI steps one after another, each in a fresh ``tensorstat``
process with ``src`` on ``PYTHONPATH``, and starts a step only after the
previous one has exited.  BLAS threads stay at their default.  A first
pass runs every step in order; later rounds re-run each step whose last run
still fits in ``--seconds``, and each step reports its median.  Every output
is checked by a route independent of the library (see ``workloads.py``) and
every ``sample`` output must hash the same across its runs and across runs
of the benchmark with the same seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` replays each
step through ``tracer.py`` and reports per-layer metrics from the spans.
The last line of standard output is the result object; the line before it
records the environment, the per-step times and any failures.  Exit code 2
means the benchmark could not run at all (for example, no ``src`` tree).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
# Each run must have exited within 180 s; steps still running at this point
# are killed and count as failed.
RUN_DEADLINE_S = 165.0
LAUNCH = "from tensorstat.cli import entry; entry()"

# Only metrics that every workload has; per-step medians go to the details line.
END_TO_END = {"setup_s": "s", "workload_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "tensor_core.dense_tensor_build",
    "tensorfile.read_sample_set", "tensorfile.write_sample_set",
    "tensorfile.read_tensor", "tensorfile.write_tensor", "tensorfile.read_params",
    "stats.sampleset_build", "stats.mean_tensor", "stats.covariance",
    "stats.covariance_of_vec", "stats.correlation", "stats.cross_covariance",
    "linalg.kronecker_assemble", "linalg.cholesky", "linalg.det", "linalg.inverse",
    "distributions.params_build", "distributions.elliptical_params_build",
    "distributions.normal_sample", "distributions.elliptical_sample",
    "distributions.normal_log_density", "distributions.elliptical_log_density",
    "distributions.vec_oracle",
    "verify.run_verification",
)
LAYER_COUNTS = {
    "tensor_core.dense_tensors_built": "count",
    "tensorfile.bytes_read": "bytes", "tensorfile.bytes_written": "bytes",
    "stats.observations": "count", "stats.cov_madds": "count",
    "linalg.dense_scale_bytes": "bytes",
    "verify.checks_passed": "count",
}

PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy, scipy, tensorstat
lib = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                             "numpy.libs", "*openblas*"))
threads = config = None
if lib and hasattr(ctypes.CDLL(lib[0]), "scipy_openblas_get_num_threads64_"):
    blas = ctypes.CDLL(lib[0])
    blas.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    blas.scipy_openblas_get_config64_.restype = ctypes.c_char_p
    threads = blas.scipy_openblas_get_num_threads64_()
    config = blas.scipy_openblas_get_config64_().decode()
deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "tensorstat": tensorstat.__file__, "python": platform.python_version(),
    "numpy": numpy.__version__, "scipy": scipy.__version__,
    "blas": deps.get("name"), "blas_version": deps.get("version"),
    "blas_config": config, "blas_threads": threads,
}))
"""


def layer_metric_names() -> dict[str, str]:
    names = {f"{n}_s": "s" for n in LAYER_TIMES}
    names.update(LAYER_COUNTS)
    for step in wl.STEP_NAMES:
        names[f"cli.{step}.wall_s"] = "s"
        names[f"cli.{step}.unaccounted_s"] = "s"
    return names


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Starts each child from the checkout's ``src`` and waits for it to end."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("TENSORSTAT_SEED", None)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv: list[str]) -> Proc:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(max(0.0, self.deadline - start), proc.kill)
            watchdog.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )

    def cli(self, args: list[str]) -> Proc:
        return self.run([sys.executable, "-c", LAUNCH, *args])

    def traced(self, spans: Path, args: list[str]) -> Proc:
        return self.run([sys.executable, str(HERE / "tracer.py"), str(spans), "--", *args])


# ---------------------------------------------------------------------------
# steps


@dataclass
class StepResult:
    wall: float
    rss_mb: float
    error: Optional[str]
    layers: Optional[dict[str, float]] = None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class HashLedger:
    """sha256 of each sample output per seed, kept across runs in the work dir."""

    def __init__(self, path: Path):
        self.path = path
        self.seen = json.loads(path.read_text()) if path.exists() else {}

    def check(self, key: str, digest: str) -> Optional[str]:
        first = self.seen.setdefault(key, digest)
        if first != digest:
            return f"sample output sha256 {digest[:12]} differs from {first[:12]} for the same seed"
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True) + "\n")
        return None


def _check(step: wl.Step, inputs: wl.Inputs, proc: Proc) -> Optional[str]:
    if proc.code != 0:
        lines = proc.stderr.strip().splitlines()
        lines = lines or proc.stdout.strip().splitlines()
        return f"exit code {proc.code}: {lines[-1] if lines else ''}"
    try:
        return step.check(inputs, proc.stdout)
    except (OSError, ValueError, KeyError, IndexError, TypeError, struct.error) as e:
        return f"output unreadable: {type(e).__name__}: {e}"


def _outermost(spans: list) -> dict[str, float]:
    """Inclusive time per span name, not counting a span inside one of its own name."""
    totals: dict[str, float] = {}
    for name, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def trace_layers(step: str, proc: Proc, spans_file: Path, setup_s: float) -> dict[str, float]:
    """Per-layer figures of one traced step."""
    doc = json.loads(spans_file.read_text())
    spans = doc["spans"]
    wall = proc.wall - float(Path(f"{spans_file}.write_s").read_text())
    layers = {f"{name}_s": t for name, t in _outermost(spans).items()}
    layers.update(doc["counts"])
    roots = sum(end - start for _name, start, end, parent in spans if parent < 0)
    layers[f"cli.{step}.wall_s"] = wall
    layers[f"cli.{step}.unaccounted_s"] = wall - setup_s - roots
    return layers


def run_step(step: wl.Step, workload: wl.Workload, inputs: wl.Inputs, runner: Runner,
             ledger: HashLedger, trace: bool, setup_s: float) -> StepResult:
    args = step.args(inputs)
    spans_file = inputs.path(f"spans-{step.name}.json")
    proc = runner.traced(spans_file, args) if trace else runner.cli(args)
    error = _check(step, inputs, proc)
    if error is None and step.sample_output:
        key = f"{workload.name} {inputs.dims} seed={inputs.seed} {' '.join(step.argv)}"
        error = ledger.check(key, _sha256(inputs.path(step.sample_output)))
    layers = None
    if trace and proc.code == 0:
        layers = trace_layers(step.name, proc, spans_file, setup_s)
    return StepResult(proc.wall, proc.rss_mb, error, layers)


def run_steps(workload: wl.Workload, inputs: wl.Inputs, runner: Runner, ledger: HashLedger,
              trace: bool, setup: list[float], seconds: float) -> dict[str, list[StepResult]]:
    """One full pass over the steps, then more rounds while time is left.

    A later round re-runs, in order, each step whose last run still fits in
    ``seconds``, so short steps gather several samples even where one long
    step fills most of the run.  Re-running a step rewrites its output with
    the same bytes, so the inputs of the steps after it do not change.  Each
    round starts with one more set-up sample, so that those spread over the
    run as well.
    """
    runs: dict[str, list[StepResult]] = {s.name: [] for s in workload.steps}
    setup_s = _median(setup)
    t0 = time.perf_counter()

    def fits(step: wl.Step) -> bool:
        now, last = time.perf_counter(), runs[step.name][-1].wall
        return now - t0 + last <= seconds and now + last <= runner.deadline

    def run(step: wl.Step) -> None:
        runs[step.name].append(run_step(step, workload, inputs, runner, ledger, trace, setup_s))

    for step in workload.steps:
        run(step)
    while any(fits(step) for step in workload.steps):
        setup.append(runner.cli(["--help"]).wall)
        for step in workload.steps:
            if fits(step):
                run(step)
    return runs


# ---------------------------------------------------------------------------
# environment and metrics


def environment(runner: Runner, seed: int, input_bytes: dict[str, int]) -> dict:
    probe = runner.run([sys.executable, "-c", PROBE])
    if probe.code != 0:
        raise RuntimeError(f"cannot import tensorstat from {runner.root / 'src'}: "
                           f"{probe.stderr.strip()}")
    env = json.loads(probe.stdout)
    if not Path(env["tensorstat"]).resolve().is_relative_to(runner.root / "src"):
        raise RuntimeError(f"tensorstat was imported from {env['tensorstat']}, not the checkout")
    git_sha = None
    if (runner.root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=runner.root,
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((runner.root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(runner.root)).encode() + b"\0" + path.read_bytes())
    env.update(
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        git_sha=git_sha, src_sha256=tree.hexdigest(), seed=seed,
        input_bytes=input_bytes,
    )
    return env


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(runs: dict[str, list[StepResult]], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": _median(setup),
        "workload_s": sum(_median(r.wall for r in rs) for rs in runs.values()),
        "peak_rss_mb": max(r.rss_mb for rs in runs.values() for r in rs),
    }


def per_layer(runs: dict[str, list[StepResult]]) -> dict[str, float]:
    """Sum over the steps of each step's median figure; 0 where a layer never ran."""
    totals = dict.fromkeys(layer_metric_names(), 0.0)
    for rs in runs.values():
        traced = [r.layers or {} for r in rs]
        for name in totals:
            if any(name in layers for layers in traced):
                totals[name] += _median(layers.get(name, 0.0) for layers in traced)
    return totals


# ---------------------------------------------------------------------------


def run_workload(workload: wl.Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path, root: Path = ROOT) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, details)``."""
    started = time.perf_counter()
    work = work_root / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = wl.make_inputs(workload.dims, seed, work)
    input_bytes = inputs.input_bytes()
    runner = Runner(root, work, started + RUN_DEADLINE_S)
    ledger = HashLedger(work_root / "sample_hashes.json")

    env = environment(runner, seed, input_bytes)  # also compiles the bytecode once
    setup = [runner.cli(["--help"]).wall for _ in range(SETUP_REPEATS)]
    runs = run_steps(workload, inputs, runner, ledger, trace, setup, seconds)

    attempted = sum(len(rs) for rs in runs.values())
    failures = [f"{name} run {i}: {r.error}"
                for name, rs in runs.items() for i, r in enumerate(rs) if r.error]
    if trace:
        metrics, units = per_layer(runs), layer_metric_names()
    else:
        metrics, units = end_to_end(runs, setup), END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": workload.name, "trace": trace,
        "error_rate": len(failures) / attempted, "failures": failures,
        "setup_walls_s": setup,
        "step_s": {f"{name}_s": _median(r.wall for r in rs) for name, rs in runs.items()},
        "step_walls_s": {name: [r.wall for r in rs] for name, rs in runs.items()},
        "step_rss_mb": {name: [r.rss_mb for r in rs] for name, rs in runs.items()},
        "sample_sha256": {s.name: _sha256(inputs.path(s.sample_output))
                          for s in workload.steps
                          if s.sample_output and inputs.path(s.sample_output).exists()},
        "environment": env,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tensorstat" / "cli.py").is_file():
        print(f"error: no tensorstat source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, details = run_workload(
            wl.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
            ROOT / ".perfbench_work",
        )
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
