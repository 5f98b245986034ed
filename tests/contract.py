"""Byte-contract ledger of the tensorstat command line.

Runs a fixed matrix of CLI calls in process through ``tensorstat.cli.main``
and keeps one ledger line per call: its argv (the work directory written as
``{work}``), its exit code and the sha256 of its stdout, of each stdout
line, of its stderr and of each file it writes.  The ledger opens with the
environment (Python, numpy, BLAS), because digests that involve a rounded
sum depend on the BLAS kernel: besides the build's BLAS it keeps the
configuration string of the OpenBLAS that runs, which names its kernel
(``unknown`` when no loaded library exports ``openblas_get_config``), and
``OPENBLAS_CORETYPE``.  Run it from the repository root:

    PYTHONPATH=src python tests/contract.py --record DIR
    PYTHONPATH=src python tests/contract.py --compare DIR

``--record`` writes ``DIR/ledger.jsonl``.  ``--compare`` runs the matrix
again and prints one line: the calls run, the calls identical and the names
of any that differ, each with the stdout lines that moved, as in
``verify-2x2-100000-1729 (stdout lines 8-11)``; it exits 1 if any differ.
A ledger recorded without line digests still compares call by call, and
one recorded under another BLAS kernel is noted on stderr.
Compare a change with a ledger recorded on the same host, by running
``--record`` on a checkout of the parent commit first.  The name keeps
pytest from collecting the file.

The inputs come from ``perfbench.workloads.make_inputs`` (seed 901) at 2x2,
16x16x4 and 16x16x16, plus dense-scale params made from the covariance
each 2x2 and 16x16x4 ``estimate`` call writes, hand-written far-point
params whose deviation overflows float64, and small hand-written params
for the scale refusals and for the sign rule of Kronecker factors.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.append(str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import make_inputs  # noqa: E402
from tensorstat.cli import main  # noqa: E402

LEDGER = "ledger.jsonl"
INPUT_SEED = 901
FAMILIES = ("normal", "student:5", "student:0.5", "student:1e-300")
# (dims, sample count, whether to estimate): 16x16x4's count keeps its
# covariance invertible; a 16x16x16 covariance would take 134 MB a file.
SHAPES = (((2, 2), 500, True), ((16, 16, 4), 1100, True), ((16, 16, 16), 10, False))
VERIFY_RUNS = (
    ("2x2", "--n", "100000", "--seed", "1729"),
    ("2x3x2", "--n", "100000", "--seed", "1729"),
    ("3", "--n", "5000", "--seed", "3"),
    ("4x3", "--n", "3000", "--seed", "5"),
    ("3x2x2", "--n", "20000"),
)
FAR = 1.7e308
COUPLED = [1.0, 0.5, 0.5, 1.0]
NEG_COUPLED = [-v for v in COUPLED]
# name: (location size, scale); every scale here is refused but "pos" and
# "neg-neg" (the same law).  "neg-pos" is refused by the sign rule at pivot
# 0; the last three by the pivot of their first failing mode (2, 2 and 1).
SCALE_CASES = {
    "wrong-shape": (3, [1.0, 0.0, 0.0, 1.0]),
    "wrong-shape-asym": (3, [1.0, 0.5, 0.0, 1.0]),
    "kron-wrong-shape": (3, [[1.0, 0.0, 0.0, 1.0]]),
    "indefinite": (2, [1.0, 2.0, 2.0, 1.0]),
    "negative-definite": (2, [-1.0, 0.0, 0.0, -1.0]),
    "asym": (2, [1.0, 0.5, 0.0, 1.0]),
    "asym-factor": (2, [[1.0, 0.5, 0.0, 1.0]]),
    "pos": (4, [COUPLED, COUPLED]),
    "neg-neg": (4, [NEG_COUPLED, NEG_COUPLED]),
    "neg-pos": (4, [NEG_COUPLED, COUPLED]),
    "pos-indefinite": (4, [COUPLED, [1.0, 2.0, 2.0, 1.0]]),
    "neg-indefinite": (4, [NEG_COUPLED, [-1.0, -2.0, -2.0, -1.0]]),
    "indefinite-pos": (4, [[1.0, 2.0, 2.0, 1.0], COUPLED]),
}


# The names OpenBLAS builds export their configuration string under:
# plain, 64-bit-integer, and the prefixed builds numpy and scipy wheels ship.
OPENBLAS_CONFIG_SYMBOLS = (
    "openblas_get_config", "openblas_get_config64_",
    "scipy_openblas_get_config", "scipy_openblas_get_config64_",
)


def blas_runtime() -> str:
    """The configuration string of the loaded OpenBLAS, naming the kernel it runs.

    ``np.show_config`` reports the build; OpenBLAS picks its kernel for the
    CPU when it loads, or takes the one ``OPENBLAS_CORETYPE`` names.
    ``unknown`` when no library this process has loaded exports one of
    ``OPENBLAS_CONFIG_SYMBOLS``.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in OPENBLAS_CONFIG_SYMBOLS:
            get_config = getattr(lib, symbol, None)
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode().strip()
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_runtime": blas_runtime(),
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _kernel(environment_line: dict) -> str:
    env = environment_line.get("environment", {})
    runtime = env.get("blas_runtime", "not recorded")
    return f"{runtime!r} (OPENBLAS_CORETYPE={env.get('openblas_coretype')})"


def _tensor(data, dims, kind="tensor"):
    key = "rowShape" if kind == "square2d" else "shape"
    return {"kind": kind, key: list(dims), "data": [float(v) for v in data]}


def _far_inputs(work: Path) -> None:
    # Deviations whose squares overflow float64, though every entry is finite.
    docs = {
        "far-dense-params.json": {
            "location": _tensor([-FAR, 0.0], [2]),
            "scale": _tensor(COUPLED, [2], "square2d"),
        },
        "far-dense-point.json": _tensor([FAR, FAR], [2]),
        "far-kron-params.json": {
            "location": _tensor([-FAR, 0.0, 0.0, 0.0], [2, 2]),
            "scale": {
                "kind": "kronecker",
                "factors": [_tensor(COUPLED, [2, 2]), _tensor(COUPLED, [2, 2])],
            },
        },
        "far-kron-point.json": _tensor([FAR, FAR, FAR, FAR], [2, 2]),
        "far-unit-params.json": {
            "location": _tensor([0.0, 0.0], [2]),
            "scale": _tensor([1.0, 0.0, 0.0, 1.0], [2], "square2d"),
        },
        "far-unit-point.json": _tensor([1e200, 0.0], [2]),
    }
    for name, doc in docs.items():
        (work / name).write_text(json.dumps(doc) + "\n")


def _scale_case_inputs(work: Path) -> None:
    # A list of lists is Kronecker factors of 2x2 matrices, a flat list a
    # dense 2x2 scale; a size-4 location is 2x2.
    for case, (size, scale) in SCALE_CASES.items():
        dims = [2, 2] if size == 4 else [size]
        if isinstance(scale[0], list):
            scale_doc = {"kind": "kronecker", "factors": [_tensor(f, [2, 2]) for f in scale]}
        else:
            scale_doc = _tensor(scale, [2], "square2d")
        doc = {"location": _tensor([0.0] * size, dims), "scale": scale_doc}
        (work / f"case-{case}-params.json").write_text(json.dumps(doc) + "\n")
        point = _tensor([0.25, -1.0, 0.5, 2.0][:size], dims)
        (work / f"case-{case}-point.json").write_text(json.dumps(point) + "\n")


def _dense_params(params: Path, cov: Path, out: Path):
    # Runs after the estimate call that writes ``cov``: its location with
    # the estimated covariance as a dense scale.
    def write() -> None:
        doc = json.loads(params.read_text())
        doc["scale"] = json.loads(cov.read_text())
        out.write_text(json.dumps(doc) + "\n")

    return write


def matrix(work: Path) -> list[tuple]:
    """(name, argv, output files, prepare) of every call, in the order they run.

    Writes the calls' input files under ``work``, or leaves it to the
    call's ``prepare`` step (``None`` or a function run just before it)
    when they come from an earlier call's output.
    """
    calls = []

    def add(name, argv, outputs=(), prepare=None):
        calls.append((name, list(argv), list(outputs), prepare))

    for dims, count, estimate in SHAPES:
        tag = "x".join(map(str, dims))
        d = work / tag
        make_inputs(dims, INPUT_SEED, d)
        params, point = str(d / "params.json"), str(d / "point.json")
        for family in FAMILIES:
            add(f"density-{tag}-{family}", ["density", params, point, "--family", family])
            add(
                f"density-log-{tag}-{family}",
                ["density", params, point, "--family", family, "--log"],
            )
        for family in ("normal", "student:5"):
            for ext in ("json", "bin"):
                out = str(d / f"samples-{family}.{ext}")
                add(
                    f"sample-{tag}-{family}-{ext}",
                    ["sample", params, out, "--count", str(count), "--seed", "17",
                     "--family", family],
                    [out],
                )
        if not estimate:
            continue
        for ext in ("json", "bin"):
            samples = str(d / f"samples-normal.{ext}")
            for kind in ("cov", "corr", "crosscov"):
                out = str(d / f"{kind}.{ext}")
                add(f"estimate-{tag}-{kind}-{ext}", ["estimate", samples, out, "--kind", kind],
                    [out])
            cov = str(d / f"cov.{ext}")
            add(f"det-{tag}-{ext}", ["det", cov])
            add(f"det-log-{tag}-{ext}", ["det", cov, "--log"])
            for cmd in ("invert", "matricize"):
                out = str(d / f"{cmd}.{ext}")
                add(f"{cmd}-{tag}-{ext}", [cmd, cov, out], [out])
        dense = d / "dense-params.json"
        prepare = _dense_params(d / "params.json", d / "cov.json", dense)
        for family in ("normal", "student:5"):
            for log in ((), ("--log",)):
                add(
                    f"dense-density{'-log' * bool(log)}-{tag}-{family}",
                    ["density", str(dense), point, "--family", family, *log],
                    prepare=prepare,
                )
                prepare = None
            for ext in ("json", "bin"):
                out = str(d / f"dense-samples-{family}.{ext}")
                add(
                    f"dense-sample-{tag}-{family}-{ext}",
                    ["sample", str(dense), out, "--count", str(count), "--seed", "17",
                     "--family", family],
                    [out],
                )

    for spec, *rest in VERIFY_RUNS:
        add(f"verify-{spec}-" + "-".join(rest[1::2]), ["verify", "--shape", spec, *rest])

    _far_inputs(work)
    for case, families in (
        ("dense", ("normal", "student:3", "student:5")),
        ("kron", ("normal", "student:5")),
        ("unit", ("normal", "student:5")),
    ):
        params, point = str(work / f"far-{case}-params.json"), str(work / f"far-{case}-point.json")
        for family in families:
            add(f"far-{case}-{family}", ["density", params, point, "--family", family])
            add(f"far-log-{case}-{family}", ["density", params, point, "--family", family, "--log"])

    _scale_case_inputs(work)
    for case in SCALE_CASES:
        params, point = str(work / f"case-{case}-params.json"), str(work / f"case-{case}-point.json")
        add(f"case-{case}", ["density", params, point, "--log"])
        if case in ("pos", "neg-neg"):
            add(f"case-{case}-student:5", ["density", params, point, "--family", "student:5"])
            out = str(work / f"case-{case}-samples.json")
            add(f"case-{case}-sample", ["sample", params, out, "--count", "5", "--seed", "17"],
                [out])
    return calls


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_call(name: str, argv: list[str], outputs: list[str], prepare, work: str) -> dict:
    """One ledger line; the work directory reads ``{work}`` in argv and text."""
    if prepare is not None:
        prepare()
    out, err = io.StringIO(), io.StringIO()
    # A fresh warnings registry per call, so each warning shows as it would
    # in its own process.
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("default")
        code = main(argv)
    stdout = out.getvalue().replace(work, "{work}")
    return {
        "name": name,
        "argv": [a.replace(work, "{work}") for a in argv],
        "exit": code,
        "stdout": _sha(stdout.encode()),
        "lines": [_sha(line.encode()) for line in stdout.splitlines()],
        "stderr": _sha(err.getvalue().replace(work, "{work}").encode()),
        "files": [_sha(Path(p).read_bytes()) if os.path.exists(p) else "absent" for p in outputs],
    }


def ledger() -> list[dict]:
    os.environ.pop("TENSORSTAT_SEED", None)
    lines = [{"environment": environment()}]
    with tempfile.TemporaryDirectory() as tmp:
        lines += [run_call(*call, tmp) for call in matrix(Path(tmp))]
    return lines


def _ranges(numbers: list[int]) -> str:
    # "8-11, 14" for [8, 9, 10, 11, 14].
    runs = []
    for k in numbers:
        if runs and runs[-1][1] == k - 1:
            runs[-1][1] = k
        else:
            runs.append([k, k])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in runs)


def _difference(before: dict | None, after: dict) -> str | None:
    # None when the call is identical; else its name, with the 1-based
    # stdout lines whose digests differ when both lines carry them.  An
    # old line without line digests compares without them.
    if before is not None and "lines" not in before:
        after = {key: value for key, value in after.items() if key != "lines"}
    if before == after:
        return None
    name = after["name"]
    old, new = (before or {}).get("lines"), after.get("lines")
    if old is None or new is None:
        return name
    moved = [k + 1 for k in range(max(len(old), len(new))) if old[k : k + 1] != new[k : k + 1]]
    return f"{name} (stdout lines {_ranges(moved)})" if moved else name


def compare(old: list[dict], new: list[dict]) -> tuple[int, int, list[str]]:
    """(calls run, calls identical, names that differ or are missing).

    A call whose stdout moved is named with the stdout lines that differ.
    """
    if old[0] != new[0]:
        print(f"note: environments differ: {old[0]} vs {new[0]}", file=sys.stderr)
    if _kernel(old[0]) != _kernel(new[0]):
        print(
            f"note: the ledger was recorded under another BLAS kernel, {_kernel(old[0])}; "
            f"this run uses {_kernel(new[0])}, and digests of rounded sums may differ",
            file=sys.stderr,
        )
    before = {line["name"]: line for line in old[1:]}
    after = {line["name"]: line for line in new[1:]}
    differ = [d for name, line in after.items() if (d := _difference(before.get(name), line))]
    missing = [name for name in before if name not in after]
    return len(after), len(after) - len(differ), differ + missing


def main_contract(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--record", metavar="DIR", help="write DIR/ledger.jsonl")
    group.add_argument("--compare", metavar="DIR", help="compare with DIR/ledger.jsonl")
    args = parser.parse_args(argv)
    if args.record:
        lines = ledger()
        Path(args.record).mkdir(parents=True, exist_ok=True)
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        (Path(args.record) / LEDGER).write_text(text)
        print(f"recorded {len(lines) - 1} calls in {Path(args.record) / LEDGER}")
        return 0
    old = [json.loads(s) for s in (Path(args.compare) / LEDGER).read_text().splitlines()]
    run, identical, differ = compare(old, ledger())
    print(
        f"{run} calls run, {identical} identical"
        + (f"; differ: {', '.join(differ)}" if differ else "")
    )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main_contract())
