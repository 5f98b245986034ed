"""The package and every command run on numpy alone: nothing loads scipy.

Every check runs ``main()`` in a fresh interpreter, since an import
anywhere in this process would persist.  The blocked runs set
``sys.modules["scipy"] = None``, which makes any ``import scipy...``
raise, and must exit, print and write exactly what an ordinary run in
this process does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tensorstat.cli import main
from tensorstat.linalg import KroneckerFactors
from tensorstat.stats import SampleSet
from tensorstat.tensor_core import DenseTensor, Shape, unmatricize
from tensorstat.tensorfile import write_params, write_sample_set, write_tensor

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import contextlib, io, json, sys
block, argv = sys.argv[1] == "block", json.loads(sys.argv[2])
if block:
    sys.modules["scipy"] = None
import tensorstat
from tensorstat.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = None if argv is None else main(argv)
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
print(json.dumps({"code": code, "stdout": out.getvalue(), "scipy": loaded}))
"""


def child(argv, block=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "block" if block else "run", json.dumps(argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    # Fixed width so argparse wraps --help the same in the child and here.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("TENSORSTAT_SEED", raising=False)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    square = unmatricize(m @ m.T + 4.0 * np.eye(4), Shape((2, 2)))
    loc = DenseTensor(rng.standard_normal(4), (2, 2))
    paths = {
        "square": tmp_path / "square.json",
        "samples": tmp_path / "samples.json",
        "dense": tmp_path / "dense.json",
        "kron": tmp_path / "kron.json",
        "point": tmp_path / "point.json",
    }
    write_tensor(str(paths["square"]), square)
    samples = SampleSet._wrap(rng.standard_normal((6, 4)), Shape((2, 2)))
    write_sample_set(str(paths["samples"]), samples)
    write_params(str(paths["dense"]), loc, square)
    factors = KroneckerFactors((np.diag([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])))
    write_params(str(paths["kron"]), loc, factors)
    write_tensor(str(paths["point"]), DenseTensor([0.5, -1.0, 0.25, 2.0], (2, 2)))
    return {k: str(v) for k, v in paths.items()}


def _sample(params, family, ext):
    return ["sample", params, "OUT" + ext, "--count", "5", "--seed", "7", "--family", family]


# argv templates: "{name}" is a file from ``inputs``, "OUT<ext>" the output file.
COMMANDS = {
    "help": ["--help"],
    "det": ["det", "{square}"],
    "det-log": ["det", "{square}", "--log"],
    "invert": ["invert", "{square}", "OUT.json"],
    "matricize": ["matricize", "{square}", "OUT.json"],
    "estimate-cov": ["estimate", "{samples}", "OUT.json", "--kind", "cov"],
    "estimate-corr": ["estimate", "{samples}", "OUT.json", "--kind", "corr"],
    "estimate-crosscov": ["estimate", "{samples}", "OUT.json", "--kind", "crosscov"],
    "density-normal": ["density", "{kron}", "{point}", "--log"],
    "density-student": ["density", "{dense}", "{point}", "--family", "student:5"],
    "sample-normal-dense": _sample("{dense}", "normal", ".json"),
    "sample-student-dense": _sample("{dense}", "student:5", ".json"),
    "sample-normal-kron": _sample("{kron}", "normal", ".bin"),
    "sample-student-kron": _sample("{kron}", "student:5", ".bin"),
    # At --n 200 the Monte-Carlo checks may fail (exit 1) on both sides.
    "verify": ["verify", "--shape", "2x2", "--n", "200"],
}


def _argv(template, inputs, out_dir):
    argv = [a.format(**inputs) for a in template]
    out = next((a for a in argv if a.startswith("OUT")), None)
    if out is None:
        return argv, None
    path = out_dir / ("out" + out[len("OUT"):])
    return [str(path) if a == out else a for a in argv], path


def test_package_import_loads_no_scipy():
    assert child(None)["scipy"] == []


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_runs_with_scipy_blocked(name, inputs, tmp_path, capsys):
    (tmp_path / "blocked").mkdir()
    (tmp_path / "ref").mkdir()
    argv, out = _argv(COMMANDS[name], inputs, tmp_path / "blocked")
    blocked = child(argv, block=True)
    ref_argv, ref_out = _argv(COMMANDS[name], inputs, tmp_path / "ref")
    code = main(ref_argv)
    assert code == 0 or (name == "verify" and code == 1)
    assert blocked["code"] == code
    assert blocked["stdout"] == capsys.readouterr().out
    if out is not None:
        assert out.read_bytes() == ref_out.read_bytes()
