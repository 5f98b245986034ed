"""Tests of the benchmark itself, on tiny versions of every workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1
TINY = {
    "pipeline-2x2": lambda: wl.pipeline((2, 2), count=500, verify_n=10_000),
    "wide-1024": lambda: wl.wide((4, 4, 2), count=100),
    "kron-4096": lambda: wl.kron((4, 4, 4), count=50),
}


def test_tiny_versions_cover_every_workload():
    assert set(TINY) == set(wl.WORKLOADS)
    for name, make in TINY.items():
        assert [s.name for s in make().steps] == [s.name for s in wl.WORKLOADS[name]().steps]


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_names()


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_is_correct(name, tmp_path):
    result, details = run.run_workload(TINY[name](), SEED, 0.0, False, tmp_path)
    assert details["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY[name]().steps)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    workload = TINY[name]()
    result, _details = run.run_workload(workload, SEED, 0.0, True, tmp_path)
    assert result["correct"]
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(run.layer_metric_names())
    for step in workload.steps:
        assert metrics[f"cli.{step.name}.wall_s"] > 0
    assert metrics["tensorfile.read_params_s"] > 0
    assert metrics["tensorfile.bytes_read"] > 0
    if name == "pipeline-2x2":
        assert metrics["verify.checks_passed"] == wl.VERIFY_CHECKS
        assert metrics["tensor_core.dense_tensors_built"] >= 2 * 500
        assert metrics["distributions.vec_oracle_s"] > 0
    if name == "wide-1024":
        # one covariance accumulation over 100 observations of 32 cells
        assert metrics["stats.cov_madds"] == 100 * 32 * 32
        assert metrics["linalg.inverse_s"] > 0 and metrics["linalg.det_s"] > 0
    if name == "kron-4096":
        # four params builds, each assembling a dense 64 x 64 scale
        assert metrics["linalg.dense_scale_bytes"] == 4 * 8 * 64 * 64
        assert metrics["stats.cov_madds"] == 0


@pytest.mark.parametrize("name, output", [("wide-1024", "cov.bin"), ("pipeline-2x2", "cov.json")])
def test_flipped_covariance_entry_is_a_failure(name, output, tmp_path, monkeypatch):
    cli = run.Runner.cli

    def corrupting(self, args):
        proc = cli(self, args)
        if args[0] == "estimate" and Path(args[2]).name == output:
            path = Path(args[2])
            if output.endswith(".bin"):
                raw = bytearray(path.read_bytes())
                raw[-1] ^= 0x80  # sign bit of the last entry, a variance
                path.write_bytes(bytes(raw))
            else:
                doc = json.loads(path.read_text())
                doc["data"][0] = -doc["data"][0]  # the first variance
                path.write_text(json.dumps(doc))
        return proc

    monkeypatch.setattr(run.Runner, "cli", corrupting)
    result, details = run.run_workload(TINY[name](), SEED, 0.0, False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("estimate_cov" in f for f in details["failures"])


def test_changed_sample_bytes_for_the_same_seed_are_a_failure(tmp_path):
    first, _ = run.run_workload(TINY["kron-4096"](), SEED, 0.0, False, tmp_path)
    assert first["correct"]
    ledger = tmp_path / "sample_hashes.json"
    seen = json.loads(ledger.read_text())
    assert len(seen) == 2
    ledger.write_text(json.dumps({key: "0" * 64 for key in seen}))
    second, details = run.run_workload(TINY["kron-4096"](), SEED, 0.0, False, tmp_path)
    assert second["failed"] == 2
    assert all("sha256" in f for f in details["failures"])


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2)])
@pytest.mark.parametrize("family", ["normal", "student:5"])
def test_structured_density_reference_matches_scipy(dims, family, tmp_path):
    inputs = wl.make_inputs(dims, 7, tmp_path)
    dense = wl.dense_log_density(inputs, family)
    assert wl.structured_log_density(inputs, family) == pytest.approx(dense, rel=1e-12, abs=1e-12)


def test_exits_nonzero_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "kron-4096", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
