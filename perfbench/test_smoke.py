"""Smoke test of the benchmark at tiny register sizes.

    python3 -m pytest perfbench/test_smoke.py

Each run takes a few seconds; the tier-1 suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(tmp_path, workload, seed, trace, root=ROOT):
    report = tmp_path / f"{workload}-{seed}-{trace}.json"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--tiny", "--report", str(report)],
        cwd=root, capture_output=True, text=True, timeout=300)
    return done, report


def _result(tmp_path, workload, seed, trace):
    done, report = _run(tmp_path, workload, seed, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1]), json.loads(report.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_with_its_unit(tmp_path, workload, trace, group):
    result, report = _result(tmp_path, workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 100
    assert report["end_to_end"]["error_rate"] == 0
    want = {m["name"]: m["unit"] for m in DECLARED[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    env = report["environment"]
    assert env["nproc"] >= 1 and env["blas"]["threads"] is not None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(tmp_path, workload):
    first, first_report = _result(tmp_path, workload, 1, 0)
    again, again_report = _result(tmp_path, workload, 1, 0)
    other, other_report = _result(tmp_path, workload, 2, 0)
    assert first_report["first_cycle_digest"] == again_report["first_cycle_digest"]
    assert first_report["first_cycle_digest"] != other_report["first_cycle_digest"]
    assert set(first["metrics"]) == set(other["metrics"])


def test_refuses_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done, _ = _run(tmp_path, "paper", 1, 0, root=bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
