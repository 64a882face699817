"""Self-test of the benchmark at tiny sizes, so the harness cannot rot.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import workloads  # noqa: E402
from zipcrt import fit_zip, generate_trial, mc, write_dataset  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if trace:
        assert values["bench.round.calls"] == 1
        assert values["trace.self_sum_ms"] == pytest.approx(values["trace.wall_ms"], rel=0.01)
    else:
        assert all(v > 0 for v in values.values())


def test_oracle_agrees_with_fit_and_catches_a_wrong_one(tmp_path):
    design = mc.reference_design(workloads.GRIDS[1][1], 0.05, 0.5)
    data = generate_trial(design, 12, 5)
    fit = fit_zip(data)
    path = tmp_path / "data.csv"
    write_dataset(data, str(path))
    oracle = workloads.oracle_from_csv(path)
    assert workloads._check_estimate("fit", fit.beta_hat, fit.se_jackknife, oracle) == []
    wrong_se = fit.se_jackknife * (1.0 + 10 * workloads.SE_RTOL)
    assert workloads._check_estimate("fit", fit.beta_hat, wrong_se, oracle)
    wrong_beta = fit.beta_hat + np.array([0.0, 10 * workloads.BETA_ATOL])
    assert workloads._check_estimate("fit", wrong_beta, fit.se_jackknife, oracle)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "icc", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
