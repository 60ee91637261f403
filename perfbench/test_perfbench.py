"""The benchmark's own tests: the checks reject corrupted stores, and the
command completes every workload at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A tiny fleet-pso sweep run in-process, with its pooled case counts."""
    sys.path.insert(0, str(ROOT / "src"))
    from hef_lab.config import build_experiment_config, parse_config_file
    from hef_lab.protocol import ResultsStore, count_cases, run_experiment
    from hef_lab.series import load_dataset_csv

    w = workloads.make("fleet-pso", 3, tiny=True)
    data, cfg = w.write(tmp_path_factory.mktemp("fleet"))
    store = data.parent / "results.csv"
    run_experiment(load_dataset_csv(data), build_experiment_config(parse_config_file(cfg)), store)
    table = count_cases(ResultsStore(store).rows, ("hef", "maef"))
    cases = {m: list(table.improvements(m)) for m in checks.METRICS}
    return w, checks.read_store(store), cases


def _edit(rows: list[dict], metric: str, condition: str, change) -> list[dict]:
    """Copy of the rows with the first row of ``metric`` under ``condition`` changed."""
    out = [dict(r) for r in rows]
    row = next(r for r in out if r["metric"] == metric and r["condition"] == condition)
    change(row)
    return out


def test_clean_store_passes(fleet):
    w, rows, cases = fleet
    assert checks.check_store(w, rows) == []
    assert checks.check_direction(cases) == []
    assert checks.check_bands(w) == []


def test_bands_are_read_from_the_training_split(fleet):
    w, _, _ = fleet
    # flat training split, spikes only in the test window: CV >= 1 over the whole series only
    values = np.full(60, 10.0)
    values[-3:] = 150.0
    spiky_test = workloads.Series("x", "monthly", values)
    assert values.std() / values.mean() >= 1.0
    findings = checks.check_bands(dataclasses.replace(w, series=(spiky_test,)))
    assert "no series with CV in [1.0, inf)" in findings


def test_perturbed_mae_is_rejected(fleet):
    w, rows, _ = fleet
    for condition in ("hef", "maef"):
        bad = _edit(rows, "mae", condition, lambda r: r.update(value=r["value"] * (1 + 1e-6)))
        assert checks.check_metrics(w, bad), condition
        assert checks.check_objective(w, bad), condition


def test_dropped_row_is_rejected(fleet):
    w, rows, _ = fleet
    for metric in ("gra", "exec_time", "opt_evals"):
        dropped = _edit(rows, metric, "hef", lambda r: r.update(metric="gone"))
        dropped = [r for r in dropped if r["metric"] != "gone"]
        assert checks.check_complete(w, dropped), metric


def test_duplicated_row_is_rejected(fleet):
    w, rows, _ = fleet
    assert checks.check_complete(w, rows + rows[:1])


def test_wrong_budget_and_best_score_are_rejected(fleet):
    w, rows, _ = fleet
    assert checks.check_evals(w, _edit(rows, "opt_evals", "maef", lambda r: r.update(value=r["value"] - 1)))
    assert checks.check_objective(w, _edit(rows, "opt_best_score", "hef", lambda r: r.update(value=r["value"] * 1.01)))


def test_swapped_case_counts_are_rejected(fleet):
    _, _, cases = fleet
    for metric in ("r2", "gra", "mae", "mase"):
        swapped = {m: list(v) for m, v in cases.items()}
        a, b, none = swapped[metric]
        swapped[metric] = [b, a, none]
        assert checks.check_direction(swapped), metric


def test_digest_ignores_exec_time_only(fleet):
    _, rows, _ = fleet
    base = checks.digest(rows)
    assert checks.digest(_edit(rows, "exec_time", "hef", lambda r: r.update(value=r["value"] + 1))) == base
    assert checks.digest(_edit(rows, "gra", "hef", lambda r: r.update(value=r["value"] + 1e-12))) != base


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_command_completes_tiny_workload(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_traced_workers_report_their_spans():
    proc = _run(ROOT, "daily-jobs2", 1)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    tasks = metrics["protocol.tasks"]["value"]
    assert tasks == len(workloads.make("daily-jobs2", 5, tiny=True).series) * 2 * 3
    assert metrics["models.fit_calls"]["value"] == tasks * (4 * 3 + 1)  # search budget + final fit


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "fleet-pso", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
