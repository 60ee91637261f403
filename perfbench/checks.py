"""Output checks the package does not make on itself.

Every check reads the results store as plain CSV and recomputes what it
compares against with naive loops, from the generated series and the
workload's config alone; none calls into ``hef_lab``. The one exception is
``check_direction``, which judges the pooled case counts that
``hef_lab.protocol.count_cases`` gives for the store. Each check returns a
list of findings, empty when the store passes.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

from workloads import Workload

METRICS = ("r2", "mae", "rmse", "gra", "rmsse", "mase", "exec_time")
TRACE_ROWS = ("opt_evals", "opt_best_score")
TOL = 1e-9
# Grid sizes of the models' declared spaces, each a single parameter, for
# when the config does not override them.
DEFAULT_GRID = {"lr": 1, "knn": 15, "dtr": 12, "plr": 4, "arima": 48}
# hef constants as the paper states them
WEIGHTS = (1.0, 1.0, 0.5)
PENALTIES = (1.2, 1.3, 1.5, 1.8)
MAE_BANDS = (0.1, 0.2, 0.3, 0.4)
RMSE_BANDS = (0.15, 0.25, 0.35, 0.4)

Task = tuple[str, str, str, str, int]  # series, model, condition, split, rep


def read_store(path: Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return [{**row, "rep": int(row["rep"]), "value": float(row["value"])} for row in csv.DictReader(fh)]


def digest(rows: list[dict]) -> str:
    """sha256 of the sorted rows without the wall-clock ``exec_time``."""
    lines = sorted(
        f"{r['series_id']},{r['model']},{r['condition']},{r['optimizer']},{r['split']},{r['rep']},{r['metric']},{r['value']!r}"
        for r in rows
        if r["metric"] != "exec_time"
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def by_task(rows: list[dict]) -> dict[Task, dict[str, list[float]]]:
    tasks: dict[Task, dict[str, list[float]]] = {}
    for r in rows:
        key = (r["series_id"], r["model"], r["condition"], r["split"], r["rep"])
        tasks.setdefault(key, {}).setdefault(r["metric"], []).append(r["value"])
    return tasks


def split(values: list[float], test_fraction: float = 0.2) -> tuple[list[float], list[float]]:
    n = len(values)
    h = max(1, math.floor(test_fraction * n + 0.5))
    return values[: n - h], values[n - h :]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def check_complete(w: Workload, rows: list[dict], failed: set[Task] = frozenset()) -> list[str]:
    """Every task that did not fail has exactly one row per metric, and no other task has rows."""
    tasks = by_task(rows)
    expected = {
        (s.id, m, c, "80:20", rep)
        for s in w.series
        for m in w.config["experiment.models"]
        for c in w.config["experiment.conditions"]
        for rep in range(w.config["experiment.repetitions"])
    } - set(failed)
    found = [f"unexpected task {key}" for key in sorted(set(tasks) - expected)]
    for key in sorted(expected):
        metrics = tasks.get(key, {})
        want = METRICS + (TRACE_ROWS if key[2] != "baseline" else ())
        if set(metrics) != set(want) or any(len(v) != 1 for v in metrics.values()):
            found.append(f"{key}: rows {sorted((m, len(v)) for m, v in metrics.items())}, want one each of {want}")
    return found


def check_metrics(w: Workload, rows: list[dict]) -> list[str]:
    """r2, mase and rmsse recomputed from the stored mae/rmse and the split."""
    values = {s.id: s.values.tolist() for s in w.series}
    found = []
    for key, m in by_task(rows).items():
        if not {"r2", "mae", "rmse", "mase", "rmsse"} <= set(m):
            continue  # reported by check_complete
        train, test = split(values[key[0]])
        n = len(test)
        mean_test = sum(test) / n
        ss_tot = sum((y - mean_test) ** 2 for y in test)
        diffs = [train[i] - train[i - 1] for i in range(1, len(train))]
        naive_abs = sum(abs(d) for d in diffs) / len(diffs)
        naive_sq = sum(d * d for d in diffs) / len(diffs)
        mae, rmse = m["mae"][0], m["rmse"][0]
        expect = {
            "r2": 1.0 - n * rmse * rmse / ss_tot,
            "mase": mae / naive_abs,
            "rmsse": rmse / math.sqrt(naive_sq),
        }
        for metric, value in expect.items():
            if not _close(m[metric][0], value):
                found.append(f"{key}: stored {metric} {m[metric][0]!r}, recomputed {value!r}")
    return found


def hef_reference(r2: float, mae: float, rmse: float, train: list[float]) -> tuple[float, float]:
    """The paper's composite score: (tolerance branch, level-4 overwrite of the base)."""
    n = len(train)
    mean = sum(train) / n
    std = math.sqrt(sum((y - mean) ** 2 for y in train) / n)
    m = mean if abs(mean) >= 1e-6 else 1e-6
    cv = std / max(abs(mean), 1e-6)
    band = 0 if cv < 0.2 else 1 if cv < 0.5 else 2 if cv < 1.0 else 3
    base = WEIGHTS[0] * (1.0 - r2) + WEIGHTS[1] * mae / m + WEIGHTS[2] * rmse / m
    mae_ok, rmse_ok = mae < MAE_BANDS[band] * m, rmse < RMSE_BANDS[band] * m
    if mae_ok and rmse_ok:
        branch = base
    elif mae_ok:
        branch = base * PENALTIES[0]
    elif rmse_ok:
        branch = base * PENALTIES[1]
    else:
        branch = base * PENALTIES[2]
    return branch, base * PENALTIES[3]


def check_objective(w: Workload, rows: list[dict]) -> list[str]:
    """The winning score is the objective applied to the stored final metrics."""
    values = {s.id: s.values.tolist() for s in w.series}
    found = []
    for key, m in by_task(rows).items():
        if "opt_best_score" not in m or not {"r2", "mae", "rmse"} <= set(m):
            continue
        best = m["opt_best_score"][0]
        if key[2] == "maef" and best != m["mae"][0]:
            found.append(f"{key}: maef best score {best!r} != mae {m['mae'][0]!r}")
        if key[2] == "hef":
            candidates = hef_reference(m["r2"][0], m["mae"][0], m["rmse"][0], split(values[key[0]])[0])
            if not any(_close(best, c) for c in candidates):
                found.append(f"{key}: hef best score {best!r}, formula gives {candidates}")
    return found


def search_budget(w: Workload, model: str) -> int:
    """Evaluations one search makes: the grid size, or the PSO/TPE budget."""
    cfg = w.config
    if model in DEFAULT_GRID:
        overrides = [len(v["grid"]) for k, v in cfg.items() if k.startswith(f"models.{model}.space.")]
        return overrides[0] if overrides else DEFAULT_GRID[model]
    if cfg["experiment.scs_optimizer"] == "pso":
        return cfg["opt.pso.swarm_size"] * cfg["opt.pso.iterations"]
    return cfg["opt.tpe.trials"]


def check_evals(w: Workload, rows: list[dict]) -> list[str]:
    found = []
    for key, m in by_task(rows).items():
        if "opt_evals" in m and m["opt_evals"][0] != search_budget(w, key[1]):
            found.append(f"{key}: {m['opt_evals'][0]:g} evaluations, budget {search_budget(w, key[1])}")
    return found


def check_bands(w: Workload) -> list[str]:
    """The inputs span all four coefficient-of-variation bands of the hef
    tolerances, read as hef reads them: from the training split."""
    cvs = []
    for s in w.series:
        v = split(s.values.tolist())[0]
        mean = sum(v) / len(v)
        cvs.append(math.sqrt(sum((y - mean) ** 2 for y in v) / len(v)) / max(abs(mean), 1e-6))
    return [
        f"no series with CV in [{lo}, {hi})"
        for lo, hi in ((0.0, 0.2), (0.2, 0.5), (0.5, 1.0), (1.0, math.inf))
        if not any(lo <= cv < hi for cv in cvs)
    ]


def check_direction(cases: dict[str, list[int]]) -> list[str]:
    """hef wins more r2 and gra cases; maef wins more mae and mase cases."""
    found = []
    for metric, winner in (("r2", 0), ("gra", 0), ("mae", 1), ("mase", 1)):
        wins = cases[metric][:2]
        if wins[winner] <= wins[1 - winner]:
            found.append(f"{metric}: hef/maef case wins {wins}, expected {('hef', 'maef')[winner]} ahead")
    return found


def check_store(w: Workload, rows: list[dict], failed: set[Task] = frozenset()) -> list[str]:
    return (
        check_complete(w, rows, failed)
        + check_metrics(w, rows)
        + check_objective(w, rows)
        + check_evals(w, rows)
    )
