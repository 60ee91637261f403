"""Experiment protocol: repeated optimization runs, case counting, Z summaries.

A run sweeps (series x split x model x condition x repetition). Conditions are
``baseline`` (the fixed benchmark configuration, no search), ``hef`` and
``maef`` (optimizer-guided search scored by the respective evaluation
function). Exhaustive-search models are routed to grid search, continuous
ones to the configured swarm or Parzen optimizer. Every completed task
persists its test-set metric bundle to an append-only CSV store before any
analysis, and reruns over an existing store skip completed cells.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from . import evaluation
from .errors import HefLabError, InvalidParameterError, ZeroVarianceError
from .evaluation import MetricWeights, PenaltySchedule
from .metrics import HIGHER_BETTER, METRIC_NAMES, compute_bundle, mae, r2, rmse
from .models import ForecastModel, SearchKind, create as create_model, model_class
from .optimizers import (
    DEFAULT_GRID_CAP,
    OptimizationResult,
    PsoConfig,
    TpeConfig,
    grid_search,
    pso_minimize,
    tpe_minimize,
)
from .series import Dataset, SplitRatio, temporal_split
from .spaces import HyperparameterSpace
from .stats import MIN_REPETITIONS, TestResult, compare_paired_runs, two_proportion_z

__all__ = [
    "CONDITIONS",
    "TRACE_SUMMARY_NAMES",
    "required_rows",
    "ExperimentConfig",
    "TaskKey",
    "TaskFailure",
    "RunSummary",
    "ResultsStore",
    "derive_seed",
    "optimizer_label",
    "run_experiment",
    "CaseOutcome",
    "CaseTable",
    "count_cases",
    "case_tables_by_group",
    "z_summary",
    "improvement_rows",
]

logger = logging.getLogger(__name__)

CONDITIONS = ("baseline", "hef", "maef")

VERDICT_A = "improves_a"
VERDICT_B = "improves_b"
VERDICT_NONE = "no_change"

# optimizer trace summary rows stored alongside the metric bundle
TRACE_SUMMARY_NAMES = ("opt_evals", "opt_best_score")


def required_rows(condition: str) -> int:
    """Store rows per completed task: the bundle, plus the trace summary
    for optimizer-guided conditions."""
    return len(METRIC_NAMES) + (0 if condition == "baseline" else len(TRACE_SUMMARY_NAMES))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs besides the dataset itself."""

    models: tuple[str, ...]
    splits: tuple[SplitRatio, ...] = (SplitRatio.R80_20,)
    conditions: tuple[str, ...] = ("hef", "maef")
    scs_optimizer: str = "pso"
    repetitions: int = 21
    master_seed: int = 0
    alpha: float = 0.05
    pso: PsoConfig = field(default_factory=PsoConfig)
    tpe: TpeConfig = field(default_factory=TpeConfig)
    grid_cap: int = DEFAULT_GRID_CAP
    hef_weights: MetricWeights = field(default_factory=MetricWeights)
    hef_penalties: PenaltySchedule = field(default_factory=PenaltySchedule)
    space_overrides: Mapping[str, HyperparameterSpace] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.models:
            raise InvalidParameterError("at least one model is required")
        if not self.splits:
            raise InvalidParameterError("at least one split ratio is required")
        if len(set(self.conditions)) < 2:
            raise InvalidParameterError("need at least two distinct conditions to compare")
        unknown = set(self.conditions) - set(CONDITIONS)
        if unknown:
            raise InvalidParameterError(f"unknown conditions: {sorted(unknown)}")
        if self.repetitions < MIN_REPETITIONS:
            raise InvalidParameterError(f"repetitions must be >= {MIN_REPETITIONS} for compare to test them")
        if self.scs_optimizer not in ("pso", "tpe"):
            raise InvalidParameterError(f"scs_optimizer must be pso or tpe, got {self.scs_optimizer!r}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParameterError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TaskKey:
    series_id: str
    model: str
    condition: str
    split: str
    rep: int

    def as_tuple(self) -> tuple[str, str, str, str, int]:
        return (self.series_id, self.model, self.condition, self.split, self.rep)


@dataclass(frozen=True)
class TaskFailure:
    key: TaskKey
    reason: str


@dataclass(frozen=True)
class RunSummary:
    total: int
    executed: int
    skipped: int
    failures: tuple[TaskFailure, ...]

    @property
    def completed(self) -> int:
        return self.executed - len(self.failures)


def derive_seed(master_seed: int, series_id: str, model: str, condition: str, rep: int) -> int:
    """Stable per-task seed from the master seed and the cell identity."""
    text = f"{master_seed}|{series_id}|{model}|{condition}|{rep}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def optimizer_label(model: ForecastModel, condition: str, scs_optimizer: str) -> str:
    if condition == "baseline":
        return "fixed"
    if model.search_kind is SearchKind.EXHAUSTIVE:
        return "grid"
    return scs_optimizer


# --- results store -----------------------------------------------------------

STORE_COLUMNS = ("series_id", "model", "condition", "optimizer", "split", "rep", "metric", "value")


class ResultsStore:
    """Append-only long-format CSV of metric values, one writer at a time.

    Rows: ``series_id,model,condition,optimizer,split,rep,metric,value``.
    Optimizer-guided tasks carry two extra rows summarizing the search
    (``opt_evals``, ``opt_best_score``). A task is complete once all its rows
    are present; completed tasks are skipped on rerun.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._rows: list[dict] = []
        self._completed: set[tuple] = set()
        # an absent or zero-byte file still needs its header
        self._needs_header = not self.path.exists() or self.path.stat().st_size == 0
        if not self._needs_header:
            self._read()

    def _read(self) -> None:
        with self.path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is not None and tuple(reader.fieldnames) != STORE_COLUMNS:
                raise InvalidParameterError(
                    f"{self.path}: unexpected store columns {reader.fieldnames}"
                )
            for raw in reader:
                row = dict(raw)
                row["rep"] = int(row["rep"])
                row["value"] = float(row["value"])
                self._rows.append(row)
        counts: dict[tuple, int] = {}
        for row in self._rows:
            key = (row["series_id"], row["model"], row["condition"], row["split"], row["rep"])
            counts[key] = counts.get(key, 0) + 1
        self._completed = {
            key for key, count in counts.items() if count >= required_rows(key[2])
        }

    def __len__(self) -> int:
        return len(self._completed)

    @property
    def rows(self) -> tuple[dict, ...]:
        """The rows read when the store was opened; ``append`` writes the file only."""
        return tuple(self._rows)

    def is_complete(self, key: TaskKey) -> bool:
        return key.as_tuple() in self._completed

    def append(self, key: TaskKey, optimizer: str, values: Mapping[str, float]) -> None:
        extras = tuple(n for n in TRACE_SUMMARY_NAMES if n in values)
        with self.path.open("a", newline="") as fh:
            writer = csv.writer(fh)
            if self._needs_header:
                writer.writerow(STORE_COLUMNS)
                self._needs_header = False
            for metric in METRIC_NAMES + extras:
                value = float(values[metric])
                writer.writerow(
                    [key.series_id, key.model, key.condition, optimizer, key.split, key.rep, metric, repr(value)]
                )
        self._completed.add(key.as_tuple())


# --- task execution ----------------------------------------------------------


class _Objective:
    """Fit -> predict -> the condition's score: ``maef`` scores the MAE alone,
    ``hef`` scores r2, MAE and RMSE with the configured weights and penalties."""

    def __init__(
        self,
        model: ForecastModel,
        train: np.ndarray,
        test: np.ndarray,
        condition: str,
        config: ExperimentConfig,
    ) -> None:
        self._model = model
        self._train = train
        self._test = test
        self._condition = condition
        self._config = config

    def __call__(self, point: Mapping) -> float:
        fitted = self._model.fit(self._train, point)
        predicted = fitted.predict(len(self._test))
        if self._condition == "maef":
            return evaluation.maef_score(mae(self._test, predicted))
        try:
            r2_value = r2(self._test, predicted)
        except ZeroVarianceError:
            r2_value = math.nan  # flat test window; hef_score rejects it
        return evaluation.hef_score(
            predicted,
            r2_value,
            mae(self._test, predicted),
            rmse(self._test, predicted),
            self._train,
            weights=self._config.hef_weights,
            penalties=self._config.hef_penalties,
        )


def _run_search(
    model: ForecastModel,
    space: HyperparameterSpace,
    objective: _Objective,
    config: ExperimentConfig,
    seed: int,
) -> OptimizationResult:
    if model.search_kind is SearchKind.EXHAUSTIVE:
        return grid_search(space, objective, cap=config.grid_cap)
    if config.scs_optimizer == "pso":
        return pso_minimize(space, objective, replace(config.pso, seed=seed))
    return tpe_minimize(space, objective, replace(config.tpe, seed=seed))


def _execute_task(
    key: TaskKey,
    dataset: Dataset,
    config: ExperimentConfig,
) -> tuple[TaskKey, str, dict[str, float] | None, str | None]:
    """Run one cell; returns (key, optimizer, metric values or None, failure reason)."""
    series = dataset.get(key.series_id)
    model = create_model(key.model, season_length=series.frequency.periods_per_year)
    label = optimizer_label(model, key.condition, config.scs_optimizer)
    try:
        split = temporal_split(series, SplitRatio.parse(key.split))
        train, test = split.train, split.test
        trace_summary: dict[str, float] = {}
        if key.condition == "baseline":
            point: Mapping = model.fixed_config()
        else:
            space = config.space_overrides.get(key.model, model.space())
            seed = derive_seed(config.master_seed, key.series_id, key.model, key.condition, key.rep)
            objective = _Objective(model, train, test, key.condition, config)
            result = _run_search(model, space, objective, config, seed)
            if not math.isfinite(result.best_score):
                raise InvalidParameterError("every candidate configuration failed to score")
            point = result.best_point
            trace_summary = {
                "opt_evals": float(result.evals),
                "opt_best_score": result.best_score,
            }
        started = time.perf_counter()
        fitted = model.fit(train, point)
        predicted = fitted.predict(split.horizon)
        exec_time = time.perf_counter() - started
        bundle = compute_bundle(train, test, predicted, exec_time=exec_time)
        return key, label, {**bundle.as_dict(), **trace_summary}, None
    except HefLabError as exc:
        return key, label, None, f"{type(exc).__name__}: {exc}"


# The dataset and config a worker process runs its tasks against, set once
# per worker by the pool initializer so that tasks carry only their key.
_worker_inputs: tuple[Dataset, ExperimentConfig] | None = None


def _init_worker(dataset: Dataset, config: ExperimentConfig) -> None:
    global _worker_inputs
    _worker_inputs = (dataset, config)


def _execute_worker_task(key: TaskKey) -> tuple[TaskKey, str, dict[str, float] | None, str | None]:
    # looks _execute_task up by its global name at call time, so a wrapper
    # installed on the module is what the worker runs
    return _execute_task(key, *_worker_inputs)


def run_experiment(
    dataset: Dataset,
    config: ExperimentConfig,
    store_path: str | Path,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> RunSummary:
    """Execute the full sweep into a results store, resuming if it exists.

    Per-task failures are recorded and excluded; they never abort the sweep.
    With ``jobs > 1`` each of the ``jobs`` worker processes receives the
    dataset and config once, and every task sends only its key. The store is
    written by this process only, in deterministic task order.
    """
    for name in config.models:  # unknown names fail before any work
        model_class(name)
    store = ResultsStore(store_path)
    tasks = [
        TaskKey(series.id, model, condition, split.label, rep)
        for series in dataset.series
        for split in config.splits
        for model in config.models
        for condition in config.conditions
        for rep in range(config.repetitions)
    ]
    pending = [key for key in tasks if not store.is_complete(key)]
    skipped = len(tasks) - len(pending)
    failures: list[TaskFailure] = []

    def handle(result: tuple[TaskKey, str, dict[str, float] | None, str | None], done: int) -> None:
        key, label, values, reason = result
        if values is None:
            failures.append(TaskFailure(key, reason or "unknown"))
            logger.warning("task %s failed: %s", key, reason)
        else:
            store.append(key, label, values)
        if progress is not None:
            progress(done, len(pending))

    if jobs > 1 and pending:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(dataset, config)
        ) as pool:
            for done, result in enumerate(pool.map(_execute_worker_task, pending), start=1):
                handle(result, done)
    else:
        for done, key in enumerate(pending, start=1):
            handle(_execute_task(key, dataset, config), done)

    return RunSummary(
        total=len(tasks), executed=len(pending), skipped=skipped, failures=tuple(failures)
    )


# --- case counting -----------------------------------------------------------


@dataclass(frozen=True)
class CaseOutcome:
    """Verdict for one (series, model, metric) cell of a comparison pair."""

    series_id: str
    model: str
    split: str
    metric: str
    verdict: str  # improves_a | improves_b | no_change
    p_value: float


@dataclass(frozen=True)
class CaseTable:
    """Per-metric verdict counts for one comparison pair.

    ``counts[metric]`` maps the three verdicts to case counts; for every
    metric the three counts sum to ``comparisons[metric]``, the number of
    (series, model) cells actually compared. ``outcomes`` carries the
    underlying per-cell verdicts.
    """

    pair: tuple[str, str]
    split: str | None
    optimizer: str | None
    counts: Mapping[str, Mapping[str, int]]
    comparisons: Mapping[str, int]
    skipped_cells: tuple[tuple, ...] = ()
    outcomes: tuple[CaseOutcome, ...] = ()

    def improvements(self, metric: str) -> tuple[int, int, int]:
        c = self.counts[metric]
        return c[VERDICT_A], c[VERDICT_B], c[VERDICT_NONE]


def _group_cells(rows: Iterable[Mapping]) -> dict[tuple, dict[int, float]]:
    """(series, model, split, optimizer, condition, metric) -> rep -> value."""
    cells: dict[tuple, dict[int, float]] = {}
    for row in rows:
        key = (
            row["series_id"],
            row["model"],
            row["split"],
            row["optimizer"],
            row["condition"],
            row["metric"],
        )
        cells.setdefault(key, {})[int(row["rep"])] = float(row["value"])
    return cells


def count_cases(
    rows: Iterable[Mapping],
    pair: tuple[str, str],
    alpha: float = 0.05,
    split: str | None = None,
    optimizer: str | None = None,
) -> CaseTable:
    """Classify every (series, model) cell of the pair into the three verdicts.

    A cell is compared per metric by the two repetition groups; significant
    differences become improvement cases for the better side (metric
    direction aware), everything else is no-change. Cells missing one side
    or with unequal repetition counts are skipped and reported.
    """
    cond_a, cond_b = pair
    if cond_a == cond_b:
        raise InvalidParameterError("pair must name two distinct conditions")
    grouped = _group_cells(rows)

    # index by (series, model, split, condition, metric); the optimizer label
    # only gates which cells enter this table, it is not part of cell identity
    by_cell: dict[tuple, dict[int, float]] = {}
    cell_ids: set[tuple] = set()
    for (series_id, model, row_split, row_opt, condition, metric), reps in grouped.items():
        if condition not in pair:
            continue
        if split is not None and row_split != split:
            continue
        by_cell[(series_id, model, row_split, condition, metric)] = reps
        # baseline rows never select cells when filtering by optimizer
        if optimizer is not None and (condition == "baseline" or row_opt != optimizer):
            continue
        cell_ids.add((series_id, model, row_split))

    counts = {m: {VERDICT_A: 0, VERDICT_B: 0, VERDICT_NONE: 0} for m in METRIC_NAMES}
    comparisons = {m: 0 for m in METRIC_NAMES}
    skipped: list[tuple] = []
    outcomes: list[CaseOutcome] = []
    for series_id, model, row_split in sorted(cell_ids):
        for metric in METRIC_NAMES:
            reps_a = by_cell.get((series_id, model, row_split, cond_a, metric))
            reps_b = by_cell.get((series_id, model, row_split, cond_b, metric))
            if reps_a is None or reps_b is None or set(reps_a) != set(reps_b):
                skipped.append((series_id, model, row_split, metric))
                continue
            order = sorted(reps_a)
            sample_a = [reps_a[r] for r in order]
            sample_b = [reps_b[r] for r in order]
            result = compare_paired_runs(sample_a, sample_b, alpha)
            comparisons[metric] += 1
            if not result.significant:
                verdict = VERDICT_NONE
            else:
                a_better = (result.direction == "a_greater") == (metric in HIGHER_BETTER)
                verdict = VERDICT_A if a_better else VERDICT_B
            counts[metric][verdict] += 1
            outcomes.append(
                CaseOutcome(series_id, model, row_split, metric, verdict, result.p_value)
            )

    return CaseTable(
        pair=pair,
        split=split,
        optimizer=optimizer,
        counts=counts,
        comparisons=comparisons,
        skipped_cells=tuple(skipped),
        outcomes=tuple(outcomes),
    )


def case_tables_by_group(
    rows: Iterable[Mapping], pair: tuple[str, str], alpha: float = 0.05
) -> list[CaseTable]:
    """One case table per (split, optimizer) group present for the pair."""
    groups: set[tuple[str, str]] = set()
    for row in rows:
        if row["condition"] in pair and row["condition"] != "baseline":
            groups.add((row["split"], row["optimizer"]))
    return [
        count_cases(rows, pair, alpha, split=split, optimizer=optimizer)
        for split, optimizer in sorted(groups)
    ]


def z_summary(table: CaseTable, metric: str | None = None, alpha: float = 0.05) -> TestResult:
    """Two-proportion Z over improvement rates; ``metric=None`` pools all metrics.

    Positive Z means the pair's first condition improves more cases.
    """
    if metric is None:
        x1 = sum(table.counts[m][VERDICT_A] for m in METRIC_NAMES)
        x2 = sum(table.counts[m][VERDICT_B] for m in METRIC_NAMES)
        n = sum(table.comparisons[m] for m in METRIC_NAMES)
    else:
        x1 = table.counts[metric][VERDICT_A]
        x2 = table.counts[metric][VERDICT_B]
        n = table.comparisons[metric]
    if n < 1:
        raise InvalidParameterError("case table has no comparisons")
    return two_proportion_z(x1, n, x2, n, alpha=alpha)


def improvement_rows(
    rows: Iterable[Mapping], pair: tuple[str, str]
) -> dict[str, list[dict]]:
    """Signed percentage improvement per (series, model, split, optimizer, metric).

    Positive values mean the pair's first condition is better; cells whose
    reference mean is ~0 are dropped (percentage undefined).
    """
    cond_a, cond_b = pair
    cells = _group_cells(rows)
    means: dict[tuple, dict[str, float]] = {}
    for (series_id, model, split, _opt, condition, metric), reps in cells.items():
        if condition not in pair:
            continue
        cell = (series_id, model, split, metric)
        means.setdefault(cell, {})[condition] = sum(reps.values()) / len(reps)
    opt_by_cell: dict[tuple, str] = {}
    for (series_id, model, split, opt, condition, metric), _reps in cells.items():
        if condition in pair and condition != "baseline":
            opt_by_cell[(series_id, model, split, metric)] = opt

    out: dict[str, list[dict]] = {m: [] for m in METRIC_NAMES}
    for (series_id, model, split, metric), by_cond in sorted(means.items()):
        if metric not in out:  # trace summary rows are not improvement metrics
            continue
        if cond_a not in by_cond or cond_b not in by_cond:
            continue
        reference = by_cond[cond_b]
        if abs(reference) < 1e-12:
            continue
        delta = by_cond[cond_a] - by_cond[cond_b]
        if metric not in HIGHER_BETTER:
            delta = -delta
        out[metric].append(
            {
                "series_id": series_id,
                "model": model,
                "split": split,
                "optimizer": opt_by_cell.get((series_id, model, split, metric), "fixed"),
                "metric": metric,
                "pct_improvement": 100.0 * delta / abs(reference),
            }
        )
    return out
