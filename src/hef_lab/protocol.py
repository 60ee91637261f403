"""Experiment protocol: repeated optimization runs, case counting, Z summaries.

A run sweeps (series x split x model x condition x repetition). Conditions are
``baseline`` (the fixed benchmark configuration, no search), ``hef`` and
``maef`` (optimizer-guided search scored by the respective evaluation
function). A task's search follows from its model's space (the declared
space with the config's overridden domains): grid search when every domain
is a grid, the configured swarm or Parzen optimizer otherwise. The unit of
work is one (series, split, model) cell and condition with its pending reps,
which share one objective, one grid search and one final-forecast scorer.
Every completed task persists its test-set metric bundle to an append-only
CSV store before any analysis, and reruns over an existing store skip
completed tasks.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import evaluation
from .errors import HefLabError, InvalidParameterError
from .evaluation import MetricWeights, PenaltySchedule
from .metrics import HIGHER_BETTER, METRIC_NAMES, BundleScorer, TargetWindow
from .metrics import compute_bundle, mae, r2, rmse  # noqa: F401  (not called; perfbench's tracer wraps these names)
from .models import ForecastModel, create as create_model, model_class
from .optimizers import (
    DEFAULT_GRID_CAP,
    OptimizationResult,
    PsoConfig,
    TpeConfig,
    grid_search,
    pso_minimize,
    tpe_minimize,
)
from .series import Dataset, Split, SplitRatio, TimeSeries, temporal_split
from .spaces import Domain, HyperparameterSpace
from .stats import MIN_REPETITIONS, TestResult, compare_paired_runs, two_proportion_z

__all__ = [
    "CONDITIONS",
    "TRACE_SUMMARY_NAMES",
    "required_metrics",
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


def required_metrics(condition: str) -> tuple[str, ...]:
    """The metric rows of one completed task, in store order: the bundle,
    plus the trace summary for optimizer-guided conditions."""
    return METRIC_NAMES + (() if condition == "baseline" else TRACE_SUMMARY_NAMES)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs besides the dataset itself. ``space_overrides``
    maps a model name to the domains that replace its declared ones, by
    parameter name; a search the sweep cannot run is refused here."""

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
    space_overrides: Mapping[str, Mapping[str, Domain]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.models:
            raise InvalidParameterError("at least one model is required")
        if not self.splits:
            raise InvalidParameterError("at least one split ratio is required")
        if not all(isinstance(split, SplitRatio) for split in self.splits):
            raise InvalidParameterError(f"splits must be SplitRatio members, got {self.splits!r}")
        if len(set(self.conditions)) < 2:
            raise InvalidParameterError("need at least two distinct conditions to compare")
        unknown = set(self.conditions) - set(CONDITIONS)
        if unknown:
            raise InvalidParameterError(f"unknown conditions: {sorted(unknown)}")
        for name in ("models", "splits", "conditions"):
            values = getattr(self, name)
            if len(set(values)) < len(values):  # each would run, and store its rows, twice
                repeated = dict.fromkeys(getattr(v, "label", v) for v in values if values.count(v) > 1)
                raise InvalidParameterError(f"{name} repeat {', '.join(repeated)}")
        if type(self.repetitions) is not int or self.repetitions < MIN_REPETITIONS:
            raise InvalidParameterError(
                f"repetitions must be an integer >= {MIN_REPETITIONS} for compare to test them,"
                f" got {self.repetitions!r}"
            )
        if self.scs_optimizer not in ("pso", "tpe"):
            raise InvalidParameterError(f"scs_optimizer must be pso or tpe, got {self.scs_optimizer!r}")
        _check_alpha(self.alpha)
        for name, params in self.space_overrides.items():
            declared = model_class(name).declared_space  # an unregistered name raises UnknownModelError
            if not isinstance(params, Mapping):
                raise InvalidParameterError(f"{name}'s override must map parameter names to domains, got {params!r}")
            undeclared = ", ".join(sorted(set(params) - set(declared.names)))
            if undeclared:
                raise InvalidParameterError(f"{name} declares no parameter {undeclared}")
        for name in self.models:  # of two distinct conditions, at least one searches, as hef does
            space = self.search_space(name)
            label = optimizer_label(space, "hef", self.scs_optimizer)
            if label == "pso" and len(space.interval_names()) < len(space):
                raise InvalidParameterError(f"{name} mixes grid and interval domains; pso searches intervals only")
            if label == "grid" and space.grid_size() > self.grid_cap:
                raise InvalidParameterError(f"{name} has {space.grid_size()} grid points, cap is {self.grid_cap}")

    def search_space(self, name: str) -> HyperparameterSpace:
        """Model ``name``'s declared space with the overridden domains replaced."""
        return HyperparameterSpace({**model_class(name).declared_space.params, **self.space_overrides.get(name, {})})


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


def derive_seed(master_seed: int, series_id: str, model: str, condition: str, rep: int) -> int:
    """Stable per-task seed from the master seed and the cell identity."""
    text = f"{master_seed}|{series_id}|{model}|{condition}|{rep}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def optimizer_label(space: HyperparameterSpace, condition: str, scs_optimizer: str) -> str:
    """The search a task runs, which is also the label its rows are stored
    under: ``fixed`` for the baseline, ``grid`` when every domain of the
    space is a grid (also the empty space), else the configured optimizer."""
    if condition == "baseline":
        return "fixed"
    if space.is_finite():
        return "grid"
    return scs_optimizer


# --- results store -----------------------------------------------------------

STORE_COLUMNS = ("series_id", "model", "condition", "optimizer", "split", "rep", "metric", "value")
_HEADER_LINE = ",".join(STORE_COLUMNS) + "\r\n"


class ResultsStore:
    """Append-only long-format CSV of metric values, one writer at a time.

    Rows: ``series_id,model,condition,optimizer,split,rep,metric,value``.
    Each completed task is one contiguous block of rows, one per name in
    ``required_metrics`` of its condition; optimizer-guided tasks carry two
    extra rows summarizing the search (``opt_evals``, ``opt_best_score``).
    Reading keeps the longest prefix of whole task blocks, so a block cut
    short by a crash, and anything after it, is dropped; the first ``append``
    truncates the file back to that prefix. Completed tasks are skipped on
    rerun. The writer keeps one handle until ``close`` and flushes each task.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._rows: list[dict] = []
        self._completed: set[tuple] = set()
        self._size = 0  # bytes of the header and the whole task blocks after it
        self._fh: TextIO | None = None
        if self.path.exists():
            self._read()

    def _read(self) -> None:
        consumed = 0  # bytes of the whole lines handed to the reader so far

        def whole_lines(fh):
            nonlocal consumed
            for line in fh:
                if not line.endswith(b"\n"):
                    return  # a line torn by a crash
                consumed += len(line)
                yield line.decode("utf-8", "surrogateescape")

        with self.path.open("rb") as fh:
            reader = csv.reader(whole_lines(fh))
            columns = next(reader, None)
            if columns is None:  # not even the header line is whole: an empty store
                fh.seek(0)
                if not _HEADER_LINE.encode().startswith(fh.read()):
                    raise InvalidParameterError(f"{self.path}: not a results store")
                return
            if tuple(columns) != STORE_COLUMNS:
                raise InvalidParameterError(f"{self.path}: unexpected store columns {columns}")
            self._size = consumed
            block: list[dict] = []
            for fields in reader:
                try:
                    series_id, model, condition, optimizer, split, rep, metric, value = fields
                    row = dict(zip(STORE_COLUMNS, fields), rep=int(rep), value=float(value))
                except ValueError:  # a malformed line, such as rows glued onto a torn one
                    break
                key = (series_id, model, condition, split, row["rep"])
                if not block:
                    block_key, names = key, required_metrics(condition)
                elif key != block_key:
                    break  # the task before this row was cut short
                block.append(row)
                if len(block) == len(names):
                    if {r["metric"] for r in block} != set(names):
                        break
                    self._rows.extend(block)
                    self._completed.add(key)
                    block = []
                    self._size = consumed

    def __len__(self) -> int:
        return len(self._completed)

    @property
    def rows(self) -> tuple[dict, ...]:
        """The rows of whole task blocks read when the store was opened;
        ``append`` writes the file only."""
        return tuple(self._rows)

    def is_complete(self, key: TaskKey) -> bool:
        return key.as_tuple() in self._completed

    def append(self, key: TaskKey, optimizer: str, values: Mapping[str, float]) -> None:
        if self._fh is None:
            self._open()
        writer = csv.writer(self._fh)
        for metric in required_metrics(key.condition):
            value = float(values[metric])
            writer.writerow(
                [key.series_id, key.model, key.condition, optimizer, key.split, key.rep, metric, repr(value)]
            )
        self._fh.flush()  # a crash leaves whole task blocks and at most one torn one
        self._size = self._fh.tell()
        self._completed.add(key.as_tuple())

    def _open(self) -> None:
        size = self.path.stat().st_size if self.path.exists() else 0
        if size > self._size:
            logger.warning("%s: dropping %d bytes after the last whole task", self.path, size - self._size)
            os.truncate(self.path, self._size)
        self._fh = self.path.open("a", newline="")
        if self._size == 0:
            csv.writer(self._fh).writerow(STORE_COLUMNS)

    def close(self) -> None:
        """Close the append handle; a later ``append`` opens it again."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# --- task execution ----------------------------------------------------------


class _Objective:
    """Fit -> predict -> the condition's score: ``maef`` scores the MAE alone,
    ``hef`` scores r2, MAE and RMSE with the configured weights and penalties.
    The test window is the unit's, and the hef thresholds of the training
    series are built once, when the objective is made."""

    def __init__(
        self,
        model: ForecastModel,
        train: np.ndarray,
        window: TargetWindow,
        condition: str,
        config: ExperimentConfig,
    ) -> None:
        self._model = model
        self._train = train
        self._window = window
        self._hef = None
        if condition != "maef":
            self._hef = evaluation.hef_scorer(
                train, weights=config.hef_weights, penalties=config.hef_penalties
            )

    def __call__(self, point: Mapping) -> float:
        fitted = self._model.fit(self._train, point)
        predicted = fitted.predict(self._window.actual.size)
        if self._hef is None:
            return evaluation.maef_score(self._window.mae(predicted))
        return self._hef(predicted, *self._window.errors(predicted))  # a flat window's NaN r2 raises


@dataclass
class _Reps:
    """What the pending reps of one (cell, condition) share: the split, made by
    the first rep to reach it (retried if it fails), its bundle scorer, the
    objective of a searched condition and the grid search."""

    series: TimeSeries
    model: ForecastModel
    space: HyperparameterSpace
    label: str
    split: Split | None = None
    scorer: BundleScorer | None = None
    objective: _Objective | None = None
    grid: OptimizationResult | None = None


_Outcome = tuple[TaskKey, str, dict[str, float] | None, str | None]


def _search(key: TaskKey, reps: _Reps, config: ExperimentConfig) -> OptimizationResult:
    """The search ``reps.label`` names over the unit's objective: the grid search,
    run once and kept in ``reps``, or a swarm or Parzen search seeded per rep."""
    if reps.grid is not None:
        return reps.grid
    if reps.label == "grid":
        reps.grid = grid_search(reps.space, reps.objective, cap=config.grid_cap)
        return reps.grid
    seed = derive_seed(config.master_seed, key.series_id, key.model, key.condition, key.rep)
    if reps.label == "pso":
        return pso_minimize(reps.space, reps.objective, config.pso, seed)
    return tpe_minimize(reps.space, reps.objective, config.tpe, seed)


def _execute_task(key: TaskKey, reps: _Reps, config: ExperimentConfig) -> _Outcome:
    """Run one task; returns (key, optimizer, metric values or None, failure reason)."""
    try:
        if reps.split is None:
            split = temporal_split(reps.series, SplitRatio.parse(key.split))
            reps.scorer, reps.split = BundleScorer(split.train, split.test), split
        if key.condition == "baseline":
            point, trace_summary = reps.model.fixed_config(), {}
        else:
            if reps.objective is None:
                reps.objective = _Objective(reps.model, reps.split.train, reps.scorer.window, key.condition, config)
            result = _search(key, reps, config)
            if not math.isfinite(result.best_score):
                raise InvalidParameterError("every candidate configuration failed to score")
            point = result.best_point
            trace_summary = {"opt_evals": float(result.evals), "opt_best_score": result.best_score}
        started = time.perf_counter()
        fitted = reps.model.fit(reps.split.train, point)
        predicted = fitted.predict(reps.split.horizon)
        exec_time = time.perf_counter() - started
        return key, reps.label, {**reps.scorer(predicted, exec_time).as_dict(), **trace_summary}, None
    except HefLabError as exc:
        return key, reps.label, None, f"{type(exc).__name__}: {exc}"


def _execute_reps(keys: Sequence[TaskKey], dataset: Dataset, config: ExperimentConfig) -> Iterator[_Outcome]:
    """Run the pending reps of one (cell, condition) in order, yielding each outcome."""
    series = dataset.get(keys[0].series_id)
    model = create_model(keys[0].model, season_length=series.frequency.periods_per_year)
    space = config.search_space(model.name)
    reps = _Reps(series, model, space, optimizer_label(space, keys[0].condition, config.scs_optimizer))
    for key in keys:
        # _execute_task is looked up at call time, so a wrapper installed on the module runs
        yield _execute_task(key, reps, config)


# A worker's dataset and config, set once by the pool initializer; each unit sends only its keys.
_worker_inputs: tuple[Dataset, ExperimentConfig] | None = None


def _init_worker(dataset: Dataset, config: ExperimentConfig) -> None:
    global _worker_inputs
    _worker_inputs = (dataset, config)


def _execute_worker_reps(keys: Sequence[TaskKey]) -> list[_Outcome]:
    return list(_execute_reps(keys, *_worker_inputs))


def run_experiment(
    dataset: Dataset,
    config: ExperimentConfig,
    store_path: str | Path,
    jobs: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> RunSummary:
    """Execute the full sweep into a results store, resuming if it exists.

    The unit of work is one (series, split, model) cell and condition with
    its pending reps. Per-task failures are recorded and excluded; they never
    abort the sweep. With ``jobs > 1`` each of ``min(jobs, pending units)``
    worker processes receives the dataset and config once, and every unit
    sends only its keys. The store is written by this process only, in
    deterministic task order.
    """
    store = ResultsStore(store_path)
    units = [
        [TaskKey(series.id, model, condition, split.label, rep) for rep in range(config.repetitions)]
        for series in dataset.series
        for split in config.splits
        for model in config.models
        for condition in config.conditions
    ]
    total = len(units) * config.repetitions
    pending = [keys for unit in units if (keys := [key for key in unit if not store.is_complete(key)])]
    executed = sum(map(len, pending))
    failures: list[TaskFailure] = []
    with ExitStack() as stack:
        stack.callback(store.close)
        if jobs > 1 and pending:
            workers = min(jobs, len(pending))
            pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(dataset, config))
            outcomes = stack.enter_context(pool).map(_execute_worker_reps, pending)
        else:
            outcomes = map(_execute_reps, pending, repeat(dataset), repeat(config))
        for done, (key, label, values, reason) in enumerate(chain.from_iterable(outcomes), start=1):
            if values is None:
                failures.append(TaskFailure(key, reason))
                logger.warning("task %s failed: %s", key, reason)
            else:
                store.append(key, label, values)
            if progress is not None:
                progress(done, executed)

    return RunSummary(total=total, executed=executed, skipped=total - executed, failures=tuple(failures))


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


def _check_alpha(alpha: float) -> None:
    """Refuse a significance level outside (0, 1), NaN included."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha!r}")


# (series_id, model, split, condition) -> (optimizer label, metric -> rep -> value)
_Index = dict[tuple[str, str, str, str], tuple[str, dict[str, dict[int, float]]]]


def _index(rows: Iterable[Mapping], pair: tuple[str, str]) -> _Index:
    """Each run of the rows with its one optimizer label and its values, for
    an analysis of ``pair``. Refused: a pair that does not name two distinct
    conditions, a non-finite value, a run stored under two labels, and a cell
    whose searched conditions ran under two labels; a resume with another
    optimizer writes the last two."""
    if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(CONDITIONS):
        raise InvalidParameterError(
            f"pair must name two distinct conditions of {', '.join(CONDITIONS)}, got {', '.join(pair)}"
        )
    index: _Index = {}
    for row in rows:
        run = (row["series_id"], row["model"], row["split"], row["condition"])
        entry = index.get(run)
        if entry is None:
            entry = index[run] = (row["optimizer"], {})
        elif row["optimizer"] != entry[0]:
            raise InvalidParameterError(
                f"run {'/'.join(run)} holds reps under two optimizer labels, {entry[0]} and {row['optimizer']}"
            )
        value = float(row["value"])
        if not math.isfinite(value):  # written before scoring refused it, or by hand
            raise InvalidParameterError(f"run {'/'.join(run)} holds {row['metric']} = {value!r} at rep {row['rep']}")
        entry[1].setdefault(row["metric"], {})[int(row["rep"])] = value
    searched: dict[tuple[str, ...], tuple[str, str]] = {}  # cell -> (condition, label)
    for (*cell, condition), (label, _) in index.items():
        if condition == "baseline":
            continue
        first_condition, first_label = searched.setdefault(tuple(cell), (condition, label))
        if label != first_label:
            raise InvalidParameterError(
                f"cell {'/'.join(cell)} holds {first_condition} reps under {first_label}"
                f" and {condition} reps under {label}"
            )
    return index


def _case_table(
    index: _Index,
    pair: tuple[str, str],
    alpha: float,
    split: str | None,
    optimizer: str | None,
) -> CaseTable:
    """The case table of the cells of ``index`` in ``split`` (None: all) whose
    searched side of the pair ran under ``optimizer`` (None: any label)."""
    cond_a, cond_b = pair
    cells = sorted(
        {
            (series_id, model, row_split)
            for (series_id, model, row_split, condition), (label, _) in index.items()
            if condition in pair
            and (split is None or row_split == split)
            # baseline runs never select cells when filtering by optimizer
            and (optimizer is None or (condition != "baseline" and label == optimizer))
        }
    )
    counts = {m: {VERDICT_A: 0, VERDICT_B: 0, VERDICT_NONE: 0} for m in METRIC_NAMES}
    comparisons = {m: 0 for m in METRIC_NAMES}
    skipped: list[tuple] = []
    outcomes: list[CaseOutcome] = []
    for cell in cells:
        metrics_a = index.get((*cell, cond_a), (None, {}))[1]
        metrics_b = index.get((*cell, cond_b), (None, {}))[1]
        for metric in METRIC_NAMES:
            reps_a = metrics_a.get(metric)
            reps_b = metrics_b.get(metric)
            if reps_a is None or reps_b is None or set(reps_a) != set(reps_b):
                skipped.append((*cell, metric))
                continue
            order = sorted(reps_a)
            result = compare_paired_runs([reps_a[r] for r in order], [reps_b[r] for r in order], alpha)
            comparisons[metric] += 1
            if not result.significant:
                verdict = VERDICT_NONE
            else:
                a_better = (result.direction == "a_greater") == (metric in HIGHER_BETTER)
                verdict = VERDICT_A if a_better else VERDICT_B
            counts[metric][verdict] += 1
            outcomes.append(CaseOutcome(*cell, metric, verdict, result.p_value))

    return CaseTable(pair, split, optimizer, counts, comparisons, tuple(skipped), tuple(outcomes))


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
    or with unequal repetition counts are skipped and reported. Rows that hold
    one run, or the searched conditions of one cell, under two optimizer
    labels are refused, as is a pair that does not name two distinct
    conditions.
    """
    _check_alpha(alpha)
    return _case_table(_index(rows, pair), pair, alpha, split, optimizer)


def case_tables_by_group(
    rows: Iterable[Mapping], pair: tuple[str, str], alpha: float = 0.05
) -> list[CaseTable]:
    """One case table per (split, optimizer) group present for the pair."""
    _check_alpha(alpha)
    index = _index(rows, pair)
    groups = {
        (split, label)
        for (_, _, split, condition), (label, _) in index.items()
        if condition in pair and condition != "baseline"
    }
    return [_case_table(index, pair, alpha, split, label) for split, label in sorted(groups)]


def z_summary(table: CaseTable, metric: str | None = None, alpha: float = 0.05) -> TestResult:
    """Two-proportion Z over improvement rates; ``metric=None`` pools all metrics.

    Positive Z means the pair's first condition improves more cases.
    """
    _check_alpha(alpha)
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
    reference mean is ~0 are dropped (percentage undefined). The optimizer is
    the label of the pair's second condition, or of its first when the second
    is the baseline.
    """
    cond_a, cond_b = pair
    index = _index(rows, pair)
    out: dict[str, list[dict]] = {m: [] for m in METRIC_NAMES}
    for series_id, model, split, _ in sorted(run for run in index if run[3] == cond_a):
        if (series_id, model, split, cond_b) not in index:
            continue
        label_a, metrics_a = index[(series_id, model, split, cond_a)]
        label_b, metrics_b = index[(series_id, model, split, cond_b)]
        optimizer = label_a if cond_b == "baseline" else label_b
        for metric in METRIC_NAMES:  # the trace summary rows are not improvement metrics
            if metric not in metrics_a or metric not in metrics_b:
                continue
            reps_a, reps_b = metrics_a[metric], metrics_b[metric]
            reference = sum(reps_b.values()) / len(reps_b)
            if abs(reference) < 1e-12:
                continue
            delta = sum(reps_a.values()) / len(reps_a) - reference
            if metric not in HIGHER_BETTER:
                delta = -delta
            out[metric].append(
                dict(
                    series_id=series_id, model=model, split=split, optimizer=optimizer,
                    metric=metric, pct_improvement=100.0 * delta / abs(reference),
                )
            )
    return out
