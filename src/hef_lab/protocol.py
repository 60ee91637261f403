"""Experiment protocol: repeated optimization runs, case counting, Z summaries.

A run sweeps (series x split x model x condition x repetition). Conditions are
``baseline`` (the fixed benchmark configuration, no search), ``hef`` and
``maef`` (optimizer-guided search scored by the respective evaluation
function). A task's search follows from its model's space (the declared
space with the config's overridden domains): grid search when every domain
is a grid, the configured swarm or Parzen optimizer otherwise. The unit of
work is one (series, split, model) cell and condition with its pending reps.
Its first pending rep computes every pending rep's outcome: it makes the
split, the final-forecast scorer and the objective once, runs one grid
search for the unit or one swarm or Parzen search per rep, seeded by the rep
(the swarms in lockstep, each step's points scored in one batch), and runs
one timed final fit per search result; each rep's task returns its own.
Every completed task persists its test-set metric bundle to an append-only
CSV store before any analysis, and reruns over an existing store skip
completed tasks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import math
import os
import time
from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle, groupby, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from . import evaluation
from .errors import HefLabError, InvalidParameterError
from .metrics import HIGHER_BETTER, METRIC_NAMES, BundleScorer, TargetWindow
from .metrics import compute_bundle, mae, r2, rmse  # noqa: F401  (not called; perfbench's tracer wraps these names)
from .models import ForecastModel, create as create_model, model_class
from .optimizers import (
    GRID_CAP,
    OptimizationResult,
    PsoConfig,
    TpeConfig,
    grid_search,
    pso_minimize,
    tpe_minimize,
)
from .series import Dataset, SplitRatio, TimeSeries, temporal_split
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
    parameter name; a search the sweep cannot run, or a domain holding a value
    that the model's ``legal`` table refuses, is refused here."""

    models: tuple[str, ...]
    splits: tuple[SplitRatio, ...] = (SplitRatio.R80_20,)
    conditions: tuple[str, ...] = ("hef", "maef")
    scs_optimizer: str = "pso"
    repetitions: int = 21
    master_seed: int = 0
    alpha: float = 0.05
    pso: PsoConfig = field(default_factory=PsoConfig)
    tpe: TpeConfig = field(default_factory=TpeConfig)
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
            _check_override(name, params)
        for name in self.models:  # of two distinct conditions, at least one searches, as hef does
            space = self.search_space(name)
            label = optimizer_label(space, "hef", self.scs_optimizer)
            if label == "pso" and len(space.interval_names()) < len(space):
                raise InvalidParameterError(f"{name} mixes grid and interval domains; pso searches intervals only")
            if label == "grid" and space.grid_size() > GRID_CAP:
                raise InvalidParameterError(f"{name} has {space.grid_size()} grid points, cap is {GRID_CAP}")

    def search_space(self, name: str) -> HyperparameterSpace:
        """Model ``name``'s declared space with the overridden domains replaced."""
        return HyperparameterSpace({**model_class(name).declared_space.params, **self.space_overrides.get(name, {})})


def _check_override(name: str, params: Mapping[str, Domain]) -> None:
    """Refuse ``params``, an override of model ``name``'s domains by
    parameter name, if the model is not registered, a parameter is not
    declared, or a domain can yield a value the model's ``legal`` refuses."""
    legal = model_class(name).legal  # an unregistered name raises UnknownModelError
    if not isinstance(params, Mapping):
        raise InvalidParameterError(f"{name}'s override must map parameter names to domains, got {params!r}")
    undeclared = ", ".join(sorted(set(params) - set(legal)))
    if undeclared:
        raise InvalidParameterError(f"{name} declares no parameter {undeclared}")
    for param, domain in HyperparameterSpace(params).params.items():  # which refuses what is not a domain
        if not legal[param].admits_domain(domain):  # named by its first illegal grid value, if it has one
            shown = [v for v in getattr(domain, "values", ()) if not legal[param].admits(v)] or [domain]
            raise InvalidParameterError(f"{name}: {param} must be {legal[param]}, got {shown[0]!r}")


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

# One task's rows: its key (series_id, model, condition, split, rep) and each
# row's optimizer label, metric and value, in row order.
_Record = tuple[tuple[str, str, str, str, int], tuple[str, ...], tuple[str, ...], tuple[float, ...]]


class _Rows(Sequence):
    """A read-only sequence of row dicts over task records, each dict built
    when it is read. It equals the tuple of those dicts."""

    def __init__(self, records: Sequence[_Record]) -> None:
        self.records = records
        self._starts = [0, *accumulate(len(values) for *_, values in records)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        i = range(len(self))[i]  # negative and out-of-range indices as a tuple takes them
        r = bisect_right(self._starts, i) - 1
        key, *columns = self.records[r]
        return _row(key, *(column[i - self._starts[r]] for column in columns))

    def __iter__(self) -> Iterator[dict]:
        return (_row(key, *fields) for key, *columns in self.records for fields in zip(*columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, (tuple, _Rows)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


def _row(key: tuple[str, str, str, str, int], optimizer: str, metric: str, value: float) -> dict:
    series_id, model, condition, split, rep = key
    return dict(zip(STORE_COLUMNS, (series_id, model, condition, optimizer, split, rep, metric, value)))


def _records(rows: Iterable[Mapping]) -> Iterable[_Record]:
    """The task records of a store's rows, or of any row mappings in row
    order: there each run of consecutive rows of one task is a record."""
    if isinstance(rows, _Rows):
        return rows.records
    return (
        (key, *zip(*((row["optimizer"], row["metric"], float(row["value"])) for row in group)))
        for key, group in groupby(
            rows, lambda row: (row["series_id"], row["model"], row["condition"], row["split"], int(row["rep"]))
        )
    )


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
        self._rows = _Rows(())
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

        def records(fh):  # a line the csv module refuses, such as one with a stray \r, ends the prefix
            try:
                yield from csv.reader(whole_lines(fh))
            except csv.Error:
                return

        tasks: list[_Record] = []
        shared: dict = {}  # one object per distinct string, label tuple and metric tuple
        with self.path.open("rb") as fh:
            reader = records(fh)
            columns = next(reader, None)
            if columns is None:  # no whole, readable header line: an empty store at most
                fh.seek(0)
                if not _HEADER_LINE.encode().startswith(fh.read()):
                    raise InvalidParameterError(f"{self.path}: not a results store")
                return
            if tuple(columns) != STORE_COLUMNS:
                raise InvalidParameterError(f"{self.path}: unexpected store columns {columns}")
            self._size = consumed
            block_key = None
            for fields in reader:
                try:
                    series_id, model, condition, optimizer, split, rep, metric, value = fields
                    key, value = (series_id, model, condition, split, int(rep)), float(value)
                except ValueError:  # a malformed line, such as rows glued onto a torn one
                    break
                if block_key is None:
                    block_key, names, optimizers, metrics, values = key, required_metrics(condition), [], [], []
                elif key != block_key:
                    break  # the task before this row was cut short
                optimizers.append(optimizer)
                metrics.append(metric)
                values.append(value)
                if len(values) == len(names):
                    if set(metrics) != set(names):
                        break
                    key = tuple(shared.setdefault(v, v) for v in key)
                    optimizers, metrics = (shared.setdefault(t, t) for t in (tuple(optimizers), tuple(metrics)))
                    tasks.append((key, optimizers, metrics, tuple(values)))
                    self._completed.add(key)
                    block_key = None
                    self._size = consumed
        self._rows = _Rows(tasks)

    def __len__(self) -> int:
        return len(self._completed)

    @property
    def rows(self) -> Sequence[Mapping]:
        """The rows of whole task blocks read when the store was opened, each
        a dict built when it is read; ``append`` writes the file only."""
        return self._rows

    def is_complete(self, key: TaskKey) -> bool:
        return key.as_tuple() in self._completed

    def append(self, key: TaskKey, optimizer: str, values: Mapping[str, float]) -> None:
        if self._fh is None:
            self._open()
        # the fields every row of the task shares, through the csv module's quoting once; metric names
        # and float reprs never need quoting, so each row is that prefix and two plain fields
        fields = io.StringIO()
        csv.writer(fields).writerow((key.series_id, key.model, key.condition, optimizer, key.split, key.rep))
        prefix = fields.getvalue()[:-2]  # less the writer's \r\n
        metrics = required_metrics(key.condition)
        self._fh.write("".join(f"{prefix},{metric},{float(values[metric])!r}\r\n" for metric in metrics))
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


# forecasts a batch scores at a time: its memory stays within this many rows of the horizon
_BLOCK_ROWS = 256


class _Objective:
    """Fit -> predict -> the condition's score: ``maef`` scores the MAE alone,
    ``hef`` scores r2, MAE and RMSE. The test window is the unit's; the model's
    check of the training series, which every point's fit then skips, and the
    series' hef thresholds run once, when the objective is made, so a series
    the model refuses fails there. ``batch`` scores many points as calling it
    scores each one."""

    def __init__(self, model: ForecastModel, train: np.ndarray, window: TargetWindow, condition: str) -> None:
        self._model = model
        self._train = model.check(train)
        self._window = window
        self._hef = None if condition == "maef" else evaluation.hef_scorer(train)

    def __call__(self, point: Mapping) -> float:
        predicted = self._model.fit(self._train, point).predict(self._window.actual.size)
        return self._score(predicted, *self._window.errors(predicted))  # a flat window's NaN r2 raises

    def batch(self, points: Sequence[Mapping]) -> np.ndarray:
        """The score of each point, bit for bit as calling the objective gives
        it, and NaN where that call would raise. Each point is fitted and
        forecast on its own; each block of forecasts is scored row by row."""
        horizon = self._window.actual.size
        scores = []
        for start in range(0, len(points), _BLOCK_ROWS):
            block = points[start : start + _BLOCK_ROWS]
            forecasts = np.full((len(block), horizon), math.nan)  # a point that fails keeps its NaN row
            for row, point in zip(forecasts, block):
                try:
                    predicted = np.asarray(self._model.fit(self._train, point).predict(horizon), dtype=float)
                except HefLabError:
                    continue
                if predicted.shape == row.shape:
                    row[:] = predicted
            scores.append(self._score(forecasts, *self._window.row_errors(forecasts)))
        return np.concatenate(scores)

    def _score(self, predicted: np.ndarray, r2, mae, rmse):
        if self._hef is None:
            return evaluation.maef_score(mae)
        return self._hef(predicted, r2, mae, rmse)


@dataclass
class _Reps:
    """The pending reps of one (cell, condition), in order, and the outcome of
    each, which the unit's first pending rep computes for all of them."""

    series: TimeSeries
    model: ForecastModel
    space: HyperparameterSpace
    label: str
    keys: Sequence[TaskKey]
    outcomes: dict[TaskKey, tuple[dict[str, float] | None, str | None]] = field(default_factory=dict)


_Outcome = tuple[TaskKey, str, dict[str, float] | None, str | None]


def _search(reps: _Reps, objective: _Objective, config: ExperimentConfig) -> list[OptimizationResult]:
    """The searches ``reps.label`` names over the unit's objective: one grid
    search for the whole unit, or one search per pending rep, seeded by the
    rep: a Parzen search each, or the swarms of all of them in lockstep,
    scoring each step's points in one batch."""
    if reps.label == "grid":
        return [grid_search(reps.space, objective)]
    seeds = [derive_seed(config.master_seed, k.series_id, k.model, k.condition, k.rep) for k in reps.keys]
    if reps.label == "tpe":
        return [tpe_minimize(reps.space, objective, config.tpe, seed) for seed in seeds]
    return pso_minimize(reps.space, objective.batch, config.pso, seeds)


def _failure(exc: HefLabError) -> tuple[None, str]:
    return None, f"{type(exc).__name__}: {exc}"


def _execute_task(key: TaskKey, reps: _Reps, config: ExperimentConfig) -> _Outcome:
    """Run one task; returns (key, optimizer, metric values or None, failure
    reason). The unit's first pending rep makes the split, its scorer and the
    objective once, runs the unit's searches and one timed final fit per
    search result. A unit with one result (baseline or grid) writes that
    outcome, ``exec_time`` included, under every rep's key."""
    if not reps.outcomes:
        try:
            split = temporal_split(reps.series, SplitRatio.parse(key.split))
            scorer = BundleScorer(split.train, split.test)
            if key.condition == "baseline":
                results = [None]
            else:
                results = _search(reps, _Objective(reps.model, split.train, scorer.window, key.condition), config)
        except HefLabError as exc:
            outcomes = [_failure(exc)]
        else:
            outcomes = []
            for result in results:
                try:
                    if result is None:
                        point, trace_summary = reps.model.fixed_config(), {}
                    elif not math.isfinite(result.best_score):
                        raise InvalidParameterError("every candidate configuration failed to score")
                    else:
                        point = result.best_point
                        trace_summary = {"opt_evals": float(result.evals), "opt_best_score": result.best_score}
                    started = time.perf_counter()
                    predicted = reps.model.fit(split.train, point).predict(split.horizon)
                    exec_time = time.perf_counter() - started
                    outcomes.append(({**scorer(predicted, exec_time).as_dict(), **trace_summary}, None))
                except HefLabError as exc:
                    outcomes.append(_failure(exc))
        # a single outcome stands for every rep; otherwise each rep has its own
        reps.outcomes = dict(zip(reps.keys, cycle(outcomes)))
    return (key, reps.label, *reps.outcomes[key])


def _execute_reps(keys: Sequence[TaskKey], dataset: Dataset, config: ExperimentConfig) -> Iterator[_Outcome]:
    """Run the pending reps of one (cell, condition) in order, yielding each outcome."""
    series = dataset.get(keys[0].series_id)
    model = create_model(keys[0].model, season_length=series.frequency.periods_per_year)
    space = config.search_space(model.name)
    reps = _Reps(series, model, space, optimizer_label(space, keys[0].condition, config.scs_optimizer), keys)
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
    (series, model) cells actually compared. ``constant[metric]`` counts
    those comparisons in which both repetition groups are constant: two
    different constants test significant, though no rep varied (it is left
    out of the repr, which shows the verdicts). ``outcomes`` carries the
    underlying per-cell verdicts.
    """

    pair: tuple[str, str]
    split: str | None
    optimizer: str | None
    counts: Mapping[str, Mapping[str, int]]
    comparisons: Mapping[str, int]
    skipped_cells: tuple[tuple, ...] = ()
    outcomes: tuple[CaseOutcome, ...] = ()
    constant: Mapping[str, int] = field(default_factory=dict, repr=False)

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
    an analysis of ``pair``, read task record by task record. Refused: a pair
    that does not name two distinct conditions, a non-finite value, a run
    stored under two labels, and a cell whose searched conditions ran under
    two labels; a resume with another optimizer writes the last two."""
    if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= set(CONDITIONS):
        raise InvalidParameterError(
            f"pair must name two distinct conditions of {', '.join(CONDITIONS)}, got {', '.join(pair)}"
        )
    index: _Index = {}
    for (series_id, model, condition, split, rep), optimizers, metrics, values in _records(rows):
        run = (series_id, model, split, condition)
        entry = index.get(run)
        if entry is None:
            entry = index[run] = (optimizers[0], {})
        label, by_metric = entry
        for optimizer, metric, value in zip(optimizers, metrics, values):
            if optimizer != label:
                raise InvalidParameterError(
                    f"run {'/'.join(run)} holds reps under two optimizer labels, {label} and {optimizer}"
                )
            if not math.isfinite(value):  # written before scoring refused it, or by hand
                raise InvalidParameterError(f"run {'/'.join(run)} holds {metric} = {value!r} at rep {rep}")
            by_metric.setdefault(metric, {})[rep] = value
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
    constant = {m: 0 for m in METRIC_NAMES}
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
            sample_a, sample_b = [reps_a[r] for r in order], [reps_b[r] for r in order]
            result = compare_paired_runs(sample_a, sample_b, alpha)
            comparisons[metric] += 1
            constant[metric] += len(set(sample_a)) == 1 == len(set(sample_b))
            if not result.significant:
                verdict = VERDICT_NONE
            else:
                a_better = (result.direction == "a_greater") == (metric in HIGHER_BETTER)
                verdict = VERDICT_A if a_better else VERDICT_B
            counts[metric][verdict] += 1
            outcomes.append(CaseOutcome(*cell, metric, verdict, result.p_value))

    return CaseTable(pair, split, optimizer, counts, comparisons, tuple(skipped), tuple(outcomes), constant)


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
