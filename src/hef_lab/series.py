"""Series and dataset model: temporal splits, sample sizing, stratified sampling, CSV I/O.

The on-disk format is long CSV with header ``series_id,frequency,t,value``;
``t`` is 1-based and consecutive, and all rows of one series are contiguous.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    DatasetFormatError,
    InvalidParameterError,
    SeriesTooShortError,
    TargetTooLargeError,
)

__all__ = [
    "Frequency",
    "TimeSeries",
    "Dataset",
    "SplitRatio",
    "Split",
    "temporal_split",
    "sample_size",
    "stratified_sample",
    "Issue",
    "scan_dataset_csv",
    "load_dataset_csv",
    "write_dataset_csv",
]


class Frequency(Enum):
    """Recording frequency of a demand series."""

    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"

    @property
    def periods_per_year(self) -> int:
        return {Frequency.DAILY: 365, Frequency.WEEKLY: 52, Frequency.MONTHLY: 12}[self]

    @classmethod
    def parse(cls, label: str) -> "Frequency":
        try:
            return cls(label.strip().lower())
        except ValueError:
            raise InvalidParameterError(f"unknown frequency: {label!r}") from None


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """One identified, frequency-tagged sequence of demand observations;
    ``values`` is a private read-only float64 copy of the given sequence."""

    id: str
    frequency: Frequency
    values: np.ndarray

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidParameterError("series id must be non-empty")
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvalidParameterError(f"series {self.id!r} values must be one-dimensional")
        if not len(vals):
            raise InvalidParameterError(f"series {self.id!r} has no values")
        if not np.isfinite(vals).all():
            raise InvalidParameterError(f"series {self.id!r} contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Dataset:
    """A named collection of series with a stratum label per series id.

    When no stratum is supplied for a series, its frequency label is used.
    """

    name: str
    series: tuple[TimeSeries, ...]
    strata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        series = tuple(self.series)
        ids = [s.id for s in series]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise InvalidParameterError(f"duplicate series ids: {dupes}")
        strata = dict(self.strata)
        for s in series:
            strata.setdefault(s.id, s.frequency.value)
        extra = set(strata) - set(ids)
        if extra:
            raise InvalidParameterError(f"strata reference unknown series ids: {sorted(extra)}")
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "_by_id", {s.id: s for s in series})

    def __len__(self) -> int:
        return len(self.series)

    def ids(self) -> tuple[str, ...]:
        return tuple(s.id for s in self.series)

    def get(self, series_id: str) -> TimeSeries:
        return self._by_id[series_id]


class SplitRatio(Enum):
    """Train:test partition ratios."""

    R91_9 = ("91:9", 0.09)
    R80_20 = ("80:20", 0.20)
    R70_30 = ("70:30", 0.30)

    def __init__(self, label: str, test_fraction: float) -> None:
        self.label = label
        self.test_fraction = test_fraction

    @classmethod
    def parse(cls, label: str) -> "SplitRatio":
        for ratio in cls:
            if ratio.label == label.strip():
                return ratio
        raise InvalidParameterError(f"unknown split ratio: {label!r} (use 91:9, 80:20 or 70:30)")


@dataclass(frozen=True, eq=False)
class Split:
    """Chronological prefix/suffix partition of one series; ``train`` and
    ``test`` are read-only views of the series' values."""

    train: np.ndarray
    test: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.test)


def temporal_split(series: TimeSeries, ratio: SplitRatio) -> Split:
    """Split a series into a training prefix and a test suffix, no shuffling.

    The test length is ``round(test_fraction * n)`` with half rounded up,
    floored at one observation; the training prefix keeps everything else.
    """
    n = len(series)
    if n < 4:
        raise SeriesTooShortError(f"series {series.id!r} has {n} observations; need at least 4")
    h = max(1, math.floor(ratio.test_fraction * n + 0.5))
    train_len = n - h
    if train_len < 3:
        raise SeriesTooShortError(
            f"series {series.id!r}: split {ratio.label} leaves {train_len} training points; need at least 3"
        )
    return Split(series.values[:train_len], series.values[train_len:])


def sample_size(
    population: int,
    confidence: float = 0.99,
    margin: float = 0.05,
    proportion: float = 0.5,
) -> int:
    """Finite-population sample size (Cochran estimate, ceiling, capped at N).

    ``n0 = z^2 p (1-p) / e^2`` with the two-sided normal quantile z for the
    confidence level, corrected as ``n = ceil(n0 / (1 + (n0 - 1) / N))``.

    Reproduces the published benchmark targets 204 (N=294) and 454 (N=1428)
    at 99% confidence / 5% margin / p=0.5. Note the published M5 figure of
    650 does not follow from this formula (it yields 456 for N=1454); the
    stated formula is implemented as-is.
    """
    from scipy.special import ndtri  # imported here, so loading a dataset does not load scipy

    if not isinstance(population, int) or isinstance(population, bool) or population < 1:
        raise InvalidParameterError(f"population must be a positive integer, got {population!r}")
    for name, value in (("confidence", confidence), ("margin", margin), ("proportion", proportion)):
        if not (0.0 < value < 1.0):
            raise InvalidParameterError(f"{name} must lie in (0, 1), got {value!r}")
    z = float(ndtri(1.0 - (1.0 - confidence) / 2.0))
    n0 = z * z * proportion * (1.0 - proportion) / (margin * margin)
    n = math.ceil(n0 / (1.0 + (n0 - 1.0) / population))
    return min(n, population)


def _largest_remainder_allocation(sizes: dict[str, int], target: int) -> dict[str, int]:
    """Allocate ``target`` across strata proportionally to their sizes.

    Floors the proportional quotas, then hands out the remaining units by
    largest fractional remainder (ties broken by larger stratum, then label).
    """
    total = sum(sizes.values())
    quotas = {label: target * size / total for label, size in sizes.items()}
    alloc = {label: math.floor(q) for label, q in quotas.items()}
    remaining = target - sum(alloc.values())
    order = sorted(
        sizes,
        key=lambda lab: (-(quotas[lab] - alloc[lab]), -sizes[lab], lab),
    )
    for label in order[:remaining]:
        alloc[label] += 1
    return alloc


def stratified_sample(dataset: Dataset, target: int, seed: int) -> Dataset:
    """Draw a proportional stratified sample without replacement.

    Per-stratum allocation uses largest-remainder rounding; the draw is
    deterministic for a fixed seed. Sampled series keep their original
    dataset order.
    """
    if not isinstance(target, int) or isinstance(target, bool) or target < 1:
        raise InvalidParameterError(f"target must be a positive integer, got {target!r}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise InvalidParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if target > len(dataset):
        raise TargetTooLargeError(
            f"target {target} exceeds population of {len(dataset)} series"
        )
    if target == len(dataset):
        return dataset

    members: dict[str, list[str]] = {}
    for s in dataset.series:
        members.setdefault(dataset.strata[s.id], []).append(s.id)
    sizes = {label: len(ids) for label, ids in members.items()}
    alloc = _largest_remainder_allocation(sizes, target)

    rng = np.random.default_rng(seed)
    chosen: set[str] = set()
    for label in sorted(members):
        take = alloc.get(label, 0)
        if take:
            picked = rng.choice(len(members[label]), size=take, replace=False)
            chosen.update(members[label][i] for i in picked)

    sampled = tuple(s for s in dataset.series if s.id in chosen)
    strata = {s.id: dataset.strata[s.id] for s in sampled}
    return Dataset(name=f"{dataset.name}-sample", series=sampled, strata=strata)


# --- CSV ingestion ----------------------------------------------------------

_HEADER = ("series_id", "frequency", "t", "value")


@dataclass(frozen=True)
class Issue:
    """One validation finding for a dataset file."""

    line: int | None
    series_id: str | None
    message: str

    def as_dict(self) -> dict[str, object]:
        return {"line": self.line, "series_id": self.series_id, "message": self.message}


def scan_dataset_csv(path: str | Path) -> tuple[list[TimeSeries], list[Issue]]:
    """Parse a long-format CSV, collecting every schema violation found.

    Returns the series that parsed cleanly and the list of issues: the row
    findings in line order, then at most one ``t`` finding per series, in
    series order. A byte that does not decode or a field over the csv
    module's size limit ends the scan with one issue at that line. A clean
    file yields an empty issue list.
    """
    path = Path(path)
    issues: list[Issue] = []
    t_issues: list[Issue] = []
    freq_by_series: dict[str, str] = {}
    # a series' values so far; None once its t sequence has broken
    values_by_series: dict[str, list[float] | None] = {}
    finished: set[str] = set()
    current: str | None = None

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                return [], [Issue(line=1, series_id=None, message="file is empty")]
            if tuple(h.strip() for h in header) != _HEADER:
                message = f"bad header {header!r}; expected {','.join(_HEADER)}"
                return [], [Issue(line=1, series_id=None, message=message)]
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 4:
                    issues.append(Issue(lineno, None, f"expected 4 columns, got {len(row)}"))
                    continue
                sid, freq, t_raw, v_raw = (c.strip() for c in row)
                if not sid:
                    issues.append(Issue(lineno, None, "empty series_id"))
                    continue
                if sid != current:
                    if sid in finished:
                        issues.append(Issue(lineno, sid, "rows for this series are not contiguous"))
                        continue
                    if current is not None:
                        finished.add(current)
                    current = sid
                try:
                    t = int(t_raw)
                except ValueError:
                    issues.append(Issue(lineno, sid, f"t is not an integer: {t_raw!r}"))
                    continue
                try:
                    value = float(v_raw)
                except ValueError:
                    issues.append(Issue(lineno, sid, f"value is not numeric: {v_raw!r}"))
                    continue
                if not math.isfinite(value):
                    issues.append(Issue(lineno, sid, f"value is not finite: {v_raw!r}"))
                    continue
                if freq != freq_by_series.get(sid):
                    try:
                        Frequency.parse(freq)
                    except InvalidParameterError:
                        issues.append(Issue(lineno, sid, f"unknown frequency: {freq!r}"))
                        continue
                    prior = freq_by_series.setdefault(sid, freq.lower())
                    if prior != freq.lower():
                        issues.append(
                            Issue(lineno, sid, f"frequency changed within series: {prior!r} -> {freq!r}")
                        )
                        continue
                values = values_by_series.setdefault(sid, [])
                if values is None:
                    continue
                expected = len(values) + 1
                if t != expected:
                    kind = "gap" if t > expected else "out-of-order or duplicate t"
                    t_issues.append(Issue(lineno, sid, f"{kind} in t: expected {expected}, got {t}"))
                    values_by_series[sid] = None
                    continue
                values.append(value)
        except UnicodeDecodeError as exc:
            # the file decodes a chunk at a time, so the bad byte can lie lines past the last row read
            line = reader.line_num + 1 + exc.object.count(b"\n", 0, exc.start)
            issues.append(Issue(line, None, f"not {exc.encoding} text ({exc.reason}); scan stopped here"))
            values_by_series.pop(current, None)  # its later rows, if any, went unread
        except csv.Error as exc:
            issues.append(Issue(reader.line_num, None, f"{exc}; scan stopped here"))
            values_by_series.pop(current, None)

    series = [
        TimeSeries(id=sid, frequency=Frequency(freq_by_series[sid]), values=values)
        for sid, values in values_by_series.items()
        if values is not None
    ]
    return series, issues + t_issues


def load_dataset_csv(path: str | Path) -> Dataset:
    """Load a dataset named after the file, raising on the first schema violation."""
    series, issues = scan_dataset_csv(path)
    if issues:
        first = issues[0]
        where = f"line {first.line}" if first.line is not None else "file"
        raise DatasetFormatError(f"{path}: {where}: {first.message} ({len(issues)} issue(s) total)")
    if not series:
        raise DatasetFormatError(f"{path}: no series found")
    return Dataset(name=Path(path).stem, series=tuple(series))


def write_dataset_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset in the long CSV format accepted by the loader."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for s in dataset.series:
            for t, value in enumerate(s.values.tolist(), start=1):
                writer.writerow([s.id, s.frequency.value, t, repr(value)])
