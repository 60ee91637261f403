"""Forecast accuracy metrics and the per-run metric bundle.

All metrics are pure functions over 1-D sequences. The scaled errors
(``rmsse``, ``mase``) normalize test-window error by the training series'
one-step naive error, so values below 1 beat the naive forecast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptyInputError,
    FlatTrainingSeriesError,
    LengthMismatchError,
    NonFiniteInputError,
    SeriesTooShortError,
    ZeroTotalVolumeError,
    ZeroVarianceError,
)

__all__ = [
    "mae",
    "rmse",
    "r2",
    "TargetWindow",
    "gra",
    "rmsse",
    "mase",
    "MetricBundle",
    "compute_bundle",
    "METRIC_NAMES",
    "HIGHER_BETTER",
]

METRIC_NAMES = ("r2", "mae", "rmse", "gra", "rmsse", "mase", "exec_time")
HIGHER_BETTER = frozenset({"r2", "gra"})


def _as_vector(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise NonFiniteInputError(f"{name} must be one-dimensional")
    if arr.size == 0:
        raise EmptyInputError(f"{name} is empty")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} contains non-finite values")
    return arr


def _as_pair(actual: Sequence[float], predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(actual, "actual")
    return y, _matching(y, predicted)


def _matching(y: np.ndarray, predicted: Sequence[float]) -> np.ndarray:
    yhat = _as_vector(predicted, "predicted")
    if y.size != yhat.size:
        raise LengthMismatchError(f"actual has {y.size} values, predicted has {yhat.size}")
    return yhat


class TargetWindow:
    """The actual values of one test window, validated once, with their total
    sum of squares; ``errors`` scores any number of forecasts of the window."""

    def __init__(self, actual: Sequence[float]) -> None:
        self.actual = _as_vector(actual, "actual")
        self.ss_tot = float(np.sum((self.actual - self.actual.mean()) ** 2))

    def errors(self, predicted: Sequence[float]) -> tuple[float, float, float]:
        """``(r2, mae, rmse)`` of one forecast, from a single residual vector;
        r2 is NaN when the window is constant."""
        yhat = _matching(self.actual, predicted)
        with np.errstate(over="ignore"):  # a far-off forecast gets infinite errors, which scoring refuses
            e = self.actual - yhat
            squared = e**2
            r2_value = 1.0 - float(np.sum(squared)) / self.ss_tot if self.ss_tot != 0.0 else math.nan
            return r2_value, float(np.mean(np.abs(e))), float(np.sqrt(np.mean(squared)))


def _defined_errors(actual: Sequence[float], predicted: Sequence[float]) -> tuple[float, float, float]:
    """``TargetWindow(actual).errors(predicted)``, refusing a constant window."""
    window = TargetWindow(actual)
    errors = window.errors(predicted)
    if window.ss_tot == 0.0:
        raise ZeroVarianceError("actual values are constant; r2 is undefined")
    return errors


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error."""
    return TargetWindow(actual).errors(predicted)[1]


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error."""
    return TargetWindow(actual).errors(predicted)[2]


def r2(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination; may be negative for fits worse than the mean."""
    return _defined_errors(actual, predicted)[0]


def gra(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Global relative accuracy: alignment of cumulative absolute totals.

    ``1 - |sum|yhat| - sum|y|| / sum|y|``; 1 means the forecast volume matches
    the actual volume exactly, and the value goes negative once the absolute
    gap exceeds the actual volume.
    """
    y, yhat = _as_pair(actual, predicted)
    total = float(np.sum(np.abs(y)))
    if total == 0.0:
        raise ZeroTotalVolumeError("actual values have zero total absolute volume")
    return 1.0 - abs(float(np.sum(np.abs(yhat))) - total) / total


def _scaled_error(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
    *,
    squared: bool,
) -> float:
    """Mean test error over the mean one-step naive error of the training
    series, both squared or both absolute."""
    tr = _as_vector(train, "train")
    if tr.size < 2:
        raise SeriesTooShortError("train needs at least 2 observations")
    y, yhat = _as_pair(actual_test, predicted_test)
    magnitude = np.square if squared else np.abs
    denom = float(np.mean(magnitude(np.diff(tr))))
    if denom == 0.0:
        raise FlatTrainingSeriesError("training series has no variation; naive error is zero")
    return np.mean(magnitude(y - yhat)) / denom


def rmsse(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
) -> float:
    """Root mean squared scaled error over the forecast horizon.

    The squared test error is scaled by the mean squared one-step naive error
    of the training series.
    """
    return float(np.sqrt(_scaled_error(train, actual_test, predicted_test, squared=True)))


def mase(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
) -> float:
    """Mean absolute scaled error over the forecast horizon.

    Values below 1 beat the one-step naive forecast measured on the training
    series.
    """
    return float(_scaled_error(train, actual_test, predicted_test, squared=False))


@dataclass(frozen=True)
class MetricBundle:
    """The six accuracy metrics plus wall-clock time for one fitted model.

    ``rmse >= mae`` always holds (quadratic mean vs arithmetic mean of the
    absolute errors); ``exec_time`` is measured but never enters any score.
    """

    r2: float
    mae: float
    rmse: float
    gra: float
    rmsse: float
    mase: float
    exec_time: float

    def __post_init__(self) -> None:
        if self.exec_time < 0:
            raise NonFiniteInputError("exec_time must be >= 0")

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def compute_bundle(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
    exec_time: float = 0.0,
) -> MetricBundle:
    """Evaluate all six metrics for one (train, test, forecast) triple."""
    r2_value, mae_value, rmse_value = _defined_errors(actual_test, predicted_test)
    return MetricBundle(
        r2=r2_value,
        mae=mae_value,
        rmse=rmse_value,
        gra=gra(actual_test, predicted_test),
        rmsse=rmsse(train, actual_test, predicted_test),
        mase=mase(train, actual_test, predicted_test),
        exec_time=exec_time,
    )
