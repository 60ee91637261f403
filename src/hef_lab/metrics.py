"""Forecast accuracy metrics and the per-run metric bundle.

``TargetWindow`` (r2, MAE, RMSE and gra of one test window) and
``BundleScorer`` (all six metrics of one split) are the one implementation of
each metric; the public functions score one forecast through them. The scaled
errors (``rmsse``, ``mase``) normalize test-window error by the training
series' one-step naive error, so values below 1 beat the naive forecast.
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
    "BundleScorer",
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


def _matching(y: np.ndarray, predicted: Sequence[float]) -> np.ndarray:
    yhat = _as_vector(predicted, "predicted")
    if y.size != yhat.size:
        raise LengthMismatchError(f"actual has {y.size} values, predicted has {yhat.size}")
    return yhat


class TargetWindow:
    """The actual values of one test window, validated once, with their total
    sum of squares and total absolute volume; ``errors`` and ``row_errors``
    score any number of forecasts of the window. The window is constant when all its
    values are equal, or when the sum of squares underflows to zero; r2 is
    then undefined."""

    def __init__(self, actual: Sequence[float]) -> None:
        self.actual = _as_vector(actual, "actual")
        with np.errstate(over="ignore"):  # a huge window gets infinite sums, which scoring refuses
            self.ss_tot = float(np.sum((self.actual - self.actual.mean()) ** 2))
            self.volume = float(np.sum(np.abs(self.actual)))
        self.constant = self.ss_tot == 0.0 or bool((self.actual == self.actual[0]).all())

    def errors(self, predicted: Sequence[float]) -> tuple[float, float, float]:
        """``(r2, mae, rmse)`` of one forecast, from a single residual vector;
        r2 is NaN when the window is constant."""
        r2_value, mae_value, mse = self._errors(_matching(self.actual, predicted))
        return float(r2_value), float(mae_value), math.sqrt(mse)

    def row_errors(self, forecasts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(r2, mae, rmse)`` of each row of a (forecasts x window) array, each
        row's bit for bit as ``errors`` gives it for that row alone. A row that
        holds a non-finite value, which ``errors`` refuses, gets non-finite
        errors instead."""
        if forecasts.ndim != 2 or forecasts.shape[1] != self.actual.size:
            raise LengthMismatchError(f"forecasts of shape {forecasts.shape} for a window of {self.actual.size}")
        r2_value, mae_value, mse = self._errors(forecasts)
        return r2_value, mae_value, np.sqrt(mse)

    def _errors(self, yhat: np.ndarray) -> tuple:
        """``(r2, mae, mean squared error)`` of a validated forecast, or of each
        row of a 2-D array of them. Each mean is ``np.mean``'s pairwise sum
        along the row divided by its size, without its per-call overhead."""
        with np.errstate(over="ignore", invalid="ignore"):  # a far-off forecast's errors are refused at scoring
            e = self.actual - yhat
            sse = (e**2).sum(axis=-1)
            r2_value = math.nan if self.constant else 1.0 - sse / self.ss_tot
            return r2_value, np.abs(e).sum(axis=-1) / e.shape[-1], sse / e.shape[-1]

    def _gra(self, yhat: np.ndarray) -> float:
        """Global relative accuracy of a validated forecast."""
        if self.volume == 0.0:
            raise ZeroTotalVolumeError("actual values have zero total absolute volume")
        with np.errstate(over="ignore"):  # a far-off forecast gets an infinite volume and a gra of -inf
            return 1.0 - abs(float(np.sum(np.abs(yhat))) - self.volume) / self.volume


def mae(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean absolute error."""
    return TargetWindow(actual).errors(predicted)[1]


def rmse(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Root mean squared error."""
    return TargetWindow(actual).errors(predicted)[2]


def r2(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Coefficient of determination; may be negative for fits worse than the mean."""
    window = TargetWindow(actual)
    value = window.errors(predicted)[0]
    if window.constant:
        raise ZeroVarianceError("actual values are constant; r2 is undefined")
    return value


def gra(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Global relative accuracy: alignment of cumulative absolute totals.

    ``1 - |sum|yhat| - sum|y|| / sum|y|``; 1 means the forecast volume matches
    the actual volume exactly, and the value goes negative once the absolute
    gap exceeds the actual volume.
    """
    window = TargetWindow(actual)
    return window._gra(_matching(window.actual, predicted))


def _naive_errors(train: Sequence[float]) -> tuple[float, float]:
    """The mean squared and mean absolute one-step naive errors of the
    training series (Hyndman & Koehler 2006)."""
    tr = _as_vector(train, "train")
    if tr.size < 2:
        raise SeriesTooShortError("train needs at least 2 observations")
    with np.errstate(over="ignore"):  # a huge series gets infinite errors, which scoring refuses
        step = np.diff(tr)
        return float(np.mean(np.square(step))), float(np.mean(np.abs(step)))


def _scaled(error: float, naive: float) -> float:
    """A mean test error over the matching naive error of the training series."""
    if naive == 0.0:
        raise FlatTrainingSeriesError("training series has no variation; naive error is zero")
    return error / naive


def rmsse(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
) -> float:
    """Root mean squared scaled error over the forecast horizon.

    The squared test error is scaled by the mean squared one-step naive error
    of the training series.
    """
    naive_squared = _naive_errors(train)[0]
    window = TargetWindow(actual_test)
    mse = float(window._errors(_matching(window.actual, predicted_test))[2])
    return math.sqrt(_scaled(mse, naive_squared))


def mase(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
) -> float:
    """Mean absolute scaled error over the forecast horizon.

    Values below 1 beat the one-step naive forecast measured on the training
    series.
    """
    naive_absolute = _naive_errors(train)[1]
    window = TargetWindow(actual_test)
    mae_value = float(window._errors(_matching(window.actual, predicted_test))[1])
    return _scaled(mae_value, naive_absolute)


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


class BundleScorer:
    """The metric bundle of any number of forecasts of one (train, test)
    split. The test ``window`` and the training series' naive errors are
    computed once; each forecast is validated and scored. A forecast is
    refused, first to last: when it is not a one-dimensional, non-empty, finite
    vector; when its length is not the window's; when the window is constant;
    when the training series is not such a vector of at least 2 values, or is
    flat; and when a metric is not finite."""

    def __init__(self, train: Sequence[float], actual_test: Sequence[float]) -> None:
        self.window = TargetWindow(actual_test)
        self._train = train
        self._naive: tuple[float, float] | None = None  # (squared, absolute), once a forecast reaches train

    def __call__(self, predicted_test: Sequence[float], exec_time: float = 0.0) -> MetricBundle:
        yhat = _matching(self.window.actual, predicted_test)
        r2_value, mae_value, mse = map(float, self.window._errors(yhat))
        if self.window.constant:
            raise ZeroVarianceError("actual values are constant; r2 is undefined")
        gra_value = self.window._gra(yhat)
        if self._naive is None:
            self._naive = _naive_errors(self._train)
        naive_squared, naive_absolute = self._naive
        rmsse_value = math.sqrt(_scaled(mse, naive_squared))
        metrics = r2_value, mae_value, math.sqrt(mse), gra_value, rmsse_value, _scaled(mae_value, naive_absolute)
        for name, value in zip(METRIC_NAMES, metrics):
            if not math.isfinite(value):  # a forecast or series so large that an error overflows
                raise NonFiniteInputError(f"{name} is not finite: {value!r}")
        return MetricBundle(*metrics, exec_time=exec_time)


def compute_bundle(
    train: Sequence[float],
    actual_test: Sequence[float],
    predicted_test: Sequence[float],
    exec_time: float = 0.0,
) -> MetricBundle:
    """Evaluate all six metrics for one (train, test, forecast) triple."""
    return BundleScorer(train, actual_test)(predicted_test, exec_time)
