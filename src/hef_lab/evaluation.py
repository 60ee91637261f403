"""Scoring functions that guide hyperparameter search.

Two objectives, both minimized:

* the hierarchical composite score: weighted ``(1 - r2) + mae/mean + rmse/mean``
  with variability-adaptive tolerance thresholds and multiplicative penalties,
  plus a severe overwrite penalty for negative predictions;
* the plain MAE baseline, which returns the error unchanged.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteInputError, SeriesTooShortError

__all__ = [
    "MEAN_GUARD",
    "WEIGHTS",
    "PENALTIES",
    "coefficient_of_variation",
    "recommend_mae_tolerance",
    "recommend_rmse_tolerance",
    "hef_scorer",
    "hef_score",
    "maef_score",
]

# Near-zero training means are replaced by this guard before normalizing.
MEAN_GUARD = 1e-6


def _train_vector(y_train: Sequence[float]) -> np.ndarray:
    y = np.asarray(y_train, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise SeriesTooShortError("y_train needs at least 2 observations")
    if not np.isfinite(y).all():
        raise NonFiniteInputError("y_train contains non-finite values")
    return y


def _guarded_mean(y: np.ndarray) -> float:
    """|mean| of a validated training series, raised to ``MEAN_GUARD`` near zero."""
    with np.errstate(over="ignore"):  # a huge series' mean overflows to inf
        return max(abs(float(y.mean())), MEAN_GUARD)


def coefficient_of_variation(y_train: Sequence[float]) -> float:
    """Std over the guarded |mean| of the training series."""
    y = _train_vector(y_train)
    with np.errstate(over="ignore"):  # a huge series gets an infinite or NaN CV, which _tolerances places
        spread = float(y.std())
    return spread / _guarded_mean(y)


# Adaptive tolerance coefficients by band of the training CV, each band below
# a strict upper bound: (CV upper bound, MAE coefficient, RMSE coefficient).
# The RMSE coefficients are broader than the MAE ones below CV 1.
_TOLERANCE_BANDS = (
    (0.2, 0.1, 0.15),
    (0.5, 0.2, 0.25),
    (1.0, 0.3, 0.35),
    (math.inf, 0.4, 0.4),
)

# The paper's HEF weights on (1 - r2, MAE/mean, RMSE/mean).
WEIGHTS = (1.0, 1.0, 0.5)
# The paper's penalty multipliers: MAE under its threshold only, RMSE under only,
# neither, and any negative prediction.
PENALTIES = (1.2, 1.3, 1.5, 1.8)


def _tolerances(cv: float) -> tuple[float, float]:
    """(MAE, RMSE) tolerance coefficients of the band holding ``cv``."""
    for upper, mae_tolerance, rmse_tolerance in _TOLERANCE_BANDS:
        if cv < upper:
            return mae_tolerance, rmse_tolerance
    return _TOLERANCE_BANDS[-1][1:]  # an infinite or NaN CV compares below no bound


def recommend_mae_tolerance(y_train: Sequence[float]) -> float:
    """Adaptive MAE tolerance coefficient of the training series' CV band."""
    return _tolerances(coefficient_of_variation(y_train))[0]


def recommend_rmse_tolerance(y_train: Sequence[float]) -> float:
    """Adaptive RMSE tolerance coefficient of the training series' CV band."""
    return _tolerances(coefficient_of_variation(y_train))[1]


def hef_scorer(y_train: Sequence[float]) -> Callable:
    """``hef_score`` bound to one training series.

    The series is validated, and its guarded |mean|, CV band and both
    tolerance thresholds are computed, once. The returned function scores
    ``(predictions, r2, mae, rmse)`` against them: one forecast with its
    three metrics gets a float, and a non-finite metric or base score raises;
    a 2-D array of forecasts, one per row, with an array of each metric gets
    one score per row, non-finite where that row alone would raise. It takes
    the predictions as already checked, as ``metrics.TargetWindow.errors``
    and ``row_errors`` leave them.
    """
    mae_tolerance, rmse_tolerance = _tolerances(coefficient_of_variation(y_train))  # validates the series
    mean = _guarded_mean(np.asarray(y_train, dtype=float))
    mae_threshold = mae_tolerance * mean
    rmse_threshold = rmse_tolerance * mean
    w_r2, w_mae, w_rmse = WEIGHTS
    mae_only, rmse_only, neither, negative = PENALTIES
    # by tier 4 * (a negative prediction) + 2 * (MAE misses) + (RMSE misses): a
    # negative prediction takes the place of whichever tier the errors give
    multipliers = np.array([1.0, mae_only, rmse_only, neither] + [negative] * 4)

    def score(predictions, r2, mae, rmse):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score is refused
            base = w_r2 * (1.0 - r2) + w_mae * (mae / mean) + w_rmse * (rmse / mean)
            negative_tier = 4 * (np.asarray(predictions) < 0).any(axis=-1)
            tier = negative_tier + 2 * (mae >= mae_threshold) + (rmse >= rmse_threshold)
            scores = base * multipliers[tier]
        if np.ndim(scores) > 0:
            return scores
        for name, value in (("r2", r2), ("mae", mae), ("rmse", rmse), ("base score", base)):
            if not math.isfinite(value):
                raise NonFiniteInputError(f"{name} is not finite")
        return float(scores)

    return score


def hef_score(
    predictions: Sequence[float],
    r2: float,
    mae: float,
    rmse: float,
    y_train: Sequence[float],
) -> float:
    """Hierarchical composite score to minimize.

    The base score is ``1*(1-r2) + 1*mae/m + 0.5*rmse/m`` (``WEIGHTS``) with m
    the guarded |mean| of the training series. Tolerance thresholds are the
    adaptive coefficients times m; missing one threshold inflates the base
    multiplicatively (``PENALTIES``: mae under only -> 1.2, rmse under only ->
    1.3, neither -> 1.5). Any negative prediction overwrites the result with
    the 1.8 inflation of the base score. Non-finite metrics or predictions
    raise rather than score.
    """
    scorer = hef_scorer(y_train)
    preds = np.asarray(predictions, dtype=float)
    if not np.isfinite(preds).all():
        raise NonFiniteInputError("predictions contain non-finite values")
    return scorer(preds, r2, mae, rmse)


def maef_score(mae):
    """Baseline objective: the mean absolute error itself. One MAE gets a
    float and a non-finite one raises; an array of them, one per forecast, is
    returned as it is, non-finite where one MAE alone would raise."""
    if np.ndim(mae) > 0:
        return mae
    if not math.isfinite(mae):
        raise NonFiniteInputError("mae is not finite")
    return float(mae)
