"""Scoring functions that guide hyperparameter search.

Two objectives, both minimized:

* the hierarchical composite score: weighted ``(1 - r2) + mae/mean + rmse/mean``
  with variability-adaptive tolerance thresholds and multiplicative penalties,
  plus a severe overwrite penalty for negative predictions;
* the plain MAE baseline, which returns the error unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidParameterError, NonFiniteInputError, SeriesTooShortError

__all__ = [
    "MEAN_GUARD",
    "MetricWeights",
    "PenaltySchedule",
    "DEFAULT_WEIGHTS",
    "DEFAULT_PENALTIES",
    "coefficient_of_variation",
    "recommend_mae_tolerance",
    "recommend_rmse_tolerance",
    "hef_scorer",
    "hef_score",
    "maef_score",
]

# Near-zero training means are replaced by this guard before normalizing.
MEAN_GUARD = 1e-6


@dataclass(frozen=True)
class MetricWeights:
    """Relative weights of the three score components."""

    r2: float = 1.0
    mae: float = 1.0
    rmse: float = 0.5

    def __post_init__(self) -> None:
        for name in ("r2", "mae", "rmse"):
            if not (0 <= getattr(self, name) < math.inf):
                raise InvalidParameterError(f"weight {name} must be finite and >= 0")


@dataclass(frozen=True)
class PenaltySchedule:
    """Multipliers per penalty level; must be strictly increasing."""

    level_1: float = 1.2
    level_2: float = 1.3
    level_3: float = 1.5
    level_4: float = 1.8

    def __post_init__(self) -> None:
        seq = (self.level_1, self.level_2, self.level_3, self.level_4)
        if not all(map(math.isfinite, seq)):
            raise InvalidParameterError(f"penalty multipliers must be finite, got {seq}")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise InvalidParameterError(f"penalty multipliers must be strictly increasing, got {seq}")


DEFAULT_WEIGHTS = MetricWeights()
DEFAULT_PENALTIES = PenaltySchedule()


def _train_vector(y_train: Sequence[float]) -> np.ndarray:
    y = np.asarray(y_train, dtype=float)
    if y.ndim != 1 or y.size < 2:
        raise SeriesTooShortError("y_train needs at least 2 observations")
    if not np.isfinite(y).all():
        raise NonFiniteInputError("y_train contains non-finite values")
    return y


def coefficient_of_variation(y_train: Sequence[float]) -> float:
    """Std over |mean| of the training series, with the near-zero mean guard."""
    y = _train_vector(y_train)
    with np.errstate(over="ignore"):  # a huge series gets an infinite or NaN CV, which _tolerances places
        mean = abs(float(y.mean()))
        spread = float(y.std())
    if mean < MEAN_GUARD:
        mean = MEAN_GUARD
    return spread / mean


# Adaptive tolerance coefficients by band of the training CV, each band below
# a strict upper bound: (CV upper bound, MAE coefficient, RMSE coefficient).
# The RMSE coefficients are broader than the MAE ones below CV 1.
_TOLERANCE_BANDS = (
    (0.2, 0.1, 0.15),
    (0.5, 0.2, 0.25),
    (1.0, 0.3, 0.35),
    (math.inf, 0.4, 0.4),
)


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


def hef_scorer(
    y_train: Sequence[float],
    *,
    weights: MetricWeights = DEFAULT_WEIGHTS,
    penalties: PenaltySchedule = DEFAULT_PENALTIES,
) -> Callable[[Sequence[float], float, float, float], float]:
    """``hef_score`` bound to one training series.

    The series is validated, and its guarded mean, CV band and both
    tolerance thresholds are computed, once; the returned function scores
    ``(predictions, r2, mae, rmse)`` against them. It takes the predictions
    as already checked finite, as ``metrics.TargetWindow.errors`` leaves them.
    """
    y = _train_vector(y_train)
    mean = float(y.mean())
    if abs(mean) < MEAN_GUARD:
        mean = MEAN_GUARD
    mae_tolerance, rmse_tolerance = _tolerances(coefficient_of_variation(y))
    mae_threshold = mae_tolerance * mean
    rmse_threshold = rmse_tolerance * mean

    def score(predictions: Sequence[float], r2: float, mae: float, rmse: float) -> float:
        for name, value in (("r2", r2), ("mae", mae), ("rmse", rmse)):
            if not math.isfinite(value):
                raise NonFiniteInputError(f"{name} is not finite")
        base = weights.r2 * (1.0 - r2) + weights.mae * (mae / mean) + weights.rmse * (rmse / mean)
        if not math.isfinite(base):
            raise NonFiniteInputError("base score is not finite")
        if bool((np.asarray(predictions, dtype=float) < 0).any()):
            multiplier = penalties.level_4  # in place of whichever tier below would apply
        elif mae < mae_threshold:
            multiplier = 1.0 if rmse < rmse_threshold else penalties.level_1
        else:
            multiplier = penalties.level_2 if rmse < rmse_threshold else penalties.level_3
        return float(base * multiplier)

    return score


def hef_score(
    predictions: Sequence[float],
    r2: float,
    mae: float,
    rmse: float,
    y_train: Sequence[float],
    *,
    weights: MetricWeights = DEFAULT_WEIGHTS,
    penalties: PenaltySchedule = DEFAULT_PENALTIES,
) -> float:
    """Hierarchical composite score to minimize.

    The base score is ``w_r2*(1-r2) + w_mae*mae/m + w_rmse*rmse/m`` with m the
    (guarded) training mean. Tolerance thresholds are the adaptive coefficients
    times m; missing one threshold inflates the base multiplicatively
    (mae under only -> level 1, rmse under only -> level 2, neither -> level 3).
    Any negative prediction overwrites the result with the level-4 inflation of
    the base score. Non-finite metrics or predictions raise rather than score.
    """
    scorer = hef_scorer(y_train, weights=weights, penalties=penalties)
    preds = np.asarray(predictions, dtype=float)
    if not np.isfinite(preds).all():
        raise NonFiniteInputError("predictions contain non-finite values")
    return scorer(preds, r2, mae, rmse)


def maef_score(mae: float) -> float:
    """Baseline objective: the mean absolute error itself."""
    if not math.isfinite(mae):
        raise NonFiniteInputError("mae is not finite")
    return float(mae)
