"""Simple exponential smoothing: level-only recursion, flat forecast."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..errors import InvalidParameterError
from ..spaces import HyperparameterSpace, IntervalDomain
from . import FittedModel, ForecastModel, _validated_train, register


class FittedSes(FittedModel):
    def __init__(self, level: float) -> None:
        self.level = float(level)

    def predict(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self.level, dtype=float)


@register
class SesModel(ForecastModel):
    """Exponentially weighted level, initialized at the first observation;
    ``alpha`` must lie in [0, 1], where the level stays within the range of
    the training values."""

    name = "ses"
    declared_space = HyperparameterSpace({"alpha": IntervalDomain(0.01, 0.99)})
    fixed_point = {"alpha": 0.2}

    def fit(self, train: Sequence[float], config: Mapping) -> FittedSes:
        y = _validated_train(train, 3, self.name)
        alpha = float(config["alpha"])
        if not 0.0 <= alpha <= 1.0:
            raise InvalidParameterError(f"{self.name}: alpha must lie in [0, 1], got {alpha!r}")
        beta = 1.0 - alpha
        values = y.tolist()  # Python floats: the same IEEE steps as float64 scalars, without their overhead
        level = values[0]
        for value in values[1:]:
            level = alpha * value + beta * level
        return FittedSes(level)
