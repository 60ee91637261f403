"""Simple exponential smoothing: level-only recursion, flat forecast."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import InvalidParameterError
from ..spaces import HyperparameterSpace, IntervalDomain
from . import FittedModel, ForecastModel, register


@dataclass(frozen=True, eq=False)
class FittedSes(FittedModel):
    level: float

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

    def _fit(self, y: np.ndarray, config: Mapping) -> FittedSes:
        alpha = float(config["alpha"])
        if not 0.0 <= alpha <= 1.0:
            raise InvalidParameterError(f"{self.name}: alpha must lie in [0, 1], got {alpha!r}")
        beta = 1.0 - alpha
        values = y.tolist()  # Python floats: the same IEEE steps as float64 scalars, without their overhead
        level = values[0]
        for value in values[1:]:
            level = alpha * value + beta * level
        return FittedSes(level)
