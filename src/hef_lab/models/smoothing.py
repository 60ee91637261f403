"""Simple exponential smoothing: level-only recursion, flat forecast."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..spaces import HyperparameterSpace, IntervalDomain, Legal
from . import FittedModel, ForecastModel, register


@dataclass(frozen=True, eq=False)
class FittedSes(FittedModel):
    level: float

    def predict(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self.level, dtype=float)


@register
class SesModel(ForecastModel):
    """Exponentially weighted level from the first observation; a legal ``alpha`` keeps it within the training range."""

    name = "ses"
    declared_space = HyperparameterSpace({"alpha": IntervalDomain(0.01, 0.99)})
    legal = {"alpha": Legal(upper=1.0)}
    fixed_point = {"alpha": 0.2}

    def _fit(self, y: np.ndarray, config: Mapping) -> FittedSes:
        alpha = float(config["alpha"])
        beta = 1.0 - alpha
        values = y.tolist()  # Python floats: the same IEEE steps as float64 scalars, without their overhead
        level = values[0]
        for value in values[1:]:
            level = alpha * value + beta * level
        return FittedSes(level)
