"""k-nearest-neighbors forecasting over sliding lag windows."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..spaces import GridDomain, HyperparameterSpace, Legal
from . import LagModel, Step, register


@register
class KnnModel(LagModel):
    """Euclidean neighbors among training windows; forecast = mean of neighbor targets.

    ``n_neighbors`` is clamped to the number of available windows, so large k
    on a short series degrades to the global window-target mean.
    """

    name = "knn"
    declared_space = HyperparameterSpace({"n_neighbors": GridDomain(tuple(range(1, 16)))})
    legal = {"n_neighbors": Legal(1, integer=True)}
    fixed_point = {"n_neighbors": 5}

    def _fit_step(self, X: np.ndarray, targets: np.ndarray, config: Mapping) -> Step:
        k = min(int(config["n_neighbors"]), len(targets))

        def step(window: np.ndarray) -> float:
            d2 = ((X - window) ** 2).sum(axis=1)
            nearest = np.argsort(d2, kind="stable")[:k]
            return float(targets[nearest].mean())

        return step
