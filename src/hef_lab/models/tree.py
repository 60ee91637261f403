"""CART regression tree on lag features, variance-reduction splits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..spaces import GridDomain, HyperparameterSpace, Legal
from . import LagModel, Step, register


@dataclass(frozen=True)
class _Node:
    value: float
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float] | None:
    """Lowest-SSE axis-aligned split; ties keep the first (feature, position)."""
    n, p = X.shape
    best_cost = math.inf
    best: tuple[int, float] | None = None
    slack = 1e-12 * max(float(y @ y), 1.0)
    n_left = np.arange(1, n)
    for j in range(p):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys**2)
        # the SSE of every split position at once; only positions between
        # distinct x values are candidates, scanned in order so that a later
        # position must beat the best cost by the slack
        sse_left = s2[:-1] - s1[:-1] ** 2 / n_left
        sse_right = (s2[-1] - s2[:-1]) - (s1[-1] - s1[:-1]) ** 2 / (n - n_left)
        costs = (sse_left + sse_right).tolist()
        for i in np.flatnonzero(xs[:-1] != xs[1:]).tolist():
            if costs[i] < best_cost - slack:
                best_cost = costs[i]
                best = (j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _grow(X: np.ndarray, y: np.ndarray, depth: int, max_depth: float) -> _Node:
    mean = float(y.mean())
    if len(y) < 2 or depth >= max_depth or np.all(y == y[0]):
        return _Node(value=mean)
    split = _best_split(X, y)
    if split is None:
        return _Node(value=mean)
    feature, threshold = split
    mask = X[:, feature] <= threshold
    return _Node(
        value=mean,
        feature=feature,
        threshold=threshold,
        left=_grow(X[mask], y[mask], depth + 1, max_depth),
        right=_grow(X[~mask], y[~mask], depth + 1, max_depth),
    )


@register
class TreeModel(LagModel):
    """Unlimited depth by default (``max_depth=None``); fully deterministic."""

    name = "dtr"
    declared_space = HyperparameterSpace({"max_depth": GridDomain(tuple(range(2, 13)) + (None,))})
    legal = {"max_depth": Legal(1, integer=True, none_ok=True)}
    fixed_point = {"max_depth": None}

    def _fit_step(self, X: np.ndarray, targets: np.ndarray, config: Mapping) -> Step:
        max_depth = math.inf if config["max_depth"] is None else int(config["max_depth"])
        root = _grow(X, targets, depth=0, max_depth=max_depth)

        def step(window: np.ndarray) -> float:
            node = root
            while not node.is_leaf:
                node = node.left if window[node.feature] <= node.threshold else node.right
            return node.value

        return step
