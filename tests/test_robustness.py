"""Robustness boundary: every registered model, at its fixed config and at the
corners of its declared space, on five series shapes, either forecasts and
scores or raises a ``HefLabError``; no other exception escapes."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from hef_lab.errors import HefLabError
from hef_lab.evaluation import hef_score, maef_score
from hef_lab.metrics import TargetWindow, compute_bundle
from hef_lab.models import CLASSICAL_MODELS, create
from hef_lab.series import SplitRatio, temporal_split
from hef_lab.spaces import GridDomain

from conftest import make_series


def _shapes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    t = np.arange(36, dtype=float)
    spiky = 20.0 + rng.normal(0.0, 1.0, 36)
    spiky[[5, 17, 30, 34]] += 400.0
    return {
        "short": np.array([12.0, 15.0, 11.0, 14.0, 13.0, 16.0, 12.0, 15.0]),
        "flat": np.full(36, 50.0),
        "spiky": spiky,
        "negative": -30.0 - 0.5 * t + rng.normal(0.0, 2.0, 36),
        "seasonal": 50.0 + 0.3 * np.arange(48) + 15.0 * np.sin(2.0 * np.pi * np.arange(48) / 12.0),
    }


def _corners(model) -> list[dict]:
    """Every combination of each dimension's two ends: the first and last
    grid values, or the interval's bounds."""
    ends = []
    for name, domain in model.space().params.items():
        pair = (domain.values[0], domain.values[-1]) if isinstance(domain, GridDomain) else (domain.lower, domain.upper)
        ends.append([(name, value) for value in dict.fromkeys(pair)])
    return [dict(combo) for combo in itertools.product(*ends)]


def _attempt(fn, *args):
    """``fn(*args)``, or None when it raises a ``HefLabError``."""
    try:
        return fn(*args)
    except HefLabError:
        return None


@pytest.mark.parametrize("name", CLASSICAL_MODELS)
def test_fit_forecast_and_score_raise_only_hef_lab_errors(name) -> None:
    model = create(name)
    points = [model.fixed_config(), *_corners(model)]
    forecasts = 0
    for shape, values in _shapes().items():
        split = temporal_split(make_series(shape, values), SplitRatio.R80_20)
        train, test = split.train, split.test
        for point in points:
            fitted = _attempt(model.fit, train, point)
            predicted = None if fitted is None else _attempt(fitted.predict, split.horizon)
            if predicted is None:
                continue
            forecasts += 1
            _attempt(compute_bundle, train, test, predicted)
            errors = _attempt(TargetWindow(test).errors, predicted)
            if errors is not None:
                _attempt(maef_score, errors[1])
                _attempt(hef_score, predicted, *errors, train)
    assert forecasts > 0  # the boundary is not met by refusing every input
