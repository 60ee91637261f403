"""Robustness boundary: every registered model, at its fixed config, at the
corners of its declared space and at seeded random points of its legal
values, on six series shapes, either forecasts and scores or raises a
``HefLabError``; no other exception escapes. A sweep over seeded overrides of
each model's space is either refused when its config is built or stores or
records every task."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hef_lab.errors import HefLabError
from hef_lab.evaluation import hef_score, maef_score
from hef_lab.metrics import TargetWindow, compute_bundle
from hef_lab.models import available_models, create
from hef_lab.optimizers import GRID_CAP, PsoConfig, TpeConfig
from hef_lab.protocol import ExperimentConfig, ResultsStore, run_experiment
from hef_lab.series import Dataset, SplitRatio, temporal_split
from hef_lab.spaces import GridDomain, IntervalDomain

from conftest import make_series, random_series


def _shapes() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(11)
    t = np.arange(36, dtype=float)
    spiky = 20.0 + rng.normal(0.0, 1.0, 36)
    spiky[[5, 17, 30, 34]] += 400.0
    seasonal = 50.0 + 0.3 * np.arange(48) + 15.0 * np.sin(2.0 * np.pi * np.arange(48) / 12.0)
    return {
        "short": np.array([12.0, 15.0, 11.0, 14.0, 13.0, 16.0, 12.0, 15.0]),
        "flat": np.full(36, 50.0),
        "spiky": spiky,
        "negative": -30.0 - 0.5 * t + rng.normal(0.0, 2.0, 36),
        "seasonal": seasonal,
        "huge": seasonal * 1e160,  # squares and products overflow in fitting and scoring
    }


def _corners(model) -> list[dict]:
    """Every combination of each dimension's two ends: the first and last
    grid values, or the interval's bounds."""
    ends = []
    for name, domain in model.declared_space.params.items():
        pair = (domain.values[0], domain.values[-1]) if isinstance(domain, GridDomain) else (domain.lower, domain.upper)
        ends.append([(name, value) for value in dict.fromkeys(pair)])
    return [dict(combo) for combo in itertools.product(*ends)]


# where a legal range has no upper bound, random points are drawn up to this
LEGAL_CAP = 4


def _legal_points(model, rng: np.random.Generator, count: int = 4) -> list[dict]:
    """``count`` random legal points: each value uniform over its legal range
    (capped at ``LEGAL_CAP``), an integer where the range holds integers, and
    ``None`` in a quarter of the draws where it is legal."""
    points = []
    for _ in range(count):
        point = {}
        for name, legal in model.legal.items():
            upper = legal.upper if legal.upper < math.inf else LEGAL_CAP
            if legal.none_ok and rng.random() < 0.25:
                point[name] = None
            elif legal.integer:
                point[name] = int(rng.integers(legal.lower, upper + 1))
            else:
                point[name] = float(rng.uniform(legal.lower, upper))
            assert legal.admits(point[name]), (name, point[name])
        points.append(point)
    return points


def _attempt(fn, *args):
    """``fn(*args)``, or None when it raises a ``HefLabError``."""
    try:
        return fn(*args)
    except HefLabError:
        return None


@pytest.mark.parametrize("name", available_models())
def test_fit_forecast_and_score_raise_only_hef_lab_errors(name) -> None:
    model = create(name)
    rng = np.random.default_rng(available_models().index(name))
    points = [model.fixed_config(), *_corners(model), *_legal_points(model, rng)]
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


def _random_override(name: str, rng: np.random.Generator) -> dict:
    """Domains for a random subset of ``name``'s declared parameters, each a
    grid or an interval inside the declared domain; arima gets one-point grids
    for every parameter, which keeps its fits few."""
    override = {}
    for param, domain in create(name).declared_space.params.items():
        if name == "arima":
            override[param] = GridDomain((domain.values[int(rng.integers(len(domain.values)))],))
        elif rng.random() < 0.5:
            continue
        elif isinstance(domain, GridDomain):  # every declared grid holds integers, dtr's None aside
            values = [v for v in domain.values if v is not None]
            chosen = sorted(rng.choice(values, size=int(rng.integers(1, 4)), replace=False).tolist())
            bounds = min(chosen), max(chosen)
            override[param] = GridDomain(tuple(chosen)) if rng.random() < 0.5 else IntervalDomain(*bounds, integer=True)
        else:
            chosen = sorted(dict.fromkeys(domain.sample(rng) for _ in range(int(rng.integers(1, 4)))))
            bounds = chosen[0], chosen[-1]
            override[param] = GridDomain(tuple(chosen)) if rng.random() < 0.5 else IntervalDomain(*bounds, domain.scale)
    return override


@pytest.mark.parametrize("name", available_models())
def test_sweep_over_overridden_spaces_is_refused_or_completes(name, tmp_path) -> None:
    rng = np.random.default_rng(available_models().index(name))
    dataset = Dataset("d", (random_series(rng, "s0"),))
    declared = create(name).declared_space.params
    for trial, scs_optimizer in enumerate(["pso", "tpe"] * 4):
        override = _random_override(name, rng)
        undeclared = trial == 0
        if undeclared:
            override["zz"] = IntervalDomain(0.0, 1.0)
        space = {**declared, **override}
        grids = [len(d.values) for d in space.values() if isinstance(d, GridDomain)]
        runnable = not undeclared and (
            (len(grids) == len(space) and math.prod(grids) <= GRID_CAP)
            or (0 < len(space) - len(grids) and (scs_optimizer == "tpe" or not grids))
        )
        try:
            config = ExperimentConfig(
                models=(name,),
                repetitions=3,
                scs_optimizer=scs_optimizer,
                pso=PsoConfig(swarm_size=3, iterations=2),
                tpe=TpeConfig(trials=4, startup=2),
                space_overrides={name: override},
            )
        except HefLabError:
            assert not runnable, override
            continue
        assert runnable, override
        store = tmp_path / f"{trial}.csv"
        summary = run_experiment(dataset, config, store)
        assert summary.executed == summary.total == 6
        assert len(ResultsStore(store)) + len(summary.failures) == 6
