"""The fit contract every model family shares: ``ForecastModel.fit`` is the
one entry that checks a training series and a point, so no registered family
defines its own ``fit`` or ``check``; a ``TrainingSeries`` is made by
``check`` alone and fits as its raw values do, skipping only the array check;
each family's ``legal`` table covers exactly its
declared parameters and admits its declared space and fixed point; every
fitted model is a frozen dataclass that defines its own ``predict``; and a lag
model's minimum of 4 values is the lag window plus the two values a lag
matrix needs, at every length and season.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hef_lab.errors import InsufficientDataError, InvalidParameterError
from hef_lab.models import (
    FittedModel,
    ForecastModel,
    LagModel,
    TrainingSeries,
    available_models,
    create,
    model_class,
)

SEASONS = (1, 4, 12, 52, 365)
LAG_MODELS = [name for name in available_models() if issubclass(model_class(name), LagModel)]


def _fitted_classes(cls: type = FittedModel) -> list[type]:
    """The package's subclasses of ``cls``, at any depth."""
    out = []
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("hef_lab."):
            out.append(sub)
        out.extend(_fitted_classes(sub))
    return out


def _series(n: int) -> np.ndarray:
    return 50.0 + 10.0 * np.sin(np.arange(n) / 4.0) + np.random.default_rng(n).normal(0.0, 3.0, n)


@pytest.mark.parametrize("name", available_models())
def test_no_family_defines_its_own_fit(name) -> None:
    for cls in model_class(name).__mro__:
        if cls is ForecastModel:
            break
        for method in ("fit", "check"):
            assert method not in cls.__dict__, f"{cls.__name__} defines {method} and so bypasses the series check"


@pytest.mark.parametrize("name", available_models())
def test_legal_table_admits_the_declared_space_and_fixed_point(name) -> None:
    cls = model_class(name)
    assert set(cls.legal) == set(cls.declared_space.names) == set(cls.fixed_point)
    for param, domain in cls.declared_space.params.items():
        assert cls.legal[param].admits_domain(domain), (name, param)
        assert cls.legal[param].admits(cls.fixed_point[param]), (name, param)


def test_every_fitted_model_is_frozen_and_defines_predict() -> None:
    classes = _fitted_classes()
    assert len(classes) == 3
    for cls in classes:
        assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls.__name__
        assert "predict" in cls.__dict__, cls.__name__  # the per-layer predict figures wrap it there


@pytest.mark.parametrize("name", LAG_MODELS)
def test_lag_models_need_four_values_at_every_length_and_season(name) -> None:
    for season in SEASONS:
        model = create(name, season_length=season)
        with pytest.raises(InsufficientDataError) as info:
            model.fit(_series(3), model.fixed_config())
        assert str(info.value) == f"{name}: needs at least 4 observations, got 3"
        for n in range(4, 41):
            model.fit(_series(n), model.fixed_config())


@pytest.mark.parametrize("name", available_models())
def test_a_checked_series_fits_as_its_values_do(name) -> None:
    model = create(name)
    train = _series(40)
    checked = model.check(train)
    assert type(checked) is TrainingSeries and len(checked.values) == 40
    assert np.asarray(checked, dtype=float).tobytes() == train.tobytes()  # what the benchmark's tracer hashes
    point = model.fixed_config()
    assert model.fit(checked, point).predict(6).tobytes() == model.fit(train, point).predict(6).tobytes()


def test_a_checked_series_is_made_by_check_alone_and_keeps_its_values() -> None:
    with pytest.raises(TypeError, match="ForecastModel.check"):
        TrainingSeries()
    train = _series(20)
    checked = create("ses").check(train)
    train[:] = np.nan  # the caller's array changes; the checked values do not
    assert np.isfinite(checked.values).all() and not checked.values.flags.writeable
    with pytest.raises(ValueError):
        checked.values[0] = np.nan
    readonly = _series(20)
    readonly.flags.writeable = False
    assert create("ses").check(readonly).values is readonly  # a read-only float array is not copied


@pytest.mark.parametrize(
    "train, message",
    [
        (np.ones((4, 2)), "train must be one-dimensional"),
        ([1.0, np.nan], "needs at least 4 observations, got 2"),  # the length before the values
        ([1.0, 2.0, np.inf, 4.0], "train contains non-finite values"),
    ],
)
def test_check_refuses_what_fit_refuses(train, message) -> None:
    model = create("lr")
    for call in (model.check, lambda values: model.fit(values, {})):
        with pytest.raises(InsufficientDataError) as info:
            call(train)
        assert str(info.value) == f"lr: {message}"


def test_fit_of_a_checked_series_still_checks_the_length_and_the_point() -> None:
    checked = create("ses").check(_series(3))  # long enough for ses, not for a lag model
    with pytest.raises(InsufficientDataError) as info:
        create("lr").fit(checked, {})
    assert str(info.value) == "lr: needs at least 4 observations, got 3"
    with pytest.raises(InvalidParameterError, match="alpha must be in"):
        create("ses").fit(checked, {"alpha": 5.0})
