"""The fit contract every model family shares: ``ForecastModel.fit`` is the
one entry that checks a training series and a point, so no registered family
defines its own ``fit``; each family's ``legal`` table covers exactly its
declared parameters and admits its declared space and fixed point; every
fitted model is a frozen dataclass that defines its own ``predict``; and a lag
model's minimum of 4 values is the lag window plus the two values a lag
matrix needs, at every length and season.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hef_lab.errors import InsufficientDataError
from hef_lab.models import FittedModel, ForecastModel, LagModel, available_models, create, model_class

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
        assert "fit" not in cls.__dict__, f"{cls.__name__} defines fit and so bypasses the training-series check"


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
