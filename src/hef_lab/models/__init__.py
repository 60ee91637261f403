"""Classical forecasting models behind one fit/predict interface.

Each model class declares, once and as class data, its hyperparameter space
and the fixed benchmark configuration used by the no-search baseline
condition. How a model is searched follows from its space alone: grid search
when every domain is a grid, a continuous optimizer otherwise. Regressive
models consume the series through sliding lag windows and forecast
multi-step recursively.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InsufficientDataError, NonConvergenceError, UnknownModelError
from ..spaces import HyperparameterSpace

__all__ = [
    "FittedModel",
    "ForecastModel",
    "FittedLagModel",
    "LagModel",
    "lag_window_length",
    "build_lag_matrix",
    "register",
    "create",
    "model_class",
    "available_models",
    "CLASSICAL_MODELS",
]


Step = Callable[[np.ndarray], float]  # the last ``window`` values in, the next value out


class FittedModel(ABC):
    """Immutable fitted state; safe to share across threads."""

    @abstractmethod
    def predict(self, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` values; always finite, never NaN."""


class ForecastModel(ABC):
    """One named model family. A subclass declares its hyperparameter space
    (``declared_space``) and the point the baseline condition fits
    (``fixed_point``) as class data; ``space`` and ``fixed_config`` read them."""

    name: ClassVar[str]
    declared_space: ClassVar[HyperparameterSpace]
    fixed_point: ClassVar[Mapping]

    def __init__(self, season_length: int = 12) -> None:
        if season_length < 1:
            raise InsufficientDataError("season_length must be >= 1")
        self.season_length = int(season_length)

    def space(self) -> HyperparameterSpace:
        """The declared space, shared: a space cannot be changed."""
        return self.declared_space

    def fixed_config(self) -> dict:
        """A fresh copy of the fixed point, free for the caller to change."""
        return dict(self.fixed_point)

    @abstractmethod
    def fit(self, train: Sequence[float], config: Mapping) -> FittedModel: ...


def lag_window_length(n_train: int, season_length: int) -> int:
    """Width of the sliding lag window: min(season, n/4), floored at 2."""
    return max(2, min(season_length, n_train // 4))


def build_lag_matrix(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack sliding windows into a design matrix with next-value targets."""
    if len(values) <= window:
        raise InsufficientDataError(f"need more than {window} observations, got {len(values)}")
    values = np.asarray(values, dtype=float)
    return sliding_window_view(values[:-1], window).copy(), values[window:]


class FittedLagModel(FittedModel):
    """A one-step predictor on the last ``window`` values, rolled forward by
    feeding each forecast back in as the newest input."""

    def __init__(self, history: np.ndarray, window: int, step: Step) -> None:
        self._history = history
        self._window = window
        self._step = step

    def predict(self, horizon: int) -> np.ndarray:
        n, window = len(self._history), self._window
        buf = np.concatenate([self._history, np.empty(horizon)])
        with np.errstate(all="ignore"):
            for t in range(n, n + horizon):
                buf[t] = self._step(buf[t - window : t])
        out = buf[n:]
        if not np.isfinite(out).all():
            raise NonConvergenceError("forecast diverged to non-finite values")
        return out


def _validated_train(train: Sequence[float], minimum: int, model: str) -> np.ndarray:
    y = np.asarray(train, dtype=float)
    if y.ndim != 1:
        raise InsufficientDataError(f"{model}: train must be one-dimensional")
    if len(y) < minimum:
        raise InsufficientDataError(f"{model}: needs at least {minimum} observations, got {len(y)}")
    if not np.isfinite(y).all():
        raise InsufficientDataError(f"{model}: train contains non-finite values")
    return y


class LagModel(ForecastModel):
    """A model whose subclasses turn the lag matrix of the training series and
    its next-value targets into the one-step predictor that ``fit`` rolls."""

    def fit(self, train: Sequence[float], config: Mapping) -> FittedLagModel:
        window = lag_window_length(len(train), self.season_length)
        y = _validated_train(train, window + 2, self.name)
        X, targets = build_lag_matrix(y, window)
        return FittedLagModel(y, window, self._fit_step(X, targets, config))

    @abstractmethod
    def _fit_step(self, X: np.ndarray, targets: np.ndarray, config: Mapping) -> Step: ...


# --- registry ---------------------------------------------------------------

_REGISTRY: dict[str, type[ForecastModel]] = {}


def register(cls: type[ForecastModel]) -> type[ForecastModel]:
    _REGISTRY[cls.name] = cls
    return cls


def model_class(name: str) -> type[ForecastModel]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        ) from None


def create(name: str, season_length: int = 12) -> ForecastModel:
    """Instantiate a registered model; unknown names raise ``UnknownModelError``."""
    return model_class(name)(season_length=season_length)


def available_models() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


from . import arima, linear, neighbors, smoothing, tree  # noqa: E402,F401  (registration side effects)

CLASSICAL_MODELS = available_models()
