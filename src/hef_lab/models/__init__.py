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
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import InsufficientDataError, InvalidParameterError, NonConvergenceError, UnknownModelError
from ..spaces import HyperparameterSpace, Legal

__all__ = [
    "FittedModel",
    "ForecastModel",
    "TrainingSeries",
    "FittedLagModel",
    "LagModel",
    "lag_window_length",
    "build_lag_matrix",
    "register",
    "create",
    "model_class",
    "available_models",
]


Step = Callable[[np.ndarray], float]  # the last ``window`` values in, the next value out


class FittedModel(ABC):
    """Immutable fitted state; safe to share across threads."""

    @abstractmethod
    def predict(self, horizon: int) -> np.ndarray:
        """Forecast ``horizon`` values; always finite, never NaN."""


class TrainingSeries:
    """A training series that ``ForecastModel.check`` found one-dimensional,
    finite and at least its model's ``min_train`` values long, and made; no
    other code makes one. ``values`` is a read-only float array, so the check
    stays true, and ``np.asarray`` reads it. A search checks its series once
    and fits this value at every point."""

    __slots__ = ("values",)

    def __new__(cls, *args, **kwargs):
        raise TypeError("a TrainingSeries is made by ForecastModel.check")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.values, dtype=dtype, copy=copy)


class ForecastModel(ABC):
    """One named model family. A subclass declares its hyperparameter space
    (``declared_space``), its parameters' legal values (``legal``), the point
    the baseline condition fits (``fixed_point``) and the shortest series it
    fits (``min_train``) as class data, and fits what ``fit`` has checked in ``_fit``."""

    name: ClassVar[str]
    declared_space: ClassVar[HyperparameterSpace]
    legal: ClassVar[Mapping[str, Legal]]
    fixed_point: ClassVar[Mapping]
    min_train: ClassVar[int] = 3

    def __init__(self, season_length: int = 12) -> None:
        if season_length < 1:
            raise InsufficientDataError("season_length must be >= 1")
        self.season_length = int(season_length)

    def fixed_config(self) -> dict:
        """A fresh copy of the fixed point, free for the caller to change."""
        return dict(self.fixed_point)

    def check(self, train: Sequence[float]) -> TrainingSeries:
        """``train`` checked for this model: one-dimensional, ``min_train``
        values or more, finite; the one implementation of that check."""
        y = np.asarray(train, dtype=float)
        if y.ndim != 1:
            raise InsufficientDataError(f"{self.name}: train must be one-dimensional")
        if len(y) < self.min_train:
            raise InsufficientDataError(f"{self.name}: needs at least {self.min_train} observations, got {len(y)}")
        if not np.isfinite(y).all():
            raise InsufficientDataError(f"{self.name}: train contains non-finite values")
        if y.flags.writeable:  # a caller's array could change after the check
            y = y.copy()
            y.flags.writeable = False
        checked = object.__new__(TrainingSeries)
        checked.values = y
        return checked

    def fit(self, train: Sequence[float] | TrainingSeries, config: Mapping) -> FittedModel:
        """Fit a point that ``legal`` admits to ``train``: one-dimensional, finite, ``min_train`` values or more.
        A ``TrainingSeries`` skips only the array check; one that another model checked may be too short for this
        one, and then the full check refuses it."""
        if type(train) is not TrainingSeries or len(train.values) < self.min_train:
            train = self.check(train)
        for param, legal in self.legal.items():
            if not legal.admits(config[param]):
                raise InvalidParameterError(f"{self.name}: {param} must be {legal}, got {config[param]!r}")
        return self._fit(train.values, config)

    @abstractmethod
    def _fit(self, y: np.ndarray, config: Mapping) -> FittedModel: ...


def lag_window_length(n_train: int, season_length: int) -> int:
    """Width of the sliding lag window: min(season, n/4), floored at 2."""
    return max(2, min(season_length, n_train // 4))


def build_lag_matrix(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack sliding windows into a design matrix with next-value targets."""
    if len(values) <= window:
        raise InsufficientDataError(f"need more than {window} observations, got {len(values)}")
    values = np.asarray(values, dtype=float)
    return sliding_window_view(values[:-1], window).copy(), values[window:]


@dataclass(frozen=True, eq=False)
class FittedLagModel(FittedModel):
    """A one-step predictor on the last ``window`` values, rolled forward by
    feeding each forecast back in as the newest input."""

    _history: np.ndarray
    _window: int
    _step: Step

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


class LagModel(ForecastModel):
    """A model whose subclasses turn the lag matrix of the training series and
    its next-value targets into the one-step predictor that ``fit`` rolls."""

    # a lag matrix needs window + 2 values; the window is 2 below 8 values and
    # at most n/4 above, so every series of 4 or more values is long enough
    min_train = 4

    def _fit(self, y: np.ndarray, config: Mapping) -> FittedLagModel:
        window = lag_window_length(len(y), self.season_length)
        X, targets = build_lag_matrix(y, window)
        with np.errstate(all="ignore"):  # a huge series ends in predict's or scoring's refusal
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
