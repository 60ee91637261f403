"""ARIMA(p, d, q) fitted by conditional sum of squares.

Differencing is applied d times, an ARMA(p, q) with intercept is fitted on
the differenced series by Nelder-Mead over the CSS objective (residuals
conditioned on the first p observations, zero pre-sample shocks), and
forecasts are produced recursively then integrated back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..errors import InsufficientDataError, NonConvergenceError
from ..spaces import GridDomain, HyperparameterSpace, Legal
from . import FittedModel, ForecastModel, register

_HUGE = 1e300


def _css_residuals(w: np.ndarray, c: float, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    p, q = len(phi), len(theta)
    T = len(w)
    e = np.zeros(T)
    for t in range(p, T):
        ar = float(phi @ w[t - p : t][::-1]) if p else 0.0
        lo = max(t - q, 0)  # shocks before the first observation are zero
        ma = float(theta[: t - lo] @ e[lo:t][::-1]) if q else 0.0
        e[t] = w[t] - c - ar - ma
    return e


@dataclass(frozen=True, eq=False)
class FittedArima(FittedModel):
    _y: np.ndarray
    _d: int
    _c: float
    _phi: np.ndarray
    _theta: np.ndarray
    _w: np.ndarray
    _e: np.ndarray

    def predict(self, horizon: int) -> np.ndarray:
        p, q = len(self._phi), len(self._theta)
        w_ext = list(self._w)
        e_ext = list(self._e)
        fc = np.empty(horizon, dtype=float)
        with np.errstate(all="ignore"):
            for k in range(horizon):
                t = len(w_ext)
                ar = sum(self._phi[i] * w_ext[t - 1 - i] for i in range(p))
                ma = sum(self._theta[j] * e_ext[t - 1 - j] for j in range(q) if t - 1 - j >= 0)
                value = self._c + ar + ma
                fc[k] = value
                w_ext.append(value)
                e_ext.append(0.0)  # future shocks are unknown
            # integrate back through the differencing levels
            for level in reversed(range(self._d)):
                tail = np.diff(self._y, n=level)[-1]
                fc = tail + np.cumsum(fc)
        if not np.isfinite(fc).all():
            raise NonConvergenceError("arima forecast diverged to non-finite values")
        return fc


@register
class ArimaModel(ForecastModel):
    name = "arima"
    declared_space = HyperparameterSpace(
        {"p": GridDomain((0, 1, 2, 3)), "d": GridDomain((0, 1, 2)), "q": GridDomain((0, 1, 2, 3))}
    )
    legal = dict.fromkeys("pdq", Legal(integer=True))
    fixed_point = {"p": 1, "d": 1, "q": 1}

    def _fit(self, y: np.ndarray, config: Mapping) -> FittedArima:
        from scipy.optimize import minimize  # imported here, so importing the models does not load scipy

        p, d, q = int(config["p"]), int(config["d"]), int(config["q"])
        T = max(len(y) - d, 0)  # the differenced length, found before np.diff loops d times
        if T <= max(p, q) or T - p < 1:
            raise InsufficientDataError(f"arima({p},{d},{q}): differenced series has {T} points; too few")
        with np.errstate(all="ignore"):  # a diverging search is capped or refused below
            w = np.diff(y, n=d) if d else y

            def css(params: np.ndarray) -> float:
                c = params[0]
                phi = params[1 : 1 + p]
                theta = params[1 + p :]
                e = _css_residuals(w, c, phi, theta)
                sse = float(e[p:] @ e[p:])
                return sse if np.isfinite(sse) else _HUGE

            x0 = np.zeros(1 + p + q)
            x0[0] = float(w.mean())
            result = minimize(
                css,
                x0,
                method="Nelder-Mead",
                options={"maxiter": 2000, "maxfev": 4000, "xatol": 1e-8, "fatol": 1e-10},
            )
            if not np.isfinite(result.x).all():
                raise NonConvergenceError(f"arima({p},{d},{q}): estimation produced non-finite parameters")
            if not result.success:
                raise NonConvergenceError(f"arima({p},{d},{q}): CSS minimization hit its iteration cap")
            c = float(result.x[0])
            phi = np.asarray(result.x[1 : 1 + p], dtype=float)
            theta = np.asarray(result.x[1 + p :], dtype=float)
            residuals = _css_residuals(w, c, phi, theta)
        return FittedArima(y, d, c, phi, theta, w, residuals)
