"""Regression-on-lag-features models: OLS, lasso, ridge, elastic net,
polynomial, and Huber.

Features are sliding lag windows; the penalized and robust variants z-score
their features with training statistics and fit coefficients in standardized
space. Multi-step forecasts are produced recursively.
"""

from __future__ import annotations

import math
from typing import ClassVar, Mapping

import numpy as np

from ..errors import NonConvergenceError, SingularDesignError
from ..spaces import GridDomain, HyperparameterSpace, IntervalDomain, Legal
from . import LagModel, Step, register

_JITTER = 1e-8


def _median(values: np.ndarray) -> float:
    """``np.median`` of a 1-D array, bit for bit, for a fraction of its call
    cost: the middle of one sort, or the mean of the two middle values; NaN if
    the array holds a NaN."""
    s = np.sort(values)
    k = len(s) // 2
    if math.isnan(s[-1]):  # the sort puts NaNs last
        return math.nan
    if len(s) % 2:
        return float(s[k])
    return (float(s[k - 1]) + float(s[k])) / 2.0


def _solve_normal_equations(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b after ridge jitter; raise if still singular or non-finite."""
    scale = max(1.0, float(np.trace(A)) / max(len(A), 1))
    A = A + _JITTER * scale * np.eye(len(A))
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError(f"normal equations are singular: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularDesignError("normal equations produced non-finite coefficients")
    return x


def coordinate_descent_enet(
    X: np.ndarray,
    y: np.ndarray,
    alpha: float,
    l1_ratio: float,
    max_iter: int = 10_000,
    tol: float = 1e-10,
) -> np.ndarray:
    """Minimize (1/2n)||y - Xb||^2 + alpha*(l1*||b||_1 + (1-l1)/2*||b||_2^2).

    Cyclic coordinate descent with soft-thresholding; X is expected centered
    (and usually standardized), y centered. Raises ``NonConvergenceError`` at
    ``max_iter`` sweeps; near-collinear lags can take ~1,200 even at fixed configs.
    """
    n, p = X.shape
    # Scalars are Python floats and the column views are made once, because a
    # numpy scalar operation costs more than its arithmetic here. The dot
    # products stay on the strided views: a contiguous copy may let BLAS sum
    # in another order.
    columns = [X[:, j] for j in range(p)]
    col_sq = (X**2).mean(axis=0).tolist()
    ridge = alpha * (1.0 - l1_ratio)
    denom = [c + ridge for c in col_sq]
    beta = [0.0] * p
    threshold = alpha * l1_ratio
    residual = y.copy()
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            if denom[j] == 0.0:
                continue
            rho = float(columns[j] @ residual) / n + col_sq[j] * beta[j]
            new = math.copysign(max(abs(rho) - threshold, 0.0), rho) / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                residual -= columns[j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            return np.array(beta)
    raise NonConvergenceError("coordinate descent hit its iteration cap")


class _LagRegressionModel(LagModel):
    """Shared lag-matrix fitting; subclasses provide the coefficient solver ``_solve``."""

    def _expand(self, X: np.ndarray, config: Mapping) -> np.ndarray:
        return X

    def _fit_step(self, X: np.ndarray, targets: np.ndarray, config: Mapping) -> Step:
        feats = self._expand(X, config)
        mean = feats.mean(axis=0)
        scale = feats.std(axis=0)  # infinite on a huge series, which gives a flat forecast
        scale[scale == 0.0] = 1.0
        Xs = (feats - mean) / scale
        ybar = float(targets.mean())
        beta = self._solve(Xs, targets - ybar, config)
        cfg = dict(config)

        def step(window: np.ndarray) -> float:
            lagged = (self._expand(window[None, :], cfg)[0] - mean) / scale
            return float(lagged @ beta + ybar)

        return step


@register
class LinearModel(_LagRegressionModel):
    """Ordinary least squares; no tunable hyperparameters."""

    name = "lr"
    declared_space = HyperparameterSpace({})
    legal = {}
    fixed_point = {}

    def _solve(self, Xs, yc, config):
        beta, *_ = np.linalg.lstsq(Xs, yc, rcond=None)
        return beta


@register
class LassoModel(_LagRegressionModel):
    name = "lsr"
    declared_space = HyperparameterSpace({"alpha": IntervalDomain(1e-4, 10.0, scale="log")})
    legal = {"alpha": Legal()}
    fixed_point = {"alpha": 0.01}

    def _solve(self, Xs, yc, config):
        return coordinate_descent_enet(Xs, yc, float(config["alpha"]), l1_ratio=1.0)


@register
class RidgeModel(_LagRegressionModel):
    name = "rr"
    declared_space = HyperparameterSpace({"alpha": IntervalDomain(1e-4, 10.0, scale="log")})
    legal = {"alpha": Legal()}
    fixed_point = {"alpha": 0.01}

    def _solve(self, Xs, yc, config):
        alpha = float(config["alpha"])
        n, p = Xs.shape
        A = Xs.T @ Xs / n + alpha * np.eye(p)
        return _solve_normal_equations(A, Xs.T @ yc / n)


@register
class ElasticNetModel(_LagRegressionModel):
    name = "enr"
    declared_space = HyperparameterSpace(
        {"alpha": IntervalDomain(1e-4, 10.0, scale="log"), "l1_ratio": IntervalDomain(0.0, 1.0)}
    )
    legal = {"alpha": Legal(), "l1_ratio": Legal(upper=1.0)}
    fixed_point = {"alpha": 0.01, "l1_ratio": 0.1}

    def _solve(self, Xs, yc, config):
        return coordinate_descent_enet(Xs, yc, float(config["alpha"]), float(config["l1_ratio"]))


@register
class PolynomialModel(_LagRegressionModel):
    """Per-feature polynomial powers (no cross terms), ridge-stabilized solve. A degree above 10
    is refused, as each adds a lag window of columns (at degree 800 one fit of 48 values takes seconds)."""

    name = "plr"
    declared_space = HyperparameterSpace({"degree": GridDomain((1, 2, 3, 4))})
    legal = {"degree": Legal(1, 10, integer=True)}
    fixed_point = {"degree": 2}

    def _expand(self, X: np.ndarray, config: Mapping) -> np.ndarray:
        degree = int(config["degree"])
        return np.hstack([X**k for k in range(1, degree + 1)])

    def _solve(self, Xs, yc, config):
        n, p = Xs.shape
        return _solve_normal_equations(Xs.T @ Xs / n, Xs.T @ yc / n)


@register
class HuberModel(_LagRegressionModel):
    """Huber loss via iteratively reweighted least squares with L2 shrinkage."""

    name = "hr"
    declared_space = HyperparameterSpace(
        {"epsilon": IntervalDomain(1.0, 2.0), "alpha": IntervalDomain(1e-4, 1.0, scale="log")}
    )
    legal = {"epsilon": Legal(closed=False), "alpha": Legal()}
    fixed_point = {"epsilon": 1.0, "alpha": 1e-4}

    _max_iter: ClassVar[int] = 200

    def _solve(self, Xs, yc, config):
        epsilon = float(config["epsilon"])
        alpha = float(config["alpha"])
        n, p = Xs.shape
        ridge = alpha * np.eye(p)
        beta = _solve_normal_equations(Xs.T @ Xs / n + ridge, Xs.T @ yc / n)
        scale_floor = 1e-12 * (1.0 + float(np.std(yc)))
        for _ in range(self._max_iter):
            residual = yc - Xs @ beta
            med = _median(residual)
            sigma = _median(np.abs(residual - med)) / 0.6745
            if sigma < scale_floor:
                return beta
            u = np.abs(residual) / sigma
            w = np.where(u <= epsilon, 1.0, epsilon / u)
            weighted = (Xs * w[:, None]).T
            new = _solve_normal_equations(weighted @ Xs / n + ridge, weighted @ yc / n)
            if float(np.max(np.abs(new - beta))) < 1e-10 * (1.0 + float(np.max(np.abs(beta)))):
                return new
            beta = new
        raise NonConvergenceError("huber IRLS hit its iteration cap")
