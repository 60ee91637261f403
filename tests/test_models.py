"""Model fitting oracles, determinism, and registry contracts."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from hef_lab import models
from hef_lab.errors import (
    HefLabError,
    InsufficientDataError,
    InvalidParameterError,
    NonConvergenceError,
    UnknownModelError,
)
from hef_lab.models import (
    FittedLagModel,
    build_lag_matrix,
    create,
    lag_window_length,
)
from hef_lab.models.arima import _css_residuals
from hef_lab.models.linear import coordinate_descent_enet

ES_MODELS = {"arima", "knn", "dtr", "plr", "lr"}
SCS_MODELS = {"ses", "lsr", "rr", "enr", "hr"}


def trend_series(n: int = 60, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 50.0 + 0.3 * np.arange(n) + 5.0 * np.sin(np.arange(n) / 3.0) + rng.normal(0, 1.5, n)


class TestRegistry:
    def test_classical_set(self) -> None:
        assert set(models.available_models()) == ES_MODELS | SCS_MODELS

    def test_search_kind_grouping(self) -> None:
        # a model is grid searched exactly when every domain of its space is a grid
        for name in ES_MODELS:
            assert create(name).declared_space.is_finite(), name
        for name in SCS_MODELS:
            assert not create(name).declared_space.is_finite(), name

    def test_stubs_fail_loudly(self) -> None:
        # names once reserved as stubs are unknown like any other, and the
        # error names the models that are available
        for name in ("svr", "gbr", "rfr", "xgboost", "catboost", "br", "mlp", "lstm", "dnn-lstm"):
            with pytest.raises(UnknownModelError) as info:
                create(name)
            assert str(info.value) == f"unknown model {name!r}; available: " + ", ".join(
                models.available_models()
            )

    def test_unknown_model(self) -> None:
        with pytest.raises(UnknownModelError):
            create("prophet")

    def test_every_space_contains_its_fixed_point(self) -> None:
        for name in models.available_models():
            model = create(name)
            space = model.declared_space
            fixed = model.fixed_config()
            if len(space) == 0:
                assert fixed == {}
            else:
                assert space.contains(fixed), name

    def test_fixed_config_is_a_fresh_dict(self) -> None:
        for name in models.available_models():
            model = create(name)
            point = model.fixed_config()
            expected = dict(point)
            point["injected"] = 1
            point.update({param: None for param in expected})
            assert model.fixed_config() == expected, name
            assert create(name).fixed_config() == expected, name

    def test_lag_window_length(self) -> None:
        assert lag_window_length(100, 12) == 12
        assert lag_window_length(100, 52) == 25
        assert lag_window_length(9, 12) == 2  # floored at 2


class TestDeterminism:
    def test_identical_inputs_identical_forecasts(self) -> None:
        train = trend_series()
        for name in models.available_models():
            model_a, model_b = create(name), create(name)
            fc_a = model_a.fit(train, model_a.fixed_config()).predict(6)
            fc_b = model_b.fit(train, model_b.fixed_config()).predict(6)
            assert np.array_equal(fc_a, fc_b), name

    def test_forecast_length_and_finiteness(self) -> None:
        train = trend_series(seed=3)
        for name in models.available_models():
            model = create(name)
            for h in (1, 7):
                fc = model.fit(train, model.fixed_config()).predict(h)
                assert fc.shape == (h,)
                assert np.isfinite(fc).all()


class TestSes:
    def test_constant_series_is_fixed_point(self) -> None:
        for alpha in (0.05, 0.2, 0.9):
            fc = create("ses").fit([7.0] * 12, {"alpha": alpha}).predict(4)
            assert np.allclose(fc, 7.0)

    def test_matches_manual_recursion(self) -> None:
        train = trend_series(20, seed=9)
        alpha = 0.35
        level = train[0]
        for v in train[1:]:
            level = alpha * v + (1 - alpha) * level
        fc = create("ses").fit(train, {"alpha": alpha}).predict(3)
        assert np.allclose(fc, level)

    def test_shift_equivariance(self) -> None:
        train = trend_series(30, seed=1)
        base = create("ses").fit(train, {"alpha": 0.2}).predict(5)
        shifted = create("ses").fit(train + 100.0, {"alpha": 0.2}).predict(5)
        assert np.allclose(shifted - base, 100.0, atol=1e-9)

    def test_insufficient_data(self) -> None:
        with pytest.raises(InsufficientDataError):
            create("ses").fit([1.0, 2.0], {"alpha": 0.2})

    @pytest.mark.parametrize("alpha", [5.0, -1.0, float("nan")])
    def test_alpha_outside_unit_interval_is_refused(self, alpha) -> None:
        # at 5 a daily-length fit overflows, at -1 it forecasts about -1e175
        train = trend_series(584, seed=3)
        with pytest.raises(InvalidParameterError, match=f"alpha must lie in \\[0, 1\\], got {alpha!r}"):
            create("ses").fit(train, {"alpha": alpha})

    def test_alpha_at_the_bounds_fits(self) -> None:
        train = trend_series(584, seed=3)
        assert np.array_equal(create("ses").fit(train, {"alpha": 0.0}).predict(2), np.full(2, train[0]))
        assert np.array_equal(create("ses").fit(train, {"alpha": 1.0}).predict(2), np.full(2, train[-1]))


def _css_sse(w: np.ndarray, c: float, phi: float) -> float:
    sse = 0.0
    for t in range(1, len(w)):
        e = w[t] - c - phi * w[t - 1]
        sse += e * e
    return sse


class TestArima:
    def test_ar1_css_beats_brute_force_grid(self) -> None:
        rng = np.random.default_rng(12)
        w = np.empty(120)
        w[0] = 5.0
        for t in range(1, 120):
            w[t] = 2.0 + 0.6 * w[t - 1] + rng.normal(0, 1.0)
        model = create("arima")
        fitted = model.fit(w, {"p": 1, "d": 0, "q": 0})
        fitted_sse = _css_sse(w, fitted._c, float(fitted._phi[0]))
        brute = min(
            _css_sse(w, c, phi)
            for c in np.arange(0.0, 4.01, 0.05)
            for phi in np.arange(-0.99, 1.0, 0.01)
        )
        assert fitted_sse <= brute + 1e-9

    def test_one_step_forecast_formula(self) -> None:
        train = trend_series(50, seed=4)
        fitted = create("arima").fit(train, {"p": 1, "d": 0, "q": 0})
        expected = fitted._c + fitted._phi[0] * train[-1]
        assert fitted.predict(1)[0] == pytest.approx(expected, rel=1e-12)

    def test_shift_equivariance_with_differencing(self) -> None:
        train = trend_series(40, seed=5)
        base = create("arima").fit(train, {"p": 1, "d": 1, "q": 1}).predict(4)
        shifted = create("arima").fit(train + 250.0, {"p": 1, "d": 1, "q": 1}).predict(4)
        assert np.allclose(shifted - base, 250.0, atol=1e-6)

    def test_insufficient_data_for_order(self) -> None:
        with pytest.raises(InsufficientDataError):
            create("arima").fit([1.0, 2.0, 3.0], {"p": 3, "d": 2, "q": 3})

    @pytest.mark.parametrize("p,d,q", [(0, 0, 1), (1, 1, 2)])
    def test_ma_order_above_ar_order_completes(self, p, d, q) -> None:
        # q > p reaches back before the first observation on the first steps
        train = trend_series(48, seed=9)
        try:
            forecast = create("arima").fit(train, {"p": p, "d": d, "q": q}).predict(12)
        except HefLabError:
            return
        assert np.isfinite(forecast).all()

    def test_css_residuals_take_presample_shocks_as_zero(self) -> None:
        w = trend_series(30, seed=6)
        c, phi, theta = 1.5, np.array([0.4]), np.array([0.3, -0.2, 0.1])
        e = np.zeros(len(w))
        for t in range(1, len(w)):
            ma = sum(theta[j - 1] * e[t - j] for j in range(1, 4) if t - j >= 0)
            e[t] = w[t] - c - phi[0] * w[t - 1] - ma
        assert np.allclose(_css_residuals(w, c, phi, theta), e, rtol=1e-12, atol=1e-12)


class TestLagModel:
    def test_lag_matrix_rows_are_windows(self) -> None:
        values = trend_series(30, seed=3)
        for window in (2, 5, 29):
            X, targets = build_lag_matrix(values, window)
            assert X.shape == (30 - window, window) and X.flags.c_contiguous
            for i in range(len(X)):
                assert np.array_equal(X[i], values[i : i + window])
                assert targets[i] == values[i + window]
        with pytest.raises(InsufficientDataError):
            build_lag_matrix(values, 30)

    def test_rolled_forecast_matches_hand_recursion(self) -> None:
        history = trend_series(20, seed=4)
        kept = history.copy()
        fc = FittedLagModel(history, 3, lambda w: float(w.mean())).predict(6)
        buf = list(history)
        for _ in range(6):
            buf.append(float(np.mean(buf[-3:])))
        assert np.array_equal(fc, buf[20:])
        assert np.array_equal(history, kept)

    def test_non_finite_step_raises(self) -> None:
        fitted = FittedLagModel(trend_series(20, seed=5), 3, lambda w: float("inf"))
        with pytest.raises(NonConvergenceError):
            fitted.predict(2)


class TestKnn:
    def test_k_equal_to_window_count_is_global_mean(self) -> None:
        train = trend_series(30, seed=6)
        model = create("knn")
        window = lag_window_length(len(train), model.season_length)
        _, targets = build_lag_matrix(train, window)
        fc = model.fit(train, {"n_neighbors": len(targets)}).predict(1)
        assert fc[0] == pytest.approx(float(targets.mean()), rel=1e-12)

    def test_oversized_k_clamps(self) -> None:
        train = trend_series(30, seed=6)
        a = create("knn").fit(train, {"n_neighbors": 500}).predict(2)
        window = lag_window_length(len(train), 12)
        _, targets = build_lag_matrix(train, window)
        b = create("knn").fit(train, {"n_neighbors": len(targets)}).predict(2)
        assert np.array_equal(a, b)

    def test_matches_brute_force_neighbors(self) -> None:
        rng = np.random.default_rng(8)
        train = trend_series(40, seed=8)
        model = create("knn")
        window = lag_window_length(len(train), model.season_length)
        X, targets = build_lag_matrix(train, window)
        for k in (1, 3, 7):
            fc = model.fit(train, {"n_neighbors": k}).predict(1)
            query = train[-window:]
            ranked = sorted(
                range(len(targets)),
                key=lambda i: (float(((X[i] - query) ** 2).sum()), i),
            )
            expected = float(np.mean([targets[i] for i in ranked[:k]]))
            assert fc[0] == pytest.approx(expected, rel=1e-12)


class TestLinearFamily:
    def test_lr_continues_exact_line(self) -> None:
        model = create("lr", season_length=2)
        line = np.array([2.0 * t for t in range(1, 25)])
        fc = model.fit(line, {}).predict(1)
        assert abs(fc[0] - 50.0) < 1e-8

    def test_lr_shift_equivariance(self) -> None:
        train = trend_series(36, seed=10)
        base = create("lr").fit(train, {}).predict(3)
        shifted = create("lr").fit(train + 40.0, {}).predict(3)
        assert np.allclose(shifted - base, 40.0, atol=1e-7)

    def test_enet_at_zero_l1_matches_ridge(self) -> None:
        train = trend_series(48, seed=11)
        alpha = 0.05
        ridge_fc = create("rr").fit(train, {"alpha": alpha}).predict(4)
        enet_fc = create("enr").fit(train, {"alpha": alpha, "l1_ratio": 0.0}).predict(4)
        assert np.allclose(ridge_fc, enet_fc, atol=1e-6)

    def test_coordinate_descent_reaches_convex_optimum(self) -> None:
        rng = np.random.default_rng(13)
        n, p = 60, 4
        X = rng.normal(size=(n, p))
        X = (X - X.mean(0)) / X.std(0)
        y = X @ np.array([1.5, -2.0, 0.0, 0.5]) + rng.normal(0, 0.5, n)
        y = y - y.mean()
        for alpha, l1_ratio in ((0.1, 1.0), (0.5, 0.5), (0.05, 0.25)):
            def objective(beta):
                resid = y - X @ beta
                return (
                    0.5 * float(resid @ resid) / n
                    + alpha * l1_ratio * float(np.abs(beta).sum())
                    + 0.5 * alpha * (1 - l1_ratio) * float(beta @ beta)
                )

            beta_cd = coordinate_descent_enet(X, y, alpha, l1_ratio)
            reference = minimize(objective, np.zeros(p), method="Powell").fun
            assert objective(beta_cd) <= reference + 1e-8

    def test_coordinate_descent_raises_at_its_cap(self) -> None:
        rng = np.random.default_rng(15)
        base = rng.normal(size=60)
        X = np.column_stack([base, base + rng.normal(0, 0.1, 60), rng.normal(size=60)])
        X = (X - X.mean(0)) / X.std(0)
        y = X @ np.array([1.0, 1.0, -0.5])
        y = y - y.mean()
        # one sweep cannot settle two nearly collinear columns
        with pytest.raises(NonConvergenceError):
            coordinate_descent_enet(X, y, 0.01, 0.5, max_iter=1)
        coordinate_descent_enet(X, y, 0.01, 0.5)  # the default cap is enough

    def test_lasso_shrinks_to_zero_at_huge_alpha(self) -> None:
        train = trend_series(48, seed=14)
        model = create("lsr")
        window = lag_window_length(len(train), 12)
        X, targets = build_lag_matrix(train, window)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        beta = model._solve(Xs, targets - targets.mean(), {"alpha": 10.0})
        assert np.allclose(beta, 0.0)
        # all-zero coefficients forecast the training-target mean
        fitted = model.fit(train, {"alpha": 10.0})
        assert fitted.predict(1)[0] == pytest.approx(float(targets.mean()), rel=1e-12)

    def test_plr_continues_quadratic(self) -> None:
        model = create("plr", season_length=3)
        t = np.arange(1, 30, dtype=float)
        series = 0.5 * t**2 + 3.0
        fc = model.fit(series, {"degree": 2}).predict(1)
        expected = 0.5 * 30.0**2 + 3.0
        assert fc[0] == pytest.approx(expected, rel=1e-3)

    def test_huber_resists_one_outlier(self) -> None:
        t = np.arange(1, 41, dtype=float)
        series = 3.0 * t + 10.0
        series[25] += 80.0  # a single corrupted observation
        clean_next = 3.0 * 41.0 + 10.0
        hr_fc = create("hr", season_length=4).fit(series, {"epsilon": 1.0, "alpha": 1e-4}).predict(1)
        lr_fc = create("lr", season_length=4).fit(series, {}).predict(1)
        assert abs(hr_fc[0] - clean_next) < abs(lr_fc[0] - clean_next)

    def test_insufficient_data(self) -> None:
        with pytest.raises(InsufficientDataError):
            create("lr", season_length=12).fit([1.0, 2.0, 3.0], {})


class TestTree:
    def test_zero_training_error_with_unique_windows(self) -> None:
        rng = np.random.default_rng(15)
        train = np.cumsum(rng.uniform(0.5, 2.0, 28)) + 5.0  # strictly increasing: unique windows
        model = create("dtr", season_length=3)
        fitted = model.fit(train, {"max_depth": None})
        window = lag_window_length(len(train), 3)
        X, targets = build_lag_matrix(train, window)
        predictions = np.array([fitted._step(row) for row in X])
        assert np.allclose(predictions, targets)

    def test_depth_cap_coarsens_fit(self) -> None:
        rng = np.random.default_rng(16)
        train = np.cumsum(rng.uniform(0.5, 2.0, 40)) + 5.0
        window = lag_window_length(len(train), 3)
        X, targets = build_lag_matrix(train, window)

        def training_sse(max_depth):
            fitted = create("dtr", season_length=3).fit(train, {"max_depth": max_depth})
            pred = np.array([fitted._step(row) for row in X])
            return float(((pred - targets) ** 2).sum())

        assert training_sse(None) <= training_sse(2) + 1e-12
        assert training_sse(2) > 0.0

    def test_constant_targets_predict_constant(self) -> None:
        train = np.array([1.0, 2.0] * 10 + [5.0] * 0)
        fc = create("dtr", season_length=2).fit(train, {"max_depth": None}).predict(2)
        assert np.isfinite(fc).all()
