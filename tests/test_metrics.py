"""Metric hand values, error contracts, and brute-force oracle agreement."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from hef_lab.errors import (
    EmptyInputError,
    FlatTrainingSeriesError,
    LengthMismatchError,
    NonFiniteInputError,
    SeriesTooShortError,
    ZeroTotalVolumeError,
    ZeroVarianceError,
)
from hef_lab.evaluation import hef_scorer
from hef_lab.metrics import (
    METRIC_NAMES,
    BundleScorer,
    MetricBundle,
    TargetWindow,
    compute_bundle,
    gra,
    mae,
    mase,
    r2,
    rmse,
    rmsse,
)

# independent naive-loop reimplementations, deliberately numpy-free


def naive_mae(y, p):
    return sum(abs(a - b) for a, b in zip(y, p)) / len(y)


def naive_rmse(y, p):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(y, p)) / len(y))


def naive_r2(y, p):
    mean = sum(y) / len(y)
    ss_res = sum((a - b) ** 2 for a, b in zip(y, p))
    ss_tot = sum((a - mean) ** 2 for a in y)
    return 1.0 - ss_res / ss_tot


def naive_gra(y, p):
    total = sum(abs(a) for a in y)
    return 1.0 - abs(sum(abs(b) for b in p) - total) / total


def naive_rmsse(train, y, p):
    num = sum((a - b) ** 2 for a, b in zip(y, p)) / len(y)
    den = sum((train[t] - train[t - 1]) ** 2 for t in range(1, len(train))) / (len(train) - 1)
    return math.sqrt(num / den)


def naive_mase(train, y, p):
    num = sum(abs(a - b) for a, b in zip(y, p)) / len(y)
    den = sum(abs(train[t] - train[t - 1]) for t in range(1, len(train))) / (len(train) - 1)
    return num / den


class TestHandValues:
    def test_mae(self) -> None:
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert mae([-1, 1], [1, -1]) == pytest.approx(2.0, abs=1e-15)

    def test_rmse(self) -> None:
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert rmse([1, 2, 3], [2, 2, 2]) == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        assert rmse([7], [2]) == pytest.approx(5.0, abs=1e-15)

    def test_r2(self) -> None:
        assert r2([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-15)
        assert r2([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0, abs=1e-15)  # mean predictor
        assert r2([1, 2, 3], [1.5, 2, 2.5]) == pytest.approx(0.75, abs=1e-15)

    def test_gra(self) -> None:
        assert gra([3, 4], [3, 4]) == pytest.approx(1.0, abs=1e-15)
        assert gra([10, 10], [12, 10]) == pytest.approx(0.9, abs=1e-15)
        assert gra([5], [15]) == pytest.approx(-1.0, abs=1e-15)

    def test_rmsse(self) -> None:
        assert rmsse([1, 2, 4], [5, 7], [5, 7]) == 0.0
        assert rmsse([1, 2, 4], [5, 7], [4, 8]) == pytest.approx(1.0 / math.sqrt(2.5), abs=1e-12)

    def test_mase(self) -> None:
        assert mase([1, 2, 4], [5, 7], [5, 7]) == 0.0
        assert mase([1, 2, 4], [5, 7], [4, 8]) == pytest.approx(2.0 / 3.0, abs=1e-12)


class TestErrors:
    def test_length_mismatch(self) -> None:
        with pytest.raises(LengthMismatchError):
            mae([1, 2], [1])

    def test_empty(self) -> None:
        with pytest.raises(EmptyInputError):
            rmse([], [])

    def test_non_finite(self) -> None:
        with pytest.raises(NonFiniteInputError):
            mae([1, math.inf], [1, 2])

    def test_zero_variance(self) -> None:
        with pytest.raises(ZeroVarianceError):
            r2([2, 2, 2], [1, 2, 3])

    def test_zero_total_volume(self) -> None:
        with pytest.raises(ZeroTotalVolumeError):
            gra([0, 0], [1, 1])

    def test_flat_training_series(self) -> None:
        with pytest.raises(FlatTrainingSeriesError):
            rmsse([3, 3, 3], [1, 2], [1, 2])
        with pytest.raises(FlatTrainingSeriesError):
            mase([3, 3, 3], [1, 2], [1, 2])

    def test_short_train(self) -> None:
        with pytest.raises(SeriesTooShortError):
            mase([3], [1, 2], [1, 2])


class TestProperties:
    def test_rmse_dominates_mae(self) -> None:
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            y = rng.normal(scale=10.0, size=n)
            p = y + rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
            assert rmse(y, p) >= mae(y, p) - 1e-12

    def test_permutation_invariance(self) -> None:
        rng = np.random.default_rng(5)
        train = rng.normal(size=20)
        y = rng.normal(size=12) + 5.0
        p = y + rng.normal(size=12)
        perm = rng.permutation(12)
        for fn in (mae, rmse, r2, gra):
            assert fn(y, p) == pytest.approx(fn(y[perm], p[perm]), rel=1e-12)
        for fn in (rmsse, mase):
            assert fn(train, y, p) == pytest.approx(fn(train, y[perm], p[perm]), rel=1e-12)

    def test_scaling(self) -> None:
        rng = np.random.default_rng(6)
        train = rng.normal(size=20) + 10.0
        y = rng.normal(size=8) + 10.0
        p = y + rng.normal(size=8)
        for c in (0.5, 3.0, 100.0):
            assert mae(c * y, c * p) == pytest.approx(c * mae(y, p), rel=1e-12)
            assert rmse(c * y, c * p) == pytest.approx(c * rmse(y, p), rel=1e-12)
            assert r2(c * y, c * p) == pytest.approx(r2(y, p), rel=1e-12)
            assert gra(c * y, c * p) == pytest.approx(gra(y, p), rel=1e-12)
            assert rmsse(c * train, c * y, c * p) == pytest.approx(rmsse(train, y, p), rel=1e-12)
            assert mase(c * train, c * y, c * p) == pytest.approx(mase(train, y, p), rel=1e-12)

    def test_matches_naive_oracles(self) -> None:
        rng = np.random.default_rng(777)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            m = int(rng.integers(2, 51))
            train = list(rng.normal(scale=5.0, size=m) + rng.uniform(-10, 10))
            y = list(rng.normal(scale=5.0, size=n) + rng.uniform(1, 20))
            p = [v + rng.normal(scale=2.0) for v in y]
            assert mae(y, p) == pytest.approx(naive_mae(y, p), rel=1e-12)
            assert rmse(y, p) == pytest.approx(naive_rmse(y, p), rel=1e-12)
            assert r2(y, p) == pytest.approx(naive_r2(y, p), rel=1e-12)
            assert gra(y, p) == pytest.approx(naive_gra(y, p), rel=1e-12)
            assert rmsse(train, y, p) == pytest.approx(naive_rmsse(train, y, p), rel=1e-12)
            assert mase(train, y, p) == pytest.approx(naive_mase(train, y, p), rel=1e-12)

    def test_naive_forecast_scores_near_one_on_random_walk(self) -> None:
        # one-step-ahead naive forecasts on a random walk live in the MASE ~ 1 region
        rng = np.random.default_rng(31)
        values = []
        for _ in range(300):
            walk = np.cumsum(rng.normal(size=101))
            train, test = walk[:100], walk[100:]
            values.append(mase(train, test, [train[-1]]))
        assert 0.8 < float(np.mean(values)) < 1.25


class TestBundle:
    def test_bundle_fields_and_dict(self) -> None:
        train = [1.0, 2.0, 4.0]
        bundle = compute_bundle(train, [5.0, 7.0], [4.0, 8.0], exec_time=0.25)
        assert set(bundle.as_dict()) == set(METRIC_NAMES)
        assert bundle.mae == pytest.approx(1.0)
        assert bundle.rmse >= bundle.mae
        assert bundle.exec_time == 0.25

    def test_forecast_mutated_after_scoring_is_scored_afresh(self) -> None:
        train, test = [1.0, 2.0, 4.0, 3.0], [5.0, 7.0, 6.0]
        scorer, forecast = BundleScorer(train, test), np.array([4.0, 8.0, 6.5])
        scorer(forecast)
        forecast += 1.0  # the caller reuses its array for the next forecast
        assert scorer(forecast) == compute_bundle(train, test, forecast)
        assert scorer(forecast) != compute_bundle(train, test, forecast - 1.0)

    def test_negative_exec_time_rejected(self) -> None:
        with pytest.raises(NonFiniteInputError):
            MetricBundle(r2=1, mae=0, rmse=0, gra=1, rmsse=0, mase=0, exec_time=-1.0)

    def test_overflowing_forecast_is_refused_naming_the_metric(self) -> None:
        # the forecast is finite, but its squared errors overflow: r2 -inf, rmse and rmsse inf
        rng = np.random.default_rng(31)
        series = 50.0 + rng.normal(0.0, 2.0, 60)
        train, test = series[:48], series[48:]
        with pytest.raises(NonFiniteInputError, match=r"^r2 is not finite: -inf$"):
            compute_bundle(train, test, np.full(12, 1e170))
        scorer = BundleScorer(train, test)
        with pytest.raises(NonFiniteInputError, match=r"^r2 is not finite"):
            scorer(np.full(12, 1e170))
        # the refused forecast leaves nothing behind for the next one
        assert scorer(np.full(12, 50.0)) == compute_bundle(train, test, np.full(12, 50.0))

    def test_forecast_whose_volume_overflows_is_refused_quietly(self) -> None:
        # each value is finite, but the forecast's absolute sum overflows: gra
        # is -inf as mae is inf, and the bundle refuses r2 first
        rng = np.random.default_rng(31)
        series = 50.0 + rng.normal(0.0, 2.0, 60)
        train, test = series[:48], series[48:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert gra(test, np.full(12, 1e308)) == -math.inf
            with pytest.raises(NonFiniteInputError, match=r"^r2 is not finite: -inf$"):
                compute_bundle(train, test, np.full(12, 1e308))


def separate_formulas(y: np.ndarray, yhat: np.ndarray) -> tuple[float, float, float]:
    """r2, mae and rmse as separate expressions over the pair, each
    recomputing the residuals (the form the fused helper replaced)."""
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2_value = 1.0 - float(np.sum((y - yhat) ** 2)) / ss_tot if ss_tot != 0.0 else math.nan
    return r2_value, float(np.mean(np.abs(y - yhat))), float(np.sqrt(np.mean((y - yhat) ** 2)))


class TestTargetWindow:
    def test_fused_errors_equal_separate_formulas_bitwise(self) -> None:
        rng = np.random.default_rng(17)
        for n in (1, 2, 7, 12, 30):
            for scale in (1e-3, 1.0, 250.0):
                y = rng.normal(50.0, 20.0, n) * scale
                yhat = y + rng.normal(0.0, 5.0, n) * scale - rng.uniform(0.0, 80.0) * scale  # some negative
                window = TargetWindow(y)
                got, want = window.errors(yhat), separate_formulas(y, yhat)
                assert np.array_equal(got, want, equal_nan=True), (n, scale)
                assert (mae(y, yhat), rmse(y, yhat)) == want[1:]
                if n > 1:
                    assert r2(y, yhat) == want[0]
                    bundle = compute_bundle(rng.normal(50.0, 20.0, 10), y, yhat)
                    assert (bundle.r2, bundle.mae, bundle.rmse) == want

    def test_flat_window_gives_nan_r2(self) -> None:
        # 0.1 * 3 is not 0.3 in floating point, so the mean of a constant
        # window can miss its value and leave a round-off sum of squares
        residues = 0
        for value in (4.0, 0.1, 12.3, 33.7, 0.0071):
            for n in (3, 6, 12, 730):
                y = np.full(n, value)
                yhat = y + np.linspace(-1.0, 2.0, n)
                window = TargetWindow(y)
                residues += window.ss_tot != 0.0
                r2_value, mae_value, rmse_value = window.errors(yhat)
                assert math.isnan(r2_value)
                assert (mae_value, rmse_value) == (mae(y, yhat), rmse(y, yhat))
                with pytest.raises(ZeroVarianceError):
                    r2(y, yhat)
                with pytest.raises(ZeroVarianceError):
                    compute_bundle(np.arange(10.0), y, yhat)
        assert residues > 0

    def test_underflowing_window_is_constant(self) -> None:
        # distinct values whose squared deviations underflow: r2 would divide by 0
        window = TargetWindow([1e-200, 2e-200, 3e-200])
        assert window.ss_tot == 0.0 and window.constant
        with pytest.raises(ZeroVarianceError):
            r2([1e-200, 2e-200, 3e-200], [0.0, 0.0, 0.0])

    def test_validation(self) -> None:
        with pytest.raises(EmptyInputError):
            TargetWindow([])
        with pytest.raises(NonFiniteInputError):
            TargetWindow([1.0, math.nan])
        window = TargetWindow([1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatchError):
            window.errors([1.0, 2.0])
        with pytest.raises(NonFiniteInputError):
            window.errors([1.0, math.inf, 3.0])

    def test_far_off_forecast_gives_infinite_errors_quietly(self) -> None:
        # squaring a 1e200 residual overflows; the window says so with an
        # infinite RMSE and no RuntimeWarning, and hef refuses to score it
        y, yhat = [9.0, 10.0, 11.0], [10.0, 1e200, 10.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r2_value, mae_value, rmse_value = TargetWindow(y).errors(yhat)
        assert r2_value == -math.inf and rmse_value == math.inf
        assert mae_value == pytest.approx(1e200 / 3, rel=1e-15)
        with pytest.raises(NonFiniteInputError):
            hef_scorer(y)(yhat, r2_value, mae_value, rmse_value)
