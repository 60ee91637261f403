"""Tolerance bands, penalty arithmetic, composite-score branch semantics,
and the search objective's use of the two scoring functions."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hef_lab.errors import NonFiniteInputError, SeriesTooShortError
from hef_lab.evaluation import (
    coefficient_of_variation,
    hef_score,
    maef_score,
    recommend_mae_tolerance,
    recommend_rmse_tolerance,
)
from hef_lab.metrics import TargetWindow, mae, r2, rmse
from hef_lab.models import create
from hef_lab.protocol import _Objective

# mean 10, population std sigma, so CV = sigma/10 exactly in binary arithmetic


def cv_pair(sigma: float) -> list[float]:
    return [10.0 - sigma, 10.0 + sigma]


# y_train with mean 10 and CV < 0.2: thresholds T_mae = 1.0, T_rmse = 1.5
LOW_CV_TRAIN = [9.0, 10.0, 11.0]


class TestToleranceBands:
    def test_mae_bands(self) -> None:
        assert recommend_mae_tolerance(cv_pair(1.0)) == 0.1
        assert recommend_mae_tolerance(cv_pair(3.0)) == 0.2
        assert recommend_mae_tolerance(cv_pair(6.0)) == 0.3
        assert recommend_mae_tolerance(cv_pair(17.0)) == 0.4

    def test_rmse_bands(self) -> None:
        assert recommend_rmse_tolerance(cv_pair(1.0)) == 0.15
        assert recommend_rmse_tolerance(cv_pair(3.0)) == 0.25
        assert recommend_rmse_tolerance(cv_pair(6.0)) == 0.35
        assert recommend_rmse_tolerance(cv_pair(30.0)) == 0.4

    def test_band_boundaries_are_strict(self) -> None:
        # CV exactly at a boundary falls into the higher band
        assert coefficient_of_variation(cv_pair(2.0)) == 0.2
        assert recommend_mae_tolerance(cv_pair(2.0)) == 0.2
        assert recommend_rmse_tolerance(cv_pair(2.0)) == 0.25
        assert coefficient_of_variation(cv_pair(5.0)) == 0.5
        assert recommend_mae_tolerance(cv_pair(5.0)) == 0.3
        assert coefficient_of_variation(cv_pair(10.0)) == 1.0
        assert recommend_mae_tolerance(cv_pair(10.0)) == 0.4

    def test_negative_mean_uses_absolute_value_for_cv(self) -> None:
        assert coefficient_of_variation([-9.0, -10.0, -11.0]) == pytest.approx(
            coefficient_of_variation([9.0, 10.0, 11.0])
        )

    def test_short_series_rejected(self) -> None:
        with pytest.raises(SeriesTooShortError):
            recommend_mae_tolerance([5.0])


class TestHefScore:
    def test_no_penalty_branch(self) -> None:
        score = hef_score([1.0] * 5, r2=0.9, mae=0.5, rmse=0.8, y_train=LOW_CV_TRAIN)
        assert score == pytest.approx(0.19, abs=1e-12)

    def test_rmse_under_only_branch(self) -> None:
        score = hef_score([1.0] * 5, r2=0.9, mae=1.2, rmse=0.8, y_train=LOW_CV_TRAIN)
        assert score == pytest.approx(0.26 * 1.3, abs=1e-12)

    def test_level4_overwrites_branched_score(self) -> None:
        score = hef_score([1.0, -1.0], r2=0.9, mae=0.5, rmse=0.8, y_train=LOW_CV_TRAIN)
        assert score == pytest.approx(0.19 * 1.8, abs=1e-12)

    def test_all_eight_branches(self) -> None:
        # (mae over?, rmse over?, negative present?) against hand arithmetic
        for mae_val, mae_over in ((0.5, False), (1.2, True)):
            for rmse_val, rmse_over in ((0.8, False), (1.6, True)):
                for negative in (False, True):
                    base = 1.0 * (1.0 - 0.9) + mae_val / 10.0 + 0.5 * rmse_val / 10.0
                    if negative:
                        expected = base * 1.8
                    elif not mae_over and not rmse_over:
                        expected = base
                    elif not mae_over:
                        expected = base * 1.2
                    elif not rmse_over:
                        expected = base * 1.3
                    else:
                        expected = base * 1.5
                    preds = [1.0, -1.0] if negative else [1.0, 1.0]
                    got = hef_score(preds, 0.9, mae_val, rmse_val, LOW_CV_TRAIN)
                    assert got == pytest.approx(expected, abs=1e-12), (mae_over, rmse_over, negative)

    def test_perfect_fit_scores_zero(self) -> None:
        assert hef_score([1.0, 2.0], r2=1.0, mae=0.0, rmse=0.0, y_train=LOW_CV_TRAIN) == 0.0

    def test_monotone_within_branch(self) -> None:
        rng = np.random.default_rng(17)
        for _ in range(50):
            r2_val = float(rng.uniform(0.0, 1.0))
            mae_val = float(rng.uniform(0.01, 0.9))
            rmse_val = float(rng.uniform(mae_val, 1.4))
            score = hef_score([1.0], r2_val, mae_val, rmse_val, LOW_CV_TRAIN)
            assert hef_score([1.0], r2_val + 1e-4, mae_val, rmse_val, LOW_CV_TRAIN) < score
            assert hef_score([1.0], r2_val, mae_val + 1e-4, rmse_val, LOW_CV_TRAIN) > score
            assert hef_score([1.0], r2_val, mae_val, rmse_val + 1e-4, LOW_CV_TRAIN) > score

    def test_near_zero_mean_guard(self) -> None:
        # mean 0 is replaced by 1e-6; the score stays finite
        score = hef_score([1.0], 0.5, 0.1, 0.1, [-1.0, 1.0])
        assert math.isfinite(score)

    def test_negative_mean_normalises_by_its_absolute_value(self) -> None:
        # |mean| 10 and CV < 0.2, as for the mirrored series: thresholds 1.0 and 1.5, no penalty
        got = hef_score([1.0], 0.9, 0.5, 0.8, [-9.0, -10.0, -11.0])
        assert got == hef_score([1.0], 0.9, 0.5, 0.8, [9.0, 10.0, 11.0])
        assert got == pytest.approx(1.0 * (1.0 - 0.9) + 0.5 / 10.0 + 0.5 * 0.8 / 10.0, abs=1e-12)

    def test_negative_mean_prefers_the_smaller_error(self) -> None:
        train = [-9.0, -10.0, -11.0, -10.5, -9.5]
        close = hef_score([-10.0, -10.0], 0.5, 0.1, 0.1, train)
        far = hef_score([-10.0, -10.0], 0.5, 5.0, 6.0, train)
        assert 0.0 < close < far

    def test_non_finite_inputs_error(self) -> None:
        with pytest.raises(NonFiniteInputError):
            hef_score([math.nan], 0.9, 0.5, 0.8, LOW_CV_TRAIN)
        with pytest.raises(NonFiniteInputError):
            hef_score([1.0], math.nan, 0.5, 0.8, LOW_CV_TRAIN)
        with pytest.raises(SeriesTooShortError):
            hef_score([1.0], 0.9, 0.5, 0.8, [10.0])
        # the training series is checked before the predictions and metrics
        with pytest.raises(SeriesTooShortError):
            hef_score([math.nan], math.nan, 0.5, 0.8, [10.0])
        with pytest.raises(NonFiniteInputError, match="predictions"):
            hef_score([math.inf], math.nan, 0.5, 0.8, LOW_CV_TRAIN)


class TestMaef:
    def test_identity(self) -> None:
        assert maef_score(0.0) == 0.0
        assert maef_score(3.14) == 3.14

    def test_order_preservation(self) -> None:
        rng = np.random.default_rng(2)
        vals = sorted(rng.uniform(0, 100, size=20))
        scored = [maef_score(v) for v in vals]
        assert scored == sorted(scored)

    def test_non_finite(self) -> None:
        with pytest.raises(NonFiniteInputError):
            maef_score(math.inf)


class TestInterface:
    """The search objective scores its own fit with ``hef_score`` or ``maef_score``."""

    TRAIN = np.array([40.0, 44.0, 39.0, 47.0, 45.0, 50.0, 48.0, 53.0, 51.0, 55.0, 54.0, 58.0])
    POINT = {"alpha": 0.4}

    @staticmethod
    def objective(condition: str, test: np.ndarray):
        model = create("ses")
        return _Objective(model, TestInterface.TRAIN, TargetWindow(test), condition), model

    def test_objective_matches_functions(self) -> None:
        test = np.array([57.0, 61.0, 60.0])
        hef, model = self.objective("hef", test)
        maef, _ = self.objective("maef", test)
        predicted = model.fit(self.TRAIN, self.POINT).predict(len(test))
        expected_hef = hef_score(
            predicted, r2(test, predicted), mae(test, predicted), rmse(test, predicted), self.TRAIN
        )
        assert hef(self.POINT) == expected_hef
        assert maef(self.POINT) == maef_score(mae(test, predicted))

    def test_flat_test_window(self) -> None:
        # r2 is undefined on a constant test window, also where its mean
        # misses its value by round-off: hef cannot score, maef can
        for value in (60.0, 0.1, 12.3, 33.7, 0.0071):
            for n in (3, 12, 730):
                test = np.full(n, value)
                hef, model = self.objective("hef", test)
                maef, _ = self.objective("maef", test)
                with pytest.raises(NonFiniteInputError):
                    hef(self.POINT)
                predicted = model.fit(self.TRAIN, self.POINT).predict(n)
                assert maef(self.POINT) == maef_score(mae(test, predicted))


class _Replay:
    """A model whose check passes its data through and whose fit ignores it
    and forecasts ``forecasts[point["i"]]``."""

    def __init__(self, forecasts: list[np.ndarray]) -> None:
        self.forecasts = forecasts

    def check(self, train):
        return train

    def fit(self, train, point):
        forecast = self.forecasts[point["i"]]
        return SimpleNamespace(predict=lambda horizon: forecast[:horizon])


class TestHoistedScoring:
    """The objective builds its test window and hef thresholds once; every
    score still equals the public functions' value, bit for bit."""

    def test_objective_equals_public_scores(self) -> None:
        rng = np.random.default_rng(23)
        bands, branches = set(), set()
        for cv in (0.1, 0.35, 0.7, 1.5):  # one training series in each tolerance band
            noise = rng.normal(0.0, 1.0, 40)
            train = 10.0 + cv * 10.0 * (noise - noise.mean()) / noise.std()
            bands.add(recommend_mae_tolerance(train))
            thresholds = (recommend_mae_tolerance(train) * 10.0, recommend_rmse_tolerance(train) * 10.0)
            for test in (rng.normal(10.0, 3.0, 8), np.full(8, 10.0)):
                forecasts = [test + rng.normal(0.0, s, 8) for s in (0.1, 0.5, 1.0, 3.0, 12.0) for _ in range(4)]
                for miss in (3.0, 6.0, 12.0, 30.0):  # one large error: MAE can pass while RMSE fails
                    forecasts.append(test + np.where(np.arange(8) == 7, miss, 0.01))
                model = _Replay(forecasts)
                hef = _Objective(model, train, TargetWindow(test), "hef")
                maef = _Objective(model, train, TargetWindow(test), "maef")
                points = [{"i": i} for i in range(len(forecasts))]
                # the batch form scores each point as the call does, NaN where the call raises
                assert maef.batch(points).tolist() == [maef(point) for point in points]
                if np.ptp(test) == 0.0:  # flat window: r2 undefined, hef cannot score
                    assert np.isnan(hef.batch(points)).all()
                else:
                    assert hef.batch(points).tolist() == [hef(point) for point in points]
                for i, predicted in enumerate(forecasts):
                    point = {"i": i}
                    assert maef(point) == maef_score(mae(test, predicted))
                    if np.ptp(test) == 0.0:  # flat window: r2 undefined, hef cannot score
                        with pytest.raises(NonFiniteInputError):
                            hef(point)
                        continue
                    expected = hef_score(
                        predicted, r2(test, predicted), mae(test, predicted), rmse(test, predicted), train
                    )
                    assert hef(point) == expected
                    errors = (mae(test, predicted), rmse(test, predicted))
                    branches.add(tuple(e < t for e, t in zip(errors, thresholds)) + (bool((predicted < 0).any()),))
        assert bands == {0.1, 0.2, 0.3, 0.4}
        assert {b[:2] for b in branches} == {(True, True), (True, False), (False, True), (False, False)}
        assert any(b[2] for b in branches)  # negative predictions: the level-4 overwrite


class TestRankingFlip:
    def test_extreme_error_model_flips_between_objectives(self) -> None:
        """Model A: tiny errors except one large spike (good MAE, bad RMSE).
        Model B: uniform modest errors. MAEF must prefer A, the composite B."""
        y_train = LOW_CV_TRAIN  # mean 10 -> T_mae = 1.0, T_rmse = 1.5
        y_test = np.array([8.0, 9.0, 10.0, 11.0, 12.0] * 2)
        pred_a = y_test.copy()
        pred_a[-1] += 9.0  # one extreme miss
        pred_b = y_test + 0.95  # uniformly mediocre

        mae_a, rmse_a, r2_a = mae(y_test, pred_a), rmse(y_test, pred_a), r2(y_test, pred_a)
        mae_b, rmse_b, r2_b = mae(y_test, pred_b), rmse(y_test, pred_b), r2(y_test, pred_b)

        assert mae_a < mae_b  # A wins under plain MAE
        assert rmse_a > 1.5  # A trips the RMSE tolerance
        assert rmse_b < 1.5

        maef_a, maef_b = maef_score(mae_a), maef_score(mae_b)
        hef_a = hef_score(pred_a, r2_a, mae_a, rmse_a, y_train)
        hef_b = hef_score(pred_b, r2_b, mae_b, rmse_b, y_train)

        assert maef_a < maef_b
        assert hef_b < hef_a
