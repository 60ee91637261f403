"""The solver, scoring and CSV-scanning hot loops against frozen copies of
their earlier forms.

Each ``_reference_*`` function below is the code as it stood before its
per-element or per-call overhead was taken out, copied verbatim. The
rewrites do the same floating-point operations in the same order, so every
comparison here is exact: ``np.array_equal``, ``==`` or ``repr``, never a
tolerance; on bad input they raise the same error with the same message.
``_as_pair`` is a verbatim copy of the helper the scoring references call.
One difference is deliberate: r2 is undefined on every constant test window,
also where the reference divided by the round-off left in its sum of squares.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from hef_lab.errors import (
    FlatTrainingSeriesError,
    HefLabError,
    InvalidParameterError,
    NonConvergenceError,
    SeriesTooShortError,
    ZeroTotalVolumeError,
    ZeroVarianceError,
)
from hef_lab.metrics import (
    BundleScorer,
    TargetWindow,
    _as_vector,
    _matching,
    compute_bundle,
    gra,
    mae,
    mase,
    r2,
    rmse,
    rmsse,
)
from hef_lab.models import create
from hef_lab.models.linear import _median, _solve_normal_equations, coordinate_descent_enet
from hef_lab.models.tree import _best_split
from hef_lab.optimizers import _CategoricalParzen, _NumericParzen
from hef_lab.series import _HEADER, Frequency, Issue, TimeSeries, scan_dataset_csv
from hef_lab.spaces import GridDomain, IntervalDomain


def _reference_enet(X, y, alpha, l1_ratio, max_iter=10_000, tol=1e-10):
    n, p = X.shape
    beta = np.zeros(p)
    col_sq = (X**2).mean(axis=0)
    denom = col_sq + alpha * (1.0 - l1_ratio)
    threshold = alpha * l1_ratio
    residual = y.copy()
    for _ in range(max_iter):
        max_delta = 0.0
        for j in range(p):
            if denom[j] == 0.0:
                continue
            rho = float(X[:, j] @ residual) / n + col_sq[j] * beta[j]
            new = float(np.sign(rho) * max(abs(rho) - threshold, 0.0)) / denom[j]
            delta = new - beta[j]
            if delta != 0.0:
                residual -= X[:, j] * delta
                beta[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            return beta
    raise NonConvergenceError("coordinate descent hit its iteration cap")


def _reference_huber(Xs, yc, epsilon, alpha, max_iter=200):
    n, p = Xs.shape
    eye = np.eye(p)
    beta = _solve_normal_equations(Xs.T @ Xs / n + alpha * eye, Xs.T @ yc / n)
    scale_floor = 1e-12 * (1.0 + float(np.std(yc)))
    for _ in range(max_iter):
        residual = yc - Xs @ beta
        med = float(np.median(residual))
        sigma = float(np.median(np.abs(residual - med))) / 0.6745
        if sigma < scale_floor:
            return beta
        u = np.abs(residual) / sigma
        w = np.where(u <= epsilon, 1.0, epsilon / u)
        A = (Xs * w[:, None]).T @ Xs / n + alpha * eye
        b = (Xs * w[:, None]).T @ yc / n
        new = _solve_normal_equations(A, b)
        if float(np.max(np.abs(new - beta))) < 1e-10 * (1.0 + float(np.max(np.abs(beta)))):
            return new
        beta = new
    raise NonConvergenceError("huber IRLS hit its iteration cap")


def _reference_numeric_log_density(est: _NumericParzen, value) -> float:
    z = (est.domain.encode(value) - est.centers) / est.bandwidth
    kernel = np.exp(-0.5 * z * z) / (est.bandwidth * math.sqrt(2.0 * math.pi))
    density = (kernel.sum() + 1.0 / est.width) / (len(est.centers) + 1)
    return math.log(max(density, 1e-300))


def _reference_numeric_sample(est: _NumericParzen, rng) -> float | int:
    pick = int(rng.integers(len(est.centers) + 1))
    if pick == len(est.centers):
        internal = rng.uniform(est.lower, est.upper)
    else:
        internal = np.clip(rng.normal(est.centers[pick], est.bandwidth), est.lower, est.upper)
    return est.domain.decode(float(internal))


def _reference_categorical_log_density(est: _CategoricalParzen, value) -> float:
    return math.log(float(est.probs[est.values.index(value)]))


def _reference_best_split(X, y):
    n, p = X.shape
    best_cost = math.inf
    best = None
    total = float(y @ y)
    for j in range(p):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys**2)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sse_left = s2[i] - s1[i] ** 2 / nl
            sse_right = (s2[-1] - s2[i]) - (s1[-1] - s1[i]) ** 2 / nr
            cost = sse_left + sse_right
            if cost < best_cost - 1e-12 * max(total, 1.0):
                best_cost = cost
                best = (j, float((xs[i] + xs[i + 1]) / 2.0))
    return best


def _reference_ses_level(y, alpha):
    level = y[0]
    for value in y[1:]:
        level = alpha * value + (1.0 - alpha) * level
    return level


def _reference_scan_dataset_csv(path: str | Path) -> tuple[list[TimeSeries], list[Issue]]:
    """Parse a long-format CSV, collecting every schema violation found.

    Returns the series that parsed cleanly and the list of issues; a clean
    file yields an empty issue list.
    """
    path = Path(path)
    issues: list[Issue] = []
    rows_by_series: dict[str, list[tuple[int, int, float]]] = {}
    freq_by_series: dict[str, str] = {}
    finished: set[str] = set()
    current: str | None = None

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return [], [Issue(line=1, series_id=None, message="file is empty")]
        if tuple(h.strip() for h in header) != _HEADER:
            return [], [
                Issue(
                    line=1,
                    series_id=None,
                    message=f"bad header {header!r}; expected {','.join(_HEADER)}",
                )
            ]
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                issues.append(Issue(lineno, None, f"expected 4 columns, got {len(row)}"))
                continue
            sid, freq, t_raw, v_raw = (c.strip() for c in row)
            if not sid:
                issues.append(Issue(lineno, None, "empty series_id"))
                continue
            if sid != current:
                if sid in finished:
                    issues.append(Issue(lineno, sid, "rows for this series are not contiguous"))
                    continue
                if current is not None:
                    finished.add(current)
                current = sid
            try:
                t = int(t_raw)
            except ValueError:
                issues.append(Issue(lineno, sid, f"t is not an integer: {t_raw!r}"))
                continue
            try:
                value = float(v_raw)
            except ValueError:
                issues.append(Issue(lineno, sid, f"value is not numeric: {v_raw!r}"))
                continue
            if not math.isfinite(value):
                issues.append(Issue(lineno, sid, f"value is not finite: {v_raw!r}"))
                continue
            try:
                Frequency.parse(freq)
            except InvalidParameterError:
                issues.append(Issue(lineno, sid, f"unknown frequency: {freq!r}"))
                continue
            prior = freq_by_series.setdefault(sid, freq.lower())
            if prior != freq.lower():
                issues.append(
                    Issue(lineno, sid, f"frequency changed within series: {prior!r} -> {freq!r}")
                )
                continue
            rows_by_series.setdefault(sid, []).append((lineno, t, value))

    series: list[TimeSeries] = []
    for sid, rows in rows_by_series.items():
        bad = False
        expected = 1
        for lineno, t, _ in rows:
            if t != expected:
                kind = "gap" if t > expected else "out-of-order or duplicate t"
                issues.append(Issue(lineno, sid, f"{kind} in t: expected {expected}, got {t}"))
                bad = True
                break
            expected += 1
        if not bad:
            series.append(
                TimeSeries(
                    id=sid,
                    frequency=Frequency.parse(freq_by_series[sid]),
                    values=[v for _, _, v in rows],
                )
            )
    return series, issues


def _as_pair(actual: Sequence[float], predicted: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(actual, "actual")
    return y, _matching(y, predicted)


class _ReferenceWindow:
    def __init__(self, actual) -> None:
        self.actual = _as_vector(actual, "actual")
        self.ss_tot = float(np.sum((self.actual - self.actual.mean()) ** 2))

    def errors(self, predicted):
        yhat = _matching(self.actual, predicted)
        with np.errstate(over="ignore"):  # a far-off forecast gets infinite errors, which scoring refuses
            e = self.actual - yhat
            squared = e**2
            r2_value = 1.0 - float(np.sum(squared)) / self.ss_tot if self.ss_tot != 0.0 else math.nan
            return r2_value, float(np.mean(np.abs(e))), float(np.sqrt(np.mean(squared)))


def _reference_defined_errors(actual, predicted):
    window = _ReferenceWindow(actual)
    errors = window.errors(predicted)
    if window.ss_tot == 0.0:
        raise ZeroVarianceError("actual values are constant; r2 is undefined")
    return errors


def _reference_gra(actual, predicted):
    y, yhat = _as_pair(actual, predicted)
    total = float(np.sum(np.abs(y)))
    if total == 0.0:
        raise ZeroTotalVolumeError("actual values have zero total absolute volume")
    return 1.0 - abs(float(np.sum(np.abs(yhat))) - total) / total


def _reference_scaled_error(train, actual_test, predicted_test, *, squared):
    tr = _as_vector(train, "train")
    if tr.size < 2:
        raise SeriesTooShortError("train needs at least 2 observations")
    y, yhat = _as_pair(actual_test, predicted_test)
    magnitude = np.square if squared else np.abs
    denom = float(np.mean(magnitude(np.diff(tr))))
    if denom == 0.0:
        raise FlatTrainingSeriesError("training series has no variation; naive error is zero")
    return np.mean(magnitude(y - yhat)) / denom


def _reference_rmsse(train, actual_test, predicted_test):
    return float(np.sqrt(_reference_scaled_error(train, actual_test, predicted_test, squared=True)))


def _reference_mase(train, actual_test, predicted_test):
    return float(_reference_scaled_error(train, actual_test, predicted_test, squared=False))


def _reference_bundle(train, actual_test, predicted_test, exec_time=0.0) -> dict:
    r2_value, mae_value, rmse_value = _reference_defined_errors(actual_test, predicted_test)
    return dict(
        r2=r2_value,
        mae=mae_value,
        rmse=rmse_value,
        gra=_reference_gra(actual_test, predicted_test),
        rmsse=float(np.sqrt(_reference_scaled_error(train, actual_test, predicted_test, squared=True))),
        mase=float(_reference_scaled_error(train, actual_test, predicted_test, squared=False)),
        exec_time=exec_time,
    )


def _bundle(*args) -> dict:
    return compute_bundle(*args).as_dict()


def _outcome(fn, *args) -> str:
    """``repr`` of what ``fn(*args)`` returns, or the type and message of the
    ``HefLabError`` it raises."""
    try:
        return repr(fn(*args))
    except HefLabError as exc:
        return f"{type(exc).__name__}: {exc}"


def _window(rng, n: int, kind: str) -> np.ndarray:
    """A demand-like window of ``n`` values at a random scale from 1e-3 to 1e6."""
    scale = 10.0 ** rng.uniform(-3.0, 6.0)
    if kind == "constant":
        return np.full(n, round(rng.uniform(0.0, 100.0), 1) * scale)
    values = scale * (50.0 + 0.2 * np.arange(n) + rng.normal(0.0, 8.0, n))
    if kind == "negative":
        return -values
    if kind == "spiky":
        values = scale * rng.exponential(1.0, n)
        values[rng.random(n) < 0.05] *= 40.0
        values[rng.random(n) < 0.5] = 0.0
    return values


def _forecasts(rng, actual: np.ndarray) -> list[np.ndarray]:
    """Forecasts of ``actual``: flat at its first or mean value, near it, all
    zero, negative, and far off."""
    n = actual.size
    spread = float(np.abs(actual).max()) or 1.0
    return [
        np.full(n, actual[0]),
        np.full(n, actual.mean()),
        actual + rng.normal(0.0, 0.1 * spread, n),
        np.zeros(n),
        -np.abs(actual) - 1.0,
        actual.copy(),
        np.full(n, 1e6 * spread),
    ]


def _bad_forecasts() -> list:
    return [
        np.array([1.0, np.nan, 2.0]),
        np.array([1.0, 2.0, np.inf]),
        np.array([1.0, 2.0]),
        [],
        np.ones((3, 1)),
    ]


WINDOW_KINDS = ("level", "negative", "spiky", "constant")
LENGTHS = (1, 2, 3, 4, 7, 12, 13, 36, 48, 60, 146, 365, 584, 729, 730)


def _standardized(X: np.ndarray) -> np.ndarray:
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return (X - X.mean(axis=0)) / scale


def _designs(seed: int):
    """Lag-matrix-shaped designs (36 x 12): independent columns, nearly
    collinear columns, and a constant column."""
    rng = np.random.default_rng(seed)
    n, p = 36, 12
    independent = rng.normal(size=(n, p))
    base = rng.normal(size=n)
    collinear = base[:, None] + rng.normal(0.0, 0.3, (n, p))
    constant = rng.normal(size=(n, p))
    constant[:, 3] = 7.0
    for X in (independent, collinear, constant):
        Xs = _standardized(X)
        y = Xs @ rng.normal(size=p) + rng.normal(0.0, 0.5, n)
        y[rng.integers(n)] += 15.0  # one outlier, for the Huber weights
        yield Xs, y - y.mean()


class TestMedian:
    @pytest.mark.parametrize(
        "values",
        [
            [3.0],
            [2.0, -1.0],
            [5.0, 1.0, 4.0],
            [1.0, 1.0, 2.0, 2.0],
            [0.5, 0.5, 0.5, 0.5, 0.5],
            [0.1, 0.2, 0.7, 0.3, 0.7, 0.1],
            [1e308, 1e308, -1.0],
        ],
    )
    def test_equals_np_median(self, values) -> None:
        arr = np.array(values)
        expected = float(np.median(arr))
        assert _median(arr) == expected and math.copysign(1.0, _median(arr)) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("n", [35, 36])
    def test_random_odd_and_even_lengths(self, n) -> None:
        rng = np.random.default_rng(n)
        for _ in range(200):
            arr = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6)
            arr[rng.integers(n, size=3)] = arr[0]  # ties
            assert _median(arr) == float(np.median(arr))

    @pytest.mark.parametrize("n", [5, 6])
    def test_nan_gives_nan(self, n) -> None:
        arr = np.arange(float(n))
        arr[2] = math.nan
        assert math.isnan(_median(arr)) and math.isnan(np.median(arr))


class TestCoordinateDescent:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("alpha, l1_ratio", [(1e-4, 1.0), (0.01, 1.0), (0.05, 0.5), (0.3, 0.1), (2.0, 0.0)])
    def test_equals_reference(self, seed, alpha, l1_ratio) -> None:
        for Xs, yc in _designs(seed):  # the collinear designs take hundreds of sweeps
            expected = _reference_enet(Xs, yc, alpha, l1_ratio)
            assert np.array_equal(coordinate_descent_enet(Xs, yc, alpha, l1_ratio), expected)

    def test_cap_reached_alike(self) -> None:
        Xs, yc = list(_designs(3))[1]  # nearly collinear
        with pytest.raises(NonConvergenceError):
            _reference_enet(Xs, yc, 1e-4, 0.5, max_iter=3)
        with pytest.raises(NonConvergenceError):
            coordinate_descent_enet(Xs, yc, 1e-4, 0.5, max_iter=3)


class TestHuber:
    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("epsilon, alpha", [(1.0, 1e-4), (1.35, 0.01), (2.0, 1.0)])
    def test_equals_reference(self, seed, epsilon, alpha) -> None:
        model = create("hr")
        for Xs, yc in _designs(seed):
            expected = _reference_huber(Xs, yc, epsilon, alpha)
            assert np.array_equal(model._solve(Xs, yc, {"epsilon": epsilon, "alpha": alpha}), expected)


class TestParzenLogDensities:
    @pytest.mark.parametrize(
        "domain",
        [
            IntervalDomain(1e-4, 10.0, scale="log"),
            IntervalDomain(0.0, 1.0),
            IntervalDomain(1, 40, integer=True),
            IntervalDomain(1, 1000, scale="log", integer=True),
        ],
        ids=["log", "linear", "integer", "log-integer"],
    )
    @pytest.mark.parametrize("n_observed", [1, 3, 9, 40, 200])
    def test_numeric_equals_scalar_formula(self, domain, n_observed) -> None:
        rng = np.random.default_rng(n_observed)
        for factor in (1.06, 0.3):
            observed = [domain.decode(rng.uniform(*domain.internal_bounds())) for _ in range(n_observed)]
            est = _NumericParzen.fit(observed, domain, factor)
            values = [est.sample(rng) for _ in range(24)] + [domain.lower, domain.upper]
            expected = [_reference_numeric_log_density(est, v) for v in values]
            assert est.log_densities(values) == expected

    def test_far_values_hit_the_floor_alike(self) -> None:
        domain = IntervalDomain(0.0, 1e6)
        est = _NumericParzen(domain, np.array([0.0, 1.0]), 1e-3, 0.0, 1e-300)
        values = [5e5, 1e6, 0.5]
        assert est.log_densities(values) == [_reference_numeric_log_density(est, v) for v in values]

    @pytest.mark.parametrize("grid", [(1, 2, 3, 4), (2, 4, 8, None), ("a", "b")])
    def test_categorical_equals_scalar_formula(self, grid) -> None:
        domain = GridDomain(grid)
        est = _CategoricalParzen.fit([grid[0], grid[-1], grid[0]], domain)
        values = list(grid) * 3
        assert est.log_densities(values) == [_reference_categorical_log_density(est, v) for v in values]


class _FixedDraw:
    """A generator stand-in: always the first center, whose draw is ``value``."""

    def __init__(self, value: float) -> None:
        self.value = value

    def integers(self, high: int) -> int:
        return 0

    def normal(self, loc: float, scale: float) -> float:
        return self.value


class TestParzenSample:
    @pytest.mark.parametrize(
        "domain",
        [
            IntervalDomain(1e-4, 10.0, scale="log"),
            IntervalDomain(0.0, 1.0),
            IntervalDomain(1, 40, integer=True),
        ],
        ids=["log", "linear", "integer"],
    )
    def test_equals_reference_draw_for_draw(self, domain) -> None:
        lower, upper = domain.internal_bounds()
        observed = [domain.decode(v) for v in np.linspace(lower, upper, 7)]  # centers on the bounds too
        est = _NumericParzen.fit(observed, domain, factor=3.0)  # wide kernels: many draws land outside
        rng, reference_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(2000):
            assert repr(est.sample(rng)) == repr(_reference_numeric_sample(est, reference_rng))
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("lower, upper", [(-0.0, 0.5), (0.0, 0.5), (-0.5, -0.0), (-0.5, 0.0)])
    @pytest.mark.parametrize("draw", [-0.0, 0.0, -0.5, 0.5, -0.75, 0.75, 1e-300, -1e-300, math.nan])
    def test_clamp_equals_np_clip_on_ties_and_signed_zeros(self, lower, upper, draw) -> None:
        est = _NumericParzen(IntervalDomain(-1.0, 1.0), np.array([0.0]), 1.0, lower, upper)
        got = est.sample(_FixedDraw(draw))
        assert repr(got) == repr(_reference_numeric_sample(est, _FixedDraw(draw)))


class TestBestSplit:
    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_x_values(self, seed) -> None:
        rng = np.random.default_rng(seed)
        for n in (2, 3, 7, 36):
            X = rng.integers(0, 4, size=(n, 5)).astype(float)  # many repeated values
            y = rng.normal(size=n)
            assert _best_split(X, y) == _reference_best_split(X, y)

    def test_tied_costs_keep_the_first_feature_and_position(self) -> None:
        X = np.column_stack([np.arange(8.0), np.arange(8.0), np.arange(8.0)[::-1]])
        y = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        assert _best_split(X, y) == _reference_best_split(X, y) == (0, 3.5)
        y_sym = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])  # symmetric: mirror splits tie
        assert _best_split(X, y_sym) == _reference_best_split(X, y_sym)

    def test_constant_columns_give_no_split(self) -> None:
        X = np.ones((6, 3))
        y = np.arange(6.0)
        assert _best_split(X, y) is None and _reference_best_split(X, y) is None

    def test_lag_matrices(self) -> None:
        rng = np.random.default_rng(9)
        series = np.round(50.0 + 10.0 * np.sin(np.arange(60) / 2.0) + rng.normal(0.0, 3.0, 60))
        X = np.lib.stride_tricks.sliding_window_view(series[:-1], 12)
        y = series[12:]
        assert _best_split(X, y) == _reference_best_split(X, y)
        for mask in (X[:, 0] <= 50.0, X[:, 5] > 45.0):
            assert _best_split(X[mask], y[mask]) == _reference_best_split(X[mask], y[mask])


class TestSesLevel:
    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_equals_reference(self, kind) -> None:
        rng = np.random.default_rng(len(kind))
        model = create("ses")
        for n in (*LENGTHS[2:], *rng.integers(3, 731, size=20)):
            y = _window(rng, int(n), kind)
            for alpha in (0.0, 0.01, 0.2, rng.uniform(), 0.99, 1.0):
                expected = _reference_ses_level(y, alpha)
                assert repr(model.fit(y, {"alpha": alpha}).level) == repr(float(expected))


def _bundle_cases(kind: str):
    """Seeded (train, actual, forecast) triples of one window kind."""
    rng = np.random.default_rng(20 + len(kind))
    for n in (*LENGTHS, *rng.integers(1, 731, size=12)):
        train = _window(rng, int(rng.integers(2, 731)), rng.choice(WINDOW_KINDS[:3]))
        actual = _window(rng, int(n), kind)
        for predicted in _forecasts(rng, actual):
            yield train, actual, predicted


def _bad_cases():
    """Every train, actual and forecast from a matrix of good, flat, short,
    non-finite, empty and two-dimensional inputs."""
    good_train, flat_train = np.array([1.0, 4.0, 2.0, 6.0]), np.full(4, 3.0)
    good_test, flat_test = np.array([5.0, 7.0, 6.0]), np.full(3, 5.0)
    trains = [good_train, flat_train, np.array([2.0]), np.array([1.0, np.nan]), np.ones((2, 2)), []]
    tests = [good_test, flat_test, np.zeros(3), np.array([5.0, np.inf, 1.0]), [], np.ones((3, 1))]
    for train in trains:
        for actual in tests:
            for predicted in [np.array([5.5, 6.0, 6.5]), *_bad_forecasts()]:
                yield train, actual, predicted


CONSTANT_WINDOW = "ZeroVarianceError: actual values are constant; r2 is undefined"


class TestTargetWindow:
    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_errors_and_mae_equal_reference(self, kind) -> None:
        rng = np.random.default_rng(10 + len(kind))
        for n in (*LENGTHS, *rng.integers(1, 731, size=20)):
            actual = _window(rng, int(n), kind)
            window, reference = TargetWindow(actual), _ReferenceWindow(actual)
            for predicted in _forecasts(rng, actual):
                got, expected = window.errors(predicted), reference.errors(predicted)
                if kind == "constant":  # r2 is NaN on every constant window, not only where ss_tot is 0
                    assert math.isnan(got[0])
                    got, expected = got[1:], expected[1:]
                assert repr(got) == repr(expected)

    def test_bad_forecasts_raise_alike(self) -> None:
        actual = np.array([3.0, 5.0, 4.0])
        window, reference = TargetWindow(actual), _ReferenceWindow(actual)
        for predicted in _bad_forecasts():
            expected = _outcome(reference.errors, predicted)
            assert "Error: " in expected
            assert _outcome(window.errors, predicted) == expected


def _five(train, actual, predicted) -> tuple:
    """The bundle's metrics besides r2, each from its public function."""
    return (
        *TargetWindow(actual).errors(predicted)[1:],
        gra(actual, predicted),
        rmsse(train, actual, predicted),
        mase(train, actual, predicted),
    )


def _reference_five(train, actual, predicted) -> tuple:
    return (
        *_ReferenceWindow(actual).errors(predicted)[1:],
        _reference_gra(actual, predicted),
        _reference_rmsse(train, actual, predicted),
        _reference_mase(train, actual, predicted),
    )


class TestComputeBundle:
    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_equals_reference(self, kind) -> None:
        residue = 0  # constant windows whose ss_tot is round-off, not 0
        for train, actual, predicted in _bundle_cases(kind):
            expected = _outcome(_reference_bundle, train, actual, predicted, 0.25)
            got = _outcome(_bundle, train, actual, predicted, 0.25)
            if kind != "constant":
                assert got == expected
                continue
            # r2 is undefined on every constant window, where the reference
            # divided by the round-off left in ss_tot; the other five
            # metrics keep their bits
            assert got == CONSTANT_WINDOW
            residue += expected != CONSTANT_WINDOW
            assert _outcome(_five, train, actual, predicted) == _outcome(_reference_five, train, actual, predicted)
        assert kind != "constant" or residue > 0

    def test_bad_inputs_raise_alike_and_in_order(self) -> None:
        for train, actual, predicted in _bad_cases():
            expected = _outcome(_reference_bundle, train, actual, predicted)
            got = _outcome(_bundle, train, actual, predicted)
            assert got == expected, (train, actual, predicted)


def _public_and_reference(train, actual, predicted) -> list[tuple[str, str]]:
    """The outcome of ``gra``, ``rmsse`` and ``mase`` on one case, each
    paired with the outcome of its frozen form."""
    return [
        (_outcome(gra, actual, predicted), _outcome(_reference_gra, actual, predicted)),
        (_outcome(rmsse, train, actual, predicted), _outcome(_reference_rmsse, train, actual, predicted)),
        (_outcome(mase, train, actual, predicted), _outcome(_reference_mase, train, actual, predicted)),
    ]


class TestPublicMetrics:
    """``gra``, ``rmsse`` and ``mase`` against their frozen forms, and every
    field of ``BundleScorer`` against its public function."""

    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    def test_equal_reference(self, kind) -> None:
        scored = 0
        for case in _bundle_cases(kind):
            for got, expected in _public_and_reference(*case):
                scored += "Error: " not in expected
                assert got == expected
        assert scored > 0

    def test_bad_inputs_raise_alike_and_in_order(self) -> None:
        for case in _bad_cases():
            for got, expected in _public_and_reference(*case):
                assert got == expected, case

    @pytest.mark.parametrize("kind", WINDOW_KINDS[:3])
    def test_bundle_scorer_fields_equal_public_functions(self, kind) -> None:
        scored = 0
        for train, actual, predicted in _bundle_cases(kind):
            try:
                bundle = BundleScorer(train, actual)(predicted, 0.25)
            except HefLabError:  # a one-point or all-zero window
                continue
            scored += 1
            public = dict(
                r2=r2(actual, predicted),
                mae=mae(actual, predicted),
                rmse=rmse(actual, predicted),
                gra=gra(actual, predicted),
                rmsse=rmsse(train, actual, predicted),
                mase=mase(train, actual, predicted),
                exec_time=0.25,
            )
            assert repr(bundle.as_dict()) == repr(public)
        assert scored > 0


_HEADERS = ("series_id,frequency,t,value", " series_id , frequency,t,value", "series_id,frequency,t", "id,freq,t,v")
_SERIES_IDS = ("a", "b", "c", " d ", "e", "")
_LABELS = ("monthly", "weekly", "daily", "Monthly", " DAILY ", "hourly", "")
_BAD_TS = ("x", "1.5", "", " 2 ")
_BAD_VALUES = ("oops", "inf", "-inf", "nan", "1e400", "", "1,5")
_FINDINGS = (
    "file is empty",
    "bad header",
    "expected 4 columns",
    "empty series_id",
    "rows for this series are not contiguous",
    "t is not an integer",
    "value is not numeric",
    "value is not finite",
    "unknown frequency",
    "frequency changed within series",
    "gap in t",
    "out-of-order or duplicate t in t",
)


def _malformed_csv(rng) -> bytes:
    """A long-format CSV whose rows carry every kind of finding at random: a
    series resumed after another, a changed or unknown label, a skipped or
    repeated ``t``, bad cells, a wrong column count, blank lines. A few files
    are empty or have a bad header. Fields are short ASCII."""
    roll = rng.random()
    if roll < 0.01:
        return b""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\r\n" if rng.random() < 0.2 else "\n")
    text.write(_HEADERS[0 if roll < 0.9 else rng.integers(1, len(_HEADERS))] + "\n")
    for _ in range(rng.integers(1, 7)):
        sid = str(rng.choice(_SERIES_IDS, p=[0.25, 0.2, 0.2, 0.15, 0.15, 0.05]))
        label = str(rng.choice(_LABELS, p=[0.4, 0.2, 0.2, 0.05, 0.05, 0.05, 0.05]))
        t = 1
        for _ in range(rng.integers(0, 13)):
            r = rng.random(5)
            t += 1 if r[0] < 0.88 else 2 if r[0] < 0.94 else 0
            row = [sid, label, str(t - 1), repr(float(rng.normal(50.0, 20.0)))]
            if r[1] < 0.04:
                row[1] = str(rng.choice(_LABELS))
            if r[2] < 0.05:
                row[2] = str(rng.choice(_BAD_TS))
            if r[3] < 0.06:
                row[3] = str(rng.choice(_BAD_VALUES))
            if r[4] < 0.03:
                row = row[:3] if r[4] < 0.015 else row + ["extra"]
            writer.writerow(row)
            if rng.random() < 0.02:
                text.write("\n")
    return text.getvalue().encode()


class TestScanDatasetCsv:
    def test_equals_reference_on_seeded_malformed_files(self, tmp_path) -> None:
        path = tmp_path / "data.csv"
        rng = np.random.default_rng(16)
        messages: set[str] = set()
        parsed = 0
        for _ in range(1_200):
            path.write_bytes(_malformed_csv(rng))
            series, issues = scan_dataset_csv(path)
            ref_series, ref_issues = _reference_scan_dataset_csv(path)
            assert issues == ref_issues
            assert [(s.id, s.frequency, s.values.tobytes()) for s in series] == [
                (s.id, s.frequency, s.values.tobytes()) for s in ref_series
            ]
            messages.update(issue.message for issue in issues)
            parsed += len(series)
        assert {f for f in _FINDINGS if any(m.startswith(f) for m in messages)} == set(_FINDINGS)
        assert parsed > 500
