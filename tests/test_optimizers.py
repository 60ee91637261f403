"""Optimizer correctness: brute-force agreement, budgets, determinism."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hef_lab.errors import (
    EmptySpaceError,
    GridTooLargeError,
    InsufficientDataError,
    InvalidParameterError,
)
from hef_lab.optimizers import (
    PsoConfig,
    TpeConfig,
    grid_search,
    pso_minimize,
    tpe_minimize,
)
from hef_lab.spaces import GridDomain, HyperparameterSpace, IntervalDomain


def table_objective(seed: int):
    """A deterministic pseudo-random score per point, for brute-force checks."""

    def fn(point):
        h = hash((seed,) + tuple(sorted(point.items())))
        return (h % 100003) / 100003.0

    return fn


class Recording:
    """An objective that records the points it is called with, in order."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.points: list[dict] = []
        self.scores: list[float] = []

    def __call__(self, point):
        self.points.append(dict(point))
        score = self.fn(point)
        self.scores.append(score)
        return score


class TestGridSearch:
    def test_single_point(self) -> None:
        space = HyperparameterSpace({"a": GridDomain((3,))})
        result = grid_search(space, lambda p: 42.0)
        assert result.best_point == {"a": 3} and result.best_score == 42.0

    def test_empty_space_is_one_evaluation(self) -> None:
        result = grid_search(HyperparameterSpace({}), lambda p: 1.5)
        assert result.best_point == {} and result.evals == 1

    def test_matches_brute_force(self) -> None:
        space = HyperparameterSpace(
            {
                "a": GridDomain((0, 1, 2, 3)),
                "b": GridDomain(("x", "y", "z")),
                "c": GridDomain((0.5, 1.5)),
            }
        )
        for seed in range(30):
            objective = table_objective(seed)
            result = grid_search(space, objective)
            brute = min(
                objective({"a": a, "b": b, "c": c})
                for a, b, c in itertools.product((0, 1, 2, 3), ("x", "y", "z"), (0.5, 1.5))
            )
            assert result.best_score == brute
            assert result.evals == space.grid_size() and result.failed_evals == 0

    def test_tie_breaks_to_first_declared(self) -> None:
        space = HyperparameterSpace({"a": GridDomain((1, 2, 3, 4))})
        result = grid_search(space, lambda p: 0.0 if p["a"] in (2, 4) else 1.0)
        assert result.best_point == {"a": 2}

    def test_cap(self) -> None:
        space = HyperparameterSpace({"a": GridDomain(tuple(range(100)))})
        with pytest.raises(GridTooLargeError):
            grid_search(space, lambda p: 0.0, cap=99)

    def test_requires_finite_domains(self) -> None:
        space = HyperparameterSpace({"a": IntervalDomain(0, 1)})
        with pytest.raises(InvalidParameterError):
            grid_search(space, lambda p: 0.0)

    def test_failed_points_scored_inf_and_logged(self) -> None:
        space = HyperparameterSpace({"a": GridDomain((1, 2, 3))})

        def objective(point):
            if point["a"] == 1:
                raise InsufficientDataError("boom")
            return float(point["a"])

        result = grid_search(space, objective)
        assert result.best_point == {"a": 2}
        assert result.evals == 3 and result.failed_evals == 1

    def test_non_finite_scores_count_as_failed(self) -> None:
        space = HyperparameterSpace({"a": GridDomain((1, 2, 3, 4))})
        scores = {1: math.nan, 2: 5.0, 3: -math.inf, 4: 6.0}
        result = grid_search(space, lambda p: scores[p["a"]])
        assert result.best_point == {"a": 2} and result.best_score == 5.0
        assert result.evals == 4 and result.failed_evals == 2

    def test_all_failed_keeps_first_point(self) -> None:
        space = HyperparameterSpace({"a": GridDomain((1, 2, 3))})

        def objective(point):
            raise InsufficientDataError("boom")

        result = grid_search(space, objective)
        assert result.best_point == {"a": 1} and math.isinf(result.best_score)
        assert result.evals == result.failed_evals == 3


SPHERE_SPACE = HyperparameterSpace(
    {"x": IntervalDomain(-5.0, 5.0), "y": IntervalDomain(-5.0, 5.0)}
)


def sphere(point):
    return point["x"] ** 2 + point["y"] ** 2


class TestGridDomain:
    @pytest.mark.parametrize("values", [(math.nan, 0.5), (math.inf,), (1, -math.inf), (np.float64("nan"),)])
    def test_non_finite_floats_rejected(self, values) -> None:
        with pytest.raises(InvalidParameterError, match="finite"):
            GridDomain(values)

    def test_none_ints_and_strings_stay_valid(self) -> None:
        assert GridDomain((2, 4, None)).values == (2, 4, None)
        assert GridDomain(("a", "b", 0.5)).values == ("a", "b", 0.5)


class TestIntervalDomain:
    def test_integer_interval_must_hold_an_integer(self) -> None:
        with pytest.raises(InvalidParameterError):
            IntervalDomain(1.2, 1.8, integer=True)
        domain = IntervalDomain(1.2, 2.8, integer=True)
        assert domain.decode(1.5) == 2 and domain.contains(domain.decode(1.5))
        assert IntervalDomain(2, 2, integer=True).decode(2.0) == 2

    def test_integer_flag_must_be_a_bool(self) -> None:
        with pytest.raises(InvalidParameterError):
            IntervalDomain(0, 5, integer="false")

    @pytest.mark.parametrize(
        ("domain", "values"),
        [
            (IntervalDomain(-2.5, 4.0), (-2.5, -0.1, 0.0, 1.75, 4.0)),
            (IntervalDomain(1e-4, 10.0, scale="log"), (1e-4, 3e-4, 0.0123, 0.3, 1.0, 7.0, 10.0)),
            (IntervalDomain(1, 12, integer=True), (1, 2, 7, 12)),
            (IntervalDomain(1, 1000, scale="log", integer=True), (1, 3, 17, 999, 1000)),
        ],
        ids=["linear", "log", "integer", "log-integer"],
    )
    def test_encode_inverts_decode(self, domain, values) -> None:
        assert domain.internal_bounds() == (domain.encode(domain.lower), domain.encode(domain.upper))
        for value in values:
            # 10**log10(v) may miss v by an ulp or two; every other round trip is exact
            expected = pytest.approx(value, rel=1e-14) if domain.scale == "log" else value
            assert domain.decode(domain.encode(value)) == expected
            if domain.integer:
                assert domain.decode(domain.encode(value)) == value


class TestPso:
    def test_sphere_convergence_default_config(self) -> None:
        result = pso_minimize(SPHERE_SPACE, sphere, seed=42)
        assert result.best_score <= 1e-3

    def test_budget_exact(self) -> None:
        config = PsoConfig(swarm_size=7, iterations=9)
        objective = Recording(sphere)
        result = pso_minimize(SPHERE_SPACE, objective, config, seed=1)
        assert result.evals == len(objective.points) == 7 * 9
        assert result.failed_evals == 0
        # the swarm is seeded by a uniform draw, evaluated particle by particle
        first = np.random.default_rng(1).uniform(-5.0, 5.0, size=(7, 2))
        assert objective.points[:7] == [{"x": x, "y": y} for x, y in first]

    def test_constant_objective(self) -> None:
        result = pso_minimize(SPHERE_SPACE, lambda p: 0.0, PsoConfig(swarm_size=4, iterations=3))
        assert result.best_score == 0.0
        assert SPHERE_SPACE.contains(result.best_point)

    def test_determinism(self) -> None:
        a, b, c = Recording(sphere), Recording(sphere), Recording(sphere)
        ra = pso_minimize(SPHERE_SPACE, a, seed=11)
        rb = pso_minimize(SPHERE_SPACE, b, seed=11)
        assert ra == rb
        assert a.points == b.points
        pso_minimize(SPHERE_SPACE, c, seed=12)
        assert a.points != c.points

    def test_best_equals_trace_minimum(self) -> None:
        def check(result, objective) -> None:
            best = min(range(len(objective.scores)), key=objective.scores.__getitem__)
            assert result.best_score == objective.scores[best]
            assert result.best_point == objective.points[best]

        objective = Recording(sphere)
        check(pso_minimize(SPHERE_SPACE, objective, PsoConfig(iterations=10), seed=3), objective)
        objective = Recording(lambda p: -p["a"])
        check(grid_search(HyperparameterSpace({"a": GridDomain((1, 2, 3))}), objective), objective)
        objective = Recording(lambda p: p["x"])
        result = tpe_minimize(
            HyperparameterSpace({"x": IntervalDomain(0.0, 1.0)}),
            objective,
            TpeConfig(trials=25, startup=5),
            seed=8,
        )
        check(result, objective)

    def test_positions_stay_in_box(self) -> None:
        objective = Recording(sphere)
        pso_minimize(SPHERE_SPACE, objective, PsoConfig(iterations=5), seed=5)
        for point in objective.points:
            assert -5.0 <= point["x"] <= 5.0
            assert -5.0 <= point["y"] <= 5.0

    def test_integer_and_log_dimensions(self) -> None:
        space = HyperparameterSpace(
            {
                "k": IntervalDomain(1, 15, integer=True),
                "alpha": IntervalDomain(1e-4, 10.0, scale="log"),
            }
        )
        result = pso_minimize(
            space,
            lambda p: (p["k"] - 7) ** 2 + (math.log10(p["alpha"]) - 0.0) ** 2,
            PsoConfig(swarm_size=10, iterations=20),
            seed=0,
        )
        assert isinstance(result.best_point["k"], int)
        assert result.best_point["k"] == 7
        assert 1e-4 <= result.best_point["alpha"] <= 10.0

    def test_rejects_grid_dimensions(self) -> None:
        with pytest.raises(EmptySpaceError):
            pso_minimize(HyperparameterSpace({"a": GridDomain((1, 2))}), sphere)
        with pytest.raises(EmptySpaceError):
            pso_minimize(HyperparameterSpace({}), sphere)

    def test_config_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            PsoConfig(swarm_size=1)
        with pytest.raises(InvalidParameterError):
            PsoConfig(inertia=1.2)


class TestTpe:
    def test_budget_and_determinism(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(0.0, 10.0)})
        fn = lambda p: (p["x"] - 7.0) ** 2
        a, b = Recording(fn), Recording(fn)
        ra = tpe_minimize(space, a, seed=21)
        rb = tpe_minimize(space, b, seed=21)
        assert ra.evals == len(a.points) == 60
        assert ra == rb
        assert a.points == b.points

    def test_trials_equal_startup_is_pure_random(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(0.0, 1.0)})
        config = TpeConfig(trials=15, startup=15)
        objective = Recording(lambda p: p["x"])
        tpe_minimize(space, objective, config, seed=4)
        rng = np.random.default_rng(4)
        expected = [space.sample(rng)["x"] for _ in range(15)]
        assert [point["x"] for point in objective.points] == expected

    def test_constant_objective(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(0.0, 1.0)})
        result = tpe_minimize(space, lambda p: 1.0, TpeConfig(trials=20, startup=5), seed=9)
        assert result.evals == 20
        assert result.best_score == 1.0

    def test_refines_smooth_objective(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(0.0, 10.0)})
        result = tpe_minimize(space, lambda p: (p["x"] - 7.0) ** 2, seed=2)
        assert result.best_score < 1e-2

    def test_mixed_space(self) -> None:
        space = HyperparameterSpace(
            {
                "kind": GridDomain(("low", "high")),
                "x": IntervalDomain(0.0, 1.0),
            }
        )

        def objective(point):
            offset = 0.0 if point["kind"] == "high" else 2.0
            return offset + (point["x"] - 0.5) ** 2

        result = tpe_minimize(space, objective, seed=6)
        assert result.best_point["kind"] == "high"
        assert result.best_score < 0.1

    def test_mixed_space_result_is_frozen(self) -> None:
        # frozen values: any change to the estimators' draw order or
        # arithmetic on grid, log and integer dimensions moves them
        space = HyperparameterSpace(
            {
                "kind": GridDomain(("a", "b", "c")),
                "alpha": IntervalDomain(1e-4, 10.0, scale="log"),
                "depth": IntervalDomain(1, 12, integer=True),
                "mix": IntervalDomain(-1.0, 1.0),
            }
        )

        def objective(point):
            offset = {"a": 0.5, "b": 0.0, "c": 1.0}[point["kind"]]
            return (
                offset
                + (math.log10(point["alpha"]) + 2.0) ** 2
                + 0.1 * (point["depth"] - 7) ** 2
                + (point["mix"] - 0.3) ** 2
            )

        result = tpe_minimize(space, objective, TpeConfig(trials=30, startup=6, candidates=16), seed=11)
        assert (result.best_point["kind"], result.best_point["depth"]) == ("b", 6)
        assert result.best_point["alpha"] == pytest.approx(0.008445310807514301, rel=1e-12)
        assert result.best_point["mix"] == pytest.approx(-0.6104798109033431, rel=1e-12)
        assert result.best_score == pytest.approx(0.9343587507558022, rel=1e-12)
        assert (result.evals, result.failed_evals) == (30, 0)

    def test_failures_recorded(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(0.0, 1.0)})

        def objective(point):
            if point["x"] < 0.5:
                raise InsufficientDataError("left half fails")
            return point["x"]

        recording = Recording(objective)
        result = tpe_minimize(space, recording, TpeConfig(trials=30, startup=8), seed=7)
        assert math.isfinite(result.best_score)
        assert result.best_score >= 0.5
        assert result.evals == 30
        assert result.failed_evals == sum(1 for p in recording.points if p["x"] < 0.5) > 0

    def test_config_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            TpeConfig(trials=5, startup=9)
        with pytest.raises(InvalidParameterError):
            TpeConfig(gamma=1.0)

