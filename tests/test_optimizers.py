"""Optimizer correctness: brute-force agreement, budgets, determinism."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from hef_lab import optimizers
from hef_lab.errors import (
    EmptySpaceError,
    GridTooLargeError,
    HefLabError,
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
from hef_lab.spaces import GridDomain, HyperparameterSpace, IntervalDomain, Legal


def table_objective(seed: int):
    """A deterministic pseudo-random score per point, for brute-force checks."""

    def fn(point):
        h = hash((seed,) + tuple(sorted(point.items())))
        return (h % 100003) / 100003.0

    return fn


class Recording:
    """An objective that records the points it is called with, in order, and
    the score a search must take for each: +inf where the call raises a
    ``HefLabError`` or returns a non-finite score."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.points: list[dict] = []
        self.scores: list[float] = []

    def __call__(self, point):
        self.points.append(dict(point))
        self.scores.append(math.inf)  # kept if fn raises
        score = self.fn(point)
        if math.isfinite(score):
            self.scores[-1] = score
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
        space = HyperparameterSpace({"a": GridDomain(tuple(range(1001))), "b": GridDomain(tuple(range(1000)))})
        recording = Recording(lambda p: 0.0)
        with pytest.raises(GridTooLargeError, match="grid has 1001000 points, cap is 1000000"):
            grid_search(space, recording)
        assert recording.points == []

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
        assert domain.decode(1.5) == 2 and type(domain.decode(1.5)) is int
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


def per_value_decode(domain: IntervalDomain, internal: float) -> float | int:
    """One coordinate decoded on its own: the formula every list decode must equal."""
    lo, hi = domain.internal_bounds()
    x = min(max(float(internal), lo), hi)
    value = 10.0**x if domain.scale == "log" else x
    if domain.integer:
        return int(min(max(round(value), math.ceil(domain.lower)), math.floor(domain.upper)))
    return float(min(max(value, domain.lower), domain.upper))


def bits(values) -> list[tuple[type, str]]:
    """Type and repr of each value, so -0.0 and 0.0, or 2 and 2.0, differ."""
    return [(type(v), repr(v)) for v in values]


class TestListDecode:
    """``decode_list`` and ``decode_rows`` equal a per-value decode bit for
    bit: at the bounds, outside the box, on signed zeros and between."""

    DOMAINS = [
        IntervalDomain(-2.5, 4.0),
        IntervalDomain(-1.0, 0.0),
        IntervalDomain(-0.0, 1.0),
        IntervalDomain(1e-4, 10.0, scale="log"),
        IntervalDomain(1.0, 1000.0, scale="log"),
        IntervalDomain(1, 12, integer=True),
        IntervalDomain(0.5, 9.5, integer=True),
        IntervalDomain(-3, 0, integer=True),
        IntervalDomain(1, 1000, scale="log", integer=True),
        IntervalDomain(2, 2),
    ]

    @staticmethod
    def coordinates(domain: IntervalDomain, rng: np.random.Generator) -> list[float]:
        lo, hi = domain.internal_bounds()
        edges = [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), lo - 1.0, hi + 1.0]
        signed = [0.0, -0.0, math.inf, -math.inf, 0.5, -0.5, 1.5, 2.5]  # .5s: round() ties to even
        return edges + signed + rng.uniform(lo - 1.0, hi + 1.0, 50).tolist()

    @pytest.mark.parametrize("domain", DOMAINS, ids=repr)
    def test_list_decode_equals_per_value_decode(self, domain) -> None:
        xs = self.coordinates(domain, np.random.default_rng(29))
        expected = bits(per_value_decode(domain, x) for x in xs)
        assert bits(domain.decode_list(xs)) == expected
        assert bits(domain.decode_list(np.array(xs))) == expected  # numpy floats as well
        assert bits(domain.decode(x) for x in xs) == expected
        assert domain.decode_list([]) == []

    def test_decode_rows_equals_per_value_decode_column_by_column(self) -> None:
        rng = np.random.default_rng(29)
        space = HyperparameterSpace({f"p{i}": domain for i, domain in enumerate(self.DOMAINS)})
        matrix = np.column_stack([self.coordinates(domain, rng) for domain in self.DOMAINS])
        points = space.decode_rows(matrix)
        assert len(points) == len(matrix)
        for point, row in zip(points, matrix):
            assert list(point) == list(space.names)
            assert bits(point.values()) == bits(per_value_decode(d, x) for d, x in zip(self.DOMAINS, row))

    def test_decode_rows_refuses_a_matrix_of_other_columns(self) -> None:
        space = HyperparameterSpace({"a": IntervalDomain(0.0, 1.0), "b": GridDomain((1, 2))})
        assert space.decode_rows(np.zeros((3, 1))) == [{"a": 0.0}] * 3
        for shape in ((3, 2), (3,)):
            with pytest.raises(InvalidParameterError, match="interval dimensions"):
                space.decode_rows(np.zeros(shape))


class TestLegal:
    @pytest.mark.parametrize(
        ("legal", "admitted", "refused"),
        [
            (Legal(upper=1.0), (0, 0.0, 0.5, 1, 1.0, np.float64(0.3)), (-1e-9, 1.0000001, math.nan, True, "0.5", None)),
            (Legal(closed=False), (5e-324, 2.0, 10**400), (0, 0.0, -1.0, math.inf, -math.inf)),
            (Legal(1, integer=True), (1, 2.0, 10**400, np.int64(7)), (0, 2.5, math.inf, math.nan, True, None)),
            (Legal(1, integer=True, none_ok=True), (None, 1, 3), (0, 1.5, "3")),
        ],
        ids=["unit", "positive", "integer", "integer-or-none"],
    )
    def test_admits(self, legal, admitted, refused) -> None:
        assert all(legal.admits(value) for value in admitted)
        assert not any(legal.admits(value) for value in refused)

    def test_admits_domain_reads_grid_values_and_interval_ends(self) -> None:
        depth = Legal(1, integer=True, none_ok=True)
        assert depth.admits_domain(GridDomain((2, 4, None))) and not depth.admits_domain(GridDomain((2, 0)))
        assert depth.admits_domain(IntervalDomain(0.5, 9.5, integer=True))  # it yields 1 to 9
        assert not depth.admits_domain(IntervalDomain(1.0, 9.0))  # it yields fractions
        assert not depth.admits_domain(IntervalDomain(-0.5, 9.0, integer=True))  # it yields 0
        alpha = Legal(upper=1.0)
        assert alpha.admits_domain(IntervalDomain(1e-4, 1.0, scale="log"))
        assert alpha.admits_domain(IntervalDomain(0, 1, integer=True))
        assert not alpha.admits_domain(IntervalDomain(0.5, 1.5))

    def test_str_states_the_range(self) -> None:
        assert str(Legal(upper=1.0)) == "in [0, 1]"
        assert str(Legal(closed=False)) == "> 0"
        assert str(Legal(closed=False, upper=2.0)) == "in (0, 2]"
        assert str(Legal(1, 10, integer=True)) == "an integer in [1, 10]"
        assert str(Legal(1, integer=True, none_ok=True)) == "an integer >= 1 or None"


def each(fn):
    """The batch objective that scores each point with ``fn``."""
    return lambda points: [fn(point) for point in points]


def each_or_nan(fn):
    """The batch objective that scores each point with ``fn``, NaN where
    ``fn`` raises a ``HefLabError``, as a unit's batch objective does."""

    def batch(points):
        scores = []
        for point in points:
            try:
                scores.append(fn(point))
            except HefLabError:
                scores.append(math.nan)
        return scores

    return batch


class TestPso:
    def test_sphere_convergence_default_config(self) -> None:
        [result] = pso_minimize(SPHERE_SPACE, each(sphere), seeds=[42])
        assert result.best_score <= 1e-3

    def test_budget_exact(self) -> None:
        config = PsoConfig(swarm_size=7, iterations=9)
        objective = Recording(sphere)
        [result] = pso_minimize(SPHERE_SPACE, each(objective), config, seeds=[1])
        assert result.evals == len(objective.points) == 7 * 9
        assert result.failed_evals == 0
        # the swarm is seeded by a uniform draw, evaluated particle by particle
        first = np.random.default_rng(1).uniform(-5.0, 5.0, size=(7, 2))
        assert objective.points[:7] == [{"x": x, "y": y} for x, y in first]

    def test_constant_objective(self) -> None:
        [result] = pso_minimize(SPHERE_SPACE, each(lambda p: 0.0), PsoConfig(swarm_size=4, iterations=3))
        assert result.best_score == 0.0
        assert set(result.best_point) == {"x", "y"}
        assert all(-5.0 <= value <= 5.0 for value in result.best_point.values())

    def test_determinism(self) -> None:
        a, b, c = Recording(sphere), Recording(sphere), Recording(sphere)
        ra = pso_minimize(SPHERE_SPACE, each(a), seeds=[11])
        rb = pso_minimize(SPHERE_SPACE, each(b), seeds=[11])
        assert ra == rb
        assert a.points == b.points
        pso_minimize(SPHERE_SPACE, each(c), seeds=[12])
        assert a.points != c.points

    def test_best_equals_trace_minimum(self) -> None:
        # each search's best is the first lowest point of its trace, failures
        # included, and it counts every failure: on a smooth objective, on
        # ties (a constant and a step function), on a failure of each kind
        # beside a step function's ties, and where every point fails
        def failing(point):
            x = point["x"]
            if x < 0.2:
                raise InsufficientDataError("fails")
            if x < 0.5:
                return (math.nan, -math.inf, math.inf)[int(10 * x) - 2]
            return float(math.floor(2 * point["y"]))

        def fails(point):
            raise InsufficientDataError("fails")

        box = HyperparameterSpace({"x": IntervalDomain(0.0, 1.0), "y": IntervalDomain(0.0, 1.0)})
        grid = HyperparameterSpace({"x": GridDomain(tuple(i / 10 for i in range(11))), "y": GridDomain((0.0, 0.5, 1.0))})
        searches = {
            "grid": lambda objective: grid_search(grid, objective),
            "pso": lambda objective: pso_minimize(
                box, each_or_nan(objective), PsoConfig(swarm_size=5, iterations=8), seeds=[3]
            )[0],
            "tpe": lambda objective: tpe_minimize(box, objective, TpeConfig(trials=30, startup=5), seed=8),
        }
        objectives = {
            "smooth": lambda p: (p["x"] - 0.3) ** 2 + p["y"],
            "constant": lambda p: 0.0,
            "step": lambda p: float(math.floor(4 * p["x"]) + math.floor(2 * p["y"])),
            "failing": failing,
            "every point fails": fails,
        }
        for (search_name, search), (name, fn) in itertools.product(searches.items(), objectives.items()):
            objective = Recording(fn)
            result = search(objective)
            best = objective.scores.index(min(objective.scores))
            assert result.best_point == objective.points[best], (search_name, name)
            assert result.best_score == objective.scores[best], (search_name, name)
            assert result.evals == len(objective.points), (search_name, name)
            assert result.failed_evals == objective.scores.count(math.inf), (search_name, name)
            if name != "smooth":  # the tie-break is at work
                assert objective.scores.count(result.best_score) > 1, (search_name, name)
            if name in ("failing", "every point fails"):
                assert result.failed_evals > 0, (search_name, name)
        # the grid meets a failure of each kind, and its best is a tie's first point
        objective = Recording(failing)
        result = grid_search(grid, objective)
        assert result.failed_evals == 5 * 3 and result.best_point == {"x": 0.5, "y": 0.0}

    def test_positions_stay_in_box(self) -> None:
        objective = Recording(sphere)
        pso_minimize(SPHERE_SPACE, each(objective), PsoConfig(iterations=5), seeds=[5])
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
        [result] = pso_minimize(
            space,
            each(lambda p: (p["k"] - 7) ** 2 + (math.log10(p["alpha"]) - 0.0) ** 2),
            PsoConfig(swarm_size=10, iterations=20),
            seeds=[0],
        )
        assert isinstance(result.best_point["k"], int)
        assert result.best_point["k"] == 7
        assert 1e-4 <= result.best_point["alpha"] <= 10.0

    def test_rejects_grid_dimensions(self) -> None:
        with pytest.raises(EmptySpaceError):
            pso_minimize(HyperparameterSpace({"a": GridDomain((1, 2))}), each(sphere))
        with pytest.raises(EmptySpaceError):
            pso_minimize(HyperparameterSpace({}), each(sphere))

    def test_result_is_frozen(self) -> None:
        # frozen values: any change to the swarm's constants, draw order or
        # arithmetic moves them
        space = HyperparameterSpace({"x": IntervalDomain(-5.0, 5.0), "alpha": IntervalDomain(1e-3, 10.0, scale="log")})

        def objective(point):
            return (point["x"] - 1.3) ** 2 + (math.log10(point["alpha"]) - 0.2) ** 2

        [result] = pso_minimize(space, each(objective), PsoConfig(swarm_size=5, iterations=10), seeds=[1])
        assert result.best_point["x"] == pytest.approx(1.3158475767289113, rel=1e-12)
        assert result.best_point["alpha"] == pytest.approx(1.9129947819327318, rel=1e-12)
        assert result.best_score == pytest.approx(0.006928288413524713, rel=1e-12)
        assert (result.evals, result.failed_evals) == (50, 0)

    def test_config_validation(self) -> None:
        with pytest.raises(InvalidParameterError):
            PsoConfig(swarm_size=1)
        with pytest.raises(InvalidParameterError):
            PsoConfig(iterations=0)

    @pytest.mark.parametrize("value", [2.5, 4.0, True, np.int64(4)])
    def test_swarm_size_must_be_an_int(self, value) -> None:
        with pytest.raises(InvalidParameterError, match="swarm_size must be an integer"):
            PsoConfig(swarm_size=value)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.int64(3)])
    def test_iterations_must_be_an_int(self, value) -> None:
        with pytest.raises(InvalidParameterError, match="iterations must be an integer"):
            PsoConfig(iterations=value)

    def test_swarms_in_lockstep_equal_each_swarm_alone(self) -> None:
        space = HyperparameterSpace({"x": IntervalDomain(-5.0, 5.0), "alpha": IntervalDomain(1e-3, 10.0, scale="log")})

        def objective(point):  # a third of the box fails
            if point["x"] > 2.0:
                raise InsufficientDataError("right third fails")
            return (point["x"] - 1.3) ** 2 + (math.log10(point["alpha"]) - 0.2) ** 2

        batch = each_or_nan(objective)
        config = PsoConfig(swarm_size=6, iterations=7)
        seeds = [3, 1, 4, 1, 5]
        together = pso_minimize(space, batch, config, seeds)
        assert together == [pso_minimize(space, batch, config, [seed])[0] for seed in seeds]
        assert together[1] == together[3]  # a repeated seed repeats its swarm
        assert all(r.evals == 42 for r in together) and sum(r.failed_evals for r in together) > 0

    def test_each_step_is_one_batch_swarm_by_swarm(self) -> None:
        batches: list[list[dict]] = []

        def batch(points):
            batches.append(points)
            return [sphere(point) for point in points]

        config = PsoConfig(swarm_size=4, iterations=3)
        pso_minimize(SPHERE_SPACE, batch, config, [7, 8])
        assert [len(points) for points in batches] == [8] * 3
        for seed, first in zip((7, 8), (batches[0][:4], batches[0][4:])):
            alone = Recording(sphere)
            pso_minimize(SPHERE_SPACE, each(alone), config, [seed])
            assert first == alone.points[:4]

    def test_a_batch_that_raises_fails_every_point(self) -> None:
        calls = [0]

        def batch(points):
            calls[0] += 1
            if calls[0] == 2:
                raise InsufficientDataError("the whole step fails")
            return [sphere(point) for point in points]

        results = pso_minimize(SPHERE_SPACE, batch, PsoConfig(swarm_size=3, iterations=3), [1, 2])
        assert [(r.evals, r.failed_evals) for r in results] == [(9, 3), (9, 3)]
        assert all(math.isfinite(r.best_score) for r in results)

    def test_no_seeds_no_swarms(self) -> None:
        assert pso_minimize(SPHERE_SPACE, each(sphere), seeds=[]) == []


def reference_pso(space, objective, config, seed):
    """One swarm searched alone, one objective call per point: a
    ``HefLabError`` or a non-finite score fails the point and scores +inf,
    and only a strictly lower score replaces the best. The reference that
    the lockstep swarms must equal."""
    lo, hi = space.box_bounds()
    widths = hi - lo
    rng = np.random.default_rng(seed)
    S, D = config.swarm_size, len(lo)
    vmax = optimizers._VELOCITY_CLAMP * widths
    positions = rng.uniform(lo, hi, size=(S, D))
    velocities = np.zeros((S, D))
    tally = {"evals": 0, "failed_evals": 0, "best_point": {}, "best_score": math.inf}

    def score(point: dict) -> float:
        try:
            value = float(objective(dict(point)))
        except HefLabError:
            value = math.inf
        if not math.isfinite(value):
            value = math.inf
            tally["failed_evals"] += 1
        if tally["evals"] == 0 or value < tally["best_score"]:
            tally["best_point"], tally["best_score"] = point, value
        tally["evals"] += 1
        return value

    def evaluate_swarm() -> np.ndarray:
        names = space.interval_names()
        return np.array([score({n: space[n].decode(v) for n, v in zip(names, x)}) for x in positions])

    pbest_pos = positions.copy()
    pbest_score = evaluate_swarm()
    g = int(np.argmin(pbest_score))
    gbest_pos, gbest_score = pbest_pos[g].copy(), float(pbest_score[g])
    for _ in range(config.iterations - 1):
        r1 = rng.uniform(size=(S, D))
        r2 = rng.uniform(size=(S, D))
        velocities = (
            optimizers._INERTIA * velocities
            + optimizers._COGNITIVE * r1 * (pbest_pos - positions)
            + optimizers._SOCIAL * r2 * (gbest_pos - positions)
        )
        velocities = np.clip(velocities, -vmax, vmax)
        positions = np.clip(positions + velocities, lo, hi)
        scores = evaluate_swarm()
        improved = scores < pbest_score
        pbest_pos[improved] = positions[improved]
        pbest_score[improved] = scores[improved]
        g = int(np.argmin(pbest_score))
        if pbest_score[g] < gbest_score:
            gbest_pos, gbest_score = pbest_pos[g].copy(), float(pbest_score[g])
    return optimizers.OptimizationResult(**tally)


def monthly_fleet(n_series: int, seed: int = 26) -> list[np.ndarray]:
    """Five-year monthly series with trend, season and noise of several sizes."""
    rng = np.random.default_rng(seed)
    t = np.arange(60)
    fleet = []
    for i in range(n_series):
        base, noise = rng.uniform(30.0, 80.0), (0.03, 0.12, 0.28, 0.6)[i % 4]
        values = base + 0.2 * t + 0.1 * base * np.sin(2 * np.pi * t / 12) + rng.normal(0.0, noise * base, 60)
        fleet.append(np.maximum(values, 1.0))
    return fleet


class TestLockstepAgainstReference:
    """The lockstep swarms over a unit's batch objective equal, bit for bit,
    the per-swarm reference over the same objective called point by point."""

    @staticmethod
    def compare(model_name: str, space: HyperparameterSpace, config: PsoConfig) -> tuple[int, int]:
        from hef_lab.metrics import TargetWindow
        from hef_lab.models import create
        from hef_lab.protocol import _Objective, derive_seed

        searches = failed = 0
        model = create(model_name)
        for i, values in enumerate(monthly_fleet(8)):
            train, test = values[:48], values[48:]
            for condition in ("hef", "maef"):
                objective = _Objective(model, train, TargetWindow(test), condition)
                seeds = [derive_seed(1, f"m{i:03d}", model_name, condition, rep) for rep in range(21)]
                lockstep = pso_minimize(space, objective.batch, config, seeds)
                for seed, result in zip(seeds, lockstep, strict=True):
                    reference = reference_pso(space, objective, config, seed)
                    assert result.best_point == reference.best_point
                    assert [type(v) for v in result.best_point.values()] == [float] * len(space)
                    assert type(result.best_score) is float
                    assert (result.best_score, result.evals, result.failed_evals) == (
                        reference.best_score,
                        reference.evals,
                        reference.failed_evals,
                    )
                    searches += 1
                    failed += result.failed_evals
        return searches, failed

    def test_monthly_fleet_under_hef_and_maef(self) -> None:
        from hef_lab.models import model_class

        space = model_class("ses").declared_space
        assert self.compare("ses", space, PsoConfig(swarm_size=5, iterations=4)) == (8 * 2 * 21, 0)

    def test_points_that_fail_to_fit(self) -> None:
        # SesModel refuses alpha above 1, so about nine points in ten fail
        space = HyperparameterSpace({"alpha": IntervalDomain(0.5, 5.0)})
        searches, failed = self.compare("ses", space, PsoConfig(swarm_size=5, iterations=4))
        assert searches == 8 * 2 * 21 and 0 < failed < searches * 20


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

    def test_mixed_space_result_is_frozen(self, monkeypatch) -> None:
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

        monkeypatch.setattr(optimizers, "_CANDIDATES", 16)
        result = tpe_minimize(space, objective, TpeConfig(trials=30, startup=6), seed=11)
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
            TpeConfig(trials=0)

    @pytest.mark.parametrize("value", [3.5, 12.0, True, np.int64(12)])
    def test_trials_must_be_an_int(self, value) -> None:
        with pytest.raises(InvalidParameterError, match="trials must be an integer"):
            TpeConfig(trials=value)

    @pytest.mark.parametrize("value", [2.5, 4.0, np.int64(4)])
    def test_startup_must_be_an_int(self, value) -> None:
        with pytest.raises(InvalidParameterError, match="startup must be an integer"):
            TpeConfig(startup=value)

