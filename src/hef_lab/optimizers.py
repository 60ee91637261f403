"""Hyperparameter search strategies minimizing a scalar objective.

Three strategies share one result shape: exhaustive grid search over finite
spaces, particle swarm optimization over continuous boxes, and a simplified
tree-structured Parzen estimator for boxes or mixed spaces. Grid and Parzen
searches score one point per objective call. The swarm search runs one
swarm per seed, all in lockstep, and scores each step's points, every swarm's
at once, in one call of a batch objective: the ask/tell shape of Hansen's
CMA-ES reference code and of Optuna, by design only.

Every search reports by one rule. A failed evaluation (a ``HefLabError``, or
a NaN or infinite score) scores +inf, is counted in ``failed_evals`` and never
aborts a run; the best point is the first one evaluated with the lowest score.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptySpaceError,
    GridTooLargeError,
    HefLabError,
    InvalidParameterError,
)
from .spaces import GridDomain, HyperparameterSpace, IntervalDomain

__all__ = [
    "BatchObjective",
    "Objective",
    "OptimizationResult",
    "PsoConfig",
    "TpeConfig",
    "grid_search",
    "pso_minimize",
    "tpe_minimize",
]

Objective = Callable[[Mapping], float]
# the scores of a list of points, in order: non-finite where a point failed
BatchObjective = Callable[[Sequence[Mapping]], Sequence[float]]

# Fixed search constants. PSO: the constriction coefficients of Clerc & Kennedy
# (2002), velocity clamped to half the box width. TPE: hyperopt's gamma and
# candidate count for the estimator of Bergstra et al. (2011), and Silverman's
# bandwidth constant.
GRID_CAP = 1_000_000
_INERTIA = 0.729
_COGNITIVE = _SOCIAL = 1.49445
_VELOCITY_CLAMP = 0.5
_GAMMA = 0.25
_CANDIDATES = 24
_BANDWIDTH_FACTOR = 1.06


@dataclass(frozen=True)
class OptimizationResult:
    """The best point and its score, and how many evaluations ran and failed."""

    best_point: dict
    best_score: float
    evals: int
    failed_evals: int


def _check_integers(settings, *names: str) -> None:
    """Refuse a count that is not an ``int``, a bool or an integral float
    included, as ``ExperimentConfig.repetitions`` is refused."""
    for name in names:
        value = getattr(settings, name)
        if type(value) is not int:
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class PsoConfig:
    """Swarm size and iteration count."""

    swarm_size: int = 20
    iterations: int = 50

    def __post_init__(self) -> None:
        _check_integers(self, "swarm_size", "iterations")
        if self.swarm_size < 2:
            raise InvalidParameterError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise InvalidParameterError("iterations must be >= 1")


@dataclass(frozen=True)
class TpeConfig:
    """Trial count and how many of the first trials are uniform draws."""

    trials: int = 60
    startup: int = 10

    def __post_init__(self) -> None:
        _check_integers(self, "trials", "startup")
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if not (1 <= self.startup <= self.trials):
            raise InvalidParameterError("startup must lie in [1, trials]")


def _score(objective: Objective, point: dict) -> float:
    """The objective's score of a copy of ``point``; a failure scores +inf."""
    try:
        score = float(objective(dict(point)))
    except HefLabError:
        return math.inf
    return score if math.isfinite(score) else math.inf


def _result(scores: list[float], point_at: Callable[[int], dict]) -> OptimizationResult:
    """The first lowest of a search's scores, with the point ``point_at`` gives for its index."""
    best = scores.index(min(scores))
    return OptimizationResult(point_at(best), scores[best], len(scores), scores.count(math.inf))


def grid_search(space: HyperparameterSpace, objective: Objective) -> OptimizationResult:
    """Exhaustive minimum over the full Cartesian product.

    Ties go to the first point in declared-parameter/declared-value order.
    """
    if not space.is_finite():
        raise InvalidParameterError("grid_search requires finite grid domains for every parameter")
    size = space.grid_size()
    if size > GRID_CAP:
        raise GridTooLargeError(f"grid has {size} points, cap is {GRID_CAP}")
    scores = [_score(objective, point) for point in space.grid_points()]
    return _result(scores, lambda i: next(itertools.islice(space.grid_points(), i, None)))


def pso_minimize(
    space: HyperparameterSpace,
    objective: BatchObjective,
    config: PsoConfig = PsoConfig(),
    seeds: Sequence[int] = (0,),
) -> list[OptimizationResult]:
    """Batch-synchronous particle swarms over the box of interval dimensions,
    one per seed, advanced in lockstep; the result of each, in seed order.

    Velocities follow ``v <- w v + c1 r1 (pbest - x) + c2 r2 (gbest - x)``,
    clamped to half the box width; positions are clipped to the box. Each
    swarm draws from its own ``default_rng(seed)`` in the order it would
    alone, and keeps its own bests, so its result does not depend on the
    other seeds. Each step scores every swarm's particles, swarm by swarm, in
    one call of ``objective``: a non-finite score is a failed evaluation, and
    a ``HefLabError`` fails every point of the call. Each swarm makes exactly
    swarm_size * iterations evaluations, and its result is its global best,
    which never worsens.
    """
    if len(space) == 0 or len(space.interval_names()) != len(space):
        raise EmptySpaceError("pso_minimize needs a space of interval domains only")
    if not seeds:
        return []
    lo, hi = space.box_bounds()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    R, S, D = len(rngs), config.swarm_size, len(lo)
    vmax = _VELOCITY_CLAMP * (hi - lo)
    swarms = np.arange(R)

    positions = np.stack([rng.uniform(lo, hi, size=(S, D)) for rng in rngs])
    velocities = np.zeros((R, S, D))
    failed = np.zeros(R, dtype=int)

    def evaluate_swarms() -> np.ndarray:
        """Each swarm's scores, one row per swarm, +inf where a point failed; adds the failures to ``failed``."""
        try:
            scores = np.asarray(objective(space.decode_rows(positions.reshape(-1, D))), dtype=float)
        except HefLabError:
            scores = np.full(R * S, math.inf)
        scores = scores.reshape(R, S)
        ok = np.isfinite(scores)
        failed[:] += S - ok.sum(axis=1)
        return np.where(ok, scores, math.inf)

    pbest_pos = positions.copy()
    pbest_score = evaluate_swarms()
    g = np.argmin(pbest_score, axis=1)
    gbest_pos, gbest_score = pbest_pos[swarms, g], pbest_score[swarms, g]

    for _ in range(config.iterations - 1):
        r1, r2 = np.stack([rng.uniform(size=(2, S, D)) for rng in rngs], axis=1)
        velocities = (
            _INERTIA * velocities
            + _COGNITIVE * r1 * (pbest_pos - positions)
            + _SOCIAL * r2 * (gbest_pos[:, None] - positions)
        )
        velocities = np.clip(velocities, -vmax, vmax)
        positions = np.clip(positions + velocities, lo, hi)
        scores = evaluate_swarms()
        improved = scores < pbest_score
        pbest_pos[improved] = positions[improved]
        pbest_score[improved] = scores[improved]
        g = np.argmin(pbest_score, axis=1)
        better = pbest_score[swarms, g] < gbest_score
        gbest_pos[better] = pbest_pos[swarms[better], g[better]]
        gbest_score[better] = pbest_score[swarms[better], g[better]]

    points = space.decode_rows(gbest_pos)
    return [
        OptimizationResult(point, score, S * config.iterations, fails)
        for point, score, fails in zip(points, gbest_score.tolist(), failed.tolist())
    ]


# --- TPE internals ----------------------------------------------------------


@dataclass
class _NumericParzen:
    """1-D Gaussian mixture over observations plus one uniform prior component.

    The mixture lives in the domain's internal scale, between ``lower`` and
    ``upper``; ``sample`` and ``log_densities`` take and give values in the
    point's own units. The prior takes part in sampling too (one
    pseudo-center), so candidate draws never fixate entirely on the observed
    cluster; the bandwidth floor keeps late-stage kernels from collapsing to
    spikes.
    """

    domain: IntervalDomain
    centers: np.ndarray
    bandwidth: float
    lower: float
    upper: float
    width: float = field(init=False)

    def __post_init__(self) -> None:
        self.width = max(self.upper - self.lower, 1e-12)

    @classmethod
    def fit(cls, observed: list, domain: IntervalDomain, factor: float) -> "_NumericParzen":
        centers = np.array([domain.encode(v) for v in observed])
        lower, upper = domain.internal_bounds()
        bw = factor * float(centers.std()) * len(centers) ** (-0.2)
        bw = max(bw, max(upper - lower, 1e-12) / min(100.0, len(centers) + 2.0))
        return cls(domain=domain, centers=centers, bandwidth=bw, lower=lower, upper=upper)

    def sample(self, rng: np.random.Generator) -> float | int:
        pick = int(rng.integers(len(self.centers) + 1))
        if pick == len(self.centers):  # the uniform prior component
            internal = rng.uniform(self.lower, self.upper)
        else:
            # the draw stays the first argument of both: np.clip's result on ties, signed zeros included
            internal = min(max(rng.normal(self.centers[pick], self.bandwidth), self.lower), self.upper)
        return self.domain.decode(float(internal))

    def log_densities(self, values: list) -> list[float]:
        """The log mixture density at each value, all values in one array
        expression: row ``i`` of ``z`` holds value ``i`` against every center."""
        encoded = np.array([self.domain.encode(v) for v in values])
        z = (encoded[:, None] - self.centers) / self.bandwidth
        kernel = np.exp(-0.5 * z * z) / (self.bandwidth * math.sqrt(2.0 * math.pi))
        density = (kernel.sum(axis=1) + 1.0 / self.width) / (len(self.centers) + 1)
        return [math.log(max(d, 1e-300)) for d in density.tolist()]


@dataclass
class _CategoricalParzen:
    """Laplace-smoothed category frequencies over a grid domain."""

    values: tuple
    probs: np.ndarray

    @classmethod
    def fit(cls, observed: list, domain: GridDomain) -> "_CategoricalParzen":
        counts = np.array([1.0 + sum(1 for o in observed if o == v) for v in domain.values])
        return cls(values=domain.values, probs=counts / counts.sum())

    def sample(self, rng: np.random.Generator):
        return self.values[int(rng.choice(len(self.values), p=self.probs))]

    def log_densities(self, values: list) -> list[float]:
        return [math.log(float(self.probs[self.values.index(v)])) for v in values]


def _fit_parzen(space: HyperparameterSpace, points: list[dict], factor: float) -> dict:
    """One estimator per parameter, fitted to that parameter's observed values."""
    estimators: dict = {}
    for name, domain in space.params.items():
        observed = [pt[name] for pt in points]
        if isinstance(domain, GridDomain):
            estimators[name] = _CategoricalParzen.fit(observed, domain)
        else:
            estimators[name] = _NumericParzen.fit(observed, domain, factor)
    return estimators


def tpe_minimize(
    space: HyperparameterSpace,
    objective: Objective,
    config: TpeConfig = TpeConfig(),
    seed: int = 0,
) -> OptimizationResult:
    """Sequential model-based search ranking candidates by good/bad density ratio.

    The first ``startup`` points are uniform; afterwards the history splits at
    the ``_GAMMA``-quantile into good and bad sets, per-dimension Parzen estimators
    l(x) and g(x) are fitted, ``_CANDIDATES`` draws from l are ranked by
    ``log l - log g``, and the best candidate is evaluated.
    """
    if len(space) == 0:
        raise EmptySpaceError("tpe_minimize needs at least one parameter")
    rng = np.random.default_rng(seed)
    points: list[dict] = []
    scores: list[float] = []

    for t in range(config.trials):
        if t < config.startup:
            point = space.sample(rng)
        else:
            # a stable sort, so equal scores keep evaluation order
            history = [points[i] for i in sorted(range(t), key=scores.__getitem__)]
            n_good = max(1, math.ceil(_GAMMA * t))
            good = history[:n_good]
            bad = history[n_good:] or good
            l_est = _fit_parzen(space, good, _BANDWIDTH_FACTOR)
            g_est = _fit_parzen(space, bad, _BANDWIDTH_FACTOR)
            candidates = [{name: est.sample(rng) for name, est in l_est.items()} for _ in range(_CANDIDATES)]
            # one row of log densities per parameter, in space order, which is
            # the order each candidate's l and g sums add them in
            l_rows = [est.log_densities([c[n] for c in candidates]) for n, est in l_est.items()]
            g_rows = [g_est[n].log_densities([c[n] for c in candidates]) for n in l_est]
            ratios = [sum(l_logs) - sum(g_logs) for l_logs, g_logs in zip(zip(*l_rows), zip(*g_rows))]
            point = candidates[int(np.argmax(ratios))]
        points.append(point)
        scores.append(_score(objective, point))

    return _result(scores, points.__getitem__)
