"""Hyperparameter search strategies minimizing a scalar objective.

Three strategies share one result shape: exhaustive grid search over finite
spaces, particle swarm optimization over continuous boxes, and a simplified
tree-structured Parzen estimator for boxes or mixed spaces. Failed objective
evaluations are scored +inf, counted, and never abort a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import (
    EmptySpaceError,
    GridTooLargeError,
    HefLabError,
    InvalidParameterError,
)
from .spaces import GridDomain, HyperparameterSpace, IntervalDomain

__all__ = [
    "Objective",
    "OptimizationResult",
    "PsoConfig",
    "TpeConfig",
    "grid_search",
    "pso_minimize",
    "tpe_minimize",
]

Objective = Callable[[Mapping], float]

DEFAULT_GRID_CAP = 1_000_000


@dataclass(frozen=True)
class OptimizationResult:
    """The best point and its score, and how many evaluations ran and failed."""

    best_point: dict
    best_score: float
    evals: int
    failed_evals: int


@dataclass(frozen=True)
class PsoConfig:
    """Swarm settings; the constriction-style defaults are standard practice."""

    swarm_size: int = 20
    iterations: int = 50
    inertia: float = 0.729
    cognitive: float = 1.49445
    social: float = 1.49445
    velocity_clamp: float = 0.5

    def __post_init__(self) -> None:
        if self.swarm_size < 2:
            raise InvalidParameterError("swarm_size must be >= 2")
        if self.iterations < 1:
            raise InvalidParameterError("iterations must be >= 1")
        if not (0.0 < self.inertia < 1.0):
            raise InvalidParameterError("inertia must lie in (0, 1)")
        if not (0 < self.cognitive < math.inf and 0 < self.social < math.inf):
            raise InvalidParameterError("cognitive and social factors must be finite and > 0")
        if not (0.0 < self.velocity_clamp <= 1.0):
            raise InvalidParameterError("velocity_clamp must lie in (0, 1]")


@dataclass(frozen=True)
class TpeConfig:
    """Sequential Parzen-estimator settings; bandwidths follow a scaled Silverman rule."""

    trials: int = 60
    startup: int = 10
    gamma: float = 0.25
    candidates: int = 24
    bandwidth_factor: float = 1.06

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise InvalidParameterError("trials must be >= 1")
        if not (1 <= self.startup <= self.trials):
            raise InvalidParameterError("startup must lie in [1, trials]")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParameterError("gamma must lie in (0, 1)")
        if self.candidates < 1:
            raise InvalidParameterError("candidates must be >= 1")
        if not (0 < self.bandwidth_factor < math.inf):
            raise InvalidParameterError("bandwidth_factor must be finite and > 0")


@dataclass
class _Tally:
    """Scores points for one search, counts them and keeps the running best.

    A failed evaluation (a ``HefLabError`` or a non-finite score) scores +inf.
    The first evaluation sets the best and only a strictly lower score
    replaces it, so ties go to the earliest point.
    """

    objective: Objective
    evals: int = 0
    failed_evals: int = 0
    best_point: dict = field(default_factory=dict)
    best_score: float = math.inf

    def score(self, point: dict) -> float:
        try:
            score = float(self.objective(dict(point)))
        except HefLabError:
            score = math.inf
        if not math.isfinite(score):
            score = math.inf
            self.failed_evals += 1
        if self.evals == 0 or score < self.best_score:
            self.best_point, self.best_score = point, score
        self.evals += 1
        return score

    def result(self) -> OptimizationResult:
        return OptimizationResult(self.best_point, self.best_score, self.evals, self.failed_evals)


def grid_search(
    space: HyperparameterSpace,
    objective: Objective,
    cap: int = DEFAULT_GRID_CAP,
) -> OptimizationResult:
    """Exhaustive minimum over the full Cartesian product.

    Ties go to the first point in declared-parameter/declared-value order.
    """
    if not space.is_finite():
        raise InvalidParameterError("grid_search requires finite grid domains for every parameter")
    size = space.grid_size()
    if size > cap:
        raise GridTooLargeError(f"grid has {size} points, cap is {cap}")
    tally = _Tally(objective)
    for point in space.grid_points():
        tally.score(point)
    return tally.result()


def pso_minimize(
    space: HyperparameterSpace,
    objective: Objective,
    config: PsoConfig = PsoConfig(),
    seed: int = 0,
) -> OptimizationResult:
    """Batch-synchronous particle swarm over the box of interval dimensions.

    Velocities follow ``v <- w v + c1 r1 (pbest - x) + c2 r2 (gbest - x)``,
    clamped to a fraction of the box width; positions are clipped to the box.
    It makes exactly swarm_size * iterations evaluations and the running
    global best never worsens.
    """
    if len(space) == 0 or len(space.interval_names()) != len(space):
        raise EmptySpaceError("pso_minimize needs a space of interval domains only")
    lo, hi = space.box_bounds()
    widths = hi - lo
    rng = np.random.default_rng(seed)
    S, D = config.swarm_size, len(lo)
    vmax = config.velocity_clamp * widths

    positions = rng.uniform(lo, hi, size=(S, D))
    velocities = np.zeros((S, D))
    tally = _Tally(objective)

    def evaluate_swarm() -> np.ndarray:
        return np.array([tally.score(space.decode_vector(x)) for x in positions])

    pbest_pos = positions.copy()
    pbest_score = evaluate_swarm()
    g = int(np.argmin(pbest_score))
    gbest_pos, gbest_score = pbest_pos[g].copy(), float(pbest_score[g])

    for _ in range(config.iterations - 1):
        r1 = rng.uniform(size=(S, D))
        r2 = rng.uniform(size=(S, D))
        velocities = (
            config.inertia * velocities
            + config.cognitive * r1 * (pbest_pos - positions)
            + config.social * r2 * (gbest_pos - positions)
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

    return tally.result()


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
    the gamma-quantile into good and bad sets, per-dimension Parzen estimators
    l(x) and g(x) are fitted, ``candidates`` draws from l are ranked by
    ``log l - log g``, and the best candidate is evaluated.
    """
    if len(space) == 0:
        raise EmptySpaceError("tpe_minimize needs at least one parameter")
    rng = np.random.default_rng(seed)
    tally = _Tally(objective)
    points: list[dict] = []
    scores: list[float] = []

    for t in range(config.trials):
        if t < config.startup:
            point = space.sample(rng)
        else:
            # a stable sort, so equal scores keep evaluation order
            history = [points[i] for i in sorted(range(t), key=scores.__getitem__)]
            n_good = max(1, math.ceil(config.gamma * t))
            good = history[:n_good]
            bad = history[n_good:] or good
            l_est = _fit_parzen(space, good, config.bandwidth_factor)
            g_est = _fit_parzen(space, bad, config.bandwidth_factor)
            candidates = [
                {name: est.sample(rng) for name, est in l_est.items()} for _ in range(config.candidates)
            ]
            # one row of log densities per parameter, in space order, which is
            # the order each candidate's l and g sums add them in
            l_rows = [est.log_densities([c[n] for c in candidates]) for n, est in l_est.items()]
            g_rows = [g_est[n].log_densities([c[n] for c in candidates]) for n in l_est]
            ratios = [sum(l_logs) - sum(g_logs) for l_logs, g_logs in zip(zip(*l_rows), zip(*g_rows))]
            point = candidates[int(np.argmax(ratios))]
        points.append(point)
        scores.append(tally.score(point))

    return tally.result()
