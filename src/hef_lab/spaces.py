"""Hyperparameter domains: finite grids and closed real/integer intervals.

A point is a plain ``dict`` mapping parameter names to values. Interval
dimensions may be log-scaled; optimizers working on continuous boxes operate
in the internal scale (log10 for log dimensions) and integers are rounded at
evaluation time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import InvalidParameterError

__all__ = ["GridDomain", "IntervalDomain", "Domain", "HyperparameterSpace"]


@dataclass(frozen=True)
class GridDomain:
    """A finite set of admissible values, in declared order."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if not vals:
            raise InvalidParameterError("grid domain must be non-empty")
        if len(set(vals)) != len(vals):
            raise InvalidParameterError("grid domain values must be unique")
        object.__setattr__(self, "values", vals)

    def contains(self, value) -> bool:
        return value in self.values


@dataclass(frozen=True)
class IntervalDomain:
    """A closed interval, optionally log-scaled and/or integer-valued."""

    lower: float
    upper: float
    scale: str = "linear"
    integer: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise InvalidParameterError("interval bounds must be finite")
        if self.lower > self.upper:
            raise InvalidParameterError(f"empty interval [{self.lower}, {self.upper}]")
        if self.scale not in ("linear", "log"):
            raise InvalidParameterError(f"unknown scale: {self.scale!r}")
        if self.scale == "log" and self.lower <= 0:
            raise InvalidParameterError("log-scaled interval needs a positive lower bound")
        if type(self.integer) is not bool:
            raise InvalidParameterError(f"integer must be true or false, got {self.integer!r}")
        if self.integer and math.ceil(self.lower) > math.floor(self.upper):
            raise InvalidParameterError(f"integer interval [{self.lower}, {self.upper}] holds no integer")

    def contains(self, value) -> bool:
        if self.integer and float(value) != round(float(value)):
            return False
        return self.lower <= float(value) <= self.upper

    # internal (optimizer) scale -------------------------------------------

    def encode(self, value: float) -> float:
        """The internal-scale coordinate of ``value``; ``decode`` inverts it."""
        return math.log10(float(value)) if self.scale == "log" else float(value)

    def internal_bounds(self) -> tuple[float, float]:
        return self.encode(self.lower), self.encode(self.upper)

    def decode(self, internal: float) -> float | int:
        lo, hi = self.internal_bounds()
        x = min(max(float(internal), lo), hi)
        value = 10.0**x if self.scale == "log" else x
        if self.integer:
            return int(min(max(round(value), math.ceil(self.lower)), math.floor(self.upper)))
        return float(min(max(value, self.lower), self.upper))

    def sample(self, rng: np.random.Generator) -> float | int:
        lo, hi = self.internal_bounds()
        return self.decode(rng.uniform(lo, hi))


Domain = Union[GridDomain, IntervalDomain]


class HyperparameterSpace:
    """Ordered mapping of parameter names to domains.

    A space with no parameters is valid and denotes the single empty
    configuration (models without tunable hyperparameters).
    """

    def __init__(self, params: Mapping[str, Domain] | None = None) -> None:
        self._params: dict[str, Domain] = dict(params or {})
        for name, domain in self._params.items():
            if not isinstance(domain, (GridDomain, IntervalDomain)):
                raise InvalidParameterError(f"parameter {name!r} has unsupported domain {domain!r}")

    @property
    def params(self) -> dict[str, Domain]:
        return dict(self._params)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, name: str) -> Domain:
        return self._params[name]

    def is_finite(self) -> bool:
        return all(isinstance(d, GridDomain) for d in self._params.values())

    def grid_size(self) -> int:
        if not self.is_finite():
            raise InvalidParameterError("space has non-grid dimensions")
        size = 1
        for domain in self._params.values():
            size *= len(domain.values)  # type: ignore[union-attr]
        return size

    def grid_points(self) -> Iterator[dict]:
        """Cartesian product in declared parameter order; one empty point if no params."""
        if not self.is_finite():
            raise InvalidParameterError("space has non-grid dimensions")
        names = self.names
        pools = [self._params[n].values for n in names]  # type: ignore[union-attr]
        for combo in itertools.product(*pools):
            yield dict(zip(names, combo))

    def contains(self, point: Mapping) -> bool:
        if set(point) != set(self._params):
            return False
        return all(self._params[name].contains(value) for name, value in point.items())

    def sample(self, rng: np.random.Generator) -> dict:
        """Uniform draw: grid dims by index, intervals in internal scale."""
        point: dict = {}
        for name, domain in self._params.items():
            if isinstance(domain, GridDomain):
                point[name] = domain.values[int(rng.integers(len(domain.values)))]
            else:
                point[name] = domain.sample(rng)
        return point

    # continuous-box view (for swarm optimizers) ----------------------------

    def interval_names(self) -> tuple[str, ...]:
        return tuple(n for n, d in self._params.items() if isinstance(d, IntervalDomain))

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Internal-scale bounds of the interval dimensions, in declared order."""
        lows, highs = [], []
        for name in self.interval_names():
            lo, hi = self._params[name].internal_bounds()  # type: ignore[union-attr]
            lows.append(lo)
            highs.append(hi)
        return np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)

    def decode_vector(self, internal: np.ndarray) -> dict:
        """Map an internal-scale vector over the interval dims to a point."""
        names = self.interval_names()
        if len(names) != len(internal):
            raise InvalidParameterError("vector length does not match interval dimensions")
        return {
            name: self._params[name].decode(float(x))  # type: ignore[union-attr]
            for name, x in zip(names, internal)
        }
