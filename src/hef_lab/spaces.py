"""Hyperparameter domains (finite grids, closed real/integer intervals) and a parameter's legal values.

A point is a plain ``dict`` mapping parameter names to values. Interval
dimensions may be log-scaled; optimizers working on continuous boxes operate
in the internal scale (log10 for log dimensions) and integers are rounded at
evaluation time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .errors import InvalidParameterError

__all__ = ["GridDomain", "IntervalDomain", "Domain", "Legal", "HyperparameterSpace"]


@dataclass(frozen=True)
class GridDomain:
    """A finite set of admissible values, in declared order."""

    values: tuple

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if not vals:
            raise InvalidParameterError("grid domain must be non-empty")
        if any(isinstance(v, float) and not math.isfinite(v) for v in vals):
            raise InvalidParameterError(f"grid values must be finite, got {vals!r}")
        if len(set(vals)) != len(vals):
            raise InvalidParameterError("grid domain values must be unique")
        object.__setattr__(self, "values", vals)


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
        object.__setattr__(self, "_bounds", (self.encode(self.lower), self.encode(self.upper)))

    # internal (optimizer) scale -------------------------------------------

    def encode(self, value: float) -> float:
        """The internal-scale coordinate of ``value``; ``decode`` inverts it."""
        return math.log10(float(value)) if self.scale == "log" else float(value)

    def internal_bounds(self) -> tuple[float, float]:
        return self._bounds

    def decode(self, internal: float) -> float | int:
        """The value of one internal-scale coordinate: ``decode_list`` of one."""
        return self.decode_list((internal,))[0]

    def decode_list(self, internal: Iterable[float]) -> list[float | int]:
        """The value of each internal-scale coordinate, in order: clamped to
        the internal bounds, scaled back, then rounded to the interval's
        integers or clamped to the interval. Each clamp is ``min(max(x, lo),
        hi)`` written out, so a tie keeps ``x``: -0.0 at a 0.0 bound stays -0.0."""
        lo, hi = self._bounds
        log, integer = self.scale == "log", self.integer
        lower, upper = (math.ceil(self.lower), math.floor(self.upper)) if integer else (self.lower, self.upper)
        values = []
        for x in internal:
            x = float(x)
            x = lo if lo > x else x
            x = hi if hi < x else x
            value = 10.0**x if log else x
            value = round(value) if integer else value
            value = lower if lower > value else value
            value = upper if upper < value else value
            values.append(int(value) if integer else float(value))
        return values

    def sample(self, rng: np.random.Generator) -> float | int:
        lo, hi = self.internal_bounds()
        return self.decode(rng.uniform(lo, hi))


Domain = Union[GridDomain, IntervalDomain]


@dataclass(frozen=True)
class Legal:
    """The values a model parameter accepts: finite numbers from ``lower`` (itself only if ``closed``) to
    ``upper``, integers only if ``integer``, and ``None`` only if ``none_ok``; never a bool or another type."""

    lower: float = 0.0
    upper: float = math.inf
    integer: bool = False
    none_ok: bool = False
    closed: bool = True

    def __str__(self) -> str:
        opening, floor = ("[", ">=") if self.closed else ("(", ">")
        bounds = f"in {opening}{self.lower:g}, {self.upper:g}]" if self.upper < math.inf else f"{floor} {self.lower:g}"
        return ("an integer " if self.integer else "") + bounds + (" or None" if self.none_ok else "")

    def admits(self, value) -> bool:
        # every fit asks, so exact floats and ints skip the type checks; no int becomes a float, which may overflow
        if type(value) not in (float, int) and (type(value) is bool or not isinstance(value, Real)):
            return value is None and self.none_ok
        above = self.lower <= value if self.closed else self.lower < value
        return above and value <= self.upper and value != math.inf and (not self.integer or value % 1 == 0)

    def admits_domain(self, domain: Domain) -> bool:
        """Whether every value ``domain`` yields is admitted: each grid value, or the ends an interval clamps to."""
        if isinstance(domain, GridDomain):
            return all(map(self.admits, domain.values))
        ends = (math.ceil(domain.lower), math.floor(domain.upper)) if domain.integer else (domain.lower, domain.upper)
        return (domain.integer or not self.integer) and all(map(self.admits, ends))


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
        self._intervals = {n: d for n, d in self._params.items() if isinstance(d, IntervalDomain)}

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
        return tuple(self._intervals)

    def box_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Internal-scale bounds of the interval dimensions, in declared order."""
        lows, highs = [], []
        for name in self.interval_names():
            lo, hi = self._params[name].internal_bounds()  # type: ignore[union-attr]
            lows.append(lo)
            highs.append(hi)
        return np.asarray(lows, dtype=float), np.asarray(highs, dtype=float)

    def decode_rows(self, internal: np.ndarray) -> list[dict]:
        """The point of each row of an internal-scale ``(points, interval
        dims)`` matrix, each interval dim decoded as one column."""
        internal = np.asarray(internal, dtype=float)
        if internal.ndim != 2 or internal.shape[1] != len(self._intervals):
            raise InvalidParameterError("matrix columns do not match interval dimensions")
        points: list[dict] = [{} for _ in range(len(internal))]
        for (name, domain), column in zip(self._intervals.items(), internal.T.tolist()):
            for point, value in zip(points, domain.decode_list(column)):
                point[name] = value
        return points
