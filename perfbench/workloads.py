"""Seeded inputs for the benchmark workloads.

Each workload is a dataset CSV plus a flat config file, both made from the
workload seed alone; the program under test receives only those two files
and a job count. ``tiny=True`` shrinks every workload to a few seconds for
the benchmark's own tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Monthly fleet bands (cycled over the series): noise and season amplitude as
# fractions of the base level; bands 3 and 4 get injected demand spikes. The
# spread covers all four coefficient-of-variation bands of the hef tolerances,
# which hef reads from the training split.
_NOISE_FRAC = (0.03, 0.12, 0.28, 0.10, 0.15)
_SEASON_FRAC = (0.03, 0.10, 0.18, 0.08, 0.10)
_SPIKE_STRENGTH = {3: 3.0, 4: 8.0}


@dataclass(frozen=True)
class Series:
    id: str
    frequency: str
    values: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    series: tuple[Series, ...]
    config: dict[str, object]
    jobs: int

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write ``data.csv`` and ``experiment.cfg``; values round-trip exactly."""
        directory.mkdir(parents=True, exist_ok=True)
        data, cfg = directory / "data.csv", directory / "experiment.cfg"
        lines = ["series_id,frequency,t,value"]
        for s in self.series:
            lines.extend(f"{s.id},{s.frequency},{t},{v!r}" for t, v in enumerate(s.values.tolist(), 1))
        data.write_text("\n".join(lines) + "\n")
        cfg.write_text("".join(f"{k} = {json.dumps(v)}\n" for k, v in self.config.items()))
        return data, cfg


def monthly_fleet(
    rng: np.random.Generator, n_series: int, n: int = 60, bands: tuple[int, ...] = (0, 1, 2, 3, 4)
) -> tuple[Series, ...]:
    """Trend + season + noise per band; bands 3-4 get 4-8 spikes in the training
    split (the first ``n - 12`` points) and two more in the test window."""
    out = []
    for i in range(n_series):
        band = bands[i % len(bands)]
        base = float(rng.uniform(30.0, 80.0))
        t = np.arange(n)
        values = (
            base
            + rng.uniform(-0.1, 0.3) * t
            + _SEASON_FRAC[band] * base * np.sin(2.0 * np.pi * t / 12.0 + rng.uniform(0.0, 6.0))
            + rng.normal(0.0, _NOISE_FRAC[band] * base, n)
        )
        if band in _SPIKE_STRENGTH:
            strength = _SPIKE_STRENGTH[band]
            k = int(rng.integers(4, 9))
            values[rng.choice(n - 12, size=k, replace=False)] += rng.uniform(0.8, 1.2, k) * strength * base
            tail = n - 1 - rng.choice(12, size=2, replace=False)
            values[tail] += rng.uniform(0.8, 1.2, 2) * strength * base
        out.append(Series(f"m{i:03d}", "monthly", np.maximum(values, 1.0)))
    return tuple(out)


def daily_fleet(rng: np.random.Generator, n_series: int, n: int = 730) -> tuple[Series, ...]:
    """Two years of daily demand: weekly and yearly cycles, trend, noise, floor at 0.5."""
    out = []
    t = np.arange(n)
    for i in range(n_series):
        base = float(rng.uniform(20.0, 200.0))
        values = (
            base
            + rng.uniform(-0.01, 0.03) * base / 10.0 * t
            + rng.uniform(0.0, 0.3) * base * np.sin(2.0 * np.pi * t / 7.0 + rng.uniform(0.0, 6.0))
            + rng.uniform(0.0, 0.2) * base * np.sin(2.0 * np.pi * t / 365.0 + rng.uniform(0.0, 6.0))
            + rng.normal(0.0, rng.uniform(0.05, 0.4) * base, n)
        )
        out.append(Series(f"d{i:04d}", "daily", np.maximum(values, 0.5)))
    return tuple(out)


def _config(seed: int, models: list[str], reps: int, optimizer: str, **extra) -> dict[str, object]:
    return {
        "experiment.models": models,
        "experiment.splits": ["80:20"],
        "experiment.conditions": ["hef", "maef"],
        "experiment.scs_optimizer": optimizer,
        "experiment.repetitions": reps,
        "experiment.seed": seed,
        **extra,
    }


def fleet_pso(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 1])
    series = monthly_fleet(rng, 30)
    config = _config(
        seed, ["ses", "lr", "knn"], 6 if tiny else 21, "pso",
        **{
            "opt.pso.swarm_size": 4 if tiny else 5,
            "opt.pso.iterations": 3 if tiny else 4,
            "models.knn.space.n_neighbors": {"grid": [1, 5, 9]},
        },
    )
    return Workload("fleet-pso", series, config, jobs=1)


def zoo_tpe(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 2])
    series = monthly_fleet(rng, 1 if tiny else 8, bands=(1, 2, 3, 4))
    config = _config(
        seed, ["rr", "lsr", "enr", "hr", "dtr", "plr"], 3, "tpe",
        **{
            "opt.tpe.trials": 6 if tiny else 10,
            "opt.tpe.startup": 3 if tiny else 4,
            "models.dtr.space.max_depth": {"grid": [2, 4, 8, None]},
        },
    )
    return Workload("zoo-tpe", series, config, jobs=1)


def daily_jobs2(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng([seed, 3])
    series = daily_fleet(rng, 8 if tiny else 160)
    config = _config(
        seed, ["ses"], 3, "pso",
        **{"opt.pso.swarm_size": 4, "opt.pso.iterations": 3},
    )
    return Workload("daily-jobs2", series, config, jobs=2)


WORKLOADS = {"fleet-pso": fleet_pso, "zoo-tpe": zoo_tpe, "daily-jobs2": daily_jobs2}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
