"""A small solver-zoo sweep against its results store frozen from an earlier commit.

The sweep runs one seeded monthly series through ``rr``/``lsr``/``enr``/``hr``
under TPE (6 trials) and ``dtr``/``plr`` under grid search, 3 reps, under both
``hef`` and ``maef``. Every stored value except the wall-clock ``exec_time``
must equal the frozen row exactly: a rewrite of a solver or a search that
changes one bit of one fit shows up here.

The frozen rows in ``data/zoo_sweep_rows.csv`` were written with NumPy 2.4.6
and SciPy 1.17.1 (Python 3.11, OpenBLAS). Another NumPy or BLAS build may
round a matrix product differently; if this test fails on a fresh install
alone, regenerate the file at a known-good commit before trusting it.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from hef_lab.config import build_experiment_config
from hef_lab.protocol import run_experiment
from hef_lab.series import Dataset, Frequency, TimeSeries

FROZEN = Path(__file__).parent / "data" / "zoo_sweep_rows.csv"

CONFIG = {
    "experiment.models": ["rr", "lsr", "enr", "hr", "dtr", "plr"],
    "experiment.splits": ["80:20"],
    "experiment.conditions": ["hef", "maef"],
    "experiment.scs_optimizer": "tpe",
    "experiment.repetitions": 3,
    "experiment.seed": 1,
    "opt.tpe.trials": 6,
    "opt.tpe.startup": 3,
    "models.dtr.space.max_depth": {"grid": [2, 4, 8, None]},
}


def _series() -> TimeSeries:
    """Five years of monthly demand: trend, season, noise and four spikes."""
    rng = np.random.default_rng(20261018)
    t = np.arange(60)
    values = 50.0 + 0.2 * t + 6.0 * np.sin(2.0 * np.pi * t / 12.0) + rng.normal(0.0, 5.0, 60)
    values[rng.choice(48, size=4, replace=False)] += 120.0
    return TimeSeries(id="m000", frequency=Frequency.MONTHLY, values=np.maximum(values, 1.0))


def _rows(path: Path) -> list[tuple]:
    """The store's rows in file order, without ``exec_time``, values as floats."""
    with path.open(newline="") as fh:
        return [
            (*(row[k] for k in ("series_id", "model", "condition", "optimizer", "split", "rep", "metric")),
             float(row["value"]))
            for row in csv.DictReader(fh)
            if row["metric"] != "exec_time"
        ]


def sweep(store: Path) -> None:
    config = build_experiment_config(CONFIG)
    summary = run_experiment(Dataset("zoo", (_series(),)), config, store, jobs=1)
    assert not summary.failures


def test_store_rows_equal_the_frozen_rows(tmp_path) -> None:
    store = tmp_path / "results.csv"
    sweep(store)
    frozen = _rows(FROZEN)
    assert len(frozen) == 6 * 2 * 3 * 8  # models x conditions x reps x (6 metrics + 2 search figures)
    assert _rows(store) == frozen
