"""Seeded random configurations: ``run`` ends in an exit code on every one,
with no traceback and no warning.

Each seed builds one flat config over a small valid base: a few keys, each
a scalar or list key, a space override ``models.<name>.space.<param>`` (of a
declared parameter or not) or a key no config reads, given a random JSON
value or, for an override, a random grid or interval. Counts and grid values
come from small bounded ranges, so that no case asks for a large swarm, grid
or degree. Every case runs through ``cli.main`` in-process, on 2 short series
with every warning raised as an error, and must return 0, 1 or 2.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from hef_lab.cli import main
from hef_lab.models import available_models, model_class
from hef_lab.series import Dataset, write_dataset_csv

from conftest import random_series

SEEDS = range(120)
BASE = {
    "experiment.repetitions": 3,
    "opt.pso.swarm_size": 3,
    "opt.pso.iterations": 2,
    "opt.tpe.trials": 4,
    "opt.tpe.startup": 2,
}
SCALARS = (-1, 0, 1, 2, 3, 4, 0.5, 2.5, 1e-4, "a", "tpe", True, None)
# the values each scalar key is given, besides a random JSON value now and then
KEY_VALUES = {
    "experiment.repetitions": (2, 3, 4, 3.0, "3"),
    "opt.pso.swarm_size": (1, 2, 3, 4, 2.5, True),
    "opt.pso.iterations": (0, 1, 2, 3, "2"),
    "opt.tpe.trials": (0, 1, 3, 5, 4.0),
    "opt.tpe.startup": (0, 1, 2, 6),
    "experiment.scs_optimizer": ("pso", "tpe", "annealing"),
    "experiment.seed": (0, 7, -1, 2.5, "x"),
    "experiment.alpha": (0.05, 0.1, 0.0, 1, "x"),
    "experiment.models": (*available_models(), "prophet"),
    "experiment.splits": ("80:20", "70:30", "91:9", "50:50"),
    "experiment.conditions": ("baseline", "hef", "maef", "rmsef"),
}
LIST_KEYS = ("experiment.models", "experiment.splits", "experiment.conditions")
GRID_VALUES = (0, 1, 2, 3, 4, 12, 0.1, 0.5, 0.99, 1.5, 5.0, -1, -3.0, None, "a", True)
BOUNDS = (-1, 0, 1e-4, 0.01, 0.5, 1, 2, 3, 5)
OTHER_KEYS = ("opt.pso.inertia", "experiment.jobs", "models.ses.alpha", "models.ses.space", "hef.weights.mae")


def _pick(rng: np.random.Generator, pool):
    return pool[int(rng.integers(len(pool)))]


def _value(rng: np.random.Generator):
    """A JSON value: a scalar, a short list of them or a small object."""
    kind = int(rng.integers(4))
    if kind < 2:
        return _pick(rng, SCALARS)
    if kind == 2:
        return [_pick(rng, SCALARS) for _ in range(int(rng.integers(4)))]
    return {_pick(rng, ("min", "max", "grid", "x")): _pick(rng, SCALARS)}


def _domain(rng: np.random.Generator):
    """A grid or interval object, now and then malformed."""
    kind = rng.random()
    if kind < 0.5:
        chosen = sorted({int(rng.integers(len(GRID_VALUES))) for _ in range(int(rng.integers(1, 4)))})
        return {"grid": [GRID_VALUES[i] for i in chosen]}
    if kind < 0.9:
        lower, upper = sorted(float(_pick(rng, BOUNDS)) for _ in range(2))
        domain: dict = {"min": lower, "max": upper}
        if rng.random() < 0.4:
            domain["scale"] = _pick(rng, ("log", "log", "linear", "x"))
        if rng.random() < 0.4:
            domain["integer"] = _pick(rng, (True, True, False, "no"))
        return domain
    return _value(rng)


def configuration(seed: int) -> dict:
    """The flat config of one seed."""
    rng = np.random.default_rng(seed)
    models = sorted(rng.choice(available_models(), size=int(rng.integers(1, 3)), replace=False).tolist())
    flat: dict = {"experiment.models": models, **BASE}
    if "arima" in models:  # one order per parameter keeps its fits few
        flat.update({f"models.arima.space.{p}": {"grid": [int(rng.integers(2))]} for p in "pdq"})
    for _ in range(int(rng.integers(1, 3))):
        kind = rng.random()
        if kind < 0.6:
            name = _pick(rng, models if rng.random() < 0.8 else available_models())
            names = model_class(name).declared_space.names
            param = _pick(rng, names) if names and rng.random() < 0.9 else "zz"
            flat[f"models.{name}.space.{param}"] = _domain(rng)
        elif kind < 0.9:
            key = _pick(rng, tuple(KEY_VALUES))
            if rng.random() < 0.1:
                flat[key] = _value(rng)
            elif key in LIST_KEYS:
                flat[key] = [_pick(rng, KEY_VALUES[key]) for _ in range(int(rng.integers(4)))]
            else:
                flat[key] = _pick(rng, KEY_VALUES[key])
        else:
            flat[_pick(rng, OTHER_KEYS)] = _value(rng)
    return flat


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    rng = np.random.default_rng(7)
    write_dataset_csv(Dataset("d", tuple(random_series(rng, f"s{i}", n=24) for i in range(2))), path)
    return path


def test_every_configuration_ends_in_an_exit_code(data_csv, tmp_path, capsys) -> None:
    failures = []
    for seed in SEEDS:
        flat = configuration(seed)
        config = tmp_path / f"{seed}.cfg"
        config.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in flat.items()))
        run = ["run", "--config", str(config), "--data", str(data_csv), "--out", str(tmp_path / str(seed))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(run)
        except Exception as exc:  # noqa: BLE001  (any escape is the failure reported)
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 1, 2):
            failures.append(f"seed {seed} ({json.dumps(flat)}): {code}")
    capsys.readouterr()
    assert not failures, "\n".join(failures)
