"""Flat dotted-key experiment configuration.

Files hold one ``key = value`` pair per line; values are JSON (so strings
need quotes inside lists, bare words stay strings). ``#`` starts a comment.
Example::

    experiment.models = ["ses", "lr", "knn"]
    experiment.splits = ["80:20"]
    experiment.repetitions = 21
    opt.pso.swarm_size = 12
    models.ses.space.alpha = {"min": 0.05, "max": 0.95}

Every key must be one the configuration reads (``_DEFAULTS``) or a search
space override ``models.<name>.space.<param>``; any other key is an error.
An override replaces the domain of the one parameter it names; the model's
other parameters keep their declared domains. It must name a registered
model and a parameter that model declares.
Seed precedence: ``--seed`` flag > ``HEF_LAB_SEED`` env var > config file.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError, UnknownModelError
from .evaluation import MetricWeights, PenaltySchedule
from .models import create as create_model
from .optimizers import DEFAULT_GRID_CAP, PsoConfig, TpeConfig
from .protocol import ExperimentConfig
from .series import SplitRatio
from .spaces import Domain, GridDomain, HyperparameterSpace, IntervalDomain

__all__ = [
    "parse_config_file",
    "parse_override",
    "build_experiment_config",
    "SEED_ENV_VAR",
]

SEED_ENV_VAR = "HEF_LAB_SEED"

# Every key the configuration reads besides the search space overrides, with
# the value a missing key takes.
_DEFAULTS: dict[str, object] = {
    "experiment.models": None,
    "experiment.splits": ["80:20"],
    "experiment.conditions": ["hef", "maef"],
    "experiment.scs_optimizer": "pso",
    "experiment.repetitions": 21,
    "experiment.seed": 0,
    "experiment.alpha": 0.05,
    "opt.pso.swarm_size": 20,
    "opt.pso.iterations": 50,
    "opt.pso.inertia": 0.729,
    "opt.pso.cognitive": 1.49445,
    "opt.pso.social": 1.49445,
    "opt.pso.velocity_clamp": 0.5,
    "opt.tpe.trials": 60,
    "opt.tpe.startup": 10,
    "opt.tpe.gamma": 0.25,
    "opt.tpe.candidates": 24,
    "opt.tpe.bandwidth_factor": 1.06,
    "opt.grid.cap": DEFAULT_GRID_CAP,
    "hef.weights.r2": 1.0,
    "hef.weights.mae": 1.0,
    "hef.weights.rmse": 0.5,
    "hef.penalties.l1": 1.2,
    "hef.penalties.l2": 1.3,
    "hef.penalties.l3": 1.5,
    "hef.penalties.l4": 1.8,
}


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare word: keep as string


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` lines into a flat dict; raises with line numbers."""
    flat: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        flat[key] = _parse_value(raw)
    return flat


def parse_override(text: str) -> tuple[str, object]:
    """Parse one ``--set key=value`` override."""
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError(f"override has an empty key: {text!r}")
    return key, _parse_value(raw)


def _domain_from_value(key: str, value: object) -> Domain:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key}: expected a grid or interval object, got {value!r}")
    try:
        if "grid" in value:
            values = value["grid"]
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise TypeError("grid must be a list")
            return GridDomain(tuple(values))
        if "min" in value and "max" in value:
            return IntervalDomain(
                lower=float(value["min"]),
                upper=float(value["max"]),
                scale=str(value.get("scale", "linear")),
                integer=bool(value.get("integer", False)),
            )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}: needs either 'grid' or 'min'/'max'")


def _merged_space(model: str, params: Mapping[str, Domain]) -> HyperparameterSpace:
    """The model's declared space with the overridden parameters' domains replaced."""
    try:
        declared = create_model(model).space().params
    except UnknownModelError as exc:
        raise ConfigError(f"models.{model}.space: {exc}") from None
    undeclared = ", ".join(sorted(set(params) - set(declared)))
    if undeclared:
        raise ConfigError(f"models.{model}.space: {model} declares no parameter {undeclared}")
    return HyperparameterSpace({**declared, **params})


def _get(flat: Mapping[str, object], key: str):
    default = _DEFAULTS[key]
    value = flat.get(key, default)
    # exact types, since JSON true/false are ints to isinstance; ints may stand for floats
    if default is not None and value is not None and type(value) is not type(default):
        if type(default) is float and type(value) is int:
            return float(value)
        raise ConfigError(f"{key}: expected {type(default).__name__}, got {value!r}")
    return value


def build_experiment_config(
    flat: Mapping[str, object], seed_override: int | None = None
) -> ExperimentConfig:
    """Assemble the experiment configuration from flat keys plus defaults."""
    per_model_params: dict[str, dict[str, Domain]] = {}
    unknown: list[str] = []
    for key, value in flat.items():
        parts = key.split(".")
        if len(parts) == 4 and parts[0] == "models" and parts[2] == "space":
            per_model_params.setdefault(parts[1], {})[parts[3]] = _domain_from_value(key, value)
        elif key not in _DEFAULTS:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    space_overrides = {name: _merged_space(name, params) for name, params in per_model_params.items()}

    models = flat.get("experiment.models")
    if not isinstance(models, Sequence) or isinstance(models, str) or not models:
        raise ConfigError("experiment.models must be a non-empty list of model names")

    splits_raw = flat.get("experiment.splits", _DEFAULTS["experiment.splits"])
    if not isinstance(splits_raw, Sequence) or isinstance(splits_raw, str):
        raise ConfigError("experiment.splits must be a list of ratio labels")
    try:
        splits = tuple(SplitRatio.parse(str(s)) for s in splits_raw)
    except Exception as exc:
        raise ConfigError(f"experiment.splits: {exc}") from exc

    conditions_raw = flat.get("experiment.conditions", _DEFAULTS["experiment.conditions"])
    if not isinstance(conditions_raw, Sequence) or isinstance(conditions_raw, str):
        raise ConfigError("experiment.conditions must be a list")

    if seed_override is not None:
        seed = int(seed_override)
    elif SEED_ENV_VAR in os.environ:
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    else:
        seed = int(_get(flat, "experiment.seed"))

    try:
        return ExperimentConfig(
            models=tuple(str(m) for m in models),
            splits=splits,
            conditions=tuple(str(c) for c in conditions_raw),
            scs_optimizer=_get(flat, "experiment.scs_optimizer"),
            repetitions=int(_get(flat, "experiment.repetitions")),
            master_seed=seed,
            alpha=float(_get(flat, "experiment.alpha")),
            pso=PsoConfig(
                swarm_size=int(_get(flat, "opt.pso.swarm_size")),
                iterations=int(_get(flat, "opt.pso.iterations")),
                inertia=float(_get(flat, "opt.pso.inertia")),
                cognitive=float(_get(flat, "opt.pso.cognitive")),
                social=float(_get(flat, "opt.pso.social")),
                velocity_clamp=float(_get(flat, "opt.pso.velocity_clamp")),
            ),
            tpe=TpeConfig(
                trials=int(_get(flat, "opt.tpe.trials")),
                startup=int(_get(flat, "opt.tpe.startup")),
                gamma=float(_get(flat, "opt.tpe.gamma")),
                candidates=int(_get(flat, "opt.tpe.candidates")),
                bandwidth_factor=float(_get(flat, "opt.tpe.bandwidth_factor")),
            ),
            grid_cap=int(_get(flat, "opt.grid.cap")),
            hef_weights=MetricWeights(
                r2=float(_get(flat, "hef.weights.r2")),
                mae=float(_get(flat, "hef.weights.mae")),
                rmse=float(_get(flat, "hef.weights.rmse")),
            ),
            hef_penalties=PenaltySchedule(
                level_1=float(_get(flat, "hef.penalties.l1")),
                level_2=float(_get(flat, "hef.penalties.l2")),
                level_3=float(_get(flat, "hef.penalties.l3")),
                level_4=float(_get(flat, "hef.penalties.l4")),
            ),
            space_overrides=space_overrides,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
