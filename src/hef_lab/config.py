"""Flat dotted-key experiment configuration.

Files are UTF-8 text and hold one ``key = value`` pair per line; values are
JSON (so strings need quotes inside lists, bare words stay strings). ``#``
starts a comment.
Example::

    experiment.models = ["ses", "lr", "knn"]
    experiment.splits = ["80:20"]
    experiment.repetitions = 21
    opt.pso.swarm_size = 12
    models.ses.space.alpha = {"min": 0.05, "max": 0.95}

Every key must be one the configuration reads (``_SCALAR_KEYS``,
``_LIST_KEYS``) or a search space override ``models.<name>.space.<param>``;
any other key is an error. A missing key keeps the default of the settings
dataclass field it maps to. A space override replaces the domain of the one
parameter it names; the model's other parameters keep their declared
domains. ``ExperimentConfig`` refuses a search the sweep cannot run, and the
refusal names the keys that led to it.
Seed precedence: ``--seed`` flag > ``HEF_LAB_SEED`` env var > config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError, InvalidParameterError, UnknownModelError
from .protocol import ExperimentConfig, _check_override
from .series import SplitRatio
from .spaces import Domain, GridDomain, IntervalDomain

__all__ = ["parse_config_file", "parse_override", "build_experiment_config", "SEED_ENV_VAR"]

SEED_ENV_VAR = "HEF_LAB_SEED"

# Each scalar key and the ExperimentConfig field it sets, plus the field inside
# that settings object where there is one; a given value must have the default's type.
_SCALAR_KEYS: dict[str, tuple[str, ...]] = {
    "experiment.scs_optimizer": ("scs_optimizer",),
    "experiment.repetitions": ("repetitions",),
    "experiment.seed": ("master_seed",),
    "experiment.alpha": ("alpha",),
    "opt.pso.swarm_size": ("pso", "swarm_size"),
    "opt.pso.iterations": ("pso", "iterations"),
    "opt.tpe.trials": ("tpe", "trials"),
    "opt.tpe.startup": ("tpe", "startup"),
}
_LIST_KEYS = ("experiment.models", "experiment.splits", "experiment.conditions")


def _parse_value(raw: str):
    raw = raw.strip()
    try:
        return json.loads(raw)
    except ValueError:  # also an integer past Python's digit limit
        return raw  # bare word: keep as string


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read ``key = value`` lines into a flat dict; raises with line numbers."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not {exc.encoding} text ({exc.reason})") from None
    flat: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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
                integer=value.get("integer", False),
            )
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}: needs either 'grid' or 'min'/'max'")


def _replace(settings, given: Mapping[str, tuple[str, object]]):
    """``settings`` with each named field set to the value of its (key, value)."""
    changes = {}
    for name, (key, value) in given.items():
        default = getattr(settings, name)
        # exact types, since JSON true/false are ints to isinstance; ints may stand for floats
        if type(value) is not type(default):
            if type(default) is not float or type(value) is not int:
                raise ConfigError(f"{key}: expected {type(default).__name__}, got {value!r}")
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"{key}: integer out of float range") from None
        changes[name] = value
    try:
        return replace(settings, **changes)
    except (InvalidParameterError, UnknownModelError) as exc:
        raise ConfigError(f"{', '.join(key for key, _ in given.values())}: {exc}") from None


def build_experiment_config(
    flat: Mapping[str, object], seed_override: int | None = None
) -> ExperimentConfig:
    """The settings dataclasses' defaults with the given flat keys applied."""
    space_overrides: dict[str, dict[str, Domain]] = {}
    unknown: list[str] = []
    for key, value in flat.items():
        parts = key.split(".")
        if len(parts) == 4 and parts[0] == "models" and parts[2] == "space":
            space_overrides.setdefault(parts[1], {})[parts[3]] = _domain_from_value(key, value)
        elif key not in _SCALAR_KEYS and key not in _LIST_KEYS:
            unknown.append(key)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    for key in _LIST_KEYS:
        if key in flat and (not isinstance(flat[key], Sequence) or isinstance(flat[key], str)):
            raise ConfigError(f"{key} must be a list")
    if not flat.get("experiment.models"):
        raise ConfigError("experiment.models must be a non-empty list of model names")
    models = tuple(str(m) for m in flat["experiment.models"])
    try:
        config = ExperimentConfig(models=models)
    except (InvalidParameterError, UnknownModelError) as exc:
        raise ConfigError(f"experiment.models: {exc}") from None
    if "experiment.splits" in flat:
        try:
            splits = tuple(SplitRatio.parse(str(s)) for s in flat["experiment.splits"])
        except Exception as exc:
            raise ConfigError(f"experiment.splits: {exc}") from exc
        config = _replace(config, {"splits": ("experiment.splits", splits)})
    if "experiment.conditions" in flat:
        conditions = tuple(str(c) for c in flat["experiment.conditions"])
        config = _replace(config, {"conditions": ("experiment.conditions", conditions)})

    # a settings object's checks may span its fields, so its keys apply together
    nested: dict[str, dict[str, tuple[str, object]]] = {}
    search: dict[str, tuple[str, object]] = {}  # set together, last, so a search's refusal names every key given
    for key, (name, *inner) in _SCALAR_KEYS.items():
        if key not in flat:
            continue
        if inner:
            nested.setdefault(name, {})[inner[0]] = (key, flat[key])
        elif key == "experiment.scs_optimizer":
            search[name] = (key, flat[key])
        else:
            config = _replace(config, {name: (key, flat[key])})
    for name, given in nested.items():
        config = replace(config, **{name: _replace(getattr(config, name), given)})
    for name, params in space_overrides.items():  # a domain's own refusal is about its key alone
        for param, domain in params.items():
            try:
                _check_override(name, {param: domain})
            except (InvalidParameterError, UnknownModelError) as exc:
                raise ConfigError(f"models.{name}.space.{param}: {exc}") from None
    if space_overrides:
        search["space_overrides"] = (", ".join(key for key in flat if key.startswith("models.")), space_overrides)
    config = _replace(config, search)

    if seed_override is not None:
        return replace(config, master_seed=int(seed_override))
    if SEED_ENV_VAR in os.environ:
        try:
            return replace(config, master_seed=int(os.environ[SEED_ENV_VAR]))
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None
    return config
