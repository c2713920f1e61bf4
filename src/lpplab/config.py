"""Experiment configuration: a flat, documented JSON key set.

Every experiment is one JSON object.  ``command`` selects the
subcommand; the remaining keys are validated against the schema below,
and unknown keys are rejected by name so that configs stay diffable and
auditable.  Re-running an identical config reproduces identical
numerical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict

from .errors import ParameterError
from .model import _LAWS


class ConfigError(ParameterError):
    pass


# environments a config may name: the Poisson cloud and the sampled lattice laws
MODELS = ("poisson",) + tuple(law for law in _LAWS if law != "explicit")

# key -> (type, default) or (type, default, allowed values); None default means required
_COMMON = {
    "command": (str, None),
    "seed": (int, 0),
    "replicates": (int, 1),
    "threads": (int, 1),
    "out": (str, "out"),
}

_SCHEMAS: Dict[str, Dict[str, tuple]] = {
    "sample": {
        "model": (str, "poisson", MODELS),
        "rate": (float, 2.0),
        "law_param": (float, 0.5),
        "n": (int, 32),
        "halfwidth": (float, 2.0),
    },
    "gap": {
        "model": (str, "poisson", MODELS),
        "law_param": (float, 0.5),
        "rate": (float, 2.0),
        "n": (int, 32),
        "grid_points": (int, 32),
        "halfwidth": (float, 2.0),
    },
    "classify": {
        "law_param": (float, 0.5),
        "n_list": (list, [16, 32]),
        "halfwidth": (float, 2.0),
        "threshold": (float, 1.0),
        "seeds_per_n": (int, 1),
    },
    "busemann": {
        "law_param": (float, 0.5),
        "n": (int, 64),
        "theta_lo": (float, -0.5),
        "theta_hi": (float, 0.5),
        "threshold": (float, 1.0),
        "grid_points": (int, 32),
        "directions": (int, 4),
    },
    "dim": {
        "model": (str, "poisson", MODELS),
        "law_param": (float, 0.5),
        "rate": (float, 2.0),
        "n": (int, 32),
        "grid_points": (int, 64),
        "halfwidth": (float, 2.0),
        "scales": (int, 5),
    },
    "verify": {
        "lattice_instances": (int, 200),
        "cloud_instances": (int, 200),
    },
}

COMMANDS = tuple(_SCHEMAS)


@dataclass
class ExperimentConfig:
    command: str
    values: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.values[key]

    def to_json(self) -> str:
        return json.dumps({"command": self.command, **self.values}, sort_keys=True)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document.

    Raises ConfigError naming the offending key on unknown keys, type
    mismatches (a JSON boolean is not a number), values outside a key's
    allowed set, or a missing command.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    command = raw.get("command")
    if command is None:
        raise ConfigError("missing required key: command")
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    schema = {**_COMMON, **_SCHEMAS[command]}
    values: Dict[str, Any] = {}
    for key, value in raw.items():
        if key == "command":
            continue
        if key not in schema:
            raise ConfigError(f"unknown key: {key} (command {command})")
        want, _, *allowed = schema[key]
        if want is float and type(value) is int:
            value = float(value)
        if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
            raise ConfigError(f"key {key}: expected {want.__name__}, got {type(value).__name__}")
        if allowed and value not in allowed[0]:
            raise ConfigError(f"key {key}: {value!r} is not one of {allowed[0]}")
        values[key] = value
    for key, (want, default, *_) in schema.items():
        if key == "command":
            continue
        if key not in values:
            if default is None:
                raise ConfigError(f"missing required key: {key}")
            values[key] = default
    return ExperimentConfig(command, values)


def round_trip(cfg: ExperimentConfig) -> ExperimentConfig:
    return parse_config(cfg.to_json())
