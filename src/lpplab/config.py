"""Experiment configuration: a flat, documented JSON key set.

Every experiment is one JSON object.  ``command`` selects the
subcommand; the remaining keys are validated against the schema below,
and unknown keys are rejected by name so that configs stay diffable and
auditable.  Re-running an identical config reproduces identical
numerical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional

from .errors import ParameterError
from .model import _LAWS


class ConfigError(ParameterError):
    pass


# environments a config may name: the Poisson cloud and the sampled lattice laws
MODELS = ("poisson",) + tuple(law for law in _LAWS if law != "explicit")


class Key(NamedTuple):
    """One config key: its type, default (None means required), allowed
    values, smallest allowed number, the number it must exceed, and the
    Key of each list entry."""

    type: type
    default: Any
    choices: tuple = ()
    minimum: Optional[float] = None
    above: Optional[float] = None
    item: Optional["Key"] = None


# anchors span halfwidth * n^(2/3) on each side: 0 stacks them, < 0 mirrors them
_HALFWIDTH = Key(float, 2.0, above=0.0)
# separations of at most threshold * n^(2/3) count as coincidence; 0 is the literal reading
_THRESHOLD = Key(float, 1.0, minimum=0.0)


_COMMON = {"command": Key(str, None), "seed": Key(int, 0), "out": Key(str, "out")}
# the commands that sample replicate environments of one of MODELS; only
# they fan out, so only they take replicates and threads
_REPLICATED = {
    "replicates": Key(int, 1, minimum=1),
    "threads": Key(int, 1, minimum=1),
    "model": Key(str, "poisson", MODELS),
    "rate": Key(float, 2.0),
    "law_param": Key(float, 0.5),
    "n": Key(int, 32, minimum=2),  # n = 1 leaves a lattice sheet with no sink anchor
    "halfwidth": _HALFWIDTH,
}

_SCHEMAS: Dict[str, Dict[str, Key]] = {
    "sample": _REPLICATED,
    "gap": {**_REPLICATED, "grid_points": Key(int, 32, minimum=1)},
    "classify": {
        "law_param": Key(float, 0.5),
        "n_list": Key(list, [16, 32], item=Key(int, None, minimum=2)),
        "halfwidth": _HALFWIDTH,
        "threshold": _THRESHOLD,
        "seeds_per_n": Key(int, 1, minimum=1),
    },
    "busemann": {
        "law_param": Key(float, 0.5),
        "n": Key(int, 64, minimum=2),
        "theta_lo": Key(float, -0.5),
        "theta_hi": Key(float, 0.5),
        "threshold": _THRESHOLD,
        "grid_points": Key(int, 32, minimum=1),
        "directions": Key(int, 4, minimum=0),
    },
    "dim": {**_REPLICATED, "grid_points": Key(int, 64, minimum=1),
            "scales": Key(int, 5, minimum=2)},
    "verify": {
        "lattice_instances": Key(int, 200, minimum=0),
        "cloud_instances": Key(int, 200, minimum=0),
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
    mismatches (a JSON boolean is not a number), numbers that are not
    finite floats (NaN, Infinity, an int too large for a float), values
    outside a key's allowed set, below its minimum or not above its
    bound, list entries of the wrong type, or a missing command; and on
    a document that is not JSON or is nested too deeply to parse.
    """
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
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
        values[key] = _checked(key, value, schema[key])
    for key, spec in schema.items():
        if key != "command" and key not in values:
            if spec.default is None:
                raise ConfigError(f"missing required key: {key}")
            values[key] = spec.default
    return ExperimentConfig(command, values)


def _checked(key: str, value, spec: Key):
    if spec.type is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:  # too large for a float: rejected below as not finite
            value = math.inf
    if not isinstance(value, spec.type) or (isinstance(value, bool) and spec.type is not bool):
        raise ConfigError(f"key {key}: expected {spec.type.__name__}, got {type(value).__name__}")
    if spec.type is float and not math.isfinite(value):
        raise ConfigError(f"key {key}: {value} is not a finite number")
    if spec.choices and value not in spec.choices:
        raise ConfigError(f"key {key}: {value!r} is not one of {spec.choices}")
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigError(f"key {key}: {value} is below the minimum {spec.minimum}")
    if spec.above is not None and not value > spec.above:
        raise ConfigError(f"key {key}: {value} must be above {spec.above}")
    if spec.item is not None:
        value = [_checked(f"{key}[{k}]", v, spec.item) for k, v in enumerate(value)]
    return value


def round_trip(cfg: ExperimentConfig) -> ExperimentConfig:
    return parse_config(cfg.to_json())
