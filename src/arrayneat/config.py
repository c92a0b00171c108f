"""Run configuration: the full hyperparameter record and its file format.

The config file is a flat ``key = value`` text format.  Keys use the
hyperparameter names verbatim; unknown keys are hard errors so typos cannot
silently fall back to defaults.  Lists (activation_options,
aggregation_options) are comma separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError
from .functions import ACTIVATION_IDS, AGGREGATION_IDS

_PROBABILITY_FIELDS = (
    "node_add", "node_delete", "conn_add", "conn_delete",
    "bias_mutate_rate", "bias_replace_rate",
    "response_mutate_rate", "response_replace_rate",
    "weight_mutate_rate", "weight_replace_rate",
    "activation_replace_rate", "aggregation_replace_rate",
    "enabled_mutate_rate", "survival_threshold",
)
# an infinite target is never reached; an infinite threshold puts everyone in one species
_UNBOUNDED_FIELDS = ("fitness_target", "compatibility_threshold")
_NON_NEGATIVE_FIELDS = (
    "compatibility_threshold", "compatibility_disjoint", "compatibility_homologous",
    "spawn_number_change_rate", "genome_elitism", "species_elitism", "generation_limit",
    "max_stagnation",
)
# the values each declared field type takes; bools are refused everywhere
_ACCEPTED = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating),
             "str": str}


@dataclass(frozen=True)
class NeatConfig:
    """Every knob that controls the algorithm and network behavior."""

    # algorithmic controls
    seed: int = 0
    fitness_target: float = math.inf
    generation_limit: int = 100
    pop_size: int = 150
    network_type: str = "feedforward"
    inputs: int = 2
    outputs: int = 1
    max_nodes: int = 50
    max_conns: int = 100
    max_species: int = 10
    compatibility_disjoint: float = 1.0
    compatibility_homologous: float = 0.5
    node_add: float = 0.2
    node_delete: float = 0.0
    conn_add: float = 0.4
    conn_delete: float = 0.0
    compatibility_threshold: float = 3.5
    species_elitism: int = 2
    max_stagnation: int = 15
    genome_elitism: int = 2
    survival_threshold: float = 0.2
    spawn_number_change_rate: float = 0.5

    # network behavior controls
    bias_init_mean: float = 0.0
    bias_init_std: float = 1.0
    bias_mutate_power: float = 0.5
    bias_mutate_rate: float = 0.7
    bias_replace_rate: float = 0.1
    response_init_mean: float = 1.0
    response_init_std: float = 0.0
    response_mutate_power: float = 0.0
    response_mutate_rate: float = 0.0
    response_replace_rate: float = 0.0
    weight_init_mean: float = 0.0
    weight_init_std: float = 1.0
    weight_mutate_power: float = 0.5
    weight_mutate_rate: float = 0.8
    weight_replace_rate: float = 0.1
    activation_default: str = "tanh"
    activation_options: tuple[str, ...] = ("tanh",)
    activation_replace_rate: float = 0.0
    aggregation_default: str = "sum"
    aggregation_options: tuple[str, ...] = ("sum",)
    aggregation_replace_rate: float = 0.0
    enabled_mutate_rate: float = 0.0

    # numeric attribute clamp bounds
    attr_min: float = -30.0
    attr_max: float = 30.0

    # problem selection
    problem: str = "xor"
    regression_target: str = "sin"
    regression_samples: int = 64

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "tuple[str, ...]":
                typed = isinstance(value, tuple) and all(isinstance(v, str) for v in value)
            else:
                typed = isinstance(value, _ACCEPTED[f.type]) and not isinstance(value, bool)
            if not typed:
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(value, (float, np.floating)) and math.isnan(value):
                raise ConfigError(f"{f.name} must be a number, got nan")
            if (isinstance(value, (float, np.floating)) and math.isinf(value)
                    and f.name not in _UNBOUNDED_FIELDS):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if not -2 ** 63 <= self.seed < 2 ** 63:
            raise ConfigError(f"seed must fit in a signed 64-bit integer, got {self.seed}")
        for name in _NON_NEGATIVE_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        for name in _PROBABILITY_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.pop_size < 2 * self.species_elitism or self.pop_size < 1:
            raise ConfigError(
                f"pop_size ({self.pop_size}) must be >= 2 * species_elitism "
                f"({self.species_elitism}) and >= 1")
        if self.inputs < 1 or self.outputs < 1:
            raise ConfigError("inputs and outputs must each be >= 1")
        if self.max_nodes < self.inputs + self.outputs:
            raise ConfigError(
                f"max_nodes ({self.max_nodes}) must be >= inputs + outputs "
                f"({self.inputs + self.outputs})")
        if self.max_conns < self.inputs * self.outputs:
            raise ConfigError(
                f"max_conns ({self.max_conns}) must be >= inputs * outputs "
                f"({self.inputs * self.outputs})")
        if self.network_type != "feedforward":
            # connection mutation skips its cycle check for recurrent genomes,
            # but inference needs an acyclic network
            raise ConfigError(f"network_type must be feedforward, got {self.network_type!r}: "
                              f"only feedforward networks run until a recurrent forward "
                              f"pass exists")
        if self.max_species < 1:
            raise ConfigError("max_species must be >= 1")
        if self.attr_min >= self.attr_max:
            raise ConfigError("attr_min must be < attr_max")
        for name in (self.activation_default, *self.activation_options):
            if name not in ACTIVATION_IDS:
                raise ConfigError(f"unknown activation function {name!r}")
        for name in (self.aggregation_default, *self.aggregation_options):
            if name not in AGGREGATION_IDS:
                raise ConfigError(f"unknown aggregation function {name!r}")
        if not self.activation_options or not self.aggregation_options:
            raise ConfigError("activation_options and aggregation_options must be non-empty")

    # -- resolved function codes -------------------------------------------

    @property
    def activation_default_id(self) -> int:
        return ACTIVATION_IDS[self.activation_default]

    @property
    def aggregation_default_id(self) -> int:
        return AGGREGATION_IDS[self.aggregation_default]

    @property
    def activation_option_ids(self) -> tuple[int, ...]:
        return tuple(ACTIVATION_IDS[n] for n in self.activation_options)

    @property
    def aggregation_option_ids(self) -> tuple[int, ...]:
        return tuple(AGGREGATION_IDS[n] for n in self.aggregation_options)

    def with_overrides(self, **kwargs) -> "NeatConfig":
        return replace(self, **kwargs)


_FIELD_TYPES = {f.name: f.type for f in fields(NeatConfig)}


def _parse_value(key: str, text: str):
    kind = _FIELD_TYPES[key]
    text = text.strip()
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}") from None
    if kind == "float":
        try:
            return float(text)  # accepts inf / -inf
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if kind == "tuple[str, ...]":
        return tuple(part.strip() for part in text.split(",") if part.strip())
    return text


def parse_config_text(text: str, overrides: dict | None = None) -> NeatConfig:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys raise."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, value)
    if overrides:
        values.update(overrides)
    return NeatConfig(**values)


def load_config(path, overrides: dict | None = None) -> NeatConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text "
                              f"({err.reason} at byte {err.start})") from None
    return parse_config_text(text, overrides)


def dump_config(config: NeatConfig) -> str:
    """Config rendered back to the flat text format."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = ",".join(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"
