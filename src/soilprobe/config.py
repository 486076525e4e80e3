"""Plain-text key=value configuration files.

One `key = value` pair per line; `#` starts a comment; blank lines are
ignored.  Unknown and duplicate keys, empty values and values that do not
convert are rejected by name so a typo never silently falls back to a
default.
"""

from __future__ import annotations

import typing

from .scenario import ScenarioConfig, scenario_preset


class ConfigError(ValueError):
    """Malformed configuration input (usage error, not a model failure)."""


def seed(text: str) -> int:
    """A run's seed: a non-negative integer, as numpy's generators need."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


# the keys a scenario config file accepts, each with the converter of its value
SCENARIO_TYPES = {**typing.get_type_hints(ScenarioConfig), "seed": seed}


def convert_value(key: str, value: str, convert):
    """`value` through `convert`; empty or unconvertible text is a ConfigError."""
    try:
        if not value:
            raise ValueError(value)
        if convert is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
        return convert(value)
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {value!r}") from None


def read_config(path, types: dict) -> dict:
    """Read a config file into typed values, one converter per accepted key.

    Faults are reported by name, the first faulty line first.
    """
    with open(path) as f:
        text = f.read()
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key not in types:
            raise ConfigError(f"unknown config key: '{key}'")
        if key in out:
            raise ConfigError(f"duplicate config key: '{key}'")
        out[key] = convert_value(key, value, types[key])
    return out


def scenario_config(scenario: str = "custom", **fields) -> ScenarioConfig:
    """The `scenario` preset with `fields` set over it; an out-of-range
    value is a ConfigError that names its reason."""
    try:
        return scenario_preset(scenario, **fields)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_scenario_config(path, **overrides) -> ScenarioConfig:
    """The config file's scenario, with `overrides` beating its values."""
    return scenario_config(**{**read_config(path, SCENARIO_TYPES), **overrides})
