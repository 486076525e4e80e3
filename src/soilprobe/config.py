"""Plain-text key=value configuration files.

One `key = value` pair per line; `#` starts a comment; blank lines are
ignored.  Unknown and duplicate keys are rejected by name so a typo never
silently falls back to a default.
"""

from __future__ import annotations

import typing

from .scenario import ScenarioConfig, scenario_preset


# the keys a scenario config file accepts, each with the type of its value
_SCENARIO_TYPES = typing.get_type_hints(ScenarioConfig)


class ConfigError(ValueError):
    """Malformed configuration input (usage error, not a model failure)."""


def parse_key_values(text: str) -> dict[str, str]:
    """Parse key=value lines into an ordered dict of raw strings."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"duplicate config key: '{key}'")
        out[key] = value
    return out


def _convert(key: str, value: str, target_type: type):
    try:
        if target_type is bool:
            lowered = value.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if target_type is int:
            return int(value)
        if target_type is float:
            return float(value)
        return value
    except ValueError:
        raise ConfigError(f"invalid value for '{key}': {value!r}") from None


def read_config(text: str, types: dict[str, type]) -> dict:
    """Parse config text into typed values, one type per accepted key.

    Unknown keys and values that do not convert are rejected by name.
    """
    out = {}
    for key, value in parse_key_values(text).items():
        if key not in types:
            raise ConfigError(f"unknown config key: '{key}'")
        out[key] = _convert(key, value, types[key])
    return out


def scenario_config_from_text(text: str, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig from config-file text plus keyword overrides
    (command-line flags take precedence over the file)."""
    kwargs = read_config(text, _SCENARIO_TYPES)
    kwargs.update(overrides)
    kind = kwargs.pop("scenario", "custom")
    try:
        return scenario_preset(kind, **kwargs)
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from None


def load_scenario_config(path, **overrides) -> ScenarioConfig:
    with open(path) as f:
        text = f.read()
    return scenario_config_from_text(text, **overrides)
