import pytest

from soilprobe.config import (
    ConfigError,
    load_scenario_config,
    parse_key_values,
    scenario_config_from_text,
)


def test_parse_key_values_basics():
    text = "# comment\nduration = 2.5\n\nseed=7   # inline comment\n"
    assert parse_key_values(text) == {"duration": "2.5", "seed": "7"}


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_key_values("not a pair\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_key_values("= 3\n")
    with pytest.raises(ConfigError, match="duplicate config key: 'seed'"):
        parse_key_values("seed = 1\nseed = 2\n")


def test_scenario_from_text():
    cfg = scenario_config_from_text(
        "scenario = dry\nduration = 2.0\nseed = 9\nfixed_reference = true\n")
    assert cfg.scenario == "dry"
    assert cfg.env_stiffness == 5000.0
    assert cfg.duration == 2.0
    assert cfg.seed == 9
    assert cfg.fixed_reference is True
    assert scenario_config_from_text("fixed_reference = no\n").fixed_reference is False


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="unknown config key: 'stifness'"):
        scenario_config_from_text("stifness = 100\n")


def test_invalid_values_are_named():
    with pytest.raises(ConfigError, match="invalid value for 'duration'"):
        scenario_config_from_text("duration = fast\n")
    with pytest.raises(ConfigError, match="invalid value for 'seed'"):
        scenario_config_from_text("seed = 1.5\n")
    with pytest.raises(ConfigError, match="invalid value for 'fixed_reference'"):
        scenario_config_from_text("fixed_reference = maybe\n")


def test_semantic_errors_become_config_errors():
    with pytest.raises(ConfigError, match="unknown scenario kind"):
        scenario_config_from_text("scenario = muddy\n")
    with pytest.raises(ConfigError):
        scenario_config_from_text("duration = -1\n")
    with pytest.raises(ConfigError, match="deriv_filter_tau must be positive"):
        scenario_config_from_text("deriv_filter_tau = 0\n")


def test_overrides_beat_file_values():
    cfg = scenario_config_from_text("duration = 2.0\nseed = 1\n", seed=42)
    assert cfg.seed == 42
    assert cfg.duration == 2.0


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_load_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = moist\nduration = 1.5\n")
    cfg = load_scenario_config(path)
    assert cfg.scenario == "moist"
    assert cfg.duration == 1.5


def test_env_stiffness_override_survives_preset():
    cfg = scenario_config_from_text("scenario = moist\nenv_stiffness = 750\n")
    assert cfg.env_stiffness == 750.0
