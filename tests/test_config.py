import pytest

from soilprobe.config import SCENARIO_TYPES, ConfigError, load_scenario_config, read_config


@pytest.fixture
def write(tmp_path):
    """Write config text to a file and return its path."""
    def write(text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path
    return write


def test_parse_key_values_basics(write):
    path = write("# comment\nduration = 2.5\n\nseed=7   # inline comment\n")
    assert read_config(path, SCENARIO_TYPES) == {"duration": 2.5, "seed": 7}


def test_parse_rejects_malformed_lines(write):
    with pytest.raises(ConfigError, match="line 1"):
        read_config(write("not a pair\n"), SCENARIO_TYPES)
    with pytest.raises(ConfigError, match="empty key"):
        read_config(write("= 3\n"), SCENARIO_TYPES)
    with pytest.raises(ConfigError, match="duplicate config key: 'seed'"):
        read_config(write("seed = 1\nseed = 2\n"), SCENARIO_TYPES)


def test_scenario_from_text(write):
    cfg = load_scenario_config(
        write("scenario = dry\nduration = 2.0\nseed = 9\nfixed_reference = true\n"))
    assert cfg.scenario == "dry"
    assert cfg.env_stiffness == 5000.0
    assert cfg.duration == 2.0
    assert cfg.seed == 9
    assert cfg.fixed_reference is True
    assert load_scenario_config(write("fixed_reference = no\n")).fixed_reference is False


def test_unknown_key_is_named(write):
    with pytest.raises(ConfigError, match="unknown config key: 'stifness'"):
        load_scenario_config(write("stifness = 100\n"))
    # the controller tuning and the contact threshold are scenario.py's
    # constants, and the robot has no lag: none of them is a config key
    for key in ("damping", "contact_threshold", "tracking_tau"):
        with pytest.raises(ConfigError, match=f"^unknown config key: '{key}'$"):
            load_scenario_config(write(f"{key} = 0.5\n"))


def test_invalid_values_are_named(write):
    for text in ("duration = fast\n", "seed = 1.5\n", "seed = -2\n",
                 "fixed_reference = maybe\n", "scenario =\n", "duration =\n"):
        key, value = (part.strip() for part in text.split("="))
        with pytest.raises(ConfigError) as err:
            load_scenario_config(write(text))
        assert str(err.value) == f"invalid value for '{key}': {value!r}"


def test_semantic_errors_become_config_errors(write):
    with pytest.raises(ConfigError, match=r"unknown scenario kind: 'muddy' \(choose from "
                                          r"moist, dry, rigid, custom\)"):
        load_scenario_config(write("scenario = muddy\n"))
    with pytest.raises(ConfigError):
        load_scenario_config(write("duration = -1\n"))
    with pytest.raises(ConfigError, match="^force_setpoint must be above "
                                          "CONTACT_THRESHOLD = 0.2$"):
        load_scenario_config(write("force_setpoint = 0.1\n"))


def test_overrides_beat_file_values(write):
    cfg = load_scenario_config(write("duration = 2.0\nseed = 1\n"), seed=42)
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


def test_env_stiffness_override_survives_preset(write):
    cfg = load_scenario_config(write("scenario = moist\nenv_stiffness = 750\n"))
    assert cfg.env_stiffness == 750.0
