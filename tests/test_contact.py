import dataclasses
import math

import numpy as np
import pytest

from soilprobe.contact import (
    EnvironmentModel,
    RobotModel,
    SensorModel,
    SensorState,
    environment_force,
    robot_step,
)

ENV = EnvironmentModel(500.0, 0.0)
EXACT = SensorModel(0.0, 0.0, 0.0)


def test_environment_force_examples():
    env = EnvironmentModel(k_env=1000.0, x_surface_true=0.02)
    assert environment_force(0.02, env) == 0.0
    assert environment_force(0.01, env) == 0.0          # unilateral: no pull
    assert environment_force(0.025, env) == pytest.approx(5.0)


def test_environment_force_rejects_nonfinite():
    with pytest.raises(ValueError):
        environment_force(math.nan, ENV)
    with pytest.raises(ValueError):
        environment_force(math.inf, ENV)


def test_environment_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(ENV, k_env=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ENV, k_env=-100.0)


def test_sensor_noise_free_is_exact():
    sensor = SensorState(EXACT, seed=0)
    for f in (0.0, 1.5, -2.0):
        assert sensor.read(f, 1e-3) == f


def test_sensor_deterministic_for_fixed_seed():
    model = SensorModel(bias_amplitude=0.5, bias_drift_rate=0.3, white_noise_std=0.1)
    a = SensorState(model, seed=42)
    b = SensorState(model, seed=42)
    series_a = [a.read(1.0, 1e-3) for _ in range(500)]
    series_b = [b.read(1.0, 1e-3) for _ in range(500)]
    assert series_a == series_b
    c = SensorState(model, seed=43)
    assert [c.read(1.0, 1e-3) for _ in range(500)] != series_a


def test_sensor_reading_bound():
    model = SensorModel(bias_amplitude=0.5, bias_drift_rate=0.3, white_noise_std=0.1)
    bound = 0.5 + 4.0 * 0.1
    for seed in range(5):
        sensor = SensorState(model, seed=seed)
        readings = np.array([sensor.read(0.0, 1e-3) for _ in range(2000)])
        assert np.abs(readings).max() <= bound + 1e-12


def test_sensor_bias_stays_within_amplitude():
    model = SensorModel(bias_amplitude=0.2, bias_drift_rate=50.0, white_noise_std=0.0)
    sensor = SensorState(model, seed=7)
    for _ in range(5000):
        sensor.read(0.0, 1e-3)
        assert abs(sensor.bias) <= 0.2


def test_sensor_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(EXACT, bias_amplitude=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(EXACT, white_noise_std=-1.0)


def test_robot_perfect_tracking():
    assert robot_step(0.0, 0.37, RobotModel(tracking_tau=0.0), 1e-3) == 0.37


def test_robot_first_order_lag():
    dt = 1e-3
    x = robot_step(0.0, 1.0, RobotModel(tracking_tau=dt), dt)
    assert x == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_robot_fixed_point():
    assert robot_step(0.5, 0.5, RobotModel(tracking_tau=0.02), 1e-3) == 0.5


def test_robot_converges_to_command():
    model = RobotModel(tracking_tau=0.01)
    x = 0.0
    for _ in range(3000):
        x = robot_step(x, 0.25, model, 1e-3)
    assert abs(x - 0.25) < 1e-9


def test_robot_validation():
    with pytest.raises(ValueError):
        RobotModel(tracking_tau=-0.1)
    with pytest.raises(ValueError):
        robot_step(0.0, 1.0, RobotModel(0.0), 0.0)
