import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soilprobe.contact import (
    BLOCK,
    EnvironmentModel,
    RobotModel,
    SensorModel,
    SensorState,
    environment_force,
    robot_step,
)

ENV = EnvironmentModel(500.0, 0.0)
EXACT = SensorModel(0.0, 0.0, 0.0)
# the bias walk of "clamped" hits its clamp on almost every read at dt = 1e-3,
# that of "mixed" in some blocks and not in others
NOISY = {
    "criterion-09": SensorModel(0.3, 0.2, 0.02),
    "clamped": SensorModel(0.01, 5.0, 0.02),
    "mixed": SensorModel(0.2, 5.0, 0.1),
    "zero-amplitude": SensorModel(0.0, 0.2, 0.02),
    "drift-only": SensorModel(0.3, 0.2, 0.0),
    "white-only": SensorModel(0.0, 0.0, 0.02),
}


def bits(values) -> bytes:
    """The doubles' bytes, so that -0.0 and 0.0 differ and NaN equals NaN."""
    return np.array(values, dtype=float).tobytes()


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


def test_sensor_exact_model_draws_nothing():
    sensor = SensorState(SensorModel(0.0, 5.0, 0.0), seed=3)
    state = sensor.rng.bit_generator.state
    assert all(sensor.read(f, 1e-3) == f for f in np.linspace(0.0, 9.0, 2 * BLOCK))
    assert sensor.noise(2 * BLOCK, 1e-3) is None
    assert sensor.rng.bit_generator.state == state


def test_sensor_blocks_deterministic_for_fixed_seed():
    model = SensorModel(bias_amplitude=0.5, bias_drift_rate=0.3, white_noise_std=0.1)
    n = 3 * BLOCK + 7
    a, b, c = SensorState(model, seed=42), SensorState(model, seed=42), SensorState(model, seed=43)
    series_a = [a.read(1.0, 1e-3) for _ in range(n)]
    assert [b.read(1.0, 1e-3) for _ in range(n)] == series_a
    series_c = [c.read(1.0, 1e-3) for _ in range(n)]
    # every block differs, the last, partly used one included
    for start in range(0, n, BLOCK):
        assert series_c[start:start + BLOCK] != series_a[start:start + BLOCK]


def test_sensor_blocks_follow_the_draw_order():
    # reference: the initial bias draw, then per block BLOCK uniforms for the
    # bias walk and BLOCK clipped normals, handed out one pair per read
    n, dt, seed = 3 * BLOCK + 7, 1e-3, 5
    model = SensorModel(bias_amplitude=0.5, bias_drift_rate=0.3, white_noise_std=0.1)
    amp = model.bias_amplitude
    rng = np.random.default_rng(seed)
    bias = float(rng.uniform(-1.0, 1.0)) * amp
    expected = []
    while len(expected) < n:
        drift = rng.uniform(-1.0, 1.0, BLOCK).tolist()
        white = np.clip(rng.standard_normal(BLOCK), -4.0, 4.0).tolist()
        for u, w in zip(drift, white):
            bias = min(max(bias + u * model.bias_drift_rate * dt, -amp), amp)
            expected.append(2.0 + bias + w * model.white_noise_std)
    sensor = SensorState(model, seed)
    assert [sensor.read(2.0, dt) for _ in range(n)] == expected[:n]


@pytest.mark.parametrize("n", [0, 1, BLOCK, 3 * BLOCK + 7])
@pytest.mark.parametrize("name", NOISY)
def test_sensor_noise_matches_reads(name, n):
    # reference: n successive reads, and the bias each leaves behind
    dt, forces = 1e-3, np.linspace(0.0, 9.0, n).tolist()
    reader, drawn = SensorState(NOISY[name], seed=11), SensorState(NOISY[name], seed=11)
    readings, track = [], []
    for f in forces:
        readings.append(reader.read(f, dt))
        track.append(reader.bias)
    bias, white = drawn.noise(n, dt)
    assert bits(bias) == bits(track)
    assert bits([f + b + w for f, b, w in zip(forces, bias, white, strict=True)]) == bits(readings)
    # the state ends where the reads left theirs
    assert bits([drawn.read(1.0, dt) for _ in range(BLOCK + 1)]) == \
        bits([reader.read(1.0, dt) for _ in range(BLOCK + 1)])


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(sorted(NOISY)), before=st.integers(0, 2 * BLOCK + 3),
       n=st.integers(0, 2 * BLOCK + 3))
def test_sensor_noise_continues_the_stream(name, before, n):
    # reads, then one noise call, then reads again hand out the same
    # readings as reads alone, whichever point of a block each starts at
    dt = 1e-3
    reader, mixed = SensorState(NOISY[name], seed=8), SensorState(NOISY[name], seed=8)
    expected = [reader.read(1.0, dt) for _ in range(before + n + BLOCK)]
    got = [mixed.read(1.0, dt) for _ in range(before)]
    bias, white = mixed.noise(n, dt)
    got += [1.0 + b + w for b, w in zip(bias, white, strict=True)]
    got += [mixed.read(1.0, dt) for _ in range(BLOCK)]
    assert bits(got) == bits(expected)


def test_sensor_bounds_hold_across_blocks():
    model = SensorModel(bias_amplitude=0.2, bias_drift_rate=50.0, white_noise_std=0.1)
    bound = 0.2 + 4.0 * 0.1
    for seed in range(3):
        sensor = SensorState(model, seed=seed)
        for _ in range(3 * BLOCK + 7):
            assert abs(sensor.read(0.0, 1e-3)) <= bound + 1e-12
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
