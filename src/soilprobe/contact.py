"""Contact environment, force sensing and robot tracking models for the
closed-loop scenarios."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvironmentModel:
    """Unilateral linear spring: compression produces force, separation none."""

    k_env: float
    x_surface_true: float

    def __post_init__(self):
        if self.k_env <= 0:
            raise ValueError("environment stiffness must be positive")


def environment_force(x: float, env: EnvironmentModel) -> float:
    """Contact force at probe position x; zero unless penetrating."""
    if not math.isfinite(x):
        raise ValueError("probe position must be finite")
    depth = x - env.x_surface_true
    return env.k_env * depth if depth > 0.0 else 0.0


@dataclass(frozen=True)
class SensorModel:
    """Imperfect force sensing: a slowly drifting baseline offset (bounded
    random walk) plus white noise.  All parameters zero gives an exact
    sensor.  Noise is clipped at four standard deviations so the advertised
    reading bound |bias| + 4*sigma holds on every sample."""

    bias_amplitude: float
    bias_drift_rate: float
    white_noise_std: float

    def __post_init__(self):
        if self.bias_amplitude < 0 or self.bias_drift_rate < 0 or self.white_noise_std < 0:
            raise ValueError("sensor noise parameters must be non-negative")


class SensorState:
    """Mutable per-run sensor state: the current bias and the noise stream."""

    def __init__(self, model: SensorModel, seed: int = 0):
        self.model = model
        self.rng = np.random.default_rng(seed)
        # The run starts with an already-offset baseline: model imprecision
        # is present from the first reading, not accumulated from zero.
        self.bias = float(self.rng.uniform(-1.0, 1.0)) * model.bias_amplitude

    def read(self, f_true: float, dt: float) -> float:
        m = self.model
        step = self.rng.uniform(-1.0, 1.0) * m.bias_drift_rate * dt
        self.bias = min(max(self.bias + step, -m.bias_amplitude), m.bias_amplitude)
        white = min(max(self.rng.standard_normal(), -4.0), 4.0) * m.white_noise_std
        return f_true + self.bias + white


@dataclass(frozen=True)
class RobotModel:
    """First-order lag between commanded and actual probe position; zero
    lag reproduces the ideal-tracking assumption x == x_c."""

    tracking_tau: float

    def __post_init__(self):
        if self.tracking_tau < 0:
            raise ValueError("tracking_tau must be non-negative")


def robot_step(x: float, x_cmd: float, model: RobotModel, dt: float) -> float:
    """Advance the probe toward the commanded position by one control period."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if model.tracking_tau == 0.0:
        return x_cmd
    return x + (x_cmd - x) * (1.0 - math.exp(-dt / model.tracking_tau))
