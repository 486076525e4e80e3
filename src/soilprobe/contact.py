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
    random walk) plus white noise.  Zero bias amplitude and zero white noise
    give an exact sensor.  Noise is clipped at four standard deviations so
    the advertised reading bound |bias| + 4*sigma holds on every sample."""

    bias_amplitude: float
    bias_drift_rate: float
    white_noise_std: float

    def __post_init__(self):
        if self.bias_amplitude < 0 or self.bias_drift_rate < 0 or self.white_noise_std < 0:
            raise ValueError("sensor noise parameters must be non-negative")


# Noise samples drawn per RNG call: a run of n noisy steps makes about
# 2 * n / BLOCK numpy calls, and SensorState.noise walks the bias one block
# per np.cumsum.  Larger blocks gain little per step and hold more memory.
BLOCK = 1024


class SensorState:
    """Mutable per-run sensor state: the current bias and the noise stream.

    Noise is drawn BLOCK samples at a time: one uniform block for the bias
    walk, then one clipped normal block for the white noise.  read hands
    them out one pair per reading; noise hands out the next n readings'
    bias and white noise at once, from the same stream.  A model whose
    bias amplitude and white noise are both zero is exact: read returns
    the true force, noise returns None, and neither draws anything.
    """

    def __init__(self, model: SensorModel, seed: int = 0):
        self.model = model
        self.rng = np.random.default_rng(seed)
        # The run starts with an already-offset baseline: model imprecision
        # is present from the first reading, not accumulated from zero.
        self.bias = float(self.rng.uniform(-1.0, 1.0)) * model.bias_amplitude
        # bias and white noise would both be +-0.0, and f_true (never -0.0)
        # plus +-0.0 is f_true bit for bit
        self._exact = model.bias_amplitude == 0.0 and model.white_noise_std == 0.0
        self._noise: list[tuple[float, float]] = []  # (drift rate, white) pairs, next one last

    def _draw(self) -> tuple[np.ndarray, np.ndarray]:
        """The next block: BLOCK bias drift rates, then BLOCK white noise samples."""
        m = self.model
        drift = self.rng.uniform(-1.0, 1.0, BLOCK) * m.bias_drift_rate
        white = np.clip(self.rng.standard_normal(BLOCK), -4.0, 4.0) * m.white_noise_std
        return drift, white

    def read(self, f_true: float, dt: float) -> float:
        if self._exact:
            return f_true
        if not self._noise:
            drift, white = self._draw()
            self._noise = list(zip(drift.tolist(), white.tolist()))
            self._noise.reverse()
        drift, white = self._noise.pop()
        m = self.model
        self.bias = min(max(self.bias + drift * dt, -m.bias_amplitude), m.bias_amplitude)
        return f_true + self.bias + white

    def noise(self, n: int, dt: float) -> tuple[list[float], list[float]] | None:
        """The bias and the white noise of the next n reads at period dt, as
        two lists: read(f, dt) would return f + bias[i] + white[i].  The
        state ends where those reads would leave it.  None for an exact
        sensor, which draws nothing.

        A block's bias walk is one np.cumsum over the starting bias and the
        drift steps.  It adds in sequence, so each value is the sum read
        makes, bit for bit; a block whose walk leaves +-bias_amplitude is
        walked again with read's clamp.
        """
        if self._exact:
            return None
        amp = self.model.bias_amplitude
        bias: list[float] = []
        white: list[float] = []
        while len(white) < n:
            if self._noise:  # the rest of a block that read started
                block_drift, block_white = map(np.array, zip(*reversed(self._noise)))
            else:
                block_drift, block_white = self._draw()
            k = min(len(block_white), n - len(white))
            steps = np.empty(k + 1)
            steps[0] = self.bias
            np.multiply(block_drift[:k], dt, out=steps[1:])
            track = np.cumsum(steps)[1:]
            if (np.abs(track) <= amp).all():
                walk = track.tolist()
            else:
                walk, b = [], self.bias
                for step in steps[1:].tolist():
                    b = min(max(b + step, -amp), amp)
                    walk.append(b)
            self.bias = walk[-1]
            bias += walk
            white += block_white[:k].tolist()
            self._noise = list(zip(block_drift[k:].tolist(), block_white[k:].tolist()))
            self._noise.reverse()
        return bias, white


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
