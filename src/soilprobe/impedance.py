"""Position-based impedance (admittance) filter.

The filter turns a force-tracking error into a commanded position by
simulating a target mass-spring-damper between the commanded and reference
trajectories:

    m (xdd_c - xdd_r) + b (xd_c - xd_r) + k (x_c - x_r) = e

All quantities are scalars of one axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ImpedanceParams:
    """Target impedance: virtual mass, damping and stiffness per axis."""

    mass: float
    damping: float
    stiffness: float

    def __post_init__(self):
        if not (self.mass > 0 and self.damping > 0 and self.stiffness > 0):
            raise ValueError("impedance parameters must be strictly positive")


@dataclass(frozen=True)
class ImpedanceState:
    """Commanded position, velocity and acceleration of the filter."""

    position: float = 0.0
    velocity: float = 0.0
    acceleration: float = 0.0


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference trajectory sample the filter tracks when the error is zero."""

    position: float = 0.0
    velocity: float = 0.0
    acceleration: float = 0.0


def impedance_step(
    state: ImpedanceState,
    ref: ReferenceSignal,
    e: float,
    params: ImpedanceParams,
    dt: float,
) -> ImpedanceState:
    """Advance the filter one step with semi-implicit Euler.

    The acceleration is solved from the target dynamics, then velocity is
    updated before position (symplectic ordering), which keeps the stiff
    in-contact loop stable at millisecond rates.

    Raises RuntimeError("filter diverged") if the state leaves the finite
    range — the signature of an unstable (params, dt) combination.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    acc = ref.acceleration + (
        e
        - params.damping * (state.velocity - ref.velocity)
        - params.stiffness * (state.position - ref.position)
    ) / params.mass
    vel = state.velocity + dt * acc
    pos = state.position + dt * vel
    if not (math.isfinite(pos) and math.isfinite(vel)):
        raise RuntimeError("filter diverged")
    return ImpedanceState(pos, vel, acc)


def steady_state_reference(f_desired: float, k_env: float, x_surface: float) -> float:
    """Position reference that yields zero steady-state force error when the
    environment stiffness and surface location are known exactly.

    At equilibrium the filter output settles on the reference, so the spring
    compression must supply the desired force: x_r = F_r / k_e + x_e.
    """
    if k_env <= 0:
        raise ValueError("environment stiffness must be positive")
    return f_desired / k_env + x_surface
