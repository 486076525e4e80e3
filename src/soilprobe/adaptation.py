"""Adaptive compliance law.

The position reference handed to the impedance filter is

    x_r = kappa * F_r + x_e

where kappa is an adaptive compliance parameter (m/N) and x_e the detected
surface.  kappa evolves through a third-order ODE that reuses the impedance
coefficients on its left-hand side,

    m kappa''' + b kappa'' + k kappa' = g1 * q  +  g1s * qd

with q = p1 * e + p2 * ed built from the force-tracking error.  When the
closed loop settles, e -> 0 and kappa -> 1/k_e: the estimate converges to
the true environment compliance without k_e ever being measured.

Sign conventions: with e defined as desired-minus-measured force, a
positive q must *raise* kappa (the probe is not pressing hard enough, so
the reference must move deeper), hence the plus sign on the q term.  The
published form of the law carries a minus sign there, which with this
error convention drives kappa onto its lower clamp and never converges.
The sign of the q-derivative term appears both ways in the literature;
plus is the stabilizing choice (it adds damping proportional to the
contact stiffness).

scenario.run_scenario writes adaptation_step's arithmetic out inline in
its step loop; adaptation_step is the reference that the tests hold that
loop to, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .impedance import ImpedanceParams

COMPLIANCE_FLOOR = 1e-7  # m/N below which the contact is reported as rigid


def stiffness_estimate(kappa: float) -> float:
    """Guarded reciprocal of a compliance estimate: 1/kappa, or +inf when
    the contact is effectively rigid (kappa at or below the floor)."""
    return 1.0 / kappa if kappa > COMPLIANCE_FLOOR else math.inf


@dataclass(frozen=True)
class AdaptationParams:
    """Gains of the compliance adaptation law.

    drive_gain weights the composite error q, drive_rate_gain its
    derivative; error_weight and error_rate_weight form q from the force
    error and its filtered derivative.
    """

    drive_gain: float
    drive_rate_gain: float
    error_weight: float
    error_rate_weight: float
    deriv_filter_tau: float

    def __post_init__(self):
        if self.drive_gain <= 0:
            raise ValueError("drive_gain must be positive")
        if self.drive_rate_gain < 0:
            raise ValueError("drive_rate_gain must be non-negative")
        if self.error_weight <= 0 or self.error_rate_weight <= 0:
            raise ValueError("error weights must be positive")
        if self.deriv_filter_tau <= 0:
            raise ValueError("deriv_filter_tau must be positive")


class AdaptationState(NamedTuple):
    """Compliance estimate with its two derivatives plus the low-pass states
    of the error and composite-error differentiators."""

    kappa: float = 0.0
    kappa_rate: float = 0.0
    kappa_accel: float = 0.0
    error_lp: float = 0.0
    q_lp: float = 0.0

    @classmethod
    def initial(cls, e: float, params: AdaptationParams) -> "AdaptationState":
        """State at adaptation start: zero compliance (infinitely stiff
        prior), differentiators pre-loaded with the current error so the
        first step sees no artificial derivative kick."""
        return cls(0.0, 0.0, 0.0, float(e), params.error_weight * float(e))


def _dirty_derivative(value: float, lp_state: float, tau: float, dt: float) -> tuple[float, float]:
    """First-order low-pass differentiator; returns (derivative, new state)."""
    lp_new = lp_state + dt / (tau + dt) * (value - lp_state)
    return (value - lp_new) / tau, lp_new


def adaptation_step(
    state: AdaptationState,
    e: float,
    params: AdaptationParams,
    imp: ImpedanceParams,
    dt: float,
) -> AdaptationState:
    """Advance the compliance law one step with semi-implicit Euler on the
    (kappa, kappa_rate, kappa_accel) chain; kappa is clamped at zero from
    below because negative compliance is unphysical.

    Raises RuntimeError("adaptation diverged") on non-finite state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    e = float(e)
    e_rate, error_lp = _dirty_derivative(e, state.error_lp, params.deriv_filter_tau, dt)
    q = params.error_weight * e + params.error_rate_weight * e_rate
    q_rate, q_lp = _dirty_derivative(q, state.q_lp, params.deriv_filter_tau, dt)

    drive = params.drive_gain * q + params.drive_rate_gain * q_rate
    jerk = (drive - imp.stiffness * state.kappa_rate - imp.damping * state.kappa_accel) / imp.mass

    accel = state.kappa_accel + dt * jerk
    rate = state.kappa_rate + dt * accel
    kappa = state.kappa + dt * rate
    if kappa < 0.0:
        kappa = 0.0
    if not (math.isfinite(kappa) and math.isfinite(rate) and math.isfinite(accel)
            and math.isfinite(error_lp) and math.isfinite(q_lp)):
        raise RuntimeError("adaptation diverged")
    return AdaptationState(kappa, rate, accel, error_lp, q_lp)


def position_reference(kappa: float, f_desired: float, x_surface: float) -> float:
    """Reference position for the impedance filter: the detected surface
    plus the compliance-scaled force setpoint."""
    return kappa * f_desired + x_surface
