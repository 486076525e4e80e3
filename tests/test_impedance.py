import dataclasses
import math

import pytest

from soilprobe.impedance import (
    ImpedanceParams,
    ImpedanceState,
    ReferenceSignal,
    impedance_step,
    steady_state_reference,
)

REST = ReferenceSignal()
FILTER = ImpedanceParams(1.0, 40.0, 400.0)  # critically damped at 20 rad/s


def closed_form_step(m, b, k, e0, t):
    """Analytical step response of m x'' + b x' + k x = e0 from rest."""
    wn = math.sqrt(k / m)
    zeta = b / (2.0 * math.sqrt(m * k))
    x_ss = e0 / k
    if zeta < 1.0:
        wd = wn * math.sqrt(1.0 - zeta * zeta)
        decay = math.exp(-zeta * wn * t)
        return x_ss * (1.0 - decay * (math.cos(wd * t) + zeta * wn / wd * math.sin(wd * t)))
    if zeta == 1.0:
        return x_ss * (1.0 - math.exp(-wn * t) * (1.0 + wn * t))
    root = wn * math.sqrt(zeta * zeta - 1.0)
    r1, r2 = -zeta * wn + root, -zeta * wn - root
    return x_ss * (1.0 - (r2 * math.exp(r1 * t) - r1 * math.exp(r2 * t)) / (r2 - r1))


def run_filter(params, e, dt, n, state=None, ref=REST):
    state = state or ImpedanceState()
    for _ in range(n):
        state = impedance_step(state, ref, e, params, dt)
    return state


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        dataclasses.replace(FILTER, mass=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(FILTER, damping=-1.0)
    with pytest.raises(ValueError):
        dataclasses.replace(FILTER, stiffness=0.0)


def test_equilibrium_is_fixed_point():
    params = FILTER
    state = ImpedanceState(0.3, 0.0, 0.0)
    ref = ReferenceSignal(0.3, 0.0, 0.0)
    after = impedance_step(state, ref, 0.0, params, 1e-3)
    assert after.position == 0.3
    assert after.velocity == 0.0


def test_constant_error_spring_statics():
    params = FILTER
    state = run_filter(params, 4.0, 1e-3, 3000)
    assert abs(state.position - 4.0 / params.stiffness) < 1e-9
    assert abs(state.velocity) < 1e-9


def test_step_response_matches_closed_form():
    # under-, critically and over-damped parameter sets against the
    # analytical second-order step response
    for (m, b, k) in ((1.0, 12.0, 400.0), (1.0, 40.0, 400.0), (1.0, 100.0, 400.0)):
        params = ImpedanceParams(m, b, k)
        state = ImpedanceState()
        dt = 1e-3
        for i in range(1, 501):
            state = impedance_step(state, REST, 4.0, params, dt)
            t = i * dt
            if round(t, 9) in (0.05, 0.1, 0.5):
                assert abs(state.position - closed_form_step(m, b, k, 4.0, t)) < 1e-4


def test_overshoot_matches_damping_ratio():
    # free-space reference step with zeta = 0.3; peak overshoot must match
    # the second-order prediction exp(-pi*zeta/sqrt(1-zeta^2)) within 2%
    zeta = 0.3
    params = ImpedanceParams(1.0, 2.0 * zeta * 20.0, 400.0)
    ref = ReferenceSignal(0.01, 0.0, 0.0)
    state = ImpedanceState()
    peak = 0.0
    for _ in range(2000):
        state = impedance_step(state, ref, 0.0, params, 1e-3)
        peak = max(peak, state.position)
    predicted = math.exp(-math.pi * zeta / math.sqrt(1.0 - zeta * zeta))
    measured = (peak - 0.01) / 0.01
    assert abs(measured - predicted) / predicted < 0.02


def test_linearity_doubles_deflection():
    params = FILTER
    single = run_filter(params, 2.0, 1e-3, 2000)
    double = run_filter(params, 4.0, 1e-3, 2000)
    assert abs(double.position - 2.0 * single.position) < 1e-12


def test_halving_dt_halves_the_error():
    m, b, k = 1.0, 12.0, 400.0
    params = ImpedanceParams(m, b, k)
    exact = closed_form_step(m, b, k, 4.0, 0.5)
    err_coarse = abs(run_filter(params, 4.0, 1e-3, 500).position - exact)
    err_fine = abs(run_filter(params, 4.0, 5e-4, 1000).position - exact)
    assert 1.5 < err_coarse / err_fine < 2.6


def test_divergence_raises():
    # dt far outside the stability envelope blows up and must be reported
    params = FILTER
    state = ImpedanceState(1.0, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="filter diverged"):
        for _ in range(10000):
            state = impedance_step(state, REST, 0.0, params, 1.0)


def test_dt_validation():
    with pytest.raises(ValueError):
        impedance_step(ImpedanceState(), REST, 0.0, FILTER, 0.0)


def test_steady_state_reference_examples():
    assert steady_state_reference(5.0, 1000.0, 0.10) == pytest.approx(0.105)
    assert steady_state_reference(0.0, 123.0, 0.07) == 0.07
    with pytest.raises(ValueError):
        steady_state_reference(5.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        steady_state_reference(5.0, -10.0, 0.0)
