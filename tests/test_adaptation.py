import dataclasses
import math

import pytest

from soilprobe.adaptation import (
    COMPLIANCE_FLOOR,
    AdaptationParams,
    AdaptationState,
    adaptation_step,
    position_reference,
    stiffness_estimate,
)
from soilprobe.impedance import ImpedanceParams, steady_state_reference
from soilprobe.scenario import run_scenario, scenario_preset

IMP = ImpedanceParams(1.0, 40.0, 400.0)
ADP = AdaptationParams(8.0, 0.05, 1.0, 0.05, 0.01)


def test_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(ADP, drive_gain=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ADP, drive_rate_gain=-0.1)
    with pytest.raises(ValueError):
        dataclasses.replace(ADP, error_weight=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(ADP, deriv_filter_tau=-1.0)
    with pytest.raises(TypeError):
        dataclasses.replace(ADP, drive_sign=2)  # the law's signs are fixed
    # the rate term may be disabled outright
    dataclasses.replace(ADP, drive_rate_gain=0.0)


def test_initial_state_matches_zero_compliance_prior():
    state = AdaptationState.initial(5.0, ADP)
    assert state.kappa == 0.0
    assert state.kappa_rate == 0.0
    assert state.error_lp == 5.0
    assert state.q_lp == ADP.error_weight * 5.0


def test_equilibrium_is_fixed_point():
    state = AdaptationState(kappa=0.003, kappa_rate=0.0, kappa_accel=0.0,
                            error_lp=0.0, q_lp=0.0)
    after = adaptation_step(state, 0.0, ADP, IMP, 1e-3)
    assert after == state


def test_zero_error_settles_to_constant_kappa():
    # once e == 0 the drive vanishes and the (rate, accel) chain decays,
    # so kappa freezes at a constant
    state = AdaptationState(0.002, 0.01, 0.0, 0.0, 0.0)
    for _ in range(1000):
        state = adaptation_step(state, 0.0, ADP, IMP, 1e-3)
    mid = state.kappa
    for _ in range(1000):
        state = adaptation_step(state, 0.0, ADP, IMP, 1e-3)
    assert abs(state.kappa_rate) < 1e-9
    assert abs(state.kappa - mid) < 1e-7


def test_kappa_never_negative():
    state = AdaptationState.initial(-5.0, ADP)
    for _ in range(2000):
        state = adaptation_step(state, -5.0, ADP, IMP, 1e-3)
        assert state.kappa >= 0.0


def test_divergence_raises():
    state = AdaptationState.initial(0.0, ADP)
    with pytest.raises(RuntimeError, match="adaptation diverged"):
        adaptation_step(state, 1e308, ADP, IMP, 1e-3)


def test_dt_validation():
    with pytest.raises(ValueError):
        adaptation_step(AdaptationState(), 0.0, ADP, IMP, 0.0)


def test_position_reference_examples():
    assert position_reference(0.0, 5.0, 0.08) == 0.08
    assert position_reference(0.002, 5.0, 0.8) == pytest.approx(0.810)
    k_env = 1250.0
    assert position_reference(1.0 / k_env, 5.0, 0.1) == pytest.approx(
        steady_state_reference(5.0, k_env, 0.1))


def test_compliance_estimate_guards_reciprocal():
    assert stiffness_estimate(0.0) == math.inf
    assert stiffness_estimate(COMPLIANCE_FLOOR) == math.inf
    assert stiffness_estimate(0.0005) == pytest.approx(2000.0)


def test_closed_loop_converges_to_true_compliance():
    trace = run_scenario(scenario_preset("custom", env_stiffness=2000.0, duration=10.0))
    kappa = trace.summary()["kappa_final"]
    assert 0.95 / 2000.0 <= kappa <= 1.05 / 2000.0


def test_closed_loop_convergence_across_stiffness_range():
    for k_env, duration in ((200.0, 20.0), (20000.0, 10.0), (100000.0, 10.0)):
        trace = run_scenario(scenario_preset("custom", env_stiffness=k_env, duration=duration))
        s = trace.summary()
        assert s["steady_state_error"] <= 0.02 * 5.0, k_env
        assert 0.95 / k_env <= s["kappa_final"] <= 1.05 / k_env, k_env


def test_stiffer_environment_adapts_faster():
    t10 = {}
    for k_env in (500.0, 50000.0):
        trace = run_scenario(scenario_preset("custom", env_stiffness=k_env, duration=10.0))
        t10[k_env] = trace.summary()["time_to_10pct"]
    assert t10[50000.0] < t10[500.0]


def test_kappa_limit_is_independent_of_setpoint():
    for setpoint in (2.5, 10.0):
        trace = run_scenario(scenario_preset("moist", force_setpoint=setpoint, duration=10.0))
        kappa = trace.summary()["kappa_final"]
        assert 0.95 / 500.0 <= kappa <= 1.05 / 500.0, setpoint


def test_dry_estimate_stiffer_than_moist():
    dry = run_scenario(scenario_preset("dry", duration=10.0)).summary()
    moist = run_scenario(scenario_preset("moist", duration=10.0)).summary()
    assert dry["stiffness_final"] > moist["stiffness_final"]


def test_first_reference_equals_detected_surface():
    # kappa(0) = 0 means the first commanded reference is exactly the
    # detected surface: the probe never targets deeper before feeling force
    state = AdaptationState.initial(5.0, ADP)
    assert position_reference(state.kappa, 5.0, 0.123) == 0.123
