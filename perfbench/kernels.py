"""Per-call replay of the closed-loop step functions on a recorded trace.

This is the only benchmark code tied to the step functions' signatures.
When those change, replay() reports no kernel metrics and names the reason;
it never fails the run and never counts as a failed op.
"""

from __future__ import annotations

import time

NAMES = (
    "contact.sensor_read_us",
    "impedance.impedance_step_us",
    "adaptation.adaptation_step_us",
    "contact.environment_force_us",
    "contact.robot_step_us",
)


def replay(trace) -> tuple[dict[str, float], float, str]:
    """Time each step function per call, fed the values of one recorded run.

    Returns (seconds per call by metric name, seconds per loop step summed
    over the kernels, weighted by calls per step, reason). On failure the
    dict is empty and reason says why.
    """
    try:
        calls = _replay(trace)
        per_call = {name: seconds / count for name, (seconds, count) in calls.items()}
    except (ImportError, AttributeError, TypeError, ValueError, RuntimeError,
            StopIteration, ZeroDivisionError) as err:
        return {}, 0.0, f"kernel replay unavailable: {type(err).__name__}: {err}"
    per_step = sum(seconds for seconds, _ in calls.values()) / len(trace)
    return per_call, per_step, ""


def _timed(loop) -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def _replay(trace) -> dict[str, tuple[float, int]]:
    from soilprobe.adaptation import AdaptationState, adaptation_step
    from soilprobe.contact import SensorState, environment_force, robot_step
    from soilprobe.impedance import ImpedanceState, ReferenceSignal, impedance_step

    cfg = trace.config
    dt = cfg.dt
    env, robot = cfg.environment_model(), cfg.robot_model()
    imp, adp = cfg.impedance_params(), cfg.adaptation_params()
    x, x_c, x_r = trace.x.tolist(), trace.x_c.tolist(), trace.x_r.tolist()
    f_true, e, kappa = trace.f_true.tolist(), trace.e.tolist(), trace.kappa.tolist()
    n = len(x)
    # handover: the step that starts adaptation; kappa turns positive one step later
    handover = next(i for i, k in enumerate(kappa) if k > 0.0) - 1
    # the loop's reference rate is not recorded; its finite difference stands in
    rate = [0.0] + [(b - a) / dt for a, b in zip(x_r, x_r[1:])]
    e_ctrl = [0.0] * handover + e[handover:]
    robot_args = list(zip(x[:-1], x_c[1:]))

    def sensor():
        state = SensorState(cfg.sensor_model(), cfg.seed)
        for f in f_true:
            state.read(f, dt)

    def impedance():
        state = ImpedanceState(x_c[0], 0.0, 0.0)
        for i in range(n - 1):
            state = impedance_step(state, ReferenceSignal(x_r[i], rate[i], 0.0), e_ctrl[i], imp, dt)

    def adaptation():
        state = AdaptationState.initial(e[handover], adp)
        for err in e[handover + 1:]:
            state = adaptation_step(state, err, adp, imp, dt)

    def environment():
        for xi in x:
            environment_force(xi, env)

    def robot_loop():
        for xi, cmd in robot_args:
            robot_step(xi, cmd, robot, dt)

    return {
        "contact.sensor_read_us": (_timed(sensor), n),
        "impedance.impedance_step_us": (_timed(impedance), n - 1),
        "adaptation.adaptation_step_us": (_timed(adaptation), n - 1 - handover),
        "contact.environment_force_us": (_timed(environment), n),
        "contact.robot_step_us": (_timed(robot_loop), n - 1),
    }
