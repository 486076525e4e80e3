"""Acceptance gate: the ten headline requirements, one test each.

Each test prints a single [PASS]/[FAIL] line (visible with `pytest -s`,
and in the failure report otherwise) alongside the measured figures, so a
run of this file doubles as the compliance report.
"""

import math
import time

import numpy as np
import pytest

from soilprobe.cli import main as cli_main
from soilprobe.ground import detect_ground, refinement_history
from soilprobe.impedance import ImpedanceParams, ImpedanceState, ReferenceSignal, impedance_step
from soilprobe.scenario import run_scenario, scenario_preset, summarize_runs
from soilprobe.scene import PotSceneParams, generate_pot_scene, scene_bounds

F_R = 5.0


def report(num, description, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} — {description}: {detail}")
    assert passed, f"criterion {num} — {description}: {detail}"


@pytest.fixture(scope="module")
def scenario_traces():
    """The three probing scenarios under the one shared parameter set."""
    return {kind: run_scenario(scenario_preset(kind, duration=10.0))
            for kind in ("moist", "dry", "rigid")}


def test_criterion_01_detection_accuracy():
    start = time.time()
    z_err, x_c, y_c = [], [], []
    for seed in range(10):
        cloud, truth = generate_pot_scene(PotSceneParams(), seed=seed)
        est = detect_ground(cloud, scene_bounds(), seed=seed)
        z_err.append(est.center.z - truth.center.z)
        x_c.append(est.center.x)
        y_c.append(est.center.y)
    elapsed = time.time() - start
    z_err = np.array(z_err)
    z_mean, z_std = np.abs(z_err).mean(), z_err.std()
    x_std, y_std = np.std(x_c), np.std(y_c)
    ok = z_mean <= 2e-3 and z_std <= 1e-3 and x_std <= 7e-3 and y_std <= 7e-3 and elapsed <= 10.0
    report(1, "detection accuracy over 10 scenes", ok,
           f"z mean|err| {z_mean * 1e3:.3f} mm (<=2), z std {z_std * 1e3:.3f} mm (<=1), "
           f"x std {x_std * 1e3:.2f} mm / y std {y_std * 1e3:.2f} mm (<=7), {elapsed:.2f} s (<=10)")


def test_criterion_02_refinement_schedule():
    rng = np.random.default_rng(0)
    cloud, _ = generate_pot_scene(PotSceneParams(), seed=0)
    shuffled = cloud.select(rng.permutation(len(cloud)))
    history = refinement_history(shuffled.select(np.argsort(shuffled.z, kind="stable")))
    nested = all(np.isin(history[i + 1], history[i]).all() for i in range(len(history) - 1))
    ok = len(history) == 7 and nested
    report(2, "refinement runs exactly 7 nested passes", ok,
           f"passes {len(history)} (==7), nested {nested}")


def test_criterion_03_score_identities():
    from soilprobe.ground import score_bin
    start = time.time()
    grid = np.arange(51)
    a, b, c = np.meshgrid(grid, grid, grid, indexing="ij")
    scores = score_bin(a, b, c)
    symmetric = np.array_equal(scores, score_bin(c, b, a))
    empty_zero = np.all(score_bin(a[:, 0, :], 0, c[:, 0, :]) == 0.0)
    mirrored = score_bin(a[:, :, 0], b[:, :, 0], a[:, :, 0])
    mirror_oracle = np.abs(a[:, :, 0] - b[:, :, 0]) / (a[:, :, 0] + b[:, :, 0] + 1) * b[:, :, 0]
    mirror_ok = np.allclose(mirrored, mirror_oracle, rtol=0.0, atol=0.0)
    elapsed = time.time() - start
    ok = symmetric and empty_zero and mirror_ok and elapsed <= 1.0
    report(3, "bin-score identities, exhaustive [0,50]^3", ok,
           f"symmetry {symmetric}, empty-bin zero {empty_zero}, mirrored form {mirror_ok}, "
           f"{elapsed:.3f} s (<=1)")


def test_criterion_04_impedance_oracle():
    def closed_form(m, b, k, e0, t):
        wn, zeta = math.sqrt(k / m), b / (2.0 * math.sqrt(m * k))
        x_ss = e0 / k
        if zeta < 1.0:
            wd = wn * math.sqrt(1.0 - zeta * zeta)
            return x_ss * (1.0 - math.exp(-zeta * wn * t)
                           * (math.cos(wd * t) + zeta * wn / wd * math.sin(wd * t)))
        if zeta == 1.0:
            return x_ss * (1.0 - math.exp(-wn * t) * (1.0 + wn * t))
        root = wn * math.sqrt(zeta * zeta - 1.0)
        r1, r2 = -zeta * wn + root, -zeta * wn - root
        return x_ss * (1.0 - (r2 * math.exp(r1 * t) - r1 * math.exp(r2 * t)) / (r2 - r1))

    start = time.time()
    worst = 0.0
    for (m, b, k) in ((1.0, 12.0, 400.0), (1.0, 40.0, 400.0), (1.0, 100.0, 400.0)):
        params = ImpedanceParams(m, b, k)
        state, ref, dt = ImpedanceState(), ReferenceSignal(), 1e-3
        for i in range(1, 501):
            state = impedance_step(state, ref, 4.0, params, dt)
            if round(i * dt, 9) in (0.05, 0.1, 0.5):
                worst = max(worst, abs(state.position - closed_form(m, b, k, 4.0, i * dt)))
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed <= 1.0
    report(4, "impedance filter vs closed-form step response", ok,
           f"worst |err| {worst:.2e} m (<1e-4) across under/critical/over-damped, "
           f"{elapsed:.3f} s (<=1)")


def test_criterion_05_known_environment_zero_error():
    worst = 0.0
    for kind in ("moist", "dry", "rigid"):
        trace = run_scenario(scenario_preset(kind, fixed_reference=True, duration=20.0))
        worst = max(worst, trace.summary()["steady_state_error"])
    ok = worst <= 1e-6
    report(5, "exact-stiffness reference settles to zero error", ok,
           f"worst steady |e| {worst:.2e} N (<=1e-6)")


def test_criterion_06_shared_parameter_convergence(scenario_traces):
    s = {kind: tr.summary() for kind, tr in scenario_traces.items()}
    sse_ok = all(s[k]["steady_state_error"] <= 0.02 * F_R for k in s)
    moist_rel = abs(s["moist"]["kappa_final"] * 500.0 - 1.0)
    dry_rel = abs(s["dry"]["kappa_final"] * 5000.0 - 1.0)
    kappa_ok = moist_rel <= 0.05 and dry_rel <= 0.05
    rigid_ok = s["rigid"]["kappa_final"] <= 2e-6
    t10 = {k: s[k]["time_to_10pct"] for k in s}
    order_ok = t10["rigid"] < t10["dry"] < t10["moist"]
    ok = sse_ok and kappa_ok and rigid_ok and order_ok
    report(6, "one parameter set converges on all three scenarios", ok,
           f"steady |e| <= 0.1 N {sse_ok}, kappa rel err moist {moist_rel:.3f} / dry {dry_rel:.3f} (<=0.05), "
           f"rigid compliance {s['rigid']['kappa_final']:.2e} (<=2e-6), "
           f"t10 rigid {t10['rigid']:.2f} < dry {t10['dry']:.2f} < moist {t10['moist']:.2f} s")


def test_criterion_07_rigid_collision_safety(scenario_traces):
    peak = scenario_traces["rigid"].summary()["peak_force"]
    ok = peak <= 1.5 * F_R
    report(7, "rigid collision stays within the force bound", ok,
           f"peak |f| {peak:.3f} N (<= {1.5 * F_R:.1f})")


def test_criterion_08_detection_error_robustness():
    sse = {}
    for offset in (0.0, 2e-3, -2e-3):
        trace = run_scenario(scenario_preset("moist", surface_detected=offset, duration=15.0))
        sse[offset] = trace.summary()["steady_state_error"]
    delta = max(abs(sse[2e-3] - sse[0.0]), abs(sse[-2e-3] - sse[0.0]))
    ok = delta <= 0.02 * F_R and max(sse.values()) <= 0.02 * F_R
    report(8, "±2 mm detection offset barely moves the steady error", ok,
           f"steady |e| exact {sse[0.0]:.2e} / +2mm {sse[2e-3]:.2e} / -2mm {sse[-2e-3]:.2e} N, "
           f"max change {delta:.2e} (<=0.1)")


def test_criterion_09_repetition_dispersion():
    noise = dict(bias_amplitude=0.3, bias_drift_rate=0.2, white_noise_std=0.02, duration=10.0)
    traces = [run_scenario(scenario_preset(kind, seed=seed, **noise))
              for kind in ("moist", "dry") for seed in range(1, 6)]
    stats = summarize_runs(traces)
    rel = {kind: stats[kind]["kappa_final"]["rel_std"] for kind in ("moist", "dry")}
    ok = rel["moist"] <= 0.10 and rel["dry"] <= 0.10
    report(9, "5-seed kappa dispersion per soil scenario", ok,
           f"rel std moist {rel['moist']:.3f} / dry {rel['dry']:.3f} (<=0.10)")


def test_criterion_10_command_determinism(tmp_path):
    specs = {
        "detect": ["detect", "--seed", "4", "--out"],
        "simulate": ["simulate", "--scenario", "dry", "--seed", "2", "--out"],
        "bench": ["bench", "--scenario", "moist", "--repeats", "2", "--seed", "1", "--out"],
    }
    mismatches = []
    for name, argv in specs.items():
        paths = [tmp_path / f"{name}_{i}.out" for i in (0, 1)]
        for path in paths:
            assert cli_main(argv + [str(path)]) == 0, name
        if paths[0].read_bytes() != paths[1].read_bytes():
            mismatches.append(name)
    for i in (0, 1):
        assert cli_main(["pipeline", "--seed", "3", "--out-dir", str(tmp_path / f"pipe_{i}")]) == 0
    for artifact in ("estimate.txt", "trace.csv", "summary.txt"):
        if (tmp_path / "pipe_0" / artifact).read_bytes() != \
                (tmp_path / "pipe_1" / artifact).read_bytes():
            mismatches.append(f"pipeline/{artifact}")
    ok = not mismatches
    report(10, "every command reruns byte-identically", ok,
           "all outputs identical" if ok else f"mismatched: {mismatches}")
