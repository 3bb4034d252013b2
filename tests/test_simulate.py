import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orbitloop as ol
from orbitloop.linalg import spectra_close


def _zero_setpoint():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ol.OrbitState((0.0, 0.0), (0.0, 0.0))


def test_scenario_defaults():
    s = ol.Scenario()
    assert s.x0.position == (4292.87, 8924.17)
    assert s.x0.velocity == (7.8, 0.0)
    assert s.xf.position == (-2000.0, 8878.0)
    assert s.xf.velocity == (-2.728, -6.56)
    assert s.horizon == 4000.0
    assert s.output_dt == 0.1
    assert s.rtol == 1e-8 and s.atol == 1e-9
    assert s.srp.magnitude_km_s2 == 1e-9
    assert s.srp.theta0 == 0.043
    assert s.observer_speed_factor == 4.0
    assert np.allclose(s.initial_estimate(), [4292.87, 8924.17, 0.0, 0.0])


def test_scenario_validation():
    with pytest.raises(ValueError):
        ol.Scenario(horizon=0.0)
    with pytest.raises(ValueError):
        ol.Scenario(output_dt=5000.0)
    with pytest.raises(ValueError):
        ol.Scenario(rtol=-1.0)
    with pytest.raises(ValueError):
        ol.Scenario(settle_band=1.5)
    # Refused on construction, not when the run first reads them.
    with pytest.raises(ValueError):
        ol.Scenario(xhat0=(4292.87, 8924.17, 7.8))
    with pytest.raises(ValueError):
        ol.Scenario(noise_seed=-1)
    with pytest.raises(ValueError):
        ol.Scenario(noise_seed=1.5)


NAN = math.nan


@pytest.mark.parametrize("build", [
    lambda: ol.Scenario(rtol=NAN),
    lambda: ol.Scenario(atol=NAN),
    lambda: ol.Scenario(observer_speed_factor=NAN),
    lambda: ol.Scenario(measurement_noise_sigma=(NAN, 0.0)),
    lambda: ol.Scenario(measurement_noise_sigma=(0.0, NAN)),
    # Used to fail only in the run, as "integrator step size underflowed".
    lambda: ol.Scenario(xhat0=(NAN, 0.0, 0.0, 0.0)),
    lambda: ol.PhysicalConstants(mu=NAN),
    lambda: ol.PhysicalConstants(c_light=NAN),
    lambda: ol.SpacecraftParams(mass=NAN),
    lambda: ol.SpacecraftParams(area=NAN),
    lambda: ol.SrpConfig(magnitude_km_s2=NAN),
    lambda: ol.SrpConfig(mode="irradiance", irradiance_w_m2=NAN),
], ids=["rtol", "atol", "observer_speed_factor", "noise_sigma_x",
        "noise_sigma_y", "xhat0", "mu", "c_light", "mass", "area", "srp_magnitude",
        "srp_irradiance"])
def test_dataclasses_reject_nan(build):
    with pytest.raises(ValueError):
        build()


def test_scenario_grid_bound():
    # The bound is checked on horizon / output_dt alone, so these
    # constructions allocate no grid.
    ol.Scenario(horizon=1.0e6, output_dt=1.0)
    with pytest.raises(ValueError, match="exceeds"):
        ol.Scenario(horizon=1.0e6, output_dt=0.999)
    with pytest.raises(ValueError, match="exceeds"):
        ol.Scenario(output_dt=1e-9)
    with pytest.raises(ValueError, match="exceeds"):
        ol.Scenario(horizon=math.inf)


def test_output_grid_covers_horizon():
    s = ol.Scenario(horizon=100.0, output_dt=0.3)
    grid = s.output_grid()
    assert grid[0] == 0.0
    assert grid[-1] == 100.0
    assert np.allclose(np.diff(grid), grid[1] - grid[0])


def test_uncontrolled_free_flight_diverges():
    s = replace(ol.Scenario(), method=ol.Method.UNCONTROLLED, output_dt=1.0)
    rec = ol.run_scenario(s)
    met = ol.compute_metrics(rec, s.xf)
    initial_distance = math.hypot(4292.87 + 2000.0, 8924.17 - 8878.0)
    assert met.terminal_error_km > initial_distance
    assert np.all(rec.controls == 0.0)
    assert rec.estimates is None


def test_observer_only_truth_equals_free_flight():
    # The observer is passive: the true trajectory is the free flight (up to
    # the adaptive stepper's reaction to the enlarged state vector).
    s = ol.Scenario(horizon=50.0, output_dt=0.5)
    ra = ol.run_scenario(replace(s, method=ol.Method.UNCONTROLLED))
    rb = ol.run_scenario(replace(s, method=ol.Method.OBSERVER_ONLY))
    scale = np.maximum(1.0, np.abs(ra.true_states))
    assert (np.abs(ra.true_states - rb.true_states) / scale).max() < 1e-12
    assert np.all(rb.controls == 0.0)
    assert rb.estimates is not None


def test_matched_model_estimate_makes_methods_agree():
    # Linear plant, zero SRP, exact initial estimate: the estimation error
    # stays identically zero, so observer-based control equals true-state
    # control at every sample.  LQR steps freely and the observer run lands
    # on every sample, so the two step sequences differ: at the default
    # tolerances (rtol |x| allows about 9e-5 km a step) they part by 2.0e-6
    # km, at these by 3.0e-10 km.
    s = ol.Scenario(
        horizon=200.0, output_dt=0.1,
        srp=ol.SrpConfig(mode="direct", magnitude_km_s2=0.0),
        plant_mode=ol.PlantMode.LINEAR,
        xhat0=(4292.87, 8924.17, 7.8, 0.0),
        rtol=1e-12, atol=1e-12,
    )
    ra = ol.run_scenario(replace(s, method=ol.Method.LQR))
    rc = ol.run_scenario(replace(s, method=ol.Method.OBSERVER_LQR))
    assert np.abs(ra.true_states - rc.true_states).max() < 1e-9
    assert np.abs(rc.estimation_error).max() == 0.0


def test_linear_closed_loop_matches_transition_matrix():
    # Method A on the linear plant regulating to the origin equals the
    # matrix-exponential solution of xdot = (A - B K) x + B d.
    s = ol.Scenario(
        horizon=200.0, output_dt=0.1,
        plant_mode=ol.PlantMode.LINEAR,
        reference_mode=ol.ReferenceMode.CONSTANT_SETPOINT,
        xf=_zero_setpoint(),
        method=ol.Method.LQR,
        rtol=1e-12, atol=1e-12,  # keep truncation below the 1e-8 gate
    )
    rec = ol.run_scenario(s)
    design = ol.synthesize_for_scenario(s)
    plant, k = design.plant, design.lqr.k
    closed = ol.StateSpace(plant.a - plant.b @ k, plant.b, plant.c)
    a_srp = ol.srp_accel(s.srp)
    zi = ol.zero_input_response(closed, s.x0.as_vector(), rec.times)
    u = np.tile(a_srp, (rec.times.size, 1))
    zs = ol.zero_state_response(closed, u, rec.times)
    total = zi + zs
    scale = np.maximum(1.0, np.linalg.norm(rec.true_states, axis=1))
    rel = np.linalg.norm(total - rec.true_states, axis=1) / scale
    assert rel.max() < 1e-8


def test_reproducibility_bitwise():
    s = ol.Scenario(horizon=100.0, output_dt=0.1)
    r1 = ol.run_scenario(s)
    r2 = ol.run_scenario(s)
    assert np.array_equal(r1.true_states, r2.true_states)
    assert np.array_equal(r1.controls, r2.controls)
    assert np.array_equal(r1.estimation_error, r2.estimation_error)


def test_noise_seed_determinism():
    s = ol.Scenario(horizon=20.0, output_dt=0.1,
                    measurement_noise_sigma=(0.01, 0.01))
    r1 = ol.run_scenario(s)
    r2 = ol.run_scenario(s)
    r3 = ol.run_scenario(replace(s, noise_seed=1))
    assert np.array_equal(r1.estimation_error, r2.estimation_error)
    assert not np.array_equal(r1.estimation_error, r3.estimation_error)


def test_estimation_error_not_applicable():
    s = ol.Scenario(horizon=5.0, output_dt=0.5, method=ol.Method.LQR)
    rec = ol.run_scenario(s)
    with pytest.raises(ol.NotApplicableError):
        ol.estimation_error_series(rec)


def test_estimation_error_control_independence():
    # Linear plant with uniform clamped steps: the error block's arithmetic
    # never sees the control trajectory, so e(t) is bit-identical between an
    # observer-only run and a closed-loop run.
    s = ol.Scenario(horizon=50.0, output_dt=0.1, rtol=1e-3, atol=1e-6,
                    plant_mode=ol.PlantMode.LINEAR)
    ra = ol.run_scenario(replace(s, method=ol.Method.OBSERVER_ONLY))
    rb = ol.run_scenario(replace(s, method=ol.Method.OBSERVER_LQR))
    assert np.array_equal(ra.estimation_error, rb.estimation_error)


def test_estimation_error_series_blocks():
    s = ol.Scenario(horizon=10.0, output_dt=0.1)
    rec = ol.run_scenario(s)
    t, pos, vel = ol.estimation_error_series(rec)
    assert t.shape == pos.shape == vel.shape
    assert pos[0] == 0.0  # positions are measured at start
    assert abs(vel[0] - 7.8) < 1e-12  # velocities initially unknown


def _record_at(states, controls, times, method=ol.Method.LQR):
    n = times.size
    ref = np.zeros((n, 4))
    return ol.SimulationRecord(method=method, times=times,
                               true_states=states, controls=controls,
                               reference=ref)


def test_metrics_at_target_all_zero():
    s = ol.Scenario()
    t = np.arange(0.0, 10.1, 0.1)
    states = np.tile(s.xf.as_vector(), (t.size, 1))
    rec = _record_at(states, np.zeros((t.size, 2)), t)
    met = ol.compute_metrics(rec, s.xf)
    assert met.terminal_error_km == 0.0
    assert met.rms_error_km == 0.0
    assert met.control_energy == 0.0
    assert met.settling_time_s == 0.0


@settings(max_examples=30, deadline=None)
@given(c1=st.floats(-2.0, 2.0), c2=st.floats(-2.0, 2.0))
def test_metrics_constant_control_energy_exact(c1, c2):
    s = ol.Scenario()
    t = np.arange(0.0, 50.05, 0.1)
    states = np.tile(s.xf.as_vector(), (t.size, 1))
    controls = np.tile([c1, c2], (t.size, 1))
    rec = _record_at(states, controls, t)
    met = ol.compute_metrics(rec, s.xf)
    expected = (c1**2 + c2**2) * (t[-1] - t[0])
    assert abs(met.control_energy - expected) <= 1e-12 * max(1.0, expected)


def test_metrics_linear_ramp_rms():
    s = ol.Scenario()
    g = np.array([0.3, -0.4])
    horizon = 100.0
    t = np.arange(0.0, horizon + 0.05, 0.1)
    states = np.tile(s.xf.as_vector(), (t.size, 1))
    states[:, 0] += t * g[0]
    states[:, 1] += t * g[1]
    rec = _record_at(states, np.zeros((t.size, 2)), t)
    met = ol.compute_metrics(rec, s.xf)
    expected = np.hypot(*g) * horizon / math.sqrt(3.0)
    assert abs(met.rms_error_km - expected) <= 1e-6 * expected


def test_metrics_settling_time():
    s = ol.Scenario()
    t = np.arange(0.0, 10.1, 0.1)
    states = np.tile(s.xf.as_vector(), (t.size, 1))
    err = 100.0 * np.exp(-t)  # initial error 100, 2% band at ~3.9 s
    states[:, 0] += err
    rec = _record_at(states, np.zeros((t.size, 2)), t)
    met = ol.compute_metrics(rec, s.xf)
    assert met.settling_time_s is not None
    assert abs(met.settling_time_s - 4.0) < 0.2
    rec_never = _record_at(states + 1e6, np.zeros((t.size, 2)), t)
    assert ol.compute_metrics(rec_never, s.xf).settling_time_s is None
    # The band is a fraction of the initial error, as in Scenario.
    for band in (0.0, 1.0, 5.0, math.nan):
        with pytest.raises(ValueError):
            ol.compute_metrics(rec, s.xf, band)


def test_compare_methods_report_shape():
    s = ol.Scenario(horizon=50.0, output_dt=0.5)
    report = ol.compare_methods(s)
    names = [entry.method.value for entry in report.reports]
    assert names == ["uncontrolled", "lqr", "observer_only", "observer_lqr"]
    by_name = {e.method.value: e for e in report.reports}
    assert by_name["uncontrolled"].stability == "unstable"
    assert by_name["lqr"].stability == "asymptotically_stable"
    assert by_name["observer_lqr"].stability == "asymptotically_stable"
    assert all(e.error is None for e in report.reports)
    assert set(report.records) == set(names)
    # Theorem-2 check embedded in the report: loop spectrum is the union of
    # the controller and observer spectra.
    union = np.concatenate([
        by_name["lqr"].eigenvalues["closed_loop"],
        by_name["observer_only"].eigenvalues["observer"],
    ])
    sep = by_name["observer_lqr"].eigenvalues["separation_loop"]
    assert spectra_close(sep, union, tol=1e-6)
    assert by_name["observer_lqr"].metrics.control_energy > 0.0
    assert by_name["uncontrolled"].metrics.control_energy == 0.0


def test_compare_methods_shares_the_arc_and_the_spectra(monkeypatch):
    # compare solves the Lambert arc once for all four methods, and takes
    # each stability class from the design's spectra, as stability_class
    # would from the loop matrix.
    solves = []
    solve = ol.simulate.lambert_solve

    def counting(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(ol.simulate, "lambert_solve", counting)
    s = ol.Scenario(horizon=5.0)
    report = ol.compare_methods(s)
    assert len(solves) == 1
    d = ol.synthesize_for_scenario(s)
    want = [ol.stability_class(m).value for m in (
        d.plant.a, d.step_loops["lqr"].a, d.plant.a,
        d.step_loops["observer_lqr"].a)]
    assert [e.stability for e in report.reports] == want


def _rotated_metrics(phi):
    """compare_methods on the default scenario at 400 s with x0, xf and the
    SRP acceleration (through the disturbance matrix) turned by phi."""
    c, s_ = math.cos(phi), math.sin(phi)

    def turn(state):
        (px, py), (vx, vy) = state.position, state.velocity
        return ol.OrbitState((c * px - s_ * py, s_ * px + c * py),
                             (c * vx - s_ * vy, s_ * vx + c * vy))

    base = ol.Scenario()
    s = ol.Scenario(horizon=400.0, x0=turn(base.x0), xf=turn(base.xf),
                    disturbance_matrix=np.array(
                        [[0.0, 0.0], [0.0, 0.0], [c, -s_], [s_, c]]))
    return {r.method.value: r.metrics for r in ol.compare_methods(s).reports}


def test_compare_methods_is_rotation_invariant():
    # Turning the whole problem about the attractor changes no metric: the
    # default weights are isotropic, and A is [[0, I], [w2 I, 0]].  An
    # oracle that needs no earlier output bits.  Measured spreads over
    # these angles, against the bounds: terminal errors 6e-15 relative
    # (uncontrolled) and 8e-9 (observer LQR), against 1e-6; LQR's 1.005e-9
    # km sits on its roundoff floor and moves by 8.5e-3 of it, 8.6e-12 km,
    # against the 1e-10 km term (free LQR steps without their cap at
    # 2 / rho(A - B K) ended 2.93e-7 km away and moved by 2.8e-7 km);
    # energies 6e-10 relative, against 1e-8.
    ref = _rotated_metrics(0.0)
    for phi in (0.3, 1.0, math.pi / 2, 2.5):
        got = _rotated_metrics(phi)
        for method, m in got.items():
            want = ref[method]
            assert abs(m.terminal_error_km - want.terminal_error_km) <= \
                1e-6 * want.terminal_error_km + 1e-10, (method, phi)
            assert abs(m.control_energy - want.control_energy) <= \
                1e-8 * want.control_energy, (method, phi)


def test_design_loops_use_its_gains_and_maps():
    # Every loop of the design is built from its own K, L, G and measurement
    # map C: a custom G and a scaled C show any fallback to B or to the
    # position outputs.
    g = np.array([[0.1, 0.0], [0.0, 0.2], [1.0, 0.3], [-0.2, 0.7]])
    c = 2.0 * np.eye(2, 4)
    q, r = np.eye(4), np.eye(2)
    d = ol.synthesize_for_scenario(
        ol.Scenario(disturbance_matrix=g, measurement_matrix=c,
                    weights=ol.Weights(q, r)))
    a, b, k, l = d.plant.a, d.plant.b, d.lqr.k, d.l
    lqr, sep = d.step_loops["lqr"], d.step_loops["observer_lqr"]
    assert np.array_equal(lqr.a, a - b @ k)
    assert np.array_equal(lqr.b, g) and np.array_equal(lqr.c, c)
    assert np.array_equal(sep.a[4:, 4:], a - l @ c)
    assert np.array_equal(sep.b, np.vstack([g, g]))
    assert np.array_equal(sep.c, np.hstack([c, np.zeros((2, 4))]))
    assert np.array_equal(d.sweep_loops["lqr"].c, k)
    assert np.array_equal(d.sweep_loops["observer_lqr"].a, a - b @ k - l @ c)
    union = np.concatenate([d.spectra["closed_loop"], d.spectra["observer"]])
    assert spectra_close(d.spectra["separation_loop"], union, tol=1e-6)
    # The loops and the weights freeze copies: the gains and the caller's G,
    # q and r stay writable.
    assert g.flags.writeable and k.flags.writeable and l.flags.writeable
    assert q.flags.writeable and r.flags.writeable


def test_compare_methods_synthesis_failure_propagates():
    # Gains are shared across the four methods: when the scenario's design
    # itself is unobservable there is nothing to compare.
    s = ol.Scenario(horizon=50.0, output_dt=0.5,
                    measurement_matrix=np.zeros((2, 4)))
    with pytest.raises(ol.SynthesisError):
        ol.compare_methods(s)


def test_noise_raises_estimation_floor():
    quiet = ol.Scenario(horizon=40.0, output_dt=0.1,
                        plant_mode=ol.PlantMode.LINEAR)
    noisy = replace(quiet, measurement_noise_sigma=(0.001, 0.001))
    _, pos_q, _ = ol.estimation_error_series(ol.run_scenario(quiet))
    _, pos_n, _ = ol.estimation_error_series(ol.run_scenario(noisy))
    # After the initial transient the noisy run sits on a visibly higher
    # estimation-error floor.
    assert np.median(pos_n[200:]) > 10.0 * np.median(pos_q[200:])


def test_metrics_empty_record_rejected():
    rec = ol.SimulationRecord(
        method=ol.Method.LQR,
        times=np.zeros((0,)),
        true_states=np.zeros((0, 4)),
        controls=np.zeros((0, 2)),
        reference=np.zeros((0, 4)),
    )
    with pytest.raises(ValueError):
        ol.compute_metrics(rec, ol.Scenario().xf)


def test_drift_study_zero_srp():
    s = ol.Scenario()
    study = ol.srp_drift_study(
        3600.0, ol.SpacecraftParams(),
        ol.SrpConfig(mode="direct", magnitude_km_s2=0.0),
        s.x0, output_dt=60.0,
    )
    assert np.all(study.deviation_km == 0.0)
    assert np.all(study.relative_error == 0.0)


def test_drift_study_secular_growth():
    s = ol.Scenario()
    srp = ol.SrpConfig(mode="direct", magnitude_km_s2=3.63076e-10, theta0=0.0)
    study = ol.srp_drift_study(86400.0, ol.SpacecraftParams(), srp, s.x0)
    # Coarse-grained secular drift: the oscillation beats grow between the
    # two halves of the day and never return near zero late on.
    dev = study.deviation_km
    n = dev.size
    assert dev[n // 2 :].max() > 1.5 * dev[: n // 2].max()
    assert dev[3 * n // 4 :].min() > 0.03 * dev.max()
    assert dev[-1] > 0.1
    assert study.relative_error[-1] > 0.0


def test_run_scenario_rejects_bad_disturbance_matrix():
    with pytest.raises(ol.DimensionError):
        ol.run_scenario(ol.Scenario(horizon=1.0, output_dt=0.5,
                                    disturbance_matrix=np.zeros((2, 2))))


@pytest.mark.parametrize("build", [
    lambda: ol.Scenario(measurement_matrix=np.zeros((3, 4))),
    lambda: ol.Scenario(disturbance_matrix=np.zeros((2, 4))),
], ids=["measurement_3x4", "disturbance_2x4"])
def test_scenario_rejects_misshapen_maps(build):
    with pytest.raises(ol.DimensionError):
        build()


def test_compare_methods_isolates_lambert_failure():
    # A transfer back to the start position has no Lambert arc: each method
    # reports the failure in its own row and the comparison still returns.
    x0 = ol.Scenario().x0
    s = ol.Scenario(horizon=20.0, xf=ol.OrbitState(x0.position, (0.0, 0.0)))
    report = ol.compare_methods(s)
    assert [r.method for r in report.reports] == list(ol.Method)
    assert all(r.error == "identical transfer endpoints"
               for r in report.reports)
    assert report.records == {}


@pytest.mark.parametrize("call", [
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], rtol=NAN),
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], atol=NAN),
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], rtol=0.0),
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], atol=-1.0),
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], a_srp=(NAN, 0.0)),
    lambda x0: ol.propagate_two_body(x0, [0.0, 10.0], a_srp=(0.0, math.inf)),
    lambda x0: ol.srp_drift_study(600.0, ol.SpacecraftParams(),
                                  ol.SrpConfig(), x0, rtol=NAN),
    # Time grids that are not a non-empty, finite, strictly increasing 1-D
    # array.
    lambda x0: ol.propagate_two_body(x0, [0.0, -100.0]),
    lambda x0: ol.propagate_two_body(x0, [0.0, NAN]),
    lambda x0: ol.propagate_two_body(x0, [0.0, 100.0, 50.0]),
    lambda x0: ol.propagate_two_body(x0, [[0.0, 1.0]]),
    lambda x0: ol.propagate_two_body(x0, []),
], ids=["rtol_nan", "atol_nan", "rtol_zero", "atol_negative", "a_srp_nan",
        "a_srp_inf", "drift_rtol_nan", "grid_backwards", "grid_nan",
        "grid_not_increasing", "grid_2d", "grid_empty"])
def test_propagation_rejects_bad_arguments(call):
    with pytest.raises(ValueError):
        call(ol.Scenario().x0)


def test_grid_refinement_consistency():
    # Halving the integrator tolerances moves the terminal position by less
    # than 1e-5 km on the default scenario.
    s = ol.Scenario()
    r1 = ol.run_scenario(s)
    r2 = ol.run_scenario(replace(s, rtol=0.5e-8, atol=0.5e-9))
    shift = math.hypot(r1.true_states[-1, 0] - r2.true_states[-1, 0],
                       r1.true_states[-1, 1] - r2.true_states[-1, 1])
    assert shift < 1e-5


def test_drift_study_grid_bound():
    # Refused on duration / output_dt alone: a grid of 1e15 steps would
    # fail to allocate with MemoryError, not ValueError.
    with pytest.raises(ValueError, match="exceeds"):
        ol.srp_drift_study(1.0e12, ol.SpacecraftParams(), ol.SrpConfig(),
                           ol.Scenario().x0, output_dt=1.0e-3)
