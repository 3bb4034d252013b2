"""Compiled-path checks: the numba kernel and the pure-Python fallback run the
same source and must agree, on ndarray and on list containers alike; the env
flag, or numba being absent, selects the fallback."""

import importlib.util
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import orbitloop as ol
from orbitloop import _dopri


def test_backend_selection_matches_environment():
    # numba runs exactly when the flag is unset and numba is importable.
    # Where numba is installed, a quiet fallback to Python fails here.
    disabled = os.environ.get("ORBITLOOP_NO_NUMBA", "").strip().lower() \
        not in ("", "0", "false", "no")
    available = importlib.util.find_spec("numba") is not None
    assert _dopri.USING_NUMBA is (not disabled and available)


def test_env_flag_selects_numpy_fallback(tmp_path):
    code = ("import orbitloop\n"
            "print(orbitloop.USING_NUMBA)\n"
            "print(orbitloop.BACKEND_REASON)\n")
    env = dict(os.environ, ORBITLOOP_NO_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["False", "ORBITLOOP_NO_NUMBA set"]


def test_missing_numba_selects_python_kernel(tmp_path):
    # Blocking the import, rather than faking a package, runs the "numba
    # missing" branch on every machine, whether numba is installed or not.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"horizon_s": 20.0, "output_dt_s": 0.1}))
    code = ("import sys\n"
            "sys.modules['numba'] = None\n"
            "import orbitloop\n"
            "from orbitloop.cli import main\n"
            "print(orbitloop.USING_NUMBA)\n"
            "print(orbitloop.BACKEND_REASON)\n"
            "sys.exit(main(['simulate', '--scenario', sys.argv[1],\n"
            "               '--out', sys.argv[2]]))\n")
    env = dict(os.environ)
    env.pop("ORBITLOOP_NO_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(scenario), str(tmp_path / "out")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:2] == ["False", "numba missing"]
    assert (tmp_path / "out" / "trajectory.csv").stat().st_size > 0


def test_fallback_matches_compiled_path(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"horizon_s": 20.0, "output_dt_s": 0.1}))
    outs = {}
    for name, extra_env in (("numba", {}), ("numpy", {"ORBITLOOP_NO_NUMBA": "1"})):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "orbitloop.cli", "simulate",
             "--scenario", str(scenario), "--out", str(out)],
            env=dict(os.environ, **extra_env),
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs[name] = (out / "trajectory.csv").read_bytes()
    assert outs["numba"] == outs["numpy"]


def test_kernel_agrees_with_scipy_rk45():
    # Third route for the propagator: scipy's RK45 on the same free-flight
    # problem lands at the same endpoint to well inside both solvers'
    # tolerance budgets.
    import numpy as np
    from scipy.integrate import solve_ivp

    s = ol.Scenario()
    mu = s.constants.mu

    def rhs(_t, y):
        r3 = np.hypot(y[0], y[1]) ** 3
        return [y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3]

    t_end = 5000.0
    ours = ol.propagate_two_body(s.x0, np.array([0.0, t_end]),
                                 rtol=1e-10, atol=1e-10)
    ref = solve_ivp(rhs, (0.0, t_end), list(s.x0.as_vector()),
                    method="RK45", rtol=1e-10, atol=1e-10)
    assert np.allclose(ours[-1, :2], ref.y[:2, -1], atol=1e-3)


def test_kernel_status_singular_radius():
    # Plunge trajectory: radial drop reaches the 1 km guard.
    s = ol.Scenario(
        x0=ol.OrbitState((7000.0, 0.0), (-9.0, 0.0)),
        horizon=2000.0, output_dt=1.0,
        method=ol.Method.UNCONTROLLED,
    )
    try:
        ol.run_scenario(s)
    except ol.NumericalError as exc:
        assert "1 km" in str(exc)
    else:  # pragma: no cover - the guard must trip
        raise AssertionError("expected a singularity failure")


def test_nan_error_norm_fails_fast():
    # A NaN tolerance or acceleration makes the error norm, and so the next
    # step size, NaN.  The step-size guards must end the run at once
    # instead of retrying until the 50,000,000-step budget.  Every library
    # entry point refuses NaN, so the kernel is called directly.
    x0 = ol.Scenario().x0.as_vector()
    for rtol, ax in ((math.nan, 0.0), (1e-8, math.nan)):
        with pytest.raises(ol.NumericalError, match="underflowed"):
            _dopri.propagate_grid(
                x0, np.array([0.0, 10.0]), np.zeros(4), np.zeros(4),
                ol.PhysicalConstants().mu, [0.0, 0.0, ax, 0.0], 0, 0, 0, 0,
                0.0, np.zeros((2, 4)), np.zeros((2, 4)),
                np.zeros((4, 2)), np.zeros((1, 2)), rtol, 1e-9)


@pytest.mark.skipif(_dopri.USING_NUMBA,
                    reason="the compiled kernel binds the compiled RHS")
def test_python_kernel_calls_rhs_through_its_module(monkeypatch):
    # perfbench counts RHS evaluations by rebinding _dopri._rhs_impl, so the
    # Python kernel must look the RHS up in its module at call time; a
    # kernel that bound it earlier would run and report zero evaluations.
    calls = []
    rhs = _dopri._rhs_impl

    def counting(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(_dopri, "_rhs_impl", counting)
    ol.propagate_two_body(ol.Scenario().x0, np.array([0.0, 10.0]))
    assert calls


@pytest.mark.skipif(_dopri.USING_NUMBA,
                    reason="the compiled kernel reads _MAX_STEPS when it compiles")
def test_step_budget_ends_the_run(monkeypatch):
    # No library run comes near the 50,000,000-step budget, so it is
    # lowered here to below the steps a 1000 s free flight takes.
    monkeypatch.setattr(_dopri, "_MAX_STEPS", 10)
    with pytest.raises(ol.NumericalError, match="exceeded its step budget"):
        ol.propagate_two_body(ol.Scenario().x0, np.array([0.0, 1000.0]))


def _kernel_calls(monkeypatch, run):
    """Arguments of every propagate_grid call that run() makes, all of
    them positional; a run that fails in the kernel still records its
    call."""
    calls = []
    wrapper = _dopri.propagate_grid

    def record(*args):
        calls.append(args)
        return wrapper(*args)

    monkeypatch.setattr(_dopri, "propagate_grid", record)
    try:
        run()
    except ol.NumericalError:
        pass
    monkeypatch.setattr(_dopri, "propagate_grid", wrapper)
    return calls


def test_kernel_calls_pass_the_output_grid_second(monkeypatch):
    # perfbench/spans.py counts dopri.output_samples as len(args[1]) of each
    # propagate_grid call, so every caller must pass the output grid there.
    s = ol.Scenario(horizon=20.0, output_dt=0.5)
    t = np.linspace(0.0, 30.0, 7)
    for run, grid in ((lambda: ol.run_scenario(s), s.output_grid()),
                      (lambda: ol.propagate_two_body(s.x0, t), t)):
        (args,) = _kernel_calls(monkeypatch, run)
        assert np.array_equal(args[1], grid)


def _run_kernel_source(args, lists):
    """The kernel's Python source on ndarray containers (what numba gets)
    or on list containers (what the Python path gets)."""
    (x0, t_out, e0, r0, mu, gw, control, observe, plant_linear, ref_moving,
     w2, cm, k, l, noise, rtol, atol) = args
    arrays = [np.concatenate((x0, e0, r0)), t_out, gw, cm, k, l, noise]
    work = np.zeros((11, 12))
    if lists:
        arrays = [a.tolist() for a in arrays]
        work = work.tolist()
    z0, t_out, gw, cm, k, l, noise = arrays
    out_state = np.zeros((len(t_out), 12))
    out_ctrl = np.zeros((len(t_out), 2))
    status = _dopri._propagate_impl(
        z0, t_out, mu, gw, control, observe, plant_linear, ref_moving,
        w2, cm, k, l, noise, rtol, atol, work, out_state, out_ctrl)
    return out_state, out_ctrl, status


@pytest.mark.parametrize("scenario, expected", [
    (ol.Scenario(horizon=50.0, output_dt=0.5, method=ol.Method.LQR),
     _dopri.STATUS_OK),
    (ol.Scenario(horizon=50.0, output_dt=0.5,
                 method=ol.Method.OBSERVER_LQR,
                 measurement_noise_sigma=(0.001, 0.001)),
     _dopri.STATUS_OK),
    # Observing without control, on the linear plant, toward a frozen
    # reference.
    (ol.Scenario(horizon=50.0, output_dt=0.5,
                 method=ol.Method.OBSERVER_ONLY,
                 plant_mode=ol.PlantMode.LINEAR,
                 reference_mode=ol.ReferenceMode.CONSTANT_SETPOINT,
                 measurement_noise_sigma=(0.001, 0.002)),
     _dopri.STATUS_OK),
    # The plunge of test_kernel_status_singular_radius.
    (ol.Scenario(x0=ol.OrbitState((7000.0, 0.0), (-9.0, 0.0)),
                 horizon=2000.0, output_dt=1.0,
                 method=ol.Method.UNCONTROLLED),
     _dopri.STATUS_SINGULAR_RADIUS),
], ids=["lqr", "observer_lqr_noisy", "observer_only_linear_setpoint_noisy",
        "singular_radius"])
def test_container_paths_give_identical_bits(monkeypatch, scenario, expected):
    (args,) = _kernel_calls(monkeypatch, lambda: ol.run_scenario(scenario))
    # Where numba is installed, run its Python source all the way down.
    for name in ("_rhs_impl", "_propagate_impl"):
        fn = getattr(_dopri, name)
        monkeypatch.setattr(_dopri, name, getattr(fn, "py_func", fn))
    state_a, ctrl_a, status_a = _run_kernel_source(args, lists=False)
    state_l, ctrl_l, status_l = _run_kernel_source(args, lists=True)
    assert status_a == status_l == expected
    assert np.array_equal(state_a, state_l)
    assert np.array_equal(ctrl_a, ctrl_l)


def test_held_noise_estimation_error_matches_zoh_recursion():
    # Independent oracle for the held measurement noise.  On the linear plant
    # the error block obeys de/dt = (A - L C) e - L nu_k + G w, with nu_k
    # held on [t_k, t_k+1), so the exact zero-order-hold recursion of
    # (A - L C, [-L, G]) driven by [nu_k, w] gives it at every sample.  Every
    # stage after a noise switch must see the new sample: the kernel lands
    # 3.1e-12 km from the recursion (on a 7.8 km scale), and one that reuses
    # the stale last stage as the first stage after a switch 5.1e-11 km.
    from scipy.linalg import expm

    sigma = (0.001, 0.002)
    s = ol.Scenario(horizon=50.0, output_dt=0.5, rtol=1e-12, atol=1e-12,
                    method=ol.Method.OBSERVER_ONLY,
                    plant_mode=ol.PlantMode.LINEAR,
                    measurement_noise_sigma=sigma, noise_seed=3)
    rec = ol.run_scenario(s)
    d = ol.synthesize_for_scenario(s)
    aug = np.zeros((8, 8))
    aug[:4, :4] = d.plant.a - d.l @ d.plant.c
    aug[:4, 4:] = np.hstack([-d.l, d.g])
    phi = expm(aug * 0.5)
    nu = np.random.default_rng(3).standard_normal((rec.times.size - 1, 2))
    nu *= sigma
    w = ol.srp_accel(s.srp, s.spacecraft, s.constants)
    want = np.empty((rec.times.size, 4))
    want[0] = s.x0.as_vector() - s.initial_estimate()
    for k in range(nu.shape[0]):
        want[k + 1] = phi[:4, :4] @ want[k] + phi[:4, 4:] @ [*nu[k], *w]
    assert np.abs(rec.estimation_error - want).max() <= 1e-11


@pytest.mark.parametrize("method", [ol.Method.LQR, ol.Method.OBSERVER_LQR])
def test_sampled_controls_follow_the_control_law(method):
    # Each sample's control is -K (xhat - r) at that sample's own state, with
    # xhat = x for LQR, and not the control of some trial stage.
    s = ol.Scenario(horizon=200.0, method=method)
    rec = ol.run_scenario(s)
    xhat = rec.true_states if rec.estimates is None else rec.estimates
    want = -(xhat - rec.reference) @ ol.synthesize_for_scenario(s).lqr.k.T
    peak = np.abs(want).max()
    assert np.abs(rec.controls - want).max() <= 1e-13 * peak


def _assert_same_derivative(got, want):
    # The velocities are copied, so they match exactly.  The kernel takes the
    # radius as (p*p + q*q) ** 0.5 where the oracle takes math.hypot; the two
    # can differ by an ulp, which cubing and dividing grow to a few ulps of
    # the acceleration (1.06e-15 relative at most over 50000 seeded states).
    assert np.array_equal(got[0:2], want[0:2])
    eps = np.finfo(float).eps
    assert np.linalg.norm(got[2:4] - want[2:4]) \
        <= 8 * eps * np.linalg.norm(want[2:4])


def test_rhs_matches_numpy_derivative():
    # dynamics.two_body_srp_derivative is the oracle for the kernel's
    # right-hand side: the uncontrolled nonlinear plant block is gravity
    # plus the SRP forcing G w, and the moving reference block is gravity
    # alone.
    rng = np.random.default_rng(11)
    constants = ol.PhysicalConstants()
    zeros = np.zeros((4, 4))
    for _ in range(2000):
        radius = rng.uniform(6500.0, 50000.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        state = ol.OrbitState(
            (radius * math.cos(angle), radius * math.sin(angle)),
            tuple(rng.uniform(-10.0, 10.0, 2)))
        ax, ay = (float(a) for a in rng.uniform(-1e-6, 1e-6, 2))
        z = np.zeros(12)
        z[0:4] = state.as_vector()
        z[8:12] = state.as_vector()
        dz = np.zeros(12)
        status = _dopri._rhs_impl(
            z, dz, constants.mu, [0.0, 0.0, ax, ay],
            0, 0, 0, 1, 0.0, zeros[:2], zeros[:2],
            zeros[:, :2], 0.0, 0.0, np.zeros(12))
        assert status == _dopri.STATUS_OK
        _assert_same_derivative(
            dz[0:4], ol.two_body_srp_derivative(state, a_srp=(ax, ay)))
        _assert_same_derivative(dz[8:12], ol.two_body_srp_derivative(state))


def _general_product_rows(a, z, gw, control, plant_linear, cm, k, l, nx, ny,
                          f_x):
    """dz[0:8] and u by the arithmetic of a general 4x4 A: each row of A z
    and A e summed from 0.0 left to right over all four columns, with
    B u = [0, 0, ux, uy].  f_x is the nonlinear plant's forced dynamics."""
    def row(i, offset):
        acc = 0.0
        for j in range(4):
            acc += a[i][j] * z[offset + j]
        return acc

    bu = [0.0, 0.0, 0.0, 0.0]
    if control == 1:
        for i in range(4):
            dev = z[i] - z[4 + i] - z[8 + i]
            bu[2] -= k[0][i] * dev
            bu[3] -= k[1][i] * dev
    dz = [row(i, 0) + bu[i] + gw[i] for i in range(4)] if plant_linear \
        else list(f_x)
    ce0 = 0.0
    ce1 = 0.0
    for j in range(4):
        ce0 += cm[0][j] * z[4 + j]
        ce1 += cm[1][j] * z[4 + j]
    ce0 += nx
    ce1 += ny
    for i in range(4):
        mism = gw[i] if plant_linear else dz[i] - row(i, 0) - bu[i]
        dz.append(row(i, 4) - (l[i][0] * ce0 + l[i][1] * ce1) + mism)
    return dz, bu[2:]


def _bits(values):
    return np.asarray(values, float).view(np.uint64)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("radius", [6778.0, 26560.0, 42164.0])
def test_linear_rows_match_linearize_plant(radius, sign):
    # The kernel takes A = [[0, I], [w2 I, 0]] as w2 and writes its rows out.
    # They must give the bits of the general product by linearize_plant's
    # A, signed zeros included, on both plants and for both observer methods.
    s = ol.Scenario(x0=ol.OrbitState((radius, 0.0), (0.0, 7.0)),
                    linearization_sign=sign)
    d = ol.synthesize_for_scenario(s)
    a = d.plant.a
    w2 = a[2, 0]
    assert w2 == sign * s.constants.mu / radius ** 3
    assert np.array_equal(a, [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                              [w2, 0.0, 0.0, 0.0], [0.0, w2, 0.0, 0.0]])
    convert = np.ascontiguousarray if _dopri.USING_NUMBA \
        else (lambda x: np.asarray(x, float).tolist())
    cm, k, l = (convert(m) for m in (d.plant.c, d.lqr.k, d.l))

    rng = np.random.default_rng(7)
    cases = []
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 12)
        z[0:2] += radius * rng.uniform(0.5, 1.5, 2)
        z[2:4] *= 8.0
        z[8:12] += z[0:4]
        nx, ny = (float(v) for v in rng.uniform(-1e-3, 1e-3, 2))
        cases.append((z, rng.uniform(-1e-6, 1e-6, 4), nx, ny))
    negative_zeros = np.full(12, -0.0)
    negative_zeros[[0, 8]] = radius
    cases.append((negative_zeros, np.full(4, -0.0), -0.0, -0.0))

    for control in (0, 1):
        for plant_linear in (0, 1):
            for z, gw, nx, ny in cases:
                z, gw = convert(z), convert(gw)
                dz, u = convert(np.zeros(12)), convert(np.zeros(12))
                status = _dopri._rhs_impl(
                    z, dz, s.constants.mu, gw, control, 1, plant_linear, 0,
                    float(w2), cm, k, l, nx, ny, u)
                assert status == _dopri.STATUS_OK
                want, want_u = _general_product_rows(
                    a.tolist(), z, gw, control, plant_linear, cm, k, l,
                    nx, ny, dz[0:4])
                np.testing.assert_array_equal(_bits(dz[0:8]), _bits(want))
                np.testing.assert_array_equal(_bits(dz[8:12]),
                                              _bits(np.zeros(4)))
                np.testing.assert_array_equal(_bits(u[0:2]), _bits(want_u))
