"""Kernel checks: the generated stepper and the RHS against independent
oracles, pinned output bits, and the statuses that end a run."""

import hashlib
import importlib
import inspect
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import orbitloop as ol
from orbitloop import _dopri


def test_steppers_are_built_on_first_run():
    # Importing the CLI builds no stepper; the first run builds the one
    # stepper, and an observer run after a free flight builds no other.
    code = ("import numpy as np\n"
            "import orbitloop as ol\n"
            "import orbitloop.cli\n"
            "from orbitloop import _dopri\n"
            "print(_dopri._stepper.cache_info().currsize)\n"
            "ol.propagate_two_body(ol.Scenario().x0, np.array([0.0, 1.0]))\n"
            "print(_dopri._stepper.cache_info().currsize)\n"
            "ol.run_scenario(ol.Scenario(horizon=1.0,\n"
            "                            method=ol.Method.OBSERVER_LQR))\n"
            "print(_dopri._stepper.cache_info().currsize)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "1"]


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


def test_python_kernel_calls_rhs_through_its_module(monkeypatch):
    # perfbench counts RHS evaluations by rebinding _dopri._rhs_impl, so the
    # stepper must look the RHS up in its module at call time, for every
    # (observe, ref_moving) pair; one that bound it earlier would run and
    # report no evaluations.
    calls = []
    rhs = _dopri._rhs_impl

    def counting(*args):
        calls.append(args[4:7:2])  # (observe, ref_moving)
        return rhs(*args)

    monkeypatch.setattr(_dopri, "_rhs_impl", counting)
    x0 = ol.Scenario().x0.as_vector()
    layouts = [(observe, ref_moving) for observe in (0, 1)
               for ref_moving in (0, 1)]
    for observe, ref_moving in layouts:
        _dopri.propagate_grid(
            x0, np.array([0.0, 10.0]), np.zeros(4), x0,
            ol.PhysicalConstants().mu, np.zeros(4), 0, observe, 0,
            ref_moving, 0.0, np.zeros((2, 4)), np.zeros((2, 4)),
            np.zeros((4, 2)), np.zeros((1, 2)), 1e-8, 1e-9)
    assert sorted(set(calls)) == layouts


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


_H = float.fromhex
# The default scenario's design, written out so that no LAPACK build can
# move these inputs: K, L, the position measurement map C, A's w2 at
# |x0| = 9902.8 km, the SRP forcing G w = B a and the Lambert arc's start.
PIN_K = [[_H("0x1.000006e2c6010p+0"), _H("-0x1.e14b8d4951a9dp-55"),
          _H("0x1.bb67b27f41a1ep+0"), _H("-0x1.c4283b8c3ae70p-56")],
         [_H("0x1.e7216a98d8244p-57"), _H("0x1.000006e2c6002p+0"),
          _H("-0x1.c4283b8c3ae70p-56"), _H("0x1.bb67b27f41a1ep+0")]]
PIN_L = [[_H("0x1.bb67b27f41a1ep+2"), 0.0], [0.0, _H("0x1.bb67b27f41a1fp+2")],
         [_H("0x1.0000006e2c770p+4"), 0.0], [0.0, _H("0x1.0000006e2c762p+4")]]
PIN_C = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
PIN_W2 = _H("0x1.b8b17a235ac77p-22")
PIN_GW = [0.0, 0.0, _H("0x1.125eb66929aaap-30"), _H("0x1.79c414894bf22p-35")]
PIN_ARC = [4292.87, 8924.17, _H("-0x1.5d5797df1fc0cp-2"),
           _H("0x1.42c11334d3e4ap+2")]
# A constant setpoint on a near-circular 7000 km orbit; its p is -0.0.
PIN_SETPOINT = [-0.0, 7000.0, 7.546, 0.0]


def _pinned_run(control, observe, plant_linear, ref_moving, noisy):
    """20 s on a 0.5 s grid from literal inputs: toward the Lambert arc from
    the default x0, or toward PIN_SETPOINT from near it."""
    t = np.arange(41) * 0.5
    noise = [[1e-3 * ((3 * i) % 7 - 3), 2e-3 * ((5 * i) % 3 - 1)]
             for i in range(40)] if noisy else np.zeros((40, 2))
    x0 = [4292.87, 8924.17, 7.8, 0.0] if ref_moving \
        else [0.3, 7000.1, 7.5, 0.01]
    e0 = [0.0, 0.0, 7.8, 0.0] if observe else [0.0] * 4
    return _dopri.propagate_grid(
        np.array(x0), t, np.array(e0),
        np.array(PIN_ARC if ref_moving else PIN_SETPOINT), 398600.4418,
        PIN_GW, control, observe, plant_linear, ref_moving, PIN_W2, PIN_C,
        PIN_K, PIN_L, noise, 1e-8, 1e-9)


# sha256 of the x, e, r and u series as little-endian float64.  The
# observer cases were recorded with the loop-per-lane kernel that preceded
# the generated steppers, the LQR cases with the kernel that steps them
# from the first grid time to the last under one step cap and fills the
# rows between from dense output; every case kept its bits when one stepper
# of all 12 lanes replaced the stepper per (observe, ref_moving) pair.
@pytest.mark.parametrize("layout, digests", [
    ((1, 0, 0, 0, False), (
        "3112aa0ff5e6572afdca6b4d00d07ceacbd9fb3e63bb1a87bfcbebef6e7f2cc6",
        "2c7663e809c9827df482ce260d079467d02f9f181a6d1fcc5a942b2a7e1bd3e6",
        "14e827439fdf713d9e4dacb6186b3dbf830b45862a38f3a0bf2e880ec0a31749",
        "8156d7d8175a06834f51a51cec9dec765cc52b962150ec9d6118c08680e2d4e4")),
    ((1, 0, 1, 1, False), (
        "9b1280399485e18c3e2aa1c25e253a748c212a1d11806153432fb293054a04b9",
        "2c7663e809c9827df482ce260d079467d02f9f181a6d1fcc5a942b2a7e1bd3e6",
        "508f6be56940f3754e612a5fb75dd7d186a863b18115ef8339ec62667cf0731c",
        "a4bed2232d56c23c330ea550e58657932373c028a2e5821b801acb2244b70bcd")),
    ((0, 1, 1, 0, True), (
        "574fee90dadc90f34bb87acceef4cc6f5ec92e0180273b4f7e2a121e56d493d2",
        "db6a289fc73946e4d768f5139e84672f3aa6cdafe6fbc7d099eae567c47c2dc0",
        "14e827439fdf713d9e4dacb6186b3dbf830b45862a38f3a0bf2e880ec0a31749",
        "e06e79cdfedfc6d6107b945613e65b2de3a209e40115b9b00ab048d2b91cd7d5")),
    ((1, 1, 0, 1, True), (
        "132ea6c817268f4566e8634eaa227b964d6bf8c4e174887605f2d4277357bba9",
        "e6a30997799649fd8eec21d0d62e332a17185342eaf38a60745cf6d3e0f64104",
        "98f7a658beaf2e04c94102869ca5c0f5b737fa8f57fc30e1ff610674c790a464",
        "f98adaababb05556bd4b98d2f794b613c659178e9fed8b1ca60df58a717713f1")),
], ids=["lqr_setpoint_nonlinear", "lqr_arc_linear",
        "observer_only_setpoint_linear_noisy",
        "observer_lqr_arc_nonlinear_noisy"])
def test_kernel_output_bits_are_pinned(layout, digests):
    # Every (observe, ref_moving) pair, both plants, held noise and a
    # constant setpoint, each pinned to the last bit.
    out = _pinned_run(*layout)
    got = tuple(hashlib.sha256(a.astype("<f8").tobytes()).hexdigest()
                for a in out)
    assert got == digests
    if not layout[3]:
        # A setpoint lane's derivatives are +0.0, so its stage inputs are
        # z + 0.0 and its -0.0 becomes +0.0 with the first step and stays
        # there.
        r = out[2]
        assert math.copysign(1.0, r[0, 0]) == -1.0
        assert not np.signbit(r[1:, 0]).any() and not r[1:, 0].any()


def test_stage_below_1_km_retries_and_its_run_is_pinned(monkeypatch):
    # A near-radial fall from 7000 km at loose tolerances: one trial stage
    # lands within 1 km of the origin, the step is halved and retried, and
    # the run finishes.  sha256 of the (4, 4) output, recorded with the
    # kernel that steps a free flight from its first grid time to its last
    # under a cap of a tenth of the span.
    statuses = []
    rhs = _dopri._rhs_impl

    def recording(*args):
        out = rhs(*args)
        statuses.append(out[0])
        return out

    monkeypatch.setattr(_dopri, "_rhs_impl", recording)
    x = ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), (0.0, 0.15)),
                              np.linspace(0.0, 1500.0, 4),
                              rtol=1e-3, atol=1e-3)
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == \
        "564960cd42bc9ac68d9776c40ddad375343498dfc501b315c75433a2f278f32c"
    assert statuses.count(_dopri.STATUS_SINGULAR_RADIUS) == 1
    assert len(statuses) == 401
    last = x[-1].copy()

    # The same fall on 12 grid times takes the same steps and fills the
    # rows between from dense output (landing on all 12 took 719 RHS
    # calls).
    statuses.clear()
    x = ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), (0.0, 0.15)),
                              np.linspace(0.0, 1500.0, 12),
                              rtol=1e-3, atol=1e-3)
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == \
        "fc43f11698abdaafc9fee8f1dde2492e3b90889f4d9374f16ebf92439e0e7a83"
    assert statuses.count(_dopri.STATUS_SINGULAR_RADIUS) == 1
    assert len(statuses) == 401

    # And so on 31: the steps, and so the final row, do not depend on the
    # grid.  Landing on every third of the 31 grid times raised
    # NumericalError: the numerical orbit fell back below 1 km.
    statuses.clear()
    x = ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), (0.0, 0.15)),
                              np.linspace(0.0, 1500.0, 31),
                              rtol=1e-3, atol=1e-3)
    assert np.array_equal(_bits(x[-1]), _bits(last))
    assert statuses.count(_dopri.STATUS_SINGULAR_RADIUS) == 1
    assert len(statuses) == 401


def _count_rhs_calls(monkeypatch):
    calls = []
    rhs = _dopri._rhs_impl

    def counting(*args):
        calls.append(None)
        return rhs(*args)

    monkeypatch.setattr(_dopri, "_rhs_impl", counting)
    return calls


def test_lqr_run_draws_no_measurement_noise(monkeypatch):
    # Only the observer reads the measurement, so a noisy LQR run must make
    # the RHS calls and give the bits of a noise-free one.  Landing on every
    # 0.1 s sample took 6001 calls, and re-evaluating the first stage at
    # each held-noise change there 7000.
    calls = _count_rhs_calls(monkeypatch)
    runs = []
    for sigma in ((0.0, 0.0), (1e-3, 1e-3)):
        calls.clear()
        rec = ol.run_scenario(ol.Scenario(horizon=100.0, method=ol.Method.LQR,
                                          measurement_noise_sigma=sigma))
        runs.append((len(calls), rec.true_states.tobytes(),
                     rec.controls.tobytes()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 595


def test_two_point_free_flights_are_pinned(tmp_path):
    # A 2-point grid is stepped to its end with no dense output, under the
    # cap of a tenth of its span, which binds on the 1000 s propagation but
    # not in lambert's closure check.  The propagation's bits were recorded
    # with the kernel that caps every run without an observer; lambert's
    # closure residual (which perfbench's references hold to 1e-6 relative)
    # with the kernel that landed on every grid time.
    from orbitloop import cli

    x = ol.propagate_two_body(ol.Scenario().x0, np.array([0.0, 1000.0]))
    assert hashlib.sha256(x.astype("<f8").tobytes()).hexdigest() == \
        "d20e4fc63b5cc0e2178a790eb1dfb924f64ef7114622a76fc4ad99544a9fda2d"
    (tmp_path / "s.json").write_text("{}")
    assert cli.dispatch("lambert", tmp_path / "s.json", tmp_path / "out",
                        "csv") == 0
    payload = json.loads((tmp_path / "out" / "lambert.json").read_text())
    assert payload["closure_residual_km"] == 9.597688733000464e-05


def test_free_flight_fills_the_grid_from_dense_output(monkeypatch):
    # The default uncontrolled run, 400 s on the 0.1 s grid, lands on its
    # first and last samples and interpolates the others: 79 RHS calls,
    # where landing on every sample took 24001.  Against an rtol 1e-12 /
    # atol 1e-13 run, the plant's positions read 1.5e-7 km and the
    # reference's 1.8e-6 km at most; the bounds leave a margin of about 6.6
    # and 5.6.
    s = ol.Scenario(horizon=400.0, method=ol.Method.UNCONTROLLED)
    calls = _count_rhs_calls(monkeypatch)
    rec = ol.run_scenario(s)
    assert len(calls) < 200
    tight = ol.run_scenario(replace(s, rtol=1e-12, atol=1e-13))
    assert np.abs(rec.true_states[:, :2] - tight.true_states[:, :2]).max() \
        <= 1e-6
    assert np.abs(rec.reference[:, :2] - tight.reference[:, :2]).max() \
        <= 1e-5
    assert np.array_equal(_bits(rec.true_states[0]), _bits(s.x0.as_vector()))
    assert not np.signbit(rec.controls).any() and not rec.controls.any()

    # A frozen lane's -0.0 turns into +0.0 with the first step, in the
    # interpolated rows as in the last, landed one: a constant reference and
    # an error block holding -0.0, on a free flight's 21-point grid.
    x0 = ol.Scenario().x0.as_vector()
    x, e, r, u = _dopri.propagate_grid(
        x0, np.linspace(0.0, 40.0, 21), np.full(4, -0.0),
        np.array(PIN_SETPOINT), 398600.4418, PIN_GW, 0, 0, 0, 0, 0.0,
        PIN_C, PIN_K, PIN_L, np.zeros((20, 2)), 1e-8, 1e-9)
    assert np.array_equal(_bits(e[0]), _bits(np.full(4, -0.0)))
    assert np.array_equal(_bits(e[1:]), _bits(np.zeros((20, 4))))
    assert np.array_equal(_bits(r[0]), _bits(PIN_SETPOINT))
    assert np.array_equal(_bits(r[1:]),
                          _bits([[0.0, 7000.0, 7.546, 0.0]] * 20))
    assert not np.signbit(u).any() and not u.any()
    # A span too short to step leaves every row at the initial state.
    x = ol.propagate_two_body(ol.Scenario().x0, np.linspace(0.0, 2e-12, 12))
    assert np.array_equal(_bits(x), _bits([x0] * 12))


def _stepper_calls(monkeypatch):
    """The arguments of every stepper call, by name, with a copy of the
    rows it landed on (`out`) once it returns."""
    calls = []
    build = _dopri._stepper

    def recording():
        stepper = build()

        def run(*args):
            status = stepper(*args)
            bound = inspect.signature(stepper).bind(*args).arguments
            calls.append(dict(bound, out=bound["out"].copy()))
            return status
        return run

    monkeypatch.setattr(_dopri, "_stepper", recording)
    return calls


@pytest.mark.parametrize("layout", [
    (1, 0, 0, 0, False), (1, 0, 1, 1, False), (1, 1, 0, 1, False),
], ids=["lqr_setpoint_nonlinear", "lqr_arc_linear",
        "observer_lqr_arc_nonlinear"])
def test_free_lqr_rows_come_from_the_stepper_and_the_control_law(
        monkeypatch, layout):
    # An LQR run, and a noise-free observer run on the nonlinear plant,
    # lands on its first and last grid times and fills the rows between
    # from dense output.  The landed rows are the stepper's own, and every
    # row's control is the one _rhs_impl gives at that row's state, bit for
    # bit.
    calls = _stepper_calls(monkeypatch)
    out = np.hstack(_pinned_run(*layout))
    (call,) = calls
    t = np.arange(41) * 0.5
    idx = np.searchsorted(t, call["t_out"])
    assert np.array_equal(t[idx], call["t_out"]) and idx.tolist() == [0, 40]
    assert np.array_equal(_bits(out[idx]), _bits(call["out"]))
    control, observe, plant_linear, ref_moving = layout[:4]
    for row in out:
        _, ux, uy, *_ = _dopri._rhs_impl(
            tuple(row[:12].tolist()), 398600.4418, PIN_GW, control, observe,
            plant_linear, ref_moving, PIN_W2, PIN_C, PIN_K, PIN_L, 0.0, 0.0)
        assert np.array_equal(_bits(row[12:]), _bits([ux, uy]))


@pytest.mark.parametrize("layout", [(1, 1, 0, 1, True), (1, 1, 1, 1, False)],
                         ids=["noisy_nonlinear", "noise_free_linear"])
def test_observer_runs_that_land_get_the_whole_grid(monkeypatch, layout):
    # A noisy observer run lands on every sample, so that its held noise
    # never straddles one, and so does an observer run on the linear plant,
    # whose error block criterion 6 holds to the zero-order-hold recursion
    # on the grid: the stepper gets the whole grid and records no steps.
    calls = _stepper_calls(monkeypatch)
    _pinned_run(*layout)
    (call,) = calls
    assert call["t_out"] == (np.arange(41) * 0.5).tolist()
    assert call["buf"] is None and call["h_max"] == math.inf


def test_noise_free_observer_run_steps_freely(monkeypatch):
    # The default observer_lqr run at 400 s, on the nonlinear plant with no
    # measurement noise, steps freely under the observer loop's cap
    # 2 / rho(A - L C) = 0.5 s: 5377 RHS calls, where landing on every 0.1 s
    # sample took 24415.  Its final x and e read 7.8e-11 and 9.7e-12 km from
    # an rtol 1e-12 / atol 1e-13 run.
    s = ol.Scenario(horizon=400.0, method=ol.Method.OBSERVER_LQR)
    calls = _count_rhs_calls(monkeypatch)
    rec = ol.run_scenario(s)
    assert len(calls) <= 6000
    tight = ol.run_scenario(replace(s, rtol=1e-12, atol=1e-13))
    assert np.abs(rec.true_states[-1, :2]
                  - tight.true_states[-1, :2]).max() <= 1e-9
    assert np.abs(rec.estimation_error[-1, :2]
                  - tight.estimation_error[-1, :2]).max() <= 1e-9


def test_recorded_steps_take_bounded_memory():
    # A free run records its steps in one reused buffer of _CHUNK steps, so
    # a two-point flight of 2e5 s (about 700 steps) peaks at about 0.2 MB
    # under tracemalloc; a list of every step took 1.86 MB.
    import tracemalloc

    tracemalloc.start()
    try:
        ol.propagate_two_body(ol.Scenario().x0, np.array([0.0, 2e5]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6


def test_chunked_recording_and_fill_keep_their_bits(monkeypatch):
    # The default LQR run at 400 s (253 steps over 4001 rows) gives the same
    # bits whether its steps are recorded 3 or 1000 at a time and its rows
    # filled 5 or 5000 at a time.
    s = ol.Scenario(horizon=400.0, method=ol.Method.LQR)
    runs = []
    for chunk, fill_rows in ((3, 5), (1000, 5000)):
        monkeypatch.setattr(_dopri, "_CHUNK", chunk)
        monkeypatch.setattr(_dopri, "_FILL_ROWS", fill_rows)
        rec = ol.run_scenario(s)
        runs.append(np.hstack((rec.true_states, rec.reference, rec.controls)))
    assert np.array_equal(_bits(runs[0]), _bits(runs[1]))


def _lqr_terminal_error(s, **tolerances):
    s = replace(s, method=ol.Method.LQR, **tolerances)
    return ol.compute_metrics(ol.run_scenario(s), s.xf).terminal_error_km


@pytest.mark.parametrize("horizon, output_dt", [
    (400.0, 0.1), (4000.0, 0.1), (400.0, 5.0), (400.0, 20.0),
    (4000.0, 5.0), (4000.0, 20.0),
], ids=["400.0", "4000.0", "400.0-dt5", "400.0-dt20", "4000.0-dt5",
        "4000.0-dt20"])
def test_free_lqr_keeps_its_converged_terminal_error(monkeypatch, horizon,
                                                     output_dt):
    # LQR's steps are capped at 2 / rho(A - B K), which keeps them off the
    # Dormand-Prince stability limit on the closed-loop poles, whatever the
    # output grid.  Measured, at the default tolerances and at rtol 1e-12 /
    # atol 1e-13: 9.7254e-10 against 9.8244e-10 km at 400 s, and 1.4035e-9
    # against 1.3315e-9 km at 4000 s.  Uncapped steps ended 2.93e-7 km and
    # 9.56e-9 km from the target; capping only the spacing of landed grid
    # times left the 400 s run 5.92e-8 km away at output_dt 5 and 2.81e-7
    # km at 20, where its steps grew to the grid spacing.  The 4000 s
    # reference is not converged: the default run's terminal error reads
    # 1.15e-9 to 1.41e-9 km across rtol 1e-8 to 1e-13, so those cases check
    # the roundoff floor of stepping in absolute coordinates rather than
    # the integrator's tolerance.
    s = ol.Scenario(horizon=horizon, output_dt=output_dt)
    calls = _count_rhs_calls(monkeypatch)
    got = _lqr_terminal_error(s)
    if horizon == 400.0:
        # 1519 calls, where landing on every 0.1 s sample took 24001.
        assert len(calls) < 2500
    tight = _lqr_terminal_error(s, rtol=1e-12, atol=1e-13)
    assert tight / 2 <= got <= 2 * tight
    # The steps do not depend on the grid, so neither does the final row.
    final = [ol.run_scenario(replace(s, method=ol.Method.LQR, output_dt=dt))
             .true_states[-1] for dt in (0.1, output_dt)]
    assert np.array_equal(_bits(final[0]), _bits(final[1]))


@pytest.mark.filterwarnings("ignore:observer speed factor")
@pytest.mark.parametrize("index", range(8))
def test_free_lqr_converges_on_the_design_pool(monkeypatch, index):
    # The benchmark's design_sweep weightings, at 400 s: the same 2x rule.
    # Over all 32 pool scenarios the ratio to the tight run read 0.73 to
    # 1.27 (0.97 to 1.26 when LQR landed on every sample).
    from orbitloop import cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    tree = importlib.import_module("workloads").design_pool()[index]
    s = replace(cli.build_scenario(tree)[0], horizon=400.0)
    got = _lqr_terminal_error(s)
    tight = _lqr_terminal_error(s, rtol=1e-12, atol=1e-13)
    assert tight / 2 <= got <= 2 * tight


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
        status, _, _, *dz = _dopri._rhs_impl(
            tuple(z), constants.mu, [0.0, 0.0, ax, ay],
            0, 0, 0, 1, 0.0, zeros[:2], zeros[:2],
            zeros[:, :2], 0.0, 0.0)
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

    def convert(x):
        return np.asarray(x, float).tolist()

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
                status, ux, uy, *dz = _dopri._rhs_impl(
                    tuple(z), s.constants.mu, gw, control, 1, plant_linear,
                    0, float(w2), cm, k, l, nx, ny)
                assert status == _dopri.STATUS_OK
                want, want_u = _general_product_rows(
                    a.tolist(), z, gw, control, plant_linear, cm, k, l,
                    nx, ny, dz[0:4])
                np.testing.assert_array_equal(_bits(dz[0:8]), _bits(want))
                np.testing.assert_array_equal(_bits(dz[8:12]),
                                              _bits(np.zeros(4)))
                np.testing.assert_array_equal(_bits([ux, uy]), _bits(want_u))
