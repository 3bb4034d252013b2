import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import orbitloop as ol
from orbitloop import cli
from orbitloop.linalg import spectra_close


def _write(tmp_path, payload, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def test_parse_empty_object_gives_defaults(tmp_path):
    path = _write(tmp_path, {})
    scenario = cli.parse_scenario(path)
    assert scenario == ol.Scenario()


def test_parse_single_override(tmp_path):
    path = _write(tmp_path, {"horizon_s": 200.0})
    scenario = cli.parse_scenario(path)
    assert scenario.horizon == 200.0
    assert scenario.output_dt == 0.1


def test_parse_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"hozizon": 200.0})
    with pytest.raises(ol.ScenarioError, match="hozizon"):
        cli.parse_scenario(path)
    path = _write(tmp_path, {"srp": {"thetaO": 0.1}}, "s2.json")
    with pytest.raises(ol.ScenarioError, match="srp.thetaO"):
        cli.parse_scenario(path)


def test_parse_malformed_json_reports_line(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "horizon_s": 200.0,\n}\n')
    with pytest.raises(ol.ScenarioError, match="line 3"):
        cli.parse_scenario(p)


def test_parse_invariant_violation(tmp_path):
    path = _write(tmp_path, {"horizon_s": -5.0})
    with pytest.raises(ol.ScenarioError):
        cli.parse_scenario(path)


def test_parse_weights_shorthand(tmp_path):
    path = _write(tmp_path, {"weights": {"q": [1.0, 2.0, 3.0, 4.0],
                                         "r": [0.5, 0.5]}})
    scenario = cli.parse_scenario(path)
    assert np.allclose(scenario.weights.q, np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(scenario.weights.r, np.diag([0.5, 0.5]))


def test_parse_bad_noise_sigma(tmp_path):
    path = _write(tmp_path, {"measurement_noise_sigma": [0.1, 0.1, 0.1]})
    with pytest.raises(ol.ScenarioError, match="exactly 2"):
        cli.parse_scenario(path)


def test_parse_irradiance_mode_runs(tmp_path):
    path = _write(tmp_path, {
        "horizon_s": 5.0, "output_dt_s": 0.5,
        "srp": {"mode": "irradiance", "irradiance_w_m2": 1361.0,
                "theta0_rad": 0.0},
    })
    scenario = cli.parse_scenario(path)
    assert scenario.srp.mode == "irradiance"
    rec = ol.run_scenario(scenario)
    assert rec.times.size == 11


def test_set_overrides(tmp_path):
    path = _write(tmp_path, {})
    scenario = cli.parse_scenario(
        path, ["horizon_s=200", "srp.theta0_rad=0.1", "method=\"lqr\""]
    )
    assert scenario.horizon == 200.0
    assert scenario.srp.theta0 == 0.1
    assert scenario.method is ol.Method.LQR


def test_dispatch_analyze(tmp_path, capsys):
    path = _write(tmp_path, {})
    out = tmp_path / "out"
    code = cli.dispatch("analyze", path, out, "csv")
    assert code == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["rank_controllability"] == 4
    assert payload["rank_observability"] == 4
    assert payload["stability_class"] == "unstable"
    assert abs(payload["natural_freq_sq_per_s2"] - 4.104275907665159e-07) < 1e-18
    assert "rank(controllability) = 4" in capsys.readouterr().out


def test_dispatch_analyze_degenerate_output_map(tmp_path):
    # Analysis is rank reporting, not synthesis: a blind output map yields
    # rank 0 and a successful exit.
    path = _write(tmp_path, {"measurement_matrix": [[0, 0, 0, 0],
                                                    [0, 0, 0, 0]]})
    out = tmp_path / "out"
    assert cli.dispatch("analyze", path, out, "csv") == 0
    payload = json.loads((out / "analyze.json").read_text())
    assert payload["rank_observability"] == 0
    assert payload["rank_controllability"] == 4


def test_dispatch_missing_file_exit_2(tmp_path, capsys):
    code = cli.dispatch("analyze", tmp_path / "absent.json", tmp_path, "csv")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    diagnostic = json.loads(err[0])
    assert diagnostic["error"] == "ScenarioError"


def test_dispatch_unobservable_override_exit_1(tmp_path, capsys):
    path = _write(tmp_path, {"horizon_s": 1.0, "output_dt_s": 0.5})
    code = cli.dispatch(
        "simulate", path, tmp_path / "out", "csv",
        ["measurement_matrix=[[0,0,0,0],[0,0,0,0]]"],
    )
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err.strip())
    assert diagnostic["error"] == "SynthesisError"


@pytest.mark.parametrize("command, override", [
    ("analyze", "linearization_sign=2"),
    ("lambert", 'lambert_direction="sideways"'),
    # Grids past MAX_GRID_STEPS are refused while parsing, before any
    # array is allocated.
    ("simulate", "output_dt_s=1e-9"),
    ("drift", "drift.output_dt_s=1e-6"),
    ("response", "response.step_dt_s=1e-9"),
    ("response", "response.freq_points=1000001"),
    # A step longer than the horizon, as for output_dt_s.
    ("response", "response.step_dt_s=100"),
    ("drift", "drift.output_dt_s=100000"),
    # Frequency grids that are not positive and increasing, refused before
    # step_response.csv is written.
    ("response", "response.freq_lo_rad_s=0"),
    ("response", "response.freq_lo_rad_s=-1"),
    ("response", "response.freq_lo_rad_s=100"),
    # Below the default 10 rad/s, yet 400 log-spaced points between them
    # repeat values.
    ("response", "response.freq_lo_rad_s=9.999999999999998"),
    # SRP settings that SrpConfig would refuse only inside the command.
    ("drift", "drift.theta0_rad=5"),
    ("drift", "drift.srp_magnitude_km_s2=-1"),
    # Malformed sections and values, each refused while parsing.
    ("analyze", "srp=5"),
    ("analyze", "srp=[]"),
    ("analyze", "weights=3"),
    ("analyze", 'weights.q="abc"'),
    ("analyze", 'mu_km3_s2="x"'),
    ("analyze", "mu_km3_s2=-1"),
    ("analyze", 'srp.mode="bogus"'),
    ("analyze", "spacecraft.mass_kg=-1"),
    ("simulate", "noise_seed=-1"),
    ("simulate", "noise_seed=1.7"),
    ("simulate", "rtol=NaN"),
    # Inside the kernel's 1 km singular-radius guard.
    ("analyze", "x0=[0,0,0,0]"),
    # JSON strings and booleans are not numbers.
    ("analyze", 'horizon_s="400"'),
    ("analyze", "rtol=true"),
    pytest.param("analyze", "horizon_s=1" + "0" * 400,
                 id="analyze-horizon_s=10**400"),
    pytest.param("analyze", "weights.r=[1" + "0" * 400 + ", 1]",
                 id="analyze-weights.r=[10**400, 1]"),
])
def test_dispatch_out_of_range_override_exit_2(tmp_path, capsys, command,
                                               override):
    path = _write(tmp_path, {})
    code = cli.dispatch(command, path, tmp_path / "out", "csv", [override])
    _assert_input_error(code, capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, override, message", [
    pytest.param("simulate", "srp.magnitude_km_s2=1e300", None,
                 id="non_finite_metrics"),
    pytest.param("simulate", "observer_speed_factor=1e300",
                 "observer placement failed: gain is not finite",
                 id="non_finite_observer_gain"),
    # A mu so small that 2 mu / s is subnormal, leaving the Lambert
    # flight time without its digits (mu = 1e-300 flies the chord:
    # test_tiny_gravitational_parameter_flies_the_chord).
    pytest.param("simulate", "mu_km3_s2=5e-324",
                 "gravitational parameter too small", id="lambert_zero_y"),
    # r0**3 of the linearization radius (OverflowError).
    pytest.param("simulate", "x0=[1e300,0,0,0]", None,
                 id="linearization_overflow"),
    # The endpoint norm overflows to inf, and inf <= 1e-9 * inf read as
    # identical endpoints.
    pytest.param("lambert", "x0=[1e300,0,0,0]",
                 "transfer endpoint radius or separation overflowed",
                 id="lambert_endpoint_overflow"),
])
def test_dispatch_overflow_exit_1_without_output(tmp_path, capsys, command,
                                                 override, message):
    # Overflow is a numerical failure: exit 1 with a package error, and no
    # report holding Infinity or a raw Python exception.
    path = _write(tmp_path, {"horizon_s": 20.0})
    out = tmp_path / "out"
    with warnings.catch_warnings():  # overflow and speed-band warnings
        warnings.simplefilter("ignore")
        code = cli.dispatch(command, path, out, "csv", [override])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    diagnostic = json.loads(err[0])
    error = getattr(ol.errors, diagnostic["error"], None)
    assert isinstance(error, type) and issubclass(error, ol.OrbitloopError)
    assert message is None or diagnostic["message"].startswith(message)
    assert not (out / "metrics.json").exists()


def _run_cli(tmp_path, command, overrides):
    # A fresh interpreter with no warning filter: pytest's own warning
    # capture would hide warnings printed on stderr.
    path = _write(tmp_path, {})
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    argv = [sys.executable, "-m", "orbitloop.cli", command,
            "--scenario", str(path), "--out", str(tmp_path / "out")]
    for override in overrides:
        argv += ["--set", override]
    return subprocess.run(argv, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("overrides, code", [
    pytest.param(["x0=[0,0,0,0]"], 2, id="surface_warning_exit_2"),
    pytest.param(["horizon_s=20", "srp.magnitude_km_s2=1e300"], 1,
                 id="overflow_warnings_exit_1"),
])
def test_failing_run_folds_warnings_into_one_line(tmp_path, overrides, code):
    proc = _run_cli(tmp_path, "simulate", overrides)
    assert proc.returncode == code
    err = proc.stderr.splitlines()
    assert len(err) == 1
    diagnostic = json.loads(err[0])
    assert diagnostic["warnings"]
    assert all(isinstance(w, str) for w in diagnostic["warnings"])


def test_tiny_gravitational_parameter_flies_the_chord(tmp_path):
    # mu = 1e-300 puts the Lambert arc's non-dimensional flight time near
    # 1e-155, below where Izzo's iteration overflows.
    proc = _run_cli(tmp_path, "simulate",
                    ["mu_km3_s2=1e-300", "horizon_s=10"])
    assert proc.returncode == 0, proc.stderr


def test_successful_run_prints_its_warnings(tmp_path):
    proc = _run_cli(tmp_path, "synthesize", ["observer_speed_factor=6"])
    assert proc.returncode == 0
    assert "UserWarning: observer speed factor 6.0 outside" in proc.stderr


def test_dispatch_non_object_root_with_override_exit_2(tmp_path, capsys):
    path = _write(tmp_path, [])
    code = cli.dispatch("analyze", path, tmp_path / "out", "csv",
                        ["horizon_s=400"])
    _assert_input_error(code, capsys)


def _assert_input_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ScenarioError"


def _library_grid(entry, span, step):
    if entry == "Scenario":
        return ol.Scenario(horizon=span, output_dt=step).output_grid()
    if entry == "step_response":
        sys_ = ol.StateSpace([[-1.0]], [[1.0]], [[1.0]])
        return ol.step_response(sys_, span, step)[0]
    return ol.srp_drift_study(span, ol.SpacecraftParams(), ol.SrpConfig(),
                              ol.Scenario().x0, output_dt=step).times


_CLI_GRIDS = {
    "drift": ("duration_s", "output_dt_s", "drift_series.csv"),
    "response": ("step_horizon_s", "step_dt_s", "step_response.csv"),
}


@pytest.mark.parametrize("entry", ["Scenario", "step_response",
                                   "srp_drift_study", "drift", "response"])
@pytest.mark.parametrize("above", [True, False], ids=["above", "equal"])
def test_every_grid_keeps_its_step_within_its_span(tmp_path, capsys, entry,
                                                   above):
    # One rule, ltisys.check_grid, for every sampling grid: a step just
    # above its span is refused, in the CLI before any output is written,
    # and a step equal to it gives exactly one interval, ending at the span.
    span = 600.0
    step = np.nextafter(span, np.inf) if above else span
    if entry in _CLI_GRIDS:
        span_key, step_key, series = _CLI_GRIDS[entry]
        path = _write(tmp_path, {entry: {span_key: span, step_key: step}})
        out = tmp_path / "out"
        code = cli.dispatch(entry, path, out, "csv")
        if above:
            _assert_input_error(code, capsys)
            assert not out.exists()
            return
        assert code == 0
        t = np.loadtxt(out / series, delimiter=",", skiprows=1)[:, 0]
    elif above:
        with pytest.raises(ValueError, match="needs 0 < step <= span"):
            _library_grid(entry, span, step)
        return
    else:
        t = _library_grid(entry, span, step)
    assert t.tolist() == [0.0, span]


def test_schema_sets_every_field_once():
    # Every dataclass field is set by exactly one JSON key, or is a nested
    # section under its own key, so a field that no scenario file can reach
    # fails here.  Scenario.constants is read from the PhysicalConstants
    # keys, which sit beside the scenario's own at the root.
    assert {ol.SrpConfig, ol.SpacecraftParams, ol.Weights,
            ol.PhysicalConstants, ol.Scenario, cli.DriftSettings,
            cli.ResponseSettings} <= set(cli._SCHEMA)
    for cls, table in cli._SCHEMA.items():
        names = sorted(name for name, _ in table.values())
        expected = {f.name for f in dataclasses.fields(cls)}
        if cls is ol.Scenario:
            expected.remove("constants")
        assert names == sorted(expected), cls.__name__


def test_readme_key_block_gives_defaults():
    # The README lists every key with its default value.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    tree = json.loads(re.sub(r"//[^\n]*", "", block))
    assert cli.build_scenario(tree) == (ol.Scenario(), cli.DriftSettings(),
                                        cli.ResponseSettings())


def test_dispatch_simulate_writes_series_and_metrics(tmp_path):
    path = _write(tmp_path, {"horizon_s": 5.0, "output_dt_s": 0.5})
    out = tmp_path / "out"
    assert cli.dispatch("simulate", path, out, "csv") == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == ("t,x_p,y_p,vx,vy,xhat_p,yhat_q,vxhat,vyhat,"
                        "ux,uy,ref_x,ref_y")
    assert len(lines) == 12  # header + 11 samples
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) == {"terminal_error_km", "rms_error_km",
                            "control_energy_km2_s3", "settling_time_s"}


def test_write_series_round_trip(tmp_path):
    s = ol.Scenario(horizon=2.0, output_dt=0.5)
    record = ol.run_scenario(s)
    path = tmp_path / "series.csv"
    cli.write_series(record, path, "csv")
    lines = path.read_text().splitlines()
    parsed = np.array([[float(v) for v in line.split(",")]
                       for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], record.times)
    assert np.array_equal(parsed[:, 1:5], record.true_states)
    assert np.array_equal(parsed[:, 5:9], record.estimates)
    assert np.array_equal(parsed[:, 9:11], record.controls)
    assert np.array_equal(parsed[:, 11:13], record.reference[:, 0:2])


def test_write_series_absent_channels(tmp_path):
    s = ol.Scenario(horizon=1.0, output_dt=0.5, method=ol.Method.LQR)
    record = ol.run_scenario(s)
    path = tmp_path / "series.csv"
    cli.write_series(record, path, "csv")
    row = path.read_text().splitlines()[1].split(",")
    assert row[5] == row[6] == row[7] == row[8] == ""


def test_write_series_json_mirrors_names(tmp_path):
    s = ol.Scenario(horizon=1.0, output_dt=0.5)
    record = ol.run_scenario(s)
    path = tmp_path / "series.json"
    cli.write_series(record, path, "json")
    payload = json.loads(path.read_text())
    assert list(payload) == cli.SERIES_COLUMNS
    assert payload["t"] == record.times.tolist()
    assert payload["x_p"] == record.true_states[:, 0].tolist()


def test_write_series_blocks_match_cell_format(tmp_path):
    # More rows than one formatting block, with and without estimates:
    # every cell reads as the value's own .17g text.
    rng = np.random.default_rng(7)
    n = 2500
    for estimates in (rng.normal(size=(n, 4)) * 1e4, None):
        rec = ol.SimulationRecord(
            method=ol.Method.LQR,
            times=np.linspace(0.0, 250.0, n),
            true_states=rng.normal(size=(n, 4)) * 1e4,
            controls=rng.normal(size=(n, 2)) * 1e-6,
            reference=rng.normal(size=(n, 4)),
            estimates=estimates,
        )
        path = tmp_path / "series.csv"
        cli.write_series(rec, path, "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == n + 1
        for i in (0, 1023, 1024, 2047, 2048, n - 1):
            cells = [f"{v:.17g}" for v in
                     (rec.times[i], *rec.true_states[i])]
            cells += ([f"{v:.17g}" for v in estimates[i]]
                      if estimates is not None else [""] * 4)
            cells += [f"{v:.17g}" for v in
                      (*rec.controls[i], *rec.reference[i, 0:2])]
            assert lines[i + 1] == ",".join(cells)


def test_single_sample_record_two_line_csv(tmp_path):
    rec = ol.SimulationRecord(
        method=ol.Method.LQR,
        times=np.array([0.0]),
        true_states=np.zeros((1, 4)),
        controls=np.zeros((1, 2)),
        reference=np.zeros((1, 4)),
    )
    path = tmp_path / "one.csv"
    cli.write_series(rec, path, "csv")
    assert len(path.read_text().splitlines()) == 2


def test_compare_writes_method_named_series(tmp_path):
    path = _write(tmp_path, {"horizon_s": 5.0, "output_dt_s": 0.5})
    out = tmp_path / "cmp"
    assert cli.dispatch("compare", path, out, "csv") == 0
    for name in ("uncontrolled", "lqr", "observer_only", "observer_lqr"):
        assert (out / f"trajectory_{name}.csv").exists()
    payload = json.loads((out / "compare.json").read_text())
    assert set(payload["methods"]) == {"uncontrolled", "lqr",
                                       "observer_only", "observer_lqr"}
    # Reference comparison blocks ride along with the computed values.
    assert payload["methods"]["observer_lqr"]["reference"][
        "control_energy"] == 6.7
    assert payload["methods"]["lqr"]["reference_eigenvalues"] is not None
    assert payload["reference_gains"]["pole_placement_1x4"] == [
        0.293, 0.169, 9.115, 4.998]
    assert payload["methods"]["observer_lqr"]["metrics"][
        "terminal_error_km"] >= 0.0


def test_compare_determinism_bytes(tmp_path):
    path = _write(tmp_path, {"horizon_s": 20.0, "output_dt_s": 0.5})
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert cli.dispatch("compare", path, out1, "csv") == 0
    assert cli.dispatch("compare", path, out2, "csv") == 0
    for child in sorted(out1.iterdir()):
        assert child.read_bytes() == (out2 / child.name).read_bytes()


def _spectrum(pairs):
    return [complex(re, im) for re, im in pairs]


def test_scaled_measurement_map_reports_running_observer(tmp_path):
    # L is placed for the scenario's measurement map, so every reported
    # observer spectrum is speed_factor times the LQR poles only when it is
    # computed with that same map, not with the position outputs.
    path = _write(tmp_path, {"horizon_s": 5.0, "output_dt_s": 0.5,
                             "measurement_matrix": [[2, 0, 0, 0],
                                                    [0, 2, 0, 0]]})
    assert cli.dispatch("synthesize", path, tmp_path / "syn", "csv") == 0
    syn = json.loads((tmp_path / "syn" / "synthesize.json").read_text())
    factor = ol.Scenario().observer_speed_factor
    expected = factor * np.array(_spectrum(syn["closed_loop_eigenvalues"]))
    assert spectra_close(_spectrum(syn["observer_eigenvalues"]), expected,
                         tol=1e-9)
    assert cli.dispatch("compare", path, tmp_path / "cmp", "csv") == 0
    cmp = json.loads((tmp_path / "cmp" / "compare.json").read_text())
    observer = cmp["methods"]["observer_only"]["eigenvalues"]["observer"]
    assert spectra_close(_spectrum(observer), expected, tol=1e-9)
    # Both commands report the design's spectra: the same lists, exactly.
    for method, key in (("lqr", "closed_loop"), ("observer_only", "observer"),
                        ("observer_lqr", "separation_loop")):
        assert cmp["methods"][method]["eigenvalues"][key] \
            == syn[f"{key}_eigenvalues"]


def test_compare_lambert_failure_writes_only_report(tmp_path):
    # Every method needs the Lambert reference arc; its failure fills each
    # row's error and leaves no series to write, but the report is written.
    x0 = ol.Scenario().x0
    path = _write(tmp_path, {"horizon_s": 20.0,
                             "xf": [*x0.position, 0.0, 0.0]})
    out = tmp_path / "cmp"
    assert cli.dispatch("compare", path, out, "csv") == 0
    assert [child.name for child in out.iterdir()] == ["compare.json"]
    methods = json.loads((out / "compare.json").read_text())["methods"]
    assert all(m["error"] == "identical transfer endpoints"
               for m in methods.values())


def test_drift_command(tmp_path):
    path = _write(tmp_path, {"drift": {"duration_s": 3600.0,
                                       "output_dt_s": 120.0}})
    out = tmp_path / "drift"
    assert cli.dispatch("drift", path, out, "csv") == 0
    payload = json.loads((out / "drift.json").read_text())
    assert abs(payload["srp_accel_km_s2"] - 9.0769e-6 * 20 / 500 / 1000.0) \
        < 1e-20
    table = (out / "drift_series.csv").read_text().splitlines()
    assert table[0] == "t,deviation_km,relative_error"
    assert len(table) == 32  # header + 31 samples


def test_response_command(tmp_path):
    path = _write(tmp_path, {"response": {"step_horizon_s": 10.0,
                                          "step_dt_s": 0.05,
                                          "freq_points": 50}})
    out = tmp_path / "resp"
    assert cli.dispatch("response", path, out, "csv") == 0
    payload = json.loads((out / "response.json").read_text())
    assert payload["step_settling_time_s"] is not None
    assert payload["step_settling_time_s"] < 10.0
    freq = (out / "frequency_lqr.csv").read_text().splitlines()
    assert len(freq) == 51
    assert freq[0].startswith("omega_rad_s,re_00,im_00")
    assert (out / "frequency_observer_lqr.csv").exists()
    assert (out / "step_response.csv").exists()


def test_settling_skips_roundoff_channel():
    # A cross-axis channel that is exactly zero up to roundoff must not set
    # the settling time from its own noise-sized scale.
    t = np.linspace(0.0, 15.0, 1501)
    y = np.stack([1.0 - np.exp(-t), 1e-16 * np.sin(37.0 * t)], axis=1)
    y = y[:, None, :]
    alone = cli._settling_from_step(t, y[:, :, :1], 0.02)
    assert alone is not None
    assert cli._settling_from_step(t, y, 0.02) == alone


def test_lambert_command(tmp_path, capsys):
    # The closure residual is measured by a propagation at the scenario's
    # tolerances, which are reported next to it.
    for name, tol in (("default", {}), ("tight", {"rtol": 1e-10,
                                                  "atol": 1e-11})):
        path = _write(tmp_path, tol)
        out = tmp_path / name
        assert cli.dispatch("lambert", path, out, "csv") == 0
        payload = json.loads((out / "lambert.json").read_text())
        assert payload["closure_residual_km"] < 1.0
        s = ol.Scenario(**tol)
        assert payload["closure_rtol"] == s.rtol
        assert payload["closure_atol"] == s.atol
        assert capsys.readouterr().out.splitlines()[-1].endswith(
            f" km (rtol {s.rtol:g}, atol {s.atol:g})")


def test_main_entry_point(tmp_path):
    path = _write(tmp_path, {})
    code = cli.main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "m")])
    assert code == 0


def test_cli_as_module_subprocess(tmp_path):
    path = _write(tmp_path, {})
    proc = subprocess.run(
        [sys.executable, "-m", "orbitloop.cli", "analyze",
         "--scenario", str(path), "--out", str(tmp_path / "sp")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "rank(controllability) = 4" in proc.stdout
