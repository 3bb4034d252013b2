"""Command-line front end.

Subcommands: analyze, synthesize, lambert, simulate, compare, drift,
response.  Scenario files are strict JSON (unknown keys are rejected);
--set key=value overrides are applied onto the parsed tree using dotted
paths.  Series files are CSV or JSON with 17-significant-digit numbers so
every double round-trips bit-exactly; reports are JSON plus a short text
summary on stdout.  Exit codes: 0 success, 1 numerical or synthesis
failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (
    OrbitState,
    PhysicalConstants,
    SpacecraftParams,
    SrpConfig,
    lambert_solve,
    srp_accel,
)
from .errors import GammaRangeError, ScenarioError, SynthesisError
from .linalg import eigenvalues, rank
from .ltisys import (
    MAX_GRID_STEPS,
    check_grid,
    controllability_matrix,
    default_frequency_grid,
    frequency_response,
    observability_matrix,
    spectrum_stability,
    step_response,
)
from .simulate import (
    Method,
    PlantMode,
    ReferenceMode,
    REFERENCE_EIGENVALUES,
    REFERENCE_GAINS,
    REFERENCE_METRICS,
    REFERENCE_NATURAL_FREQ_SQ,
    REFERENCE_SRP_PRESSURE_PA,
    Scenario,
    compare_methods,
    compute_metrics,
    propagate_two_body,
    run_scenario,
    scenario_plant,
    settling_time,
    srp_drift_study,
    synthesize_for_scenario,
)
from .synthesis import Weights, hinf_state_feedback

SERIES_COLUMNS = [
    "t", "x_p", "y_p", "vx", "vy",
    "xhat_p", "yhat_q", "vxhat", "vyhat",
    "ux", "uy", "ref_x", "ref_y",
]


@dataclass
class DriftSettings:
    duration_s: float = 86400.0
    output_dt_s: float = 60.0
    srp_magnitude_km_s2: float | None = None  # None: pressure-equivalent default
    theta0_rad: float = 0.0

    def __post_init__(self):
        check_grid(self.duration_s, self.output_dt_s, "drift")
        if not 0.0 <= self.theta0_rad <= math.pi / 2:
            raise ValueError("drift theta0_rad must lie in [0, pi/2]")
        if self.srp_magnitude_km_s2 is not None \
                and not self.srp_magnitude_km_s2 >= 0:
            raise ValueError("drift srp_magnitude_km_s2 must be non-negative")


@dataclass
class ResponseSettings:
    step_horizon_s: float = 15.0
    step_dt_s: float = 0.01
    freq_points: int = 400
    freq_lo_rad_s: float = 1.0e-5
    freq_hi_rad_s: float = 1.0e1

    def __post_init__(self):
        check_grid(self.step_horizon_s, self.step_dt_s, "response step")
        if not 1 <= self.freq_points <= MAX_GRID_STEPS:
            raise ValueError(f"freq_points must lie in [1, {MAX_GRID_STEPS}]")
        if not (self.freq_lo_rad_s > 0 and self.freq_hi_rad_s > 0):
            raise ValueError("response frequencies must be positive")
        # frequency_response's rule, checked before any output is written.
        grid = default_frequency_grid(self.freq_points, self.freq_lo_rad_s,
                                      self.freq_hi_rad_s)
        if not (grid[0] > 0 and np.all(np.diff(grid) > 0)):
            raise ValueError("response frequency grid must be positive and "
                             "strictly increasing")


def _fmt(value: float) -> str:
    return f"{value:.17g}"


_CELL = "{:.17g}"  # _fmt's format, as a str.format field for whole rows


# Parsers of scenario values: each takes the JSON value and its dotted key
# name and returns the value of the dataclass field, or raises.

def _finite(value, name):
    try:
        number = math.nan if isinstance(value, (str, bool)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ScenarioError(f"{name} must be a finite number")
    return number


def _count(value, name):
    """A non-negative whole number, given as 400 or 400.0."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise ScenarioError(f"{name} must be a non-negative whole number")
    return value


def _text(value, name):
    if not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string")
    return value


def _numbers(n):
    def parse(value, name):
        if not isinstance(value, (list, tuple)) or len(value) != n:
            raise ScenarioError(f"{name} must be a list of exactly {n} numbers")
        return tuple(_finite(v, name) for v in value)
    return parse


def _state(value, name):
    v = _numbers(4)(value, name)
    return OrbitState(v[:2], v[2:])


def _matrix(rows, cols):
    """A rows x cols matrix; a square one may be given by its diagonal."""
    def parse(value, name):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError):
            arr = np.empty(0)
        if arr.ndim == 1 and rows == cols and arr.size == rows:
            arr = np.diag(arr)
        if arr.shape != (rows, cols) or not np.isfinite(arr).all():
            raise ScenarioError(f"{name} must be a finite {rows}x{cols} matrix")
        return arr
    return parse


def _choice(enum_cls):
    def parse(value, name):
        try:
            return enum_cls(value)
        except (TypeError, ValueError):
            options = ", ".join(e.value for e in enum_cls)
            raise ScenarioError(f"{name} must be one of: {options}") from None
    return parse


def _optional(parse):
    """`parse`, or None for a JSON null."""
    return lambda value, name: None if value is None else parse(value, name)


@dataclass(frozen=True)
class _Sections:
    """The settings nested under the scenario root's drift and response keys."""

    drift: DriftSettings = field(default_factory=DriftSettings)
    response: ResponseSettings = field(default_factory=ResponseSettings)


# The scenario schema: per dataclass, each JSON key maps to the field it
# sets and the parser of its value.  A parser that is itself a dataclass in
# this table reads a nested object.  The scenario root holds the keys of
# Scenario, PhysicalConstants (Scenario.constants) and _Sections side by
# side.  Defaults live in the dataclasses alone.
_SCHEMA = {
    SrpConfig: {
        "mode": ("mode", _text),
        "magnitude_km_s2": ("magnitude_km_s2", _finite),
        "irradiance_w_m2": ("irradiance_w_m2", _finite),
        "theta0_rad": ("theta0", _finite),
    },
    SpacecraftParams: {
        "mass_kg": ("mass", _finite),
        "area_m2": ("area", _finite),
        "reflectivity": ("reflectivity_multiplier", _finite),
    },
    Weights: {"q": ("q", _matrix(4, 4)), "r": ("r", _matrix(2, 2))},
    PhysicalConstants: {
        "mu_km3_s2": ("mu", _finite),
        "c_light_km_s": ("c_light", _finite),
    },
    Scenario: {
        "x0": ("x0", _state),
        "xf": ("xf", _state),
        "horizon_s": ("horizon", _finite),
        "output_dt_s": ("output_dt", _finite),
        "rtol": ("rtol", _finite),
        "atol": ("atol", _finite),
        "srp": ("srp", SrpConfig),
        "spacecraft": ("spacecraft", SpacecraftParams),
        "weights": ("weights", Weights),
        "observer_speed_factor": ("observer_speed_factor", _finite),
        "method": ("method", _choice(Method)),
        "reference_mode": ("reference_mode", _choice(ReferenceMode)),
        "xhat0": ("xhat0", _optional(_numbers(4))),
        "measurement_noise_sigma": ("measurement_noise_sigma", _numbers(2)),
        "noise_seed": ("noise_seed", _count),
        "disturbance_matrix": ("disturbance_matrix",
                               _optional(_matrix(4, 2))),
        "measurement_matrix": ("measurement_matrix",
                               _optional(_matrix(2, 4))),
        "plant_mode": ("plant_mode", _choice(PlantMode)),
        "linearization_sign": ("linearization_sign", _finite),
        "lambert_direction": ("lambert_direction", _text),
        "settle_band": ("settle_band", _finite),
    },
    DriftSettings: {
        "duration_s": ("duration_s", _finite),
        "output_dt_s": ("output_dt_s", _finite),
        "srp_magnitude_km_s2": ("srp_magnitude_km_s2", _optional(_finite)),
        "theta0_rad": ("theta0_rad", _finite),
    },
    ResponseSettings: {
        "step_horizon_s": ("step_horizon_s", _finite),
        "step_dt_s": ("step_dt_s", _finite),
        "freq_points": ("freq_points", _count),
        "freq_lo_rad_s": ("freq_lo_rad_s", _finite),
        "freq_hi_rad_s": ("freq_hi_rad_s", _finite),
    },
    _Sections: {
        "drift": ("drift", DriftSettings),
        "response": ("response", ResponseSettings),
    },
}


def _read(node, context: str, *defaults):
    """Read the JSON object `node` into one object per default: a copy of
    the default with the fields set by the node's keys in its schema
    table, so an absent key keeps the default.  A key in none of the
    tables is rejected.  `context` is the node's dotted path, for messages."""
    if not isinstance(node, dict):
        raise ScenarioError(
            f"{context.rstrip('.') or 'scenario root'} must be a JSON object")
    tables = [_SCHEMA[type(default)] for default in defaults]
    for key in node:
        if not any(key in table for table in tables):
            raise ScenarioError(f"unknown key {context + key!r}")
    objects = []
    for default, table in zip(defaults, tables):
        changes = {}
        for key, (name, parse) in table.items():
            if key not in node:
                continue
            if parse in _SCHEMA:
                changes[name] = _read(node[key], f"{context}{key}.",
                                      getattr(default, name))[0]
            else:
                changes[name] = parse(node[key], context + key)
        objects.append(replace(default, **changes))
    return objects


def build_scenario(tree: dict) -> tuple[Scenario, DriftSettings, ResponseSettings]:
    """Construct a Scenario (plus drift/response settings) from a parsed
    scenario tree, rejecting unknown keys anywhere in the tree."""
    try:
        scenario, constants, sections = _read(
            tree, "", Scenario(), PhysicalConstants(), _Sections())
        scenario = replace(scenario, constants=constants)
    except ScenarioError:
        raise
    except (ValueError, TypeError) as exc:
        raise ScenarioError(str(exc)) from exc
    return scenario, sections.drift, sections.response


def _apply_override(tree: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *parents, leaf = dotted.split(".")
    node = tree
    for key in parents:
        if not isinstance(node, dict):
            break
        node = node.setdefault(key, {})
    if not isinstance(node, dict):
        raise ScenarioError(f"override path {dotted!r} crosses a non-object")
    node[leaf] = value


def parse_scenario(path, overrides=()) -> Scenario:
    """Parse a scenario file (strict schema) and apply overrides."""
    scenario, _, _ = _load_settings(path, overrides)
    return scenario


def _load_settings(path, overrides=()):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {p}: {exc}") from exc
    try:
        tree = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"malformed scenario file {p}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
        ) from exc
    for item in overrides:
        if "=" not in item:
            raise ScenarioError(f"override {item!r} must look like key=value")
        dotted, raw = item.split("=", 1)
        _apply_override(tree, dotted, raw)
    return build_scenario(tree)


def _complex_list(values) -> list[list[float]]:
    return [[float(v.real), float(v.imag)] for v in np.atleast_1d(values)]


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _write_columns(path: Path, names: list[str], columns, fmt: str):
    """Write equal-length named columns as CSV (a header row, then one row
    per sample) or as a JSON object of arrays in column order.  A None
    column is written as empty CSV fields or as JSON null."""
    if fmt == "json":
        payload = {name: None if col is None else np.asarray(col, float).tolist()
                   for name, col in zip(names, columns)}
        # Column order is part of the format: no key sorting here.
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return
    if fmt != "csv":
        raise ScenarioError(f"unknown format {fmt!r}")
    present = [np.asarray(col, float) for col in columns if col is not None]
    row_format = ",".join("" if col is None else _CELL for col in columns) + "\n"
    # Plain floats format faster than numpy scalars.  Converting and
    # writing block by block keeps only one block's rows in memory.
    with path.open("w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, present[0].size, 1024):
            block = np.column_stack([c[start:start + 1024] for c in present])
            fh.write("".join(row_format.format(*row)
                             for row in block.tolist()))


def write_series(record, path, fmt: str = "csv"):
    """Serialize a SimulationRecord with the fixed column order
    t, x_p, y_p, vx, vy, xhat_p, yhat_q, vxhat, vyhat, ux, uy, ref_x, ref_y.
    Channels without data (no observer) are emitted as empty fields in CSV
    and null in JSON."""
    if record.times.size == 0:
        raise ValueError("refusing to write an empty series")
    est = record.estimates
    columns = [record.times, *record.true_states[:, 0:4].T,
               *(est[:, 0:4].T if est is not None else [None] * 4),
               *record.controls[:, 0:2].T, *record.reference[:, 0:2].T]
    _write_columns(Path(path), SERIES_COLUMNS, columns, fmt)


def _metrics_payload(metrics) -> dict:
    return {
        "terminal_error_km": metrics.terminal_error_km,
        "rms_error_km": metrics.rms_error_km,
        "control_energy_km2_s3": metrics.control_energy,
        "settling_time_s": metrics.settling_time_s,
    }


def _cmd_analyze(scenario, drift_cfg, response_cfg, outdir, fmt):
    # Pure analysis: rank tests and the open-loop spectrum do not require a
    # successful synthesis, so degenerate scenarios still get a report.
    plant = scenario_plant(scenario)
    ctrb = controllability_matrix(plant)
    obsv = observability_matrix(plant)
    spectrum = eigenvalues(plant.a)
    stability = spectrum_stability(spectrum,
                                   float(np.linalg.norm(plant.a, 2)))
    w2 = plant.a[2, 0]
    payload = {
        "rank_controllability": rank(ctrb),
        "rank_observability": rank(obsv),
        "n_states": plant.n_states,
        "open_loop_eigenvalues": _complex_list(spectrum),
        "stability_class": stability.value,
        "natural_freq_sq_per_s2": w2,
        "reference_natural_freq_sq_per_s2": REFERENCE_NATURAL_FREQ_SQ,
    }
    _write_json(outdir / "analyze.json", payload)
    print(f"rank(controllability) = {payload['rank_controllability']}")
    print(f"rank(observability)   = {payload['rank_observability']}")
    print(f"stability class       = {stability.value}")
    print(f"omega^2               = {_fmt(w2)} 1/s^2")
    return 0


def _cmd_synthesize(scenario, drift_cfg, response_cfg, outdir, fmt):
    d = synthesize_for_scenario(scenario)
    payload = {
        "gain_k": d.lqr.k,
        "riccati_p": d.lqr.p,
        "observer_gain_l": d.l,
        "closed_loop_eigenvalues": _complex_list(d.spectra["closed_loop"]),
        "observer_eigenvalues": _complex_list(d.spectra["observer"]),
        "separation_loop_eigenvalues": _complex_list(
            d.spectra["separation_loop"]),
        "reference_gains": REFERENCE_GAINS,
    }
    try:
        hinf = hinf_state_feedback(d.plant.a, d.plant.b, d.g, scenario.weights,
                                   (1e-2, 1e4))
        payload["hinf"] = {"gamma": hinf.gamma, "gain_k": hinf.k}
    except (SynthesisError, GammaRangeError) as exc:
        payload["hinf"] = {"error": str(exc)}
    _write_json(outdir / "synthesize.json", payload)
    print("K =", np.array2string(d.lqr.k, precision=6))
    print("L =", np.array2string(d.l, precision=6))
    if "gamma" in payload["hinf"]:
        print(f"hinf gamma = {payload['hinf']['gamma']:.6g}")
    return 0


def _cmd_lambert(scenario, drift_cfg, response_cfg, outdir, fmt):
    v1, v2 = lambert_solve(scenario.x0.position, scenario.xf.position,
                           scenario.horizon, scenario.lambert_direction,
                           scenario.constants)
    t = np.array([0.0, scenario.horizon])
    arc = propagate_two_body(
        OrbitState(scenario.x0.position, (v1[0], v1[1])), t,
        constants=scenario.constants, rtol=scenario.rtol, atol=scenario.atol,
    )
    residual = float(np.hypot(arc[-1, 0] - scenario.xf.position[0],
                              arc[-1, 1] - scenario.xf.position[1]))
    payload = {
        "v1_km_s": [float(v1[0]), float(v1[1])],
        "v2_km_s": [float(v2[0]), float(v2[1])],
        "tof_s": scenario.horizon,
        "closure_residual_km": residual,
        "closure_rtol": scenario.rtol,
        "closure_atol": scenario.atol,
    }
    _write_json(outdir / "lambert.json", payload)
    print(f"v1 = ({_fmt(v1[0])}, {_fmt(v1[1])}) km/s")
    print(f"v2 = ({_fmt(v2[0])}, {_fmt(v2[1])}) km/s")
    print(f"closure residual = {residual:.6g} km "
          f"(rtol {scenario.rtol:g}, atol {scenario.atol:g})")
    return 0


def _cmd_simulate(scenario, drift_cfg, response_cfg, outdir, fmt):
    record = run_scenario(scenario)
    metrics = compute_metrics(record, scenario.xf, scenario.settle_band)
    write_series(record, outdir / f"trajectory.{fmt}", fmt)
    _write_json(outdir / "metrics.json", _metrics_payload(metrics))
    print(f"method            = {scenario.method.value}")
    print(f"terminal error    = {metrics.terminal_error_km:.6g} km")
    print(f"rms error         = {metrics.rms_error_km:.6g} km")
    print(f"control energy    = {metrics.control_energy:.6g} km^2/s^3")
    print(f"settling time     = {metrics.settling_time_s}")
    if record.estimation_error is not None:
        e = record.estimation_error[-1]
        print(f"terminal est err  = {math.hypot(e[0], e[1]):.6g} km, "
              f"{math.hypot(e[2], e[3]):.6g} km/s")
    return 0


def _cmd_compare(scenario, drift_cfg, response_cfg, outdir, fmt):
    report = compare_methods(scenario)
    rows = []
    payload_methods = {}
    for entry in report.reports:
        name = entry.method.value
        payload_methods[name] = {
            "stability_class": entry.stability,
            "eigenvalues": {
                key: _complex_list(vals)
                for key, vals in entry.eigenvalues.items()
            },
            "metrics": _metrics_payload(entry.metrics) if entry.metrics else None,
            "error": entry.error,
            "reference": REFERENCE_METRICS.get(name),
            "reference_eigenvalues": _complex_list(REFERENCE_EIGENVALUES[name])
            if name in REFERENCE_EIGENVALUES else None,
        }
        if entry.metrics:
            rows.append((name, entry.metrics))
    payload = {
        "methods": payload_methods,
        "gain_k": report.gain_k,
        "observer_gain_l": report.gain_l,
        "reference_gains": REFERENCE_GAINS,
    }
    _write_json(outdir / "compare.json", payload)
    for name, record in sorted(report.records.items()):
        write_series(record, outdir / f"trajectory_{name}.{fmt}", fmt)
    header = f"{'method':<14} {'terminal_km':>14} {'rms_km':>14} " \
             f"{'energy':>12} {'settle_s':>10}"
    print(header)
    for name, m in rows:
        settle = f"{m.settling_time_s:.1f}" if m.settling_time_s is not None \
            else "-"
        print(f"{name:<14} {m.terminal_error_km:>14.6g} "
              f"{m.rms_error_km:>14.6g} {m.control_energy:>12.6g} "
              f"{settle:>10}")
    failed = [e.method.value for e in report.reports if e.error]
    if failed:
        print(f"failed methods: {', '.join(failed)}")
    return 0


def _cmd_drift(scenario, drift_cfg, response_cfg, outdir, fmt):
    craft = scenario.spacecraft
    if drift_cfg.srp_magnitude_km_s2 is None:
        # Pressure-equivalent default: P * A / m, converted to km/s^2.
        magnitude = REFERENCE_SRP_PRESSURE_PA * craft.area / craft.mass / 1000.0
    else:
        magnitude = drift_cfg.srp_magnitude_km_s2
    srp = SrpConfig(mode="direct", magnitude_km_s2=magnitude,
                    theta0=drift_cfg.theta0_rad)
    study = srp_drift_study(
        drift_cfg.duration_s, craft, srp, scenario.x0,
        constants=scenario.constants, output_dt=drift_cfg.output_dt_s,
        rtol=scenario.rtol, atol=scenario.atol,
    )
    _write_columns(outdir / f"drift_series.{fmt}",
                   ["t", "deviation_km", "relative_error"],
                   [study.times, study.deviation_km, study.relative_error], fmt)
    ballistic = 0.5 * srp_accel(srp)[0] * drift_cfg.duration_s**2
    payload = {
        "duration_s": drift_cfg.duration_s,
        "srp_accel_km_s2": magnitude,
        "final_deviation_km": float(study.deviation_km[-1]),
        "max_deviation_km": float(study.deviation_km.max()),
        "ballistic_estimate_km": ballistic,
    }
    _write_json(outdir / "drift.json", payload)
    print(f"final deviation  = {payload['final_deviation_km']:.6g} km")
    print(f"max deviation    = {payload['max_deviation_km']:.6g} km")
    print(f"ballistic 0.5at^2 = {ballistic:.6g} km")
    return 0


def _cmd_response(scenario, drift_cfg, response_cfg, outdir, fmt):
    d = synthesize_for_scenario(scenario)
    steps = {label: step_response(sys_loop, response_cfg.step_horizon_s,
                                  response_cfg.step_dt_s)
             for label, sys_loop in d.step_loops.items()}
    t, y_c = steps["observer_lqr"]
    names = ["t"]
    columns = [t]
    for label, (_, y) in steps.items():
        for out in range(2):
            for inp in range(2):
                names.append(f"{label}_y{out}_u{inp}")
                columns.append(y[:, out, inp])
    _write_columns(outdir / f"step_response.{fmt}", names, columns, fmt)

    grid = default_frequency_grid(response_cfg.freq_points,
                                  response_cfg.freq_lo_rad_s,
                                  response_cfg.freq_hi_rad_s)
    settle = _settling_from_step(t, y_c, scenario.settle_band)
    for name, sys_loop in d.sweep_loops.items():
        h = frequency_response(sys_loop, grid)
        head = ["omega_rad_s"]
        columns = [grid]
        for out in range(sys_loop.n_outputs):
            for inp in range(sys_loop.n_inputs):
                head += [f"re_{out}{inp}", f"im_{out}{inp}"]
                columns += [h[:, out, inp].real, h[:, out, inp].imag]
        _write_columns(outdir / f"frequency_{name}.{fmt}", head, columns, fmt)
    _write_json(outdir / "response.json", {
        "step_settling_time_s": settle,
        "step_horizon_s": response_cfg.step_horizon_s,
        "frequency_points": response_cfg.freq_points,
    })
    print(f"step settling time (disturbance channels) = {settle}")
    return 0


def _settling_from_step(t, y, band):
    """Settling time of each disturbance-step output relative to its final
    value; returns the worst channel (None when a channel never settles).
    Channels peaking at most 1e-12 of the largest peak are roundoff around
    an exact zero, whose settling time would be noise, and are skipped."""
    peaks = np.abs(y).max(axis=0)
    worst = 0.0
    for out, inp in zip(*np.nonzero(peaks > 1e-12 * peaks.max())):
        series = y[:, out, inp]
        final = series[-1]
        spread = np.abs(series - final)
        scale = max(abs(final), spread.max(), 1e-30)
        settle = settling_time(t, spread, band * scale)
        if settle is None:
            return None
        worst = max(worst, settle)
    return worst


_COMMANDS = {
    "analyze": _cmd_analyze,
    "synthesize": _cmd_synthesize,
    "lambert": _cmd_lambert,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "drift": _cmd_drift,
    "response": _cmd_response,
}


def dispatch(command: str, scenario_path, outdir, fmt: str, overrides=()) -> int:
    """Run one command; returns the process exit code (0 success, 1
    numerical/synthesis failure, 2 input error) and emits a single
    structured diagnostic line on stderr for every failure, which lists the
    run's warnings; a successful run shows its warnings as usual."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            scenario, drift_cfg, response_cfg = _load_settings(scenario_path,
                                                               overrides)
            if fmt not in ("csv", "json"):
                raise ScenarioError(f"unknown format {fmt!r}")
            out = Path(outdir)
            out.mkdir(parents=True, exist_ok=True)
            code = _COMMANDS[command](scenario, drift_cfg, response_cfg, out,
                                      fmt)
        except (ScenarioError, OSError) as exc:
            return _emit_error(exc, caught, 2)
        except Exception as exc:  # noqa: BLE001 - exit-code contract is total
            return _emit_error(exc, caught, 1)
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno,
                             w.file, w.line)
    return code


def _emit_error(exc: Exception, caught, code: int) -> int:
    warned = [f"{w.category.__name__}: {w.message}" for w in caught]
    print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                      "warnings": warned}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orbitloop",
        description="Observer-based closed-loop orbit maneuver toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True,
                       help="path to the JSON scenario file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--format", default="csv", choices=("csv", "json"),
                       dest="fmt", help="series file format")
        p.add_argument("--set", action="append", default=[], dest="overrides",
                       metavar="KEY=VALUE",
                       help="override a scenario entry (dotted path, JSON value)")
    args = parser.parse_args(argv)
    code = dispatch(args.command, args.scenario, args.out, args.fmt,
                    args.overrides)
    return code


if __name__ == "__main__":
    sys.exit(main())
