"""Closed-loop scenario execution and evaluation.

A Scenario bundles boundary states, disturbance configuration, weights and
integrator settings; run_scenario synthesizes the gains, sets the initial
plant state, estimation error and reference and propagates them with the
adaptive Dormand-Prince kernel.  Four methods are supported: free flight,
state-feedback LQR on the true state, observer-only estimation without
control, and observer-based LQR on the estimated state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import _dopri, linalg
from .dynamics import (
    OrbitState,
    PhysicalConstants,
    SpacecraftParams,
    SrpConfig,
    lambert_solve,
    linearize_plant,
    srp_accel,
)
from .errors import DimensionError, NotApplicableError, NumericalError
from .ltisys import (StateSpace, _check_tgrid, check_grid, spectrum_stability,
                     uniform_grid)
from .synthesis import (
    SynthesisResult,
    Weights,
    assemble_separation_loop,
    lqr_gain,
    lqr_loop_transfer,
    observer_compensator,
    observer_gain,
)

__all__ = [
    "Method",
    "ReferenceMode",
    "PlantMode",
    "Scenario",
    "SimulationRecord",
    "Metrics",
    "MethodReport",
    "ComparisonReport",
    "DriftStudy",
    "ScenarioDesign",
    "run_scenario",
    "compute_metrics",
    "settling_time",
    "estimation_error_series",
    "compare_methods",
    "srp_drift_study",
    "propagate_two_body",
    "scenario_plant",
    "synthesize_for_scenario",
    "REFERENCE_METRICS",
    "REFERENCE_EIGENVALUES",
    "REFERENCE_GAINS",
    "REFERENCE_NATURAL_FREQ_SQ",
    "REFERENCE_SRP_PRESSURE_PA",
]


class Method(enum.Enum):
    UNCONTROLLED = "uncontrolled"
    LQR = "lqr"
    OBSERVER_ONLY = "observer_only"
    OBSERVER_LQR = "observer_lqr"


class ReferenceMode(enum.Enum):
    CONSTANT_SETPOINT = "constant_setpoint"
    LAMBERT_ARC = "lambert_arc"


class PlantMode(enum.Enum):
    NONLINEAR = "nonlinear"
    LINEAR = "linear"


# Fixed baseline values included in comparison reports so computed results
# can be read side by side with the original analysis; they depend on design
# parameters that were never published and are not reproduced or asserted.
REFERENCE_METRICS = {
    "lqr": {"settling_time_s": 220.0, "steady_state_error_km": 0.12,
            "control_energy": 5.2},
    "observer_only": {"settling_time_s": None, "steady_state_error_km": None,
                      "control_energy": None, "note": "divergent"},
    "observer_lqr": {"settling_time_s": 140.0, "steady_state_error_km": 0.005,
                     "control_energy": 6.7},
}
REFERENCE_EIGENVALUES = {
    "lqr": [-1.02 + 0j, -0.97 + 0j, -0.15 + 0.42j, -0.15 - 0.42j],
    "observer_only": [0.08 + 0j, 0j, -0.02 + 0j],
    "observer_lqr": [-1.25 + 0j, -1.10 + 0j, -0.85 + 0j, -0.60 + 0j],
}
REFERENCE_GAINS = {
    "pole_placement_1x4": [0.293, 0.169, 9.115, 4.998],
    "canonical_form_1x4": [3.721, 5.0, 3.998, 1.0],
}
REFERENCE_NATURAL_FREQ_SQ = 0.004865  # quoted transfer-function constant, unreproduced
REFERENCE_SRP_PRESSURE_PA = 9.0769e-6


@dataclass(frozen=True)
class Scenario:
    """Full description of one closed-loop maneuver simulation."""

    x0: OrbitState = OrbitState((4292.87, 8924.17), (7.8, 0.0))
    xf: OrbitState = OrbitState((-2000.0, 8878.0), (-2.728, -6.56))
    horizon: float = 4000.0
    output_dt: float = 0.1
    rtol: float = 1.0e-8
    atol: float = 1.0e-9
    srp: SrpConfig = SrpConfig()
    spacecraft: SpacecraftParams = SpacecraftParams()
    weights: Weights = field(default_factory=lambda: Weights.identity(4, 2))
    observer_speed_factor: float = 4.0
    method: Method = Method.OBSERVER_LQR
    reference_mode: ReferenceMode = ReferenceMode.LAMBERT_ARC
    # None: estimate starts from the measured positions with zero velocities.
    xhat0: tuple[float, float, float, float] | None = None
    measurement_noise_sigma: tuple[float, float] = (0.0, 0.0)
    noise_seed: int = 0
    disturbance_matrix: np.ndarray | None = None  # None: matched through B
    measurement_matrix: np.ndarray | None = None  # None: plant output map
    plant_mode: PlantMode = PlantMode.NONLINEAR
    linearization_sign: float = 1.0
    lambert_direction: str = "prograde"
    settle_band: float = 0.02
    constants: PhysicalConstants = PhysicalConstants()

    def __post_init__(self):
        # The kernel's singular-radius guard: it stops any run inside 1 km.
        if not math.hypot(*self.x0.position) >= 1.0:
            raise ValueError("x0 must lie at least 1 km from the centre")
        check_grid(self.horizon, self.output_dt, "output")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("rtol and atol must be positive")
        if not self.observer_speed_factor > 0:
            raise ValueError("observer speed factor must be positive")
        if not 0 < self.settle_band < 1:
            raise ValueError("settle band must lie in (0, 1)")
        if not all(s >= 0 for s in self.measurement_noise_sigma):
            raise ValueError("noise sigma must be non-negative")
        if not (isinstance(self.noise_seed, (int, np.integer))
                and self.noise_seed >= 0):
            raise ValueError("noise seed must be a non-negative integer")
        if self.xhat0 is not None:
            xhat0 = np.asarray(self.xhat0, dtype=float)
            if xhat0.shape != (4,) or not np.isfinite(xhat0).all():
                raise ValueError("xhat0 must be None or 4 finite numbers")
        if self.linearization_sign not in (1.0, -1.0):
            raise ValueError("linearization sign must be +1 or -1")
        if self.lambert_direction not in ("prograde", "retrograde"):
            raise ValueError("lambert direction must be 'prograde' or 'retrograde'")
        for name, shape in (("measurement_matrix", (2, 4)),
                            ("disturbance_matrix", (4, 2))):
            m = getattr(self, name)
            if m is not None and linalg.as_matrix(m, name).shape != shape:
                raise DimensionError(f"{name} must be {shape[0]}x{shape[1]}")

    def initial_estimate(self) -> np.ndarray:
        if self.xhat0 is not None:
            return np.asarray(self.xhat0, dtype=float)
        return np.array([*self.x0.position, 0.0, 0.0])

    def output_grid(self) -> np.ndarray:
        return uniform_grid(self.horizon, self.output_dt)


@dataclass(frozen=True)
class SimulationRecord:
    """Time-gridded result of one run; estimates and estimation_error are
    None for methods without an observer."""

    method: Method
    times: np.ndarray
    true_states: np.ndarray
    controls: np.ndarray
    reference: np.ndarray
    estimates: np.ndarray | None = None
    estimation_error: np.ndarray | None = None

    def __post_init__(self):
        n = self.times.shape[0]
        for name in ("true_states", "controls", "reference", "estimates",
                     "estimation_error"):
            series = getattr(self, name)
            if series is not None and series.shape[0] != n:
                raise DimensionError(f"{name} does not share the time grid")


@dataclass(frozen=True)
class Metrics:
    terminal_error_km: float
    rms_error_km: float
    control_energy: float
    settling_time_s: float | None

    def __post_init__(self):
        for name in ("terminal_error_km", "rms_error_km", "control_energy"):
            if not math.isfinite(getattr(self, name)):
                raise NumericalError(f"{name} is not finite")
        if self.terminal_error_km < 0 or self.rms_error_km < 0:
            raise ValueError("position metrics must be non-negative")
        if self.control_energy < 0:
            raise ValueError("control energy must be non-negative")


@dataclass(frozen=True)
class MethodReport:
    method: Method
    metrics: Metrics | None
    eigenvalues: dict[str, np.ndarray]
    stability: str
    error: str | None = None


@dataclass(frozen=True)
class ComparisonReport:
    reports: list[MethodReport]
    records: dict[str, SimulationRecord]
    gain_k: np.ndarray
    gain_l: np.ndarray


@dataclass(frozen=True)
class DriftStudy:
    times: np.ndarray
    deviation_km: np.ndarray
    relative_error: np.ndarray


def propagate_two_body(
    state0: OrbitState,
    tgrid,
    a_srp: tuple[float, float] = (0.0, 0.0),
    constants: PhysicalConstants = PhysicalConstants(),
    rtol: float = 1.0e-8,
    atol: float = 1.0e-9,
) -> np.ndarray:
    """Free-flight propagation of [p, q, pdot, qdot] on the given time grid
    under central gravity plus an optional constant SRP acceleration; how
    its steps relate to the grid is `_dopri.propagate_grid`'s rule."""
    if not (rtol > 0 and atol > 0):
        raise ValueError("rtol and atol must be positive")
    if not all(math.isfinite(a) for a in a_srp):
        raise ValueError("SRP acceleration must be finite")
    t = _check_tgrid(tgrid)
    zeros4 = np.zeros(4)
    zeros24 = np.zeros((2, 4))
    noise = np.zeros((max(t.size - 1, 1), 2))
    x, _, _, _ = _dopri.propagate_grid(
        state0.as_vector(), t, zeros4, zeros4, constants.mu,
        (0.0, 0.0, a_srp[0], a_srp[1]), 0, 0, 0, 0, 0.0, zeros24, zeros24,
        zeros24.T, noise, rtol, atol)
    return x


class ScenarioDesign(NamedTuple):
    """The linear design of a scenario and every closed loop and spectrum
    reported from it, so no command assembles a loop: the plant (A, B and
    the measurement map as C), the disturbance map g, the LQR synthesis,
    the observer gain l; step_loops from G's input to the output, "lqr"
    (A - B K, G, C) and "observer_lqr" (the [x; e] separation loop, [G; G],
    [C, 0]); sweep_loops broken at the plant input; and the spectra of A,
    A - B K, A - L C and the separation loop."""

    plant: StateSpace
    g: np.ndarray
    lqr: SynthesisResult
    l: np.ndarray
    step_loops: dict[str, StateSpace]
    sweep_loops: dict[str, StateSpace]
    spectra: dict[str, np.ndarray]


def scenario_plant(s: Scenario) -> StateSpace:
    """The plant linearized at |x0|, measured through the scenario's
    measurement map (None: the position outputs)."""
    plant = linearize_plant(float(np.hypot(*s.x0.position)), s.constants,
                            s.linearization_sign)
    if s.measurement_matrix is None:
        return plant
    return StateSpace(plant.a, plant.b, s.measurement_matrix)


def synthesize_for_scenario(s: Scenario) -> ScenarioDesign:
    """The scenario's linear design, shared by every method that runs it.

    The observer poles sit at speed_factor times the LQR closed-loop poles;
    the LQR design is computed even for methods that do not apply control,
    because it defines that pole base.  The disturbance map g defaults to B
    (disturbances matched through the inputs).
    """
    plant = scenario_plant(s)
    g = plant.b if s.disturbance_matrix is None \
        else linalg.as_matrix(s.disturbance_matrix, "disturbance_matrix")
    a, b, c = plant.a, plant.b, plant.c
    lqr = lqr_gain(a, b, s.weights)
    l = observer_gain(a, c, lqr.closed_loop_spectrum, s.observer_speed_factor)
    sep = assemble_separation_loop(a, b, c, lqr.k, l).error_coords
    step_loops = {
        "lqr": StateSpace(a - b @ lqr.k, g, c),
        "observer_lqr": StateSpace(sep, np.vstack([g, g]),
                                   np.hstack([c, np.zeros_like(c)])),
    }
    sweep_loops = {"lqr": lqr_loop_transfer(plant, lqr.k),
                   "observer_lqr": observer_compensator(plant, lqr.k, l)}
    spectra = {"plant": linalg.eigenvalues(a),
               "closed_loop": lqr.closed_loop_spectrum,
               "observer": linalg.eigenvalues(a - l @ c),
               "separation_loop": linalg.eigenvalues(sep)}
    return ScenarioDesign(plant, g, lqr, l, step_loops, sweep_loops, spectra)


def _reference_start(s: Scenario) -> np.ndarray:
    """The reference's initial state: x0's position with the Lambert arc's
    departure velocity, or the constant setpoint xf."""
    if s.reference_mode is ReferenceMode.CONSTANT_SETPOINT:
        return s.xf.as_vector()
    v1, _ = lambert_solve(s.x0.position, s.xf.position, s.horizon,
                          s.lambert_direction, s.constants)
    return np.array([*s.x0.position, *v1])


def run_scenario(s: Scenario, design: ScenarioDesign | None = None,
                 r0: np.ndarray | None = None) -> SimulationRecord:
    """Propagate one scenario and return the gridded record.

    The true dynamics are the nonlinear planar two-body equations with SRP
    (or the linearized model when plant_mode is LINEAR); the observer always
    integrates the linearized model driven by the measured positions, and
    the whole coupled system advances as one ODE, stepped as
    `_dopri.propagate_grid` sets out.  Only the observer methods draw
    measurement noise, since nothing else reads the measurement.  `design`
    is the scenario's design and `r0` the reference's initial state
    (`_reference_start`); what is not given is computed here.
    """
    d = synthesize_for_scenario(s) if design is None else design
    a_srp = srp_accel(s.srp, s.spacecraft, s.constants)

    has_observer = s.method in (Method.OBSERVER_ONLY, Method.OBSERVER_LQR)
    t_out = s.output_grid()
    x0 = s.x0.as_vector()
    e0 = x0 - s.initial_estimate() if has_observer else np.zeros(4)
    if r0 is None:
        r0 = _reference_start(s)

    # A held noise sample that changes costs the kernel a fresh first stage.
    sigma = s.measurement_noise_sigma
    if has_observer and (sigma[0] > 0 or sigma[1] > 0):
        rng = np.random.default_rng(s.noise_seed)
        noise = rng.standard_normal((t_out.size - 1, 2))
        noise[:, 0] *= sigma[0]
        noise[:, 1] *= sigma[1]
    else:
        noise = np.zeros((t_out.size - 1, 2))

    # G w row by row, not as d.g @ a_srp, whose summation order is BLAS's.
    gw = d.g[:, 0] * a_srp[0] + d.g[:, 1] * a_srp[1]
    x, e, r, u = _dopri.propagate_grid(
        x0, t_out, e0, r0, s.constants.mu, gw,
        int(s.method in (Method.LQR, Method.OBSERVER_LQR)), int(has_observer),
        int(s.plant_mode is PlantMode.LINEAR),
        int(s.reference_mode is ReferenceMode.LAMBERT_ARC),
        d.plant.a[2, 0], d.plant.c, d.lqr.k, d.l, noise, s.rtol, s.atol,
    )
    return SimulationRecord(
        method=s.method,
        times=t_out,
        true_states=x,
        controls=u,
        reference=r,
        estimates=x - e if has_observer else None,
        estimation_error=e if has_observer else None,
    )


def compute_metrics(rec: SimulationRecord, xf: OrbitState,
                    settle_band: float = 0.02) -> Metrics:
    """Terminal position error, RMS position error (time-averaged quadratic
    mean against the target), quadratic control energy, and the 2 percent
    settling time (first time after which the position error stays within
    settle_band of its initial value; None if it never does)."""
    t = rec.times
    if t.size == 0:
        raise ValueError("empty record")
    if not 0 < settle_band < 1:
        raise ValueError("settle band must lie in (0, 1)")
    dx = rec.true_states[:, 0] - xf.position[0]
    dy = rec.true_states[:, 1] - xf.position[1]
    pos_err = np.hypot(dx, dy)
    terminal = float(pos_err[-1])
    span = float(t[-1] - t[0])
    if span > 0:
        rms = float(math.sqrt(np.trapezoid(pos_err**2, t) / span))
        energy = float(np.trapezoid(rec.controls[:, 0] ** 2
                                    + rec.controls[:, 1] ** 2, t))
    else:
        rms = terminal
        energy = 0.0
    settling = settling_time(t, pos_err, settle_band * float(pos_err[0]))
    return Metrics(terminal_error_km=terminal, rms_error_km=rms,
                   control_energy=energy, settling_time_s=settling)


def settling_time(t, deviation, threshold) -> float | None:
    """First time after which `deviation` stays at or below `threshold`;
    None when it never does."""
    suffix_max = np.maximum.accumulate(deviation[::-1])[::-1]
    inside = np.nonzero(suffix_max <= threshold)[0]
    return float(t[inside[0]]) if inside.size else None


def estimation_error_series(rec: SimulationRecord):
    """Estimation-error norms per state block: (times, position-error norm
    in km, velocity-error norm in km/s).  Only defined for observer runs."""
    if rec.estimation_error is None:
        raise NotApplicableError(
            f"method {rec.method.value} does not run an observer"
        )
    e = rec.estimation_error
    return rec.times, np.hypot(e[:, 0], e[:, 1]), np.hypot(e[:, 2], e[:, 3])


def compare_methods(s: Scenario) -> ComparisonReport:
    """Run all four methods on one scenario and collect metrics, dominant
    closed-loop spectra and stability classes.  A single method's failure is
    reported in its row rather than aborting the comparison.  The methods
    share one design, synthesized once, and one reference start."""
    d = synthesize_for_scenario(s)
    sp = d.spectra
    eig_info = {
        Method.UNCONTROLLED: {"plant": sp["plant"]},
        Method.LQR: {"closed_loop": sp["closed_loop"]},
        Method.OBSERVER_ONLY: {"plant": sp["plant"], "observer": sp["observer"]},
        Method.OBSERVER_LQR: {"separation_loop": sp["separation_loop"]},
    }
    # observer_only applies no control: its row reports the plant's class.
    stab_info = {method: spectrum_stability(
        sp[key], float(np.linalg.norm(m, 2))).value for method, key, m in (
            (Method.UNCONTROLLED, "plant", d.plant.a),
            (Method.LQR, "closed_loop", d.step_loops["lqr"].a),
            (Method.OBSERVER_ONLY, "plant", d.plant.a),
            (Method.OBSERVER_LQR, "separation_loop",
             d.step_loops["observer_lqr"].a))}

    reports = []
    records = {}
    r0 = None  # the reference start, which every method shares
    for method in Method:
        metrics = error = None
        try:
            if r0 is None:
                r0 = _reference_start(s)
            rec = run_scenario(replace(s, method=method), d, r0)
            metrics = compute_metrics(rec, s.xf, s.settle_band)
            records[method.value] = rec
        except Exception as exc:  # noqa: BLE001 - per-method fault isolation
            error = str(exc)
        reports.append(MethodReport(method, metrics, eig_info[method],
                                    stab_info[method], error))
    return ComparisonReport(reports=reports, records=records,
                            gain_k=d.lqr.k, gain_l=d.l)


def srp_drift_study(
    duration: float,
    craft: SpacecraftParams,
    srp: SrpConfig,
    orbit: OrbitState,
    constants: PhysicalConstants = PhysicalConstants(),
    output_dt: float = 60.0,
    rtol: float = 1.0e-8,
    atol: float = 1.0e-9,
) -> DriftStudy:
    """Propagate the same initial orbit with and without SRP and emit the
    position deviation and relative position error over time."""
    check_grid(duration, output_dt, "drift")
    t = uniform_grid(duration, output_dt)
    accel = srp_accel(srp, craft, constants)
    perturbed = propagate_two_body(orbit, t, accel, constants, rtol, atol)
    reference = propagate_two_body(orbit, t, (0.0, 0.0), constants, rtol, atol)
    dev = np.hypot(perturbed[:, 0] - reference[:, 0],
                   perturbed[:, 1] - reference[:, 1])
    ref_norm = np.hypot(reference[:, 0], reference[:, 1])
    return DriftStudy(times=t, deviation_km=dev,
                      relative_error=dev / ref_norm)
