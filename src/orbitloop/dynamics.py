"""Physical models: flat-plate solar-radiation-pressure forces, planar
two-body motion, plant linearization, and Lambert boundary-value guidance.

Units at every public boundary are km, km/s, km/s^2 and seconds; SI appears
only inside the force computation.  The linearized plant reproduces the
analyzed system structure verbatim, including its +omega^2 position coupling
(the unstable form whose transfer function is 1/(s^2 - omega^2)); callers
that want the opposite sign pass sign=-1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InfeasibleTransferError,
    NumericalError,
    SolverError,
)
from .ltisys import StateSpace

__all__ = [
    "PhysicalConstants",
    "SpacecraftParams",
    "SrpConfig",
    "OrbitState",
    "EARTH_RADIUS_KM",
    "SOLAR_CONSTANT_W_M2",
    "srp_force",
    "srp_accel",
    "two_body_srp_derivative",
    "linearize_plant",
    "lambert_solve",
]

EARTH_RADIUS_KM = 6378.0
SOLAR_CONSTANT_W_M2 = 1361.0


@dataclass(frozen=True)
class PhysicalConstants:
    """Gravitational parameter (km^3/s^2) and speed of light (km/s)."""

    mu: float = 3.986004418e5
    c_light: float = 2.99792458e5

    def __post_init__(self):
        if not (self.mu > 0 and self.c_light > 0):
            raise ValueError("physical constants must be positive")


@dataclass(frozen=True)
class SpacecraftParams:
    """Mass (kg), effective flat-plate area (m^2), and reflectivity
    multiplier (1 = fully absorbing plate, 2 = perfect specular reflector
    at normal incidence)."""

    mass: float = 500.0
    area: float = 20.0
    reflectivity_multiplier: float = 1.0

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")
        if not self.area > 0:
            raise ValueError("area must be positive")
        if not 1.0 <= self.reflectivity_multiplier <= 2.0:
            raise ValueError("reflectivity multiplier must lie in [1, 2]")


@dataclass(frozen=True)
class SrpConfig:
    """Solar-radiation-pressure configuration.

    mode "irradiance": the acceleration follows from irradiance E (W/m^2),
    plate area and mass.  mode "direct": the resultant magnitude w (km/s^2)
    is prescribed and decomposed by the incidence angle theta0 (rad).
    """

    mode: str = "direct"
    magnitude_km_s2: float = 1.0e-9
    irradiance_w_m2: float = SOLAR_CONSTANT_W_M2
    theta0: float = 0.043

    def __post_init__(self):
        if self.mode not in ("direct", "irradiance"):
            raise ValueError(f"unknown SRP mode {self.mode!r}")
        if not 0.0 <= self.theta0 <= math.pi / 2:
            raise ValueError("theta0 must lie in [0, pi/2]")
        if self.mode == "direct" and not self.magnitude_km_s2 >= 0:
            raise ValueError("magnitude must be non-negative")
        if self.mode == "irradiance" and not self.irradiance_w_m2 >= 0:
            raise ValueError("irradiance must be non-negative")


@dataclass(frozen=True)
class OrbitState:
    """Planar position (km) and velocity (km/s)."""

    position: tuple[float, float]
    velocity: tuple[float, float]

    def __post_init__(self):
        pos = (float(self.position[0]), float(self.position[1]))
        vel = (float(self.velocity[0]), float(self.velocity[1]))
        if not all(math.isfinite(v) for v in pos + vel):
            raise ValueError("orbit state must be finite")
        if math.hypot(*pos) <= EARTH_RADIUS_KM:
            warnings.warn(
                "orbit state lies at or below the Earth's surface", stacklevel=2
            )
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    def as_vector(self) -> np.ndarray:
        return np.array([*self.position, *self.velocity])


def srp_force(
    irradiance_w_m2: float,
    area_m2: float,
    theta: float,
    craft: SpacecraftParams | None = None,
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[float, float]:
    """Flat-plate radiation force magnitudes in newtons.

    Returns (F_N, F_S): the components along the plate normal and shear
    directions, E*A*cos^2(theta)/c and E*A*cos(theta)*sin(theta)/c, scaled
    by the reflectivity multiplier.  The push is anti-sunward; magnitudes
    are returned.
    """
    if irradiance_w_m2 < 0:
        raise ValueError("irradiance must be non-negative")
    if area_m2 <= 0:
        raise ValueError("area must be positive")
    rho = craft.reflectivity_multiplier if craft is not None else 1.0
    c_m_s = constants.c_light * 1000.0
    pressure = irradiance_w_m2 / c_m_s
    f_n = rho * pressure * area_m2 * math.cos(theta) ** 2
    f_s = rho * pressure * area_m2 * math.cos(theta) * math.sin(theta)
    return f_n, f_s


def srp_accel(
    cfg: SrpConfig,
    craft: SpacecraftParams = SpacecraftParams(),
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[float, float]:
    """SRP acceleration components (a_x, a_y) in km/s^2.

    direct mode: a_x = w cos^2(theta0), a_y = w sin(theta0) cos(theta0).
    irradiance mode: the same decomposition with w = E*A*rho/(m*c).
    """
    if cfg.mode == "direct":
        w = cfg.magnitude_km_s2
    else:
        f_n, f_s = srp_force(cfg.irradiance_w_m2, craft.area, 0.0, craft, constants)
        # f_n at normal incidence is E*A*rho/c; per-mass and to km/s^2.
        w = f_n / craft.mass / 1000.0
    a_x = w * math.cos(cfg.theta0) ** 2
    a_y = w * math.sin(cfg.theta0) * math.cos(cfg.theta0)
    return a_x, a_y


def two_body_srp_derivative(
    state: OrbitState,
    a_srp: tuple[float, float] = (0.0, 0.0),
    u: tuple[float, float] = (0.0, 0.0),
    constants: PhysicalConstants = PhysicalConstants(),
) -> np.ndarray:
    """Time derivative of [p, q, pdot, qdot] under central gravity plus SRP
    and control accelerations.  Raises ValueError inside 1 km of the center
    (gravitational singularity guard)."""
    p, q = state.position
    r = math.hypot(p, q)
    if r < 1.0:
        raise ValueError("radius below 1 km: gravitational singularity")
    r3 = r * r * r
    mu = constants.mu
    return np.array(
        [
            state.velocity[0],
            state.velocity[1],
            -mu * p / r3 + a_srp[0] + u[0],
            -mu * q / r3 + a_srp[1] + u[1],
        ]
    )


def linearize_plant(
    r0: float,
    constants: PhysicalConstants = PhysicalConstants(),
    sign: float = 1.0,
) -> StateSpace:
    """Planar plant about the radius r0 with omega^2 = mu / r0^3.

    State [x_p, y_p, xdot_p, ydot_p], two acceleration inputs, position
    outputs.  sign=+1 reproduces the analyzed +omega^2 coupling (unstable,
    per-channel transfer 1/(s^2 - omega^2)); sign=-1 gives the oscillator
    form.
    """
    if r0 <= 0:
        raise ValueError("linearization radius must be positive")
    if sign not in (1.0, -1.0, 1, -1):
        raise ValueError("sign must be +1 or -1")
    try:
        w2 = sign * constants.mu / r0**3
    except OverflowError:
        raise NumericalError(
            f"r0**3 overflows at linearization radius {r0:g} km") from None
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [w2, 0.0, 0.0, 0.0],
            [0.0, w2, 0.0, 0.0],
        ]
    )
    b = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    c = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    return StateSpace(a, b, c)


def _stumpff_c(z: float) -> float:
    if abs(z) < 1e-6:
        return 1.0 / 2.0 - z / 24.0 + z * z / 720.0
    if z > 0:
        return (1.0 - math.cos(math.sqrt(z))) / z
    return (math.cosh(math.sqrt(-z)) - 1.0) / (-z)


def _stumpff_s(z: float) -> float:
    if abs(z) < 1e-6:
        return 1.0 / 6.0 - z / 120.0 + z * z / 5040.0
    if z > 0:
        sz = math.sqrt(z)
        return (sz - math.sin(sz)) / sz**3
    sz = math.sqrt(-z)
    return (math.sinh(sz) - sz) / sz**3


def _sweep_angle(r1: np.ndarray, r2: np.ndarray, direction: str) -> float:
    """Transfer angle in (0, 2*pi) swept in the requested rotational sense
    (prograde = counterclockwise, +z angular momentum)."""
    cross_z = r1[0] * r2[1] - r1[1] * r2[0]
    cos_dnu = float(
        np.clip(np.dot(r1, r2) / (np.linalg.norm(r1) * np.linalg.norm(r2)), -1, 1)
    )
    principal = math.acos(cos_dnu)
    ccw = cross_z >= 0
    want_ccw = direction == "prograde"
    return principal if ccw == want_ccw else 2 * math.pi - principal


def _kepler_half_rev_time(r1n, x, q, p, mu):
    """Flight time over a half-revolution sweep when e*sin(nu1) = x and
    e*cos(nu1) = q on the conic with parameter p; elliptic branch only."""
    e2 = q * q + x * x
    if e2 >= 1.0:
        return math.inf
    e = math.sqrt(e2)
    a = p / (1.0 - e2)
    nu1 = math.atan2(x, q)
    nu2 = nu1 + math.pi

    def eccentric(nu):
        return 2.0 * math.atan2(
            math.sqrt(1.0 - e) * math.sin(nu / 2.0),
            math.sqrt(1.0 + e) * math.cos(nu / 2.0),
        )

    e1, e2_an = eccentric(nu1), eccentric(nu2)
    m1 = e1 - e * math.sin(e1)
    m2 = e2_an - e * math.sin(e2_an)
    dm = m2 - m1
    if dm <= 0:
        dm += 2.0 * math.pi
    return math.sqrt(a**3 / mu) * dm


def _lambert_half_rev(r1, r2, tof, direction, mu):
    """Exact planar solution for a 180-degree transfer, where the chord
    passes through the attractor and the universal-variable (f, g) formulas
    degenerate.  The semi-latus rectum is fixed by the geometry
    (p = 2 r1 r2 / (r1 + r2)), so only the departure radial speed remains,
    solved from the flight time by bisection on the elliptic branch."""
    r1n, r2n = float(np.linalg.norm(r1)), float(np.linalg.norm(r2))
    p = 2.0 * r1n * r2n / (r1n + r2n)
    h = math.sqrt(mu * p)
    q = p / r1n - 1.0
    x_max = math.sqrt(max(1.0 - q * q, 0.0))

    def time_of(x):
        return _kepler_half_rev_time(r1n, x, q, p, mu)

    # Bracket a sign change of time_of(x) - tof on (-x_max, x_max); flight
    # time decreases toward the periapsis-side parabolic limit.
    xs = np.linspace(-x_max * (1 - 1e-9), x_max * (1 - 1e-9), 65)
    ts = [time_of(float(x)) for x in xs]
    lo = hi = None
    for i in range(len(xs) - 1):
        f0, f1 = ts[i] - tof, ts[i + 1] - tof
        if math.isfinite(f0) and math.isfinite(f1) and f0 * f1 <= 0:
            lo, hi = float(xs[i]), float(xs[i + 1])
            break
    if lo is None:
        raise InfeasibleTransferError(
            "no elliptic half-revolution transfer matches this flight time"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (time_of(mid) - tof) * (time_of(lo) - tof) <= 0:
            hi = mid
        else:
            lo = mid
        if abs(hi - lo) < 1e-15:
            break
    x = 0.5 * (lo + hi)

    ccw = direction == "prograde"
    u1 = r1 / r1n
    u2 = r2 / r2n
    t1 = np.array([-u1[1], u1[0]]) if ccw else np.array([u1[1], -u1[0]])
    t2 = np.array([-u2[1], u2[0]]) if ccw else np.array([u2[1], -u2[0]])
    v_r1 = (mu / h) * x
    v_r2 = (mu / h) * (-x)  # e sin(nu1 + pi) = -e sin(nu1)
    v1 = v_r1 * u1 + (h / r1n) * t1
    v2 = v_r2 * u2 + (h / r2n) * t2
    return v1, v2


def lambert_solve(
    r1,
    r2,
    tof: float,
    direction: str = "prograde",
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[np.ndarray, np.ndarray]:
    """Single-revolution planar Lambert solve: velocities (v1, v2) such that
    two-body flight from (r1, v1) reaches r2 after tof seconds.

    Universal-variable formulation with a bisection-safeguarded Newton
    iteration on the universal anomaly (flight-time residual below 1e-9 s);
    transfers within 1e-8 rad of a half revolution switch to a dedicated
    planar branch that is exact where the (f, g) construction degenerates.
    """
    r1v = np.asarray(r1, dtype=float).reshape(2)
    r2v = np.asarray(r2, dtype=float).reshape(2)
    if tof <= 0:
        raise ValueError("time of flight must be positive")
    if direction not in ("prograde", "retrograde"):
        raise ValueError("direction must be 'prograde' or 'retrograde'")
    r1n, r2n = float(np.linalg.norm(r1v)), float(np.linalg.norm(r2v))
    gap = float(np.linalg.norm(r1v - r2v))
    if not (math.isfinite(r1n) and math.isfinite(r2n) and math.isfinite(gap)):
        raise NumericalError("transfer endpoint radius or separation overflowed")
    if r1n == 0 or r2n == 0:
        raise DegenerateGeometryError("endpoint at the attractor center")
    if gap <= 1e-9 * max(r1n, r2n):
        raise DegenerateGeometryError("identical transfer endpoints")
    mu = constants.mu

    dnu = _sweep_angle(r1v, r2v, direction)
    if abs(dnu - math.pi) < 1e-8:
        return _lambert_half_rev(r1v, r2v, tof, direction, mu)

    a_geom = math.sin(dnu) * math.sqrt(r1n * r2n / (1.0 - math.cos(dnu)))

    def flight_time(z):
        # Returns (None, None) where y <= 0, i.e. on or below the boundary
        # y = 0 of the admissible domain, where the flight time is 0 and the
        # Newton step would divide by chi = 0.
        try:
            c, s = _stumpff_c(z), _stumpff_s(z)
            y = r1n + r2n + a_geom * (z * s - 1.0) / math.sqrt(c)
            if y <= 0:
                return None, None
            chi = math.sqrt(y / c)
            return (chi**3 * s + a_geom * math.sqrt(y)) / math.sqrt(mu), y
        except OverflowError:
            return math.inf, math.inf

    # Bracket tof between z_lo and z_hi; flight time increases with z.  The
    # single-revolution limit z -> (2*pi)^2 sends the flight time to
    # infinity, so backing off by a relative 1e-4 still brackets any finite
    # tof while keeping the Stumpff quotients well conditioned.  The descent
    # stops either where y turns negative (flight time below any admissible
    # value) or at the deep-hyperbolic floor.
    z_hi = 4.0 * math.pi**2 * (1.0 - 1e-4)
    z_lo = 0.0
    t_lo, _ = flight_time(z_lo)
    while t_lo is not None and t_lo > tof:
        z_lo = -1.0 if z_lo == 0.0 else 2.0 * z_lo
        if z_lo < -4.0e5:
            raise InfeasibleTransferError(
                "flight time too short for this transfer geometry"
            )
        t_lo, _ = flight_time(z_lo)
    t_hi, _ = flight_time(z_hi)
    if t_hi is not None and t_hi < tof:
        raise InfeasibleTransferError(
            "flight time exceeds the single-revolution limit"
        )

    z = 0.5 * (z_lo + z_hi)
    converged = False
    for _ in range(100):
        t_z, y = flight_time(z)
        if t_z is None:
            z_lo = z
            z = 0.5 * (z_lo + z_hi)
            continue
        resid = t_z - tof
        if abs(resid) <= 1e-9:
            converged = True
            break
        if resid > 0:
            z_hi = z
        else:
            z_lo = z
        c, s = _stumpff_c(z), _stumpff_s(z)
        if abs(z) > 1e-6:
            c_p = (1.0 - z * s - 2.0 * c) / (2.0 * z)
            s_p = (c - 3.0 * s) / (2.0 * z)
        else:
            c_p, s_p = -1.0 / 24.0 + z / 360.0, -1.0 / 120.0 + z / 2520.0
        chi = math.sqrt(y / c)
        dt_dz = (
            chi**3 * (s_p - 3.0 * s * c_p / (2.0 * c))
            + (a_geom / 8.0) * (3.0 * s * math.sqrt(y) / c + a_geom / chi)
        ) / math.sqrt(mu)
        z_new = z - resid / dt_dz if dt_dz > 0 else None
        if z_new is None or not (z_lo < z_new < z_hi):
            z_new = 0.5 * (z_lo + z_hi)
        z = z_new
    if not converged:
        raise SolverError("Lambert iteration did not converge in 100 steps")

    f = 1.0 - y / r1n
    g = a_geom * math.sqrt(y / mu)
    gdot = 1.0 - y / r2n
    v1 = (r2v - f * r1v) / g
    v2 = (gdot * r2v - r1v) / g
    return v1, v2
