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


def _izzo_flight_time(x: float, y: float, lam: float) -> float:
    """Izzo's non-dimensional single-revolution flight time T(x): Battin's
    hypergeometric series near the parabola x = 1, where Lancaster's closed
    form divides 0 by 0, and Lancaster's form elsewhere (x > -1)."""
    if 0.7745966692414834 < x < 1.1832159566199232:  # sqrt(0.6), sqrt(1.4)
        eta = y - lam * x
        z = 0.5 * (1.0 - lam - x * eta)
        # 2F1(3, 1; 5/2; z), summed until a term no longer changes the sum;
        # |z| <= 0.4 on this interval.
        hyp, term, n = 1.0, 1.2 * z, 1
        while hyp + term != hyp:
            hyp += term
            term *= (3.0 + n) / (2.5 + n) * z
            n += 1
        return 0.5 * (eta**3 * 4.0 / 3.0 * hyp + 4.0 * lam * eta)
    e = 1.0 - x * x
    if e > 0:
        psi = math.acos(max(-1.0, min(1.0, x * y + lam * e)))
    else:
        psi = math.asinh((y - x * lam) * math.sqrt(-e))
    return (psi / math.sqrt(abs(e)) - x + lam * y) / e


def lambert_solve(
    r1,
    r2,
    tof: float,
    direction: str = "prograde",
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[np.ndarray, np.ndarray]:
    """Single-revolution planar Lambert solve: velocities (v1, v2) such that
    two-body flight from (r1, v1) reaches r2 after tof seconds.

    Izzo's algorithm (D. Izzo 2015, "Revisiting Lambert's problem", Celest.
    Mech. Dyn. Astron. 121(1)) for zero revolutions: Householder iteration
    on the non-dimensional flight time T(x) until |dx| <= 1e-13 max(1, |x|),
    regular at a half revolution.  Endpoints on one ray take the radial
    short way in both directions.
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

    u1, u2 = r1v / r1n, r2v / r2n
    s = 0.5 * (r1n + r2n + gap)
    # |lam| = sqrt(1 - c/s) in a form that does not cancel near a half
    # revolution; lam < 0 when the sweep exceeds pi, never on one ray.
    lam = math.sqrt(r1n * r2n) * math.hypot(*(u1 + u2)) / (2.0 * s)
    turn = 1.0 if direction == "prograde" else -1.0  # sense of the sweep
    if turn * (r1v[0] * r2v[1] - r1v[1] * r2v[0]) < 0:
        lam = -lam
    t = tof * math.sqrt(2.0 * mu / s) / s

    # Initial guess, Izzo's eqs. 19-21 and the corrected eq. 30.
    t0 = math.acos(lam) + lam * math.sqrt(1.0 - lam * lam)
    t1 = 2.0 * (1.0 - lam**3) / 3.0
    if t >= t0:
        x = (t0 / t) ** (2.0 / 3.0) - 1.0
    elif t < t1:
        # t underflows to 0 only far below any admissible flight time.
        x = (2.5 * t1 * (t1 - t) / (t * (1.0 - lam**5)) + 1.0 if t > 0
             else math.inf)
    else:
        x = math.exp(math.log(2.0) * math.log(t / t0)
                     / math.log(t1 / t0)) - 1.0

    for _ in range(15):
        if not -1.0 < x < math.inf:  # T(x) grows without bound as x -> -1
            raise InfeasibleTransferError(
                "flight time exceeds the single-revolution limit" if x <= -1.0
                else "flight time too short for this transfer geometry")
        y = math.sqrt(1.0 - lam * lam * (1.0 - x * x))
        tx = _izzo_flight_time(x, y, lam)
        f = tx - t
        if abs(x - 1.0) < 1e-8:
            # Near the parabola x = 1 the derivative quotients below divide
            # rounding error by 1 - x^2: take a Newton step on the limit
            # dT/dx(1) = -2 (1 - lam^5) / 5 instead.
            x_new = x + 2.5 * f / (1.0 - lam**5)
        else:
            e = 1.0 - x * x
            d1 = (3.0 * tx * x - 2.0 + 2.0 * lam**3 * x / y) / e
            d2 = (3.0 * tx + 5.0 * x * d1
                  + 2.0 * (1.0 - lam * lam) * lam**3 / (y * y * y)) / e
            d3 = (7.0 * x * d2 + 8.0 * d1 - 6.0 * (1.0 - lam * lam) * lam**5
                  * x / (y * y * y * y * y)) / e
            # Householder's quartic step, scaled by the Newton step h so
            # that d1^3 cannot underflow at large x.
            h = f / d1
            x_new = x - h * (1.0 - 0.5 * h * d2 / d1) / (
                1.0 - h * d2 / d1 + h * h * d3 / (6.0 * d1))
        x, dx = x_new, x_new - x
        if abs(dx) <= 1e-13 * max(1.0, abs(x)):
            break
    else:
        raise SolverError("Lambert iteration did not converge in 15 steps")

    y = math.sqrt(1.0 - lam * lam * (1.0 - x * x))
    gamma = math.sqrt(0.5 * mu * s)
    rho = (r1n - r2n) / gap
    sigma = math.sqrt(max(0.0, 1.0 - rho * rho))
    vr1 = gamma * ((lam * y - x) - rho * (lam * y + x)) / r1n
    vr2 = -gamma * ((lam * y - x) + rho * (lam * y + x)) / r2n
    vt = gamma * sigma * (y + lam * x)
    v1 = vr1 * u1 + (vt / r1n) * turn * np.array([-u1[1], u1[0]])
    v2 = vr2 * u2 + (vt / r2n) * turn * np.array([-u2[1], u2[0]])
    return v1, v2
