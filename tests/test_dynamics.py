import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orbitloop as ol
from conftest import MU, R0, W2


def test_constants_defaults():
    c = ol.PhysicalConstants()
    assert c.mu == 3.986004418e5
    assert c.c_light == 2.99792458e5


def test_spacecraft_validation():
    with pytest.raises(ValueError):
        ol.SpacecraftParams(mass=0.0)
    with pytest.raises(ValueError):
        ol.SpacecraftParams(area=-1.0)
    with pytest.raises(ValueError):
        ol.SpacecraftParams(reflectivity_multiplier=2.5)


def test_srp_config_validation():
    with pytest.raises(ValueError):
        ol.SrpConfig(mode="weird")
    with pytest.raises(ValueError):
        ol.SrpConfig(theta0=2.0)


def test_srp_force_normal_incidence():
    f_n, f_s = ol.srp_force(1361.0, 20.0, 0.0)
    assert abs(f_n - 9.079614671293698e-05) < 1e-12
    assert f_s == 0.0


def test_srp_force_grazing_and_45deg():
    f_n, f_s = ol.srp_force(1361.0, 20.0, math.pi / 2)
    assert abs(f_n) < 1e-20 and abs(f_s) < 1e-18
    f_n, f_s = ol.srp_force(1361.0, 20.0, math.pi / 4)
    assert abs(f_n - f_s) < 1e-18


def test_srp_force_reflectivity_scaling():
    base, _ = ol.srp_force(1361.0, 20.0, 0.0)
    doubled, _ = ol.srp_force(1361.0, 20.0, 0.0,
                              ol.SpacecraftParams(reflectivity_multiplier=2.0))
    assert abs(doubled - 2.0 * base) < 1e-18


def test_srp_accel_direct_mode():
    a_x, a_y = ol.srp_accel(ol.SrpConfig())
    assert abs(a_x - 9.98152139319421e-10) < 1e-19
    assert abs(a_y - 4.2947014931007754e-11) < 1e-20


def test_srp_accel_irradiance_mode():
    cfg = ol.SrpConfig(mode="irradiance", irradiance_w_m2=1361.0, theta0=0.0)
    a_x, a_y = ol.srp_accel(cfg, ol.SpacecraftParams(mass=500.0, area=20.0))
    assert abs(a_x - 1.8159229342587398e-10) < 1e-22
    assert a_y == 0.0


def test_srp_accel_zero_radiation():
    cfg = ol.SrpConfig(mode="direct", magnitude_km_s2=0.0, theta0=0.3)
    assert ol.srp_accel(cfg) == (0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(min_value=0.01, max_value=1.55))
def test_srp_component_identity(theta):
    cfg = ol.SrpConfig(mode="direct", magnitude_km_s2=1e-9, theta0=theta)
    a_x, a_y = ol.srp_accel(cfg)
    assert abs(a_y / a_x - math.tan(theta)) <= 1e-12 * max(1.0, math.tan(theta))
    resultant_sq = a_x**2 + a_y**2
    expected = (1e-9 * math.cos(theta)) ** 2
    assert abs(resultant_sq - expected) <= 1e-12 * expected


def test_two_body_circular_balance():
    r = 9903.0
    v = math.sqrt(MU / r)
    state = ol.OrbitState((r, 0.0), (0.0, v))
    d = ol.two_body_srp_derivative(state)
    accel = math.hypot(d[2], d[3])
    assert abs(accel - MU / r**2) < 1e-15
    assert abs(accel - v * v / r) < 1e-12
    assert abs(MU / r**2 - 4.064472763367015e-3) < 1e-12


def test_two_body_axis_alignment():
    state = ol.OrbitState((8000.0, 0.0), (0.0, 0.0))
    d = ol.two_body_srp_derivative(state, a_srp=(1e-9, 2e-9), u=(1e-3, 0.0))
    assert d[0] == 0.0 and d[1] == 0.0
    assert abs(d[2] - (-MU / 8000.0**2 + 1e-9 + 1e-3)) < 1e-18
    assert abs(d[3] - 2e-9) < 1e-24


def test_two_body_singularity_guard():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        state = ol.OrbitState((0.5, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        ol.two_body_srp_derivative(state)


def test_orbit_state_surface_warning():
    with pytest.warns(UserWarning):
        ol.OrbitState((1000.0, 0.0), (0.0, 0.0))


def test_linearize_plant_structure(plant):
    a = plant.a
    expected = np.zeros((4, 4))
    expected[0, 2] = expected[1, 3] = 1.0
    expected[2, 0] = expected[3, 1] = W2
    assert np.array_equal(a, expected)
    assert np.array_equal(plant.b,
                          [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(plant.c,
                          [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def test_linearize_plant_frequency(plant):
    assert abs(W2 - 4.104275907665159e-07) < 1e-20
    assert abs(W2 - 4.104e-7) < 1e-3 * W2
    lam = ol.eigenvalues(plant.a)
    omega = math.sqrt(W2)
    assert np.allclose(sorted(lam.real), [-omega, -omega, omega, omega],
                       rtol=1e-9)


def test_linearize_plant_sign_flip():
    osc = ol.linearize_plant(R0, sign=-1.0)
    assert ol.stability_class(osc.a) is ol.Stability.MARGINALLY_STABLE
    with pytest.raises(ValueError):
        ol.linearize_plant(-1.0)
    with pytest.raises(ValueError):
        ol.linearize_plant(R0, sign=0.5)


def test_lambert_hohmann_half_revolution():
    tof = math.pi * math.sqrt(8500.0**3 / MU)
    v1, v2 = ol.lambert_solve((7000.0, 0.0), (-10000.0, 0.0), tof)
    v1_mag = math.sqrt(MU * (2.0 / 7000.0 - 1.0 / 8500.0))
    assert abs(np.linalg.norm(v1) - v1_mag) < 1e-6
    assert abs(np.linalg.norm(v1) - 8.1845) < 1e-3
    assert abs(v1[0]) < 1e-9  # departure is purely tangential
    arc = ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), tuple(v1)),
                                np.array([0.0, tof]))
    assert math.hypot(arc[-1, 0] + 10000.0, arc[-1, 1]) < 1.0


def test_lambert_degenerate_endpoints():
    with pytest.raises(ol.DegenerateGeometryError):
        ol.lambert_solve((7000.0, 0.0), (7000.0, 0.0), 1000.0)


def _half_rev_minus(delta):
    # 10000 km from the centre at 180 degrees - delta from (7000, 0).
    return (-10000.0 * math.cos(delta), 10000.0 * math.sin(delta))


@pytest.mark.parametrize("direction", ["prograde", "retrograde"])
@pytest.mark.parametrize("r2, tof", [
    *(pytest.param(_half_rev_minus(delta), 3000.0, id=f"half_rev-{delta:g}")
      for delta in (0.0, 1e-9, 2e-8, 1e-7, 1e-6, 1e-5, 1e-3)),
    # Hyperbolic: faster than the parabola over this sweep.
    pytest.param(_half_rev_minus(0.0), 100.0, id="half_rev-100s"),
    # Both endpoints on one ray: the radial short way in either direction.
    pytest.param((8000.0, 0.0), 1000.0, id="same_ray-1000s"),
    pytest.param((8000.0, 0.0), 3000.0, id="same_ray-3000s"),
])
def test_lambert_closes_at_and_near_half_revolution(r2, tof, direction):
    v1, _ = ol.lambert_solve((7000.0, 0.0), r2, tof, direction)
    arc = ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), tuple(v1)),
                                np.array([0.0, tof]), rtol=1e-12, atol=1e-12)
    assert math.hypot(arc[-1, 0] - r2[0], arc[-1, 1] - r2[1]) < 1e-6


def test_lambert_parabolic_iterate():
    # s = 16000 km and mu = s^3 / 2 make the non-dimensional flight time
    # equal tof, so tof = 2/3 s is exactly the parabolic time of this
    # half revolution and the iteration starts at x = 1, where the
    # derivative quotients divide by 1 - x^2 = 0.
    constants = ol.PhysicalConstants(mu=2.048e12)
    v1, v2 = ol.lambert_solve((8000.0, 0.0), (-8000.0, 0.0), 2.0 / 3.0,
                              constants=constants)
    # The parabola's periapsis lies midway: both ends at 45 degrees flight
    # path angle with the escape speed sqrt(2 mu / r) = 16000 sqrt(2).
    assert np.allclose(v1, [-16000.0, 16000.0], rtol=0, atol=1e-9)
    assert np.allclose(v2, [-16000.0, -16000.0], rtol=0, atol=1e-9)


def test_lambert_flight_time_extremes():
    p1, p2 = (7000.0, 0.0), (0.0, 9000.0)
    # Gravity is negligible over the flight (non-dimensional time ~2e-105),
    # so both velocities are the chord over tof; the unscaled Householder
    # denominator d1^3 underflows to 0 here.
    v1, v2 = ol.lambert_solve(p1, p2, 20.0,
                              constants=ol.PhysicalConstants(mu=1e-200))
    chord = (np.array(p2) - np.array(p1)) / 20.0
    assert np.allclose(v1, chord, rtol=1e-14, atol=0)
    assert np.allclose(v2, chord, rtol=1e-14, atol=0)
    # The non-dimensional time underflows to 0, or the iterate rounds to -1.
    with pytest.raises(ol.InfeasibleTransferError, match="too short"):
        ol.lambert_solve(p1, p2, 20.0,
                         constants=ol.PhysicalConstants(mu=5e-324))
    with pytest.raises(ol.InfeasibleTransferError,
                       match="single-revolution limit"):
        ol.lambert_solve(p1, p2, 1e30)


def test_lambert_long_way_near_collision_branch():
    # Sweeping >180 degrees in seconds only admits the degenerate point-mass
    # branch that whips around the attractor; the solver returns it, and the
    # propagation guard is what rejects it physically.
    v1, _ = ol.lambert_solve((7000.0, 0.0), (6000.0, -3000.0), 10.0)
    assert np.linalg.norm(v1) > 100.0  # near-rectilinear plunge
    with pytest.raises(ol.NumericalError):
        ol.propagate_two_body(ol.OrbitState((7000.0, 0.0), tuple(v1)),
                              np.array([0.0, 10.0]))


def test_lambert_scenario_arc_closure():
    v1, v2 = ol.lambert_solve((4292.87, 8924.17), (-2000.0, 8878.0), 4000.0)
    arc = ol.propagate_two_body(
        ol.OrbitState((4292.87, 8924.17), tuple(v1)),
        np.array([0.0, 4000.0]),
    )
    err = math.hypot(arc[-1, 0] + 2000.0, arc[-1, 1] - 8878.0)
    assert err < 1.0
    # Arrival velocity equals the solver's v2 up to propagation accuracy.
    assert np.allclose(arc[-1, 2:4], v2, atol=1e-5)


def test_lambert_retrograde_direction():
    v1p, _ = ol.lambert_solve((7000.0, 0.0), (0.0, 7000.0), 2000.0, "prograde")
    v1r, _ = ol.lambert_solve((7000.0, 0.0), (0.0, 7000.0), 2000.0,
                              "retrograde")
    cross_p = 7000.0 * v1p[1]
    cross_r = 7000.0 * v1r[1]
    assert cross_p > 0 > cross_r


def test_lambert_randomized_closure():
    rng = np.random.default_rng(99)
    done = 0
    while done < 12:
        radius1 = rng.uniform(6800.0, 20000.0)
        radius2 = rng.uniform(6800.0, 20000.0)
        th1, th2 = rng.uniform(0.0, 2 * math.pi, size=2)
        p1 = (radius1 * math.cos(th1), radius1 * math.sin(th1))
        p2 = (radius2 * math.cos(th2), radius2 * math.sin(th2))
        tof = rng.uniform(600.0, 8000.0)
        try:
            v1, _ = ol.lambert_solve(p1, p2, tof)
        except ol.InfeasibleTransferError:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            arc = ol.propagate_two_body(ol.OrbitState(p1, tuple(v1)),
                                        np.array([0.0, tof]))
        err = math.hypot(arc[-1, 0] - p2[0], arc[-1, 1] - p2[1])
        assert err < max(1.0, 1e-6 * math.hypot(*p2))
        done += 1


def test_energy_and_momentum_conservation():
    scenario = ol.Scenario()
    x0 = scenario.x0
    r = math.hypot(*x0.position)
    v = math.hypot(*x0.velocity)
    energy0 = v * v / 2 - MU / r
    sma = -MU / (2 * energy0)
    period = 2 * math.pi * math.sqrt(sma**3 / MU)
    t = np.linspace(0.0, period, 1001)
    traj = ol.propagate_two_body(x0, t)
    rr = np.hypot(traj[:, 0], traj[:, 1])
    vv = np.hypot(traj[:, 2], traj[:, 3])
    energy = vv**2 / 2 - MU / rr
    momentum = traj[:, 0] * traj[:, 3] - traj[:, 1] * traj[:, 2]
    assert np.abs(energy - energy[0]).max() <= 1e-6 * abs(energy[0])
    assert np.abs(momentum - momentum[0]).max() <= 1e-6 * abs(momentum[0])
