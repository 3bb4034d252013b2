import numpy as np
import pytest

import orbitloop as ol
from orbitloop.linalg import spectra_close
from orbitloop.ltisys import _discretize
from conftest import W2

S1 = np.array([[1.0]])
Z1 = np.array([[0.0]])
W11 = ol.Weights(np.eye(1), np.eye(1))


def test_weights_validation():
    with pytest.raises(ValueError):
        ol.Weights(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(1))
    with pytest.raises(ValueError):
        ol.Weights(-np.eye(2), np.eye(1))
    with pytest.raises(ValueError):
        ol.Weights(np.eye(2), np.zeros((1, 1)))


def test_care_scalar_roots():
    p = ol.solve_care(Z1, S1, W11)
    assert abs(p[0, 0] - 1.0) < 1e-10
    p = ol.solve_care(S1, S1, W11)
    assert abs(p[0, 0] - (1.0 + np.sqrt(2.0))) < 1e-10


def test_care_plant_residual(plant, identity_weights):
    p = ol.solve_care(plant.a, plant.b, identity_weights)
    resid = plant.a.T @ p + p @ plant.a \
        - p @ plant.b @ plant.b.T @ p + np.eye(4)
    assert np.linalg.norm(resid) <= 1e-8
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.linalg.eigvalsh(p).min() >= -1e-10


def test_care_agrees_with_schur_solver(plant, identity_weights):
    # Independent route: the Hamiltonian-eigenvector solution matches
    # scipy's Schur-based solver on the same plant.
    import scipy.linalg
    p = ol.solve_care(plant.a, plant.b, identity_weights)
    p_ref = scipy.linalg.solve_continuous_are(
        plant.a, plant.b, np.eye(4), np.eye(2)
    )
    assert np.allclose(p, p_ref, rtol=1e-8, atol=1e-10)


def test_lqr_scalar_gains():
    res = ol.lqr_gain(Z1, S1, W11)
    assert abs(res.k[0, 0] - 1.0) < 1e-10
    assert abs(res.closed_loop_spectrum[0] + 1.0) < 1e-10
    res = ol.lqr_gain(S1, S1, W11)
    assert abs(res.k[0, 0] - (1.0 + np.sqrt(2.0))) < 1e-10
    assert abs(res.closed_loop_spectrum[0] + np.sqrt(2.0)) < 1e-9


def test_lqr_plant_hurwitz(plant, lqr_design):
    assert np.all(lqr_design.closed_loop_spectrum.real < 0)
    # Gain identity k = R^-1 B' P
    assert np.allclose(lqr_design.k, plant.b.T @ lqr_design.p, atol=1e-9)


def test_lqr_optimality_scalar_cost():
    # Simulated quadratic cost under the optimal gain equals x0' P x0.
    t = np.linspace(0.0, 25.0, 25001)
    x = np.exp(-t)
    cost = np.trapezoid(x**2 + x**2, t)
    assert abs(cost - 1.0) < 1e-4


def test_place_double_integrator():
    k = ol.place_poles(np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[0.0], [1.0]]), [-1.0, -1.0])
    assert np.allclose(k, [[1.0, 2.0]], atol=1e-12)


def test_place_orbital_channel():
    a = np.array([[0.0, 1.0], [W2, 0.0]])
    b = np.array([[0.0], [1.0]])
    k = ol.place_poles(a, b, [-1.0, -1.0])
    assert np.allclose(k, [[1.0 + W2, 2.0]], atol=1e-10)
    lam = ol.eigenvalues(a - b @ k)
    assert spectra_close(lam, [-1.0, -1.0], tol=1e-8)


def test_place_full_plant_roundtrip(plant):
    desired = np.array([-1.0, -1.0, -2.0, -2.0])
    k = ol.place_poles(plant.a, plant.b, desired)
    assert spectra_close(ol.eigenvalues(plant.a - plant.b @ k),
                         desired, tol=1e-8)
    complex_set = np.array([-1 + 1j, -1 - 1j, -3 + 0.5j, -3 - 0.5j])
    k = ol.place_poles(plant.a, plant.b, complex_set)
    assert spectra_close(ol.eigenvalues(plant.a - plant.b @ k),
                         complex_set, tol=1e-8)


def test_observer_gain_splits_real_poles_around_a_pair(plant):
    # Observer set of a weighting whose slowest pole is real: it sorts
    # ahead of the pair, which must still go to one channel whole while
    # the two real poles share the other.
    poles = np.array([-0.5988824449341026,
                      -1.8195808393651571 + 1.6514484511004663j,
                      -1.8195808393651571 - 1.6514484511004663j,
                      -5.5335816331057455])
    l = ol.observer_gain(plant.a, plant.c, poles / 4.0, 4.0)
    assert spectra_close(ol.eigenvalues(plant.a - l @ plant.c), poles,
                         tol=1e-8)


def test_observer_gain_default_scenario_pinned(observer_design):
    # Guards the channel split and the pole order inside each channel:
    # both decide the roundoff of the default observer gain.
    pinned = np.array([[6.928204178117566, 0.0],
                       [0.0, 6.928204178117567],
                       [16.00000041042898, 0.0],
                       [0.0, 16.00000041042893]])
    assert np.array_equal(observer_design, pinned)


def test_place_errors(plant):
    with pytest.raises(ol.SynthesisError):
        ol.place_poles(plant.a, np.zeros((4, 2)), [-1, -1, -1, -1])
    with pytest.raises(ValueError):
        ol.place_poles(plant.a, plant.b, [-1 + 1j, -1 + 1j, -1, -1])
    # One input driving both channels breaks the decoupled structure.
    b_coupled = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ol.SynthesisError):
        ol.place_poles(plant.a, b_coupled, [-1, -1, -2, -2])


def test_care_unstabilizable_pair():
    with pytest.raises(ol.SynthesisError):
        ol.solve_care(np.eye(2), np.zeros((2, 1)),
                      ol.Weights(np.eye(2), np.eye(1)))


def test_hinf_invalid_range():
    with pytest.raises(ValueError):
        ol.hinf_state_feedback(Z1, S1, S1, W11, (2.0, 1.0))


def test_observer_channel_duality():
    a = np.array([[0.0, 1.0], [W2, 0.0]])
    c = np.array([[1.0, 0.0]])
    l = ol.observer_gain(a, c, np.array([-1.0, -1.0]), 4.0)
    assert np.allclose(l, [[8.0], [16.0 + W2]], atol=1e-10)


def test_observer_speed_factor_and_warning(plant, lqr_design):
    l = ol.observer_gain(plant.a, plant.c, np.array([-1.0] * 4), 4.0)
    assert spectra_close(ol.eigenvalues(plant.a - l @ plant.c),
                         [-4.0] * 4, tol=1e-6)
    with pytest.warns(UserWarning):
        ol.observer_gain(plant.a, plant.c, np.array([-1.0] * 4), 8.0)


def test_observer_unobservable(plant):
    with pytest.raises(ol.SynthesisError):
        ol.observer_gain(plant.a, np.zeros((2, 4)), np.array([-1.0] * 4))


def test_separation_scalar_union():
    loop = ol.assemble_separation_loop(Z1, S1, S1, S1, np.array([[2.0]]))
    assert spectra_close(ol.eigenvalues(loop.error_coords), [-1.0, -2.0],
                         tol=1e-12)


def test_separation_zero_gains(plant):
    loop = ol.assemble_separation_loop(plant.a, plant.b, plant.c,
                                       np.zeros((2, 4)), np.zeros((4, 2)))
    doubled = np.concatenate([ol.eigenvalues(plant.a)] * 2)
    assert spectra_close(ol.eigenvalues(loop.error_coords), doubled, tol=1e-9)


def test_separation_plant_union(plant, lqr_design, observer_design):
    loop = ol.assemble_separation_loop(plant.a, plant.b, plant.c,
                                       lqr_design.k, observer_design)
    union = np.concatenate([
        ol.eigenvalues(plant.a - plant.b @ lqr_design.k),
        ol.eigenvalues(plant.a - observer_design @ plant.c),
    ])
    e1 = ol.eigenvalues(loop.error_coords)
    e2 = ol.eigenvalues(loop.estimate_coords)
    assert spectra_close(e1, union, tol=1e-6)
    assert spectra_close(e2, union, tol=1e-6)
    assert spectra_close(e1, e2, tol=1e-6)


def test_hinf_scalar_fixed_gamma():
    p = ol.solve_hinf_riccati(Z1, S1, S1, W11, 2.0)
    assert abs(p[0, 0] - 1.0 / np.sqrt(0.75)) < 1e-6
    res = ol.hinf_state_feedback(Z1, S1, S1, W11, (2.0, 2.0))
    assert abs(res.k[0, 0] - 1.0 / np.sqrt(0.75)) < 1e-6


def test_hinf_scalar_infeasible_below_one():
    with pytest.raises(ol.SynthesisError):
        ol.solve_hinf_riccati(Z1, S1, S1, W11, 0.5)
    with pytest.raises(ol.GammaRangeError):
        ol.hinf_state_feedback(Z1, S1, S1, W11, (0.1, 0.5))


def test_hinf_scalar_boundary():
    res = ol.hinf_state_feedback(Z1, S1, S1, W11, (0.5, 2.0))
    assert abs(res.gamma - 1.0) <= 2e-3


def test_hinf_gain_achieves_bound(plant, identity_weights):
    res = ol.hinf_state_feedback(plant.a, plant.b, plant.b,
                                 identity_weights, (1e-2, 1e4))
    loop = ol.weighted_performance_loop(plant.a, plant.b, plant.b,
                                        identity_weights, res.k)
    assert ol.hinf_norm(loop) < res.gamma


def test_hinf_norm_oracles():
    first = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                          np.array([[1.0]]))
    assert abs(ol.hinf_norm(first) - 1.0) < 1e-6
    zeta = 0.1
    resonant = ol.StateSpace(np.array([[0.0, 1.0], [-1.0, -2 * zeta]]),
                             np.array([[0.0], [1.0]]),
                             np.array([[1.0, 0.0]]))
    peak = 1.0 / (2 * zeta * np.sqrt(1 - zeta**2))
    assert abs(ol.hinf_norm(resonant) - peak) < 1e-3 * peak


def test_hinf_norm_singular_grid_point_raises():
    # Stable, but so far from normal that j*omega*I - A fails the condition
    # test of frequency_response, which hinf_norm shares.
    sys = ol.StateSpace(np.array([[-1.0, 1e8], [0.0, -1.0]]), np.eye(2),
                        np.eye(2))
    with pytest.raises(ol.SingularMatrixError):
        ol.hinf_norm(sys, np.array([1e-3, 1.0]))


def test_hinf_norm_unstable_raises(plant):
    with pytest.raises(ol.UndefinedNormError):
        ol.hinf_norm(ol.StateSpace(plant.a, plant.b, plant.c))


def test_iss_bound_under_bounded_disturbance(plant, lqr_design):
    # Frozen input-to-state envelope for the LQR loop under matched
    # piecewise-constant disturbances: ||x(t)|| <= kappa ||x0|| + gamma W.
    kappa, gamma_iss = 1.5, 2.5
    acl = plant.a - plant.b @ lqr_design.k
    ad, bd = _discretize(acl, plant.b, 0.1)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        x = rng.standard_normal(4)
        x0_norm = np.linalg.norm(x)
        w_bound = float(rng.uniform(0.1, 3.0))
        bound = kappa * x0_norm + gamma_iss * w_bound
        for _ in range(300):
            w = rng.uniform(-w_bound, w_bound, size=2)
            x = ad @ x + bd @ w
            assert np.linalg.norm(x) <= bound


def test_compensator_realizations(plant, lqr_design, observer_design):
    loop = ol.lqr_loop_transfer(plant, lqr_design.k)
    assert loop.n_outputs == 2 and loop.n_inputs == 2
    comp = ol.observer_compensator(plant, lqr_design.k, observer_design)
    assert ol.stability_class(comp.a) is not None
    h = ol.transfer_eval(comp, 1j * 0.5)
    assert h.shape == (2, 2)


def test_nyquist_data_with_eigenvalue_oracle(plant, lqr_design):
    # The emitted loop locus is plot data; the stability verdict comes from
    # the closed-loop spectrum, which is the oracle for "does not encircle
    # the critical point".
    loop = ol.lqr_loop_transfer(plant, lqr_design.k)
    values = ol.frequency_response(loop, ol.default_frequency_grid())
    # No point is flagged singular (NaN), and none is infinite.
    assert np.isfinite(values).all()
    assert ol.stability_class(plant.a - plant.b @ lqr_design.k) \
        is ol.Stability.ASYMPTOTICALLY_STABLE
