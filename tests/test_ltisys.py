import numpy as np
import pytest

import orbitloop as ol
from conftest import W2


def _double_integrator():
    return ol.StateSpace(np.array([[0.0, 1.0], [0.0, 0.0]]),
                         np.array([[0.0], [1.0]]),
                         np.eye(2))


def test_statespace_dimension_checks():
    with pytest.raises(ol.DimensionError):
        ol.StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)))
    with pytest.raises(ol.DimensionError):
        ol.StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)))


def test_controllability_double_integrator():
    mat = ol.controllability_matrix(_double_integrator())
    assert np.allclose(mat, [[0.0, 1.0], [1.0, 0.0]])
    assert ol.rank(mat) == 2


def test_controllability_no_actuation():
    sys = ol.StateSpace(np.eye(2), np.zeros((2, 1)), np.eye(2))
    assert ol.rank(ol.controllability_matrix(sys)) == 0


def test_plant_rank_conditions(plant):
    ctrb = ol.controllability_matrix(plant)
    obsv = ol.observability_matrix(plant)
    assert ctrb.shape == (4, 8)
    assert obsv.shape == (8, 4)
    assert ol.rank(ctrb) == 4
    assert ol.rank(obsv) == 4


def test_observability_identity_and_blind(plant):
    full = ol.StateSpace(plant.a, plant.b, np.eye(4))
    assert ol.rank(ol.observability_matrix(full)) == 4
    blind = ol.StateSpace(plant.a, plant.b, np.zeros((2, 4)))
    assert ol.rank(ol.observability_matrix(blind)) == 0


def test_duality(plant):
    dual = ol.StateSpace(plant.a.T, plant.c.T, plant.b.T)
    assert np.allclose(ol.observability_matrix(plant),
                       ol.controllability_matrix(dual).T)


def test_rank_similarity_invariance(plant):
    rng = np.random.default_rng(2)
    t = np.eye(4) + 0.2 * rng.standard_normal((4, 4))
    ti = np.linalg.inv(t)
    sys2 = ol.StateSpace(t @ plant.a @ ti, t @ plant.b, plant.c @ ti)
    assert ol.rank(ol.controllability_matrix(sys2)) == 4
    assert ol.rank(ol.observability_matrix(sys2)) == 4


def test_stability_classification(plant):
    assert ol.stability_class(-np.eye(3)) is ol.Stability.ASYMPTOTICALLY_STABLE
    assert ol.stability_class(np.array([[0.0, 1.0], [-1.0, 0.0]])) \
        is ol.Stability.MARGINALLY_STABLE
    assert ol.stability_class(plant.a) is ol.Stability.UNSTABLE


def test_transfer_scalar_dc_gain():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    assert abs(ol.transfer_eval(sys, 0.0)[0, 0] - 1.0) < 1e-14


def test_transfer_plant_dc(plant):
    h0 = ol.transfer_eval(plant, 0.0)
    assert abs(h0[0, 0].real - (-1.0 / W2)) < 1e-3 * abs(1.0 / W2)
    assert abs(h0[0, 1]) < 1e-9 * abs(1.0 / W2)  # channels decouple


def test_transfer_rolloff(plant):
    h = ol.transfer_eval(plant, 1j * 1.0e4)
    assert np.abs(h).max() < 1e-7


def test_transfer_near_pole_raises():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    with pytest.raises(ol.SingularMatrixError):
        ol.transfer_eval(sys, -1.0)


def test_frequency_response_first_order():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    h = ol.frequency_response(sys, np.array([1.0]))[0, 0, 0]
    assert abs(abs(h) - 1.0 / np.sqrt(2.0)) < 1e-12
    assert abs(np.degrees(np.angle(h)) + 45.0) < 1e-9


def test_frequency_response_conjugate_symmetry(plant):
    for omega in (1e-4, 1e-2, 1.0):
        h_pos = ol.transfer_eval(plant, 1j * omega)
        h_neg = ol.transfer_eval(plant, -1j * omega)
        assert np.allclose(h_neg, np.conj(h_pos), rtol=1e-12)


def test_frequency_response_flags_singular_points():
    # Undamped oscillator: pole exactly at s = j.
    sys = ol.StateSpace(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                        np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]))
    w = np.array([0.5, 1.0, 2.0])
    h = ol.frequency_response(sys, w)
    assert np.isnan(h[1]).all()
    for i in (0, 2):
        assert np.array_equal(h[i], ol.transfer_eval(sys, 1j * w[i]))


def test_frequency_response_matches_per_point_solve():
    # The batched resolvent gives the bits of the per-point loop it
    # replaced: one complex solve per frequency, then C x.  Checked on the
    # default scenario's design's frequency-sweep loops.
    d = ol.synthesize_for_scenario(ol.Scenario())
    grid = ol.default_frequency_grid()
    for sys in d.sweep_loops.values():
        eye = np.eye(sys.n_states)
        ref = np.array([
            sys.c @ np.linalg.solve(1j * w * eye - sys.a,
                                    sys.b.astype(complex))
            for w in grid])
        assert np.array_equal(ol.frequency_response(sys, grid), ref)


def test_frequency_grid_validation():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    with pytest.raises(ValueError):
        ol.frequency_response(sys, np.array([1.0, 0.5]))
    with pytest.raises(ValueError):
        ol.frequency_response(sys, np.array([-1.0, 1.0]))


def test_zero_input_frozen_and_decay():
    sys = ol.StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.eye(2))
    t = np.linspace(0.0, 5.0, 11)
    x = ol.zero_input_response(sys, [1.0, -2.0], t)
    assert np.allclose(x, np.tile([1.0, -2.0], (11, 1)))
    scalar = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                           np.array([[1.0]]))
    x = ol.zero_input_response(scalar, [1.0], np.array([0.0, 1.0]))
    assert abs(x[1, 0] - np.exp(-1.0)) < 1e-12


def test_zero_input_unstable_mode_growth(plant):
    # Pure radial offset placed on the x channel grows along cosh(omega t).
    omega = np.sqrt(W2)
    t = np.linspace(0.0, 3000.0, 31)
    x = ol.zero_input_response(plant, [1.0, 0.0, 0.0, 0.0], t)
    assert np.allclose(x[:, 0], np.cosh(omega * t), rtol=1e-9)
    assert np.allclose(x[:, 2], omega * np.sinh(omega * t), rtol=1e-9)
    assert x[-1, 0] > x[0, 0]


def test_zero_input_nonuniform_grid(plant):
    # A non-uniform grid takes one transition matrix per interval, and the
    # product of those must still be expm(A (t_k - t0)) x0.
    from scipy.linalg import expm

    t = np.array([0.0, 0.5, 1.5, 4.0, 100.0])
    scalar = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                           np.array([[1.0]]))
    for sys, x0 in ((scalar, [1.0]), (plant, [1.0, -2.0, 0.5, 0.3])):
        x = ol.zero_input_response(sys, x0, t)
        ref = np.array([expm(sys.a * (tk - t[0])) @ x0 for tk in t])
        err = np.linalg.norm(x - ref, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref, axis=1))


def test_zero_state_pure_integrator():
    sys = ol.StateSpace(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    t = np.linspace(0.0, 4.0, 41)
    x = ol.zero_state_response(sys, np.ones((41, 1)), t)
    assert np.allclose(x[:, 0], t, atol=1e-12)
    zero = ol.zero_state_response(sys, np.zeros((41, 1)), t)
    assert np.all(zero == 0.0)


def test_zero_state_nonuniform_grid():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    t = np.array([0.0, 0.5, 1.5, 4.0])
    x = ol.zero_state_response(sys, np.ones((4, 1)), t)
    assert np.allclose(x[:, 0], 1.0 - np.exp(-t), rtol=1e-12)


def test_zero_state_requires_two_dimensional_input():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    t = np.linspace(0.0, 1.0, 5)
    for u in (np.ones(5), np.ones((5, 2)), np.ones((4, 1))):
        with pytest.raises(ol.DimensionError):
            ol.zero_state_response(sys, u, t)


def test_step_response_first_order():
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    t, y = ol.step_response(sys, 1.0, 0.01)
    assert abs(y[-1, 0, 0] - (1.0 - np.exp(-1.0))) < 1e-12


@pytest.mark.parametrize("dt, intervals", [(10.0, 2), (0.007, 2143)])
def test_step_response_grid_ends_at_horizon(dt, intervals):
    # A step that does not divide the horizon still gives
    # round(horizon / dt) equal intervals ending at the horizon, and the
    # exact first-order step 1 - exp(-t) at every sample.
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    t, y = ol.step_response(sys, 15.0, dt)
    assert t.size == intervals + 1 and t[0] == 0.0 and t[-1] == 15.0
    assert np.allclose(np.diff(t), 15.0 / intervals, rtol=1e-12, atol=0.0)
    assert np.abs(y[:, 0, 0] - (1.0 - np.exp(-t))).max() < 1e-12


def test_step_response_grid_bound():
    # Refused on horizon / dt alone: a grid of 1e15 steps would fail to
    # allocate with MemoryError, not ValueError.
    sys = ol.StateSpace(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))
    with pytest.raises(ValueError, match="exceeds"):
        ol.step_response(sys, 1.0e12, 1.0e-3)


def test_step_response_settles_to_dc_gain(plant, lqr_design):
    closed = ol.StateSpace(plant.a - plant.b @ lqr_design.k, plant.b, plant.c)
    t, y = ol.step_response(closed, 30.0, 0.01)
    dc = -closed.c @ np.linalg.solve(closed.a, closed.b)
    assert np.allclose(y[-1], dc, atol=1e-8)


def test_step_response_matches_per_input_zero_state():
    # Independent oracle: column j of the batched step response is the
    # zero-state response to a unit step on input j alone, read through C.
    # Checked on the default scenario's design's step-response loops: the
    # 4-state LQR loop and the 8-state separation loop.
    d = ol.synthesize_for_scenario(ol.Scenario())
    for sys in d.step_loops.values():
        t, y = ol.step_response(sys, 15.0, 0.01)
        assert y.shape == (t.size, sys.n_outputs, sys.n_inputs)
        for j in range(sys.n_inputs):
            u = np.zeros((t.size, sys.n_inputs))
            u[:, j] = 1.0
            ref = ol.zero_state_response(sys, u, t) @ sys.c.T
            peak = np.abs(ref).max()
            assert peak > 0.0
            assert np.abs(y[:, :, j] - ref).max() <= 1e-13 * peak
