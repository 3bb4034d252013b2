import numpy as np
import pytest

import orbitloop as ol
from orbitloop import linalg
from conftest import W2


def test_eigenvalues_diagonal():
    lam = ol.eigenvalues(np.diag([2.0, 3.0]))
    assert np.allclose(lam, [3.0, 2.0])


def test_eigenvalues_rotation_generator():
    lam = ol.eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(lam, [1j, -1j], atol=1e-12)


def test_eigenvalues_orbital_channel():
    # Channel matrix [[0, 1], [w2, 0]]: roots of s^2 - w2.
    omega = np.sqrt(W2)
    lam = ol.eigenvalues(np.array([[0.0, 1.0], [W2, 0.0]]))
    assert np.allclose(lam, [omega, -omega], rtol=1e-9)
    assert abs(omega - 6.406462290270004e-4) < 1e-12


def test_eigenvalues_upper_triangular_exact():
    m = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    lam = ol.eigenvalues(m)
    assert np.allclose(sorted(lam.real), sorted(np.diag(m)), atol=1e-12)
    assert np.all(lam.imag == 0)


def test_eigenvalues_conjugate_symmetry_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = rng.standard_normal((6, 6))
        lam = ol.eigenvalues(m)
        assert linalg.spectra_close(lam, np.conj(lam), tol=1e-9)


def test_eigenvalues_residual_contract():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5))
    lam, vecs = np.linalg.eig(m)
    for value in ol.eigenvalues(m):
        # ||(m - lambda I) v|| small for the matching eigenvector
        idx = np.argmin(np.abs(lam - value))
        v = vecs[:, idx]
        assert np.linalg.norm(m @ v - value * v) <= 1e-8 * np.linalg.norm(m, 2)


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ol.DimensionError):
        ol.eigenvalues(np.ones((2, 3)))


def test_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        ol.eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ol.rank(np.array([[np.inf, 1.0]]))


def test_rank_identity_and_deficient():
    assert ol.rank(np.eye(4)) == 4
    assert ol.rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_invariances():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 6))
    r = ol.rank(m)
    perm = rng.permutation(4)
    assert ol.rank(m[perm]) == r
    t = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    assert ol.rank(t @ m) == r


def test_expm_zero_time_and_diagonal():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((4, 4))
    assert np.allclose(ol.expm(m, 0.0), np.eye(4), atol=1e-14)
    phi = ol.expm(np.diag([1.0, -2.0]), 1.0)
    assert np.allclose(phi, np.diag([np.e, np.exp(-2.0)]), rtol=1e-12)


def test_expm_nilpotent():
    phi = ol.expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    assert np.allclose(phi, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


def test_expm_inverse_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        m = rng.standard_normal((4, 4))
        m *= 5.0 / max(1.0, np.linalg.norm(m, 2))  # keep ||m t|| <= 10
        prod = ol.expm(m, 1.0) @ ol.expm(m, -1.0)
        assert np.allclose(prod, np.eye(4), atol=1e-10)


def test_expm_derivative_finite_difference():
    rng = np.random.default_rng(23)
    m = rng.standard_normal((3, 3))
    t, h = 0.7, 1e-5
    fd = (ol.expm(m, t + h) - ol.expm(m, t - h)) / (2 * h)
    assert np.allclose(fd, m @ ol.expm(m, t), atol=1e-8)


def test_expm_overflow():
    with pytest.raises(ol.NumericalError):
        ol.expm(np.array([[1.0e4]]), 1.0e3)
    with pytest.raises(ValueError):
        ol.expm(np.eye(2), np.nan)


def test_lyapunov_closed_forms():
    p = ol.solve_lyapunov(-np.eye(2), np.eye(2))
    assert np.allclose(p, 0.5 * np.eye(2), atol=1e-14)
    p = ol.solve_lyapunov(-np.diag([1.0, 2.0]), np.eye(2))
    assert np.allclose(p, np.diag([0.5, 0.25]), atol=1e-14)


def test_lyapunov_resonant_spectrum():
    with pytest.raises(ol.NoUniqueSolutionError):
        ol.solve_lyapunov(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_lyapunov_symmetry_and_residual():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) - 4 * np.eye(5)
        q0 = rng.standard_normal((5, 5))
        q = q0 @ q0.T + np.eye(5)
        p = ol.solve_lyapunov(a, q)
        assert np.allclose(p, p.T, atol=1e-12)
        resid = a.T @ p + p @ a + q
        assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(q)


def test_sorted_spectrum_ordering():
    values = [1 - 1j, 1 + 1j, -2.0, 3.0]
    out = linalg.sorted_spectrum(values)
    assert out[0] == 3.0
    assert out[1] == 1 + 1j
    assert out[2] == 1 - 1j
    assert out[3] == -2.0


def test_sorted_spectrum_keeps_pairs_together():
    # Two channel blocks one ulp apart: equal real parts and imaginary
    # parts that differ in the last bit.  Sorting value by value would
    # interleave them as [+, +, -, -]; each pair stays together instead.
    block = np.array([[0.0, 1.0], [-2.0, -1.0]])
    nudged = block.copy()
    nudged[1, 0] = np.nextafter(-2.0, -np.inf)
    m = np.zeros((4, 4))
    m[:2, :2] = block
    m[2:, 2:] = nudged
    lam = ol.eigenvalues(m)
    assert list(np.sign(lam.imag)) == [1, -1, 1, -1]
    assert lam[1] == np.conj(lam[0]) and lam[3] == np.conj(lam[2])
    assert lam[0].imag >= lam[2].imag


@pytest.mark.parametrize("values", [
    [-1 + 1j, -1 + 1j], [-1 + 1j, -1 - 1.1j], [-1 + 1j], [np.nan, -1.0],
    [np.inf, -1.0],
])
def test_conjugate_groups_rejects_unpaired_or_non_finite(values):
    with pytest.raises(ValueError):
        linalg.conjugate_groups(values)
