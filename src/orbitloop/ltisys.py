"""LTI system representation and analysis.

Kalman rank-test matrices, spectral stability classification, resolvent
evaluation, frequency response, step responses and the zero-input /
zero-state decomposition of the forced linear response, all from one
zero-order-hold recursion through the augmented matrix exponential.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, SingularMatrixError

__all__ = [
    "StateSpace",
    "Stability",
    "controllability_matrix",
    "observability_matrix",
    "stability_class",
    "spectrum_stability",
    "transfer_eval",
    "frequency_response",
    "default_frequency_grid",
    "zero_input_response",
    "zero_state_response",
    "step_response",
    "check_grid",
    "uniform_grid",
    "MAX_GRID_STEPS",
]

# Most steps any sampling grid may hold: 25x the default 4000 s / 0.1 s
# output grid.  A finer grid is almost surely a mistyped step, and its
# arrays alone would take gigabytes.
MAX_GRID_STEPS = 1_000_000


def check_grid(span: float, step: float, name: str):
    """The one rule for every sampling grid: raise ValueError unless
    0 < step <= span and span/step steps stay within MAX_GRID_STEPS.  It
    reads span and step alone, so a refused grid allocates nothing."""
    if not 0 < step <= span:
        raise ValueError(f"{name} grid needs 0 < step <= span, got step "
                         f"{float(step)!r} and span {float(span)!r}")
    if not span / step <= MAX_GRID_STEPS:
        raise ValueError(f"{name} grid of {span / step:.3g} steps exceeds "
                         f"the limit of {MAX_GRID_STEPS}")


def uniform_grid(span: float, step: float) -> np.ndarray:
    """The sampling grid from 0 to span: round(span / step) equal
    intervals, ending exactly at span.  span and step must pass
    check_grid, which makes that at least one interval."""
    return np.linspace(0.0, span, int(round(span / step)) + 1)


@dataclass(frozen=True)
class StateSpace:
    """LTI triple (A, B, C), y = C x: n states, m inputs, p outputs."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        a = linalg.as_matrix(self.a, "a")
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"a must be square, got {a.shape}")
        b = linalg.as_matrix(self.b, "b")
        c = linalg.as_matrix(self.c, "c")
        if b.shape[0] != a.shape[0]:
            raise DimensionError("b must have one row per state")
        if c.shape[1] != a.shape[0]:
            raise DimensionError("c must have one column per state")
        # Copies, so freezing them leaves the caller's arrays writable.
        for name, val in (("a", a.copy()), ("b", b.copy()), ("c", c.copy())):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]


class Stability(enum.Enum):
    ASYMPTOTICALLY_STABLE = "asymptotically_stable"
    MARGINALLY_STABLE = "marginally_stable"
    UNSTABLE = "unstable"


def _krylov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block Krylov matrix [b, a b, ..., a^(n-1) b] of shape n x (n*m)."""
    n, m = b.shape
    blocks = np.empty((n, n * m))
    for i in range(n):
        blocks[:, i * m : (i + 1) * m] = b
        b = a @ b
    return blocks


def controllability_matrix(sys: StateSpace) -> np.ndarray:
    """Kalman block matrix [B, AB, ..., A^(n-1)B] of shape n x (n*m)."""
    return _krylov(sys.a, sys.b)


def observability_matrix(sys: StateSpace) -> np.ndarray:
    """Stacked matrix [C; CA; ...; CA^(n-1)] of shape (n*p) x n: the dual
    system's controllability matrix, transposed."""
    return _krylov(sys.a.T, sys.c.T).T


def stability_class(a) -> Stability:
    """Spectral stability classification of the matrix `a`.

    Eigenvalues within +-1e-9 * max(1, ||a||) of the imaginary axis count as
    on-axis; Jordan-block multiplicity on the axis is not analyzed, so the
    marginal verdict is spectral only.
    """
    am = linalg.as_matrix(a)
    return spectrum_stability(linalg.eigenvalues(am),
                              float(np.linalg.norm(am, 2)))


def spectrum_stability(lam, norm: float) -> Stability:
    """stability_class of a matrix from its eigenvalues `lam` and its
    spectral norm `norm`, for a caller that holds both already."""
    tol = 1e-9 * max(1.0, norm)
    if np.any(lam.real > tol):
        return Stability.UNSTABLE
    if np.all(lam.real < -tol):
        return Stability.ASYMPTOTICALLY_STABLE
    return Stability.MARGINALLY_STABLE


def _resolvent(sys: StateSpace, s: np.ndarray) -> np.ndarray:
    """H(s) = C (sI - A)^-1 B at every point of the 1-D complex array s,
    as a (k, p, m) array, by batched LAPACK calls.  A point where sI - A is
    numerically singular (condition number above linalg._MAX_COND, or a
    non-finite solve) holds NaN."""
    m = s[:, None, None] * np.eye(sys.n_states) - sys.a
    h = np.full((s.size, sys.n_outputs, sys.n_inputs), complex(np.nan, np.nan))
    # Exactly singular matrices fail the cond test and are never solved.
    idx = np.flatnonzero(np.linalg.cond(m) <= linalg._MAX_COND)
    x = np.linalg.solve(m[idx], sys.b.astype(complex))
    finite = np.isfinite(x).all(axis=(1, 2))
    h[idx[finite]] = sys.c @ x[finite]
    return h


def transfer_eval(sys: StateSpace, s: complex) -> np.ndarray:
    """H(s) = C (sI - A)^-1 B via a complex linear solve.

    Raises SingularMatrixError when s is at (or numerically near) an
    eigenvalue of A.
    """
    s = complex(s)
    if not np.isfinite(s):
        raise ValueError("s must be finite")
    h = _resolvent(sys, np.array([s]))[0]
    if np.isnan(h).any():
        raise SingularMatrixError(f"resolvent is numerically singular at s={s}")
    return h


def default_frequency_grid(n_points: int = 400, lo: float = 1e-5, hi: float = 1e1) -> np.ndarray:
    return np.logspace(np.log10(lo), np.log10(hi), n_points)


def frequency_response(sys: StateSpace, omegas) -> np.ndarray:
    """H(j*omega) on a strictly increasing positive grid, as a (k, p, m)
    complex array; near-singular points hold NaN instead of aborting the
    sweep."""
    w = np.asarray(omegas, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise DimensionError("omega grid must be a non-empty 1-D array")
    if not (np.all(w > 0) and np.all(np.diff(w) > 0)):
        raise ValueError("omega grid must be strictly increasing and positive")
    return _resolvent(sys, 1j * w)


def _check_tgrid(tgrid) -> np.ndarray:
    t = np.asarray(tgrid, dtype=float)
    if t.ndim != 1 or t.size < 1:
        raise DimensionError("time grid must be a non-empty 1-D array")
    if not np.isfinite(t).all() or np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be finite and strictly increasing")
    return t


def _zoh_response(a: np.ndarray, b: np.ndarray, x0: np.ndarray, u,
                  t: np.ndarray) -> np.ndarray:
    """States of x_{k+1} = Ad x_k + Bd u_k from x0 on the grid t, with
    (Ad, Bd) the zero-order-hold pair of each interval: one pair when the
    grid is uniform, one per interval otherwise.  x0 is an n-vector, or an
    n x m matrix whose columns advance together (each u_k then m x m)."""
    out = np.empty((t.size,) + x0.shape)
    out[0] = x0
    dts = np.diff(t)
    uniform = np.allclose(dts, dts[:1], rtol=1e-12, atol=0.0)
    for k in range(1, t.size):
        if k == 1 or not uniform:
            ad, bd = _discretize(a, b, float(dts[k - 1]))
        out[k] = ad @ out[k - 1] + bd @ u[k - 1]
    return out


def _discretize(a: np.ndarray, b: np.ndarray, dt: float):
    """Exact zero-order-hold pair (Ad, Bd) from the augmented exponential
    exp([[A, B], [0, 0]] dt); valid for singular A."""
    n, m = a.shape[0], b.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a
    aug[:n, n:] = b
    phi = linalg.expm(aug, dt)
    return phi[:n, :n], phi[:n, n:]


def zero_input_response(sys: StateSpace, x0, tgrid) -> np.ndarray:
    """x(t) = expm(A (t - t0)) x0 sampled on tgrid (shape len(t) x n), by
    the zero-order-hold recursion of zero_state_response with no input."""
    t = _check_tgrid(tgrid)
    x0v = np.asarray(x0, dtype=float).reshape(-1)
    if x0v.size != sys.n_states:
        raise DimensionError("x0 has wrong length")
    if not np.isfinite(x0v).all():
        raise ValueError("x0 must be finite")
    return _zoh_response(sys.a, np.zeros((x0v.size, 0)), x0v,
                         np.zeros((t.size, 0)), t)


def zero_state_response(sys: StateSpace, u, tgrid) -> np.ndarray:
    """Forced response from rest for a piecewise-constant input.

    u[k] is held constant on [t_k, t_{k+1}); the response is exact per
    interval via the zero-order-hold discretization.  u has shape
    len(t) x m (the final row is unused).
    """
    t = _check_tgrid(tgrid)
    um = np.asarray(u, dtype=float)
    if um.shape != (t.size, sys.n_inputs):
        raise DimensionError(f"u must be {t.size}x{sys.n_inputs}")
    if not np.isfinite(um).all():
        raise ValueError("u must be finite")
    return _zoh_response(sys.a, sys.b, np.zeros(sys.n_states), um, t)


def step_response(sys: StateSpace, horizon: float, dt: float):
    """Unit-step response per input channel, on uniform_grid(horizon, dt).

    Returns (t, y) with y of shape len(t) x p x m: y[:, :, j] is the output
    trajectory for a unit step applied on input j alone.  All m channels are
    the columns of one n x m state, X_{k+1} = Ad X_k + Bd, from X_0 = 0.
    """
    check_grid(horizon, dt, "step response")
    t = uniform_grid(horizon, dt)
    m = sys.n_inputs
    x = _zoh_response(sys.a, sys.b, np.zeros((sys.n_states, m)),
                      np.broadcast_to(np.eye(m), (t.size, m, m)), t)
    return t, sys.c @ x
