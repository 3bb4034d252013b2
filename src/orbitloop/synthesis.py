"""Controller and observer synthesis.

LQR through the continuous algebraic Riccati equation, Ackermann pole
placement on block-decoupled channels, dual-placement observer gains, the
separation-principle augmented loop in both coordinate systems, and a
bisection gamma-iteration for the state-feedback H-infinity Riccati
equation.  Both Riccati equations are solved from the stable eigenvectors
of their Hamiltonian matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import (
    DimensionError,
    GammaRangeError,
    NumericalError,
    SingularMatrixError,
    SynthesisError,
    UndefinedNormError,
)
from .ltisys import (StateSpace, Stability, _krylov, frequency_response,
                     stability_class)

__all__ = [
    "Weights",
    "SynthesisResult",
    "SeparationLoop",
    "solve_care",
    "lqr_gain",
    "place_poles",
    "observer_gain",
    "assemble_separation_loop",
    "solve_hinf_riccati",
    "hinf_state_feedback",
    "hinf_norm",
    "lqr_loop_transfer",
    "observer_compensator",
    "weighted_performance_loop",
]


@dataclass(frozen=True)
class Weights:
    """Quadratic cost weights: q (state penalty, PSD) and r (input penalty, PD)."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = linalg.as_matrix(self.q, "q").copy()
        r = linalg.as_matrix(self.r, "r").copy()
        for name, m in (("q", q), ("r", r)):
            if m.shape[0] != m.shape[1]:
                raise DimensionError(f"{name} must be square")
            if not np.allclose(m, m.T, atol=1e-12 * max(1.0, np.abs(m).max())):
                raise ValueError(f"{name} must be symmetric")
        if np.linalg.eigvalsh(q).min() < -1e-10:
            raise ValueError("q must be positive semidefinite")
        if np.linalg.eigvalsh(r).min() <= 0:
            raise ValueError("r must be positive definite")
        q.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def identity(cls, n_states: int, n_inputs: int) -> "Weights":
        return cls(np.eye(n_states), np.eye(n_inputs))

    def __eq__(self, other):
        if not isinstance(other, Weights):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.r, other.r)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run: Riccati solution p, feedback gain k,
    optional attained H-infinity bound gamma, and the closed-loop spectrum
    of a - b k."""

    p: np.ndarray
    k: np.ndarray
    closed_loop_spectrum: np.ndarray
    gamma: float | None = None


class SeparationLoop(NamedTuple):
    """The 2n x 2n observer-based closed loop in both coordinate systems:
    error_coords is block upper-triangular in [x; e], estimate_coords is the
    equivalent [x; xhat] realization.  Both share one spectrum."""

    error_coords: np.ndarray
    estimate_coords: np.ndarray


def _is_hurwitz(m: np.ndarray) -> bool:
    return stability_class(m) is Stability.ASYMPTOTICALLY_STABLE


def _state_components(a: np.ndarray) -> list[list[int]]:
    """Connected components of the state-coupling graph of `a`."""
    n = a.shape[0]
    scale = max(1.0, np.abs(a).max())
    adj = np.abs(a) > 1e-14 * scale
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and (adj[i, j] or adj[j, i]):
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def _split_conjugate_groups(units, sizes: list[int]) -> list[np.ndarray]:
    """Deal conjugate groups (linalg.conjugate_groups) to channels of the
    given sizes: the first assignment in lexicographic order that fills
    every channel exactly."""

    def assign(i, room):
        if i == len(units):
            return [[] for _ in room]
        for k in range(len(room)):
            if len(units[i]) <= room[k]:
                left = room[:k] + [room[k] - len(units[i])] + room[k + 1:]
                groups = assign(i + 1, left)
                if groups is not None:
                    groups[k][:0] = units[i]
                    return groups
        return None

    groups = assign(0, list(sizes))
    if groups is None:
        raise SynthesisError("poles do not split into conjugate-closed channels")
    return [np.array(g) for g in groups]


def _ackermann(a: np.ndarray, b: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Single-input Ackermann gain for the (sub)system (a, b)."""
    n = a.shape[0]
    ctrb = _krylov(a, b.reshape(-1, 1))
    s = np.linalg.svd(ctrb, compute_uv=False)
    if s[-1] <= n * np.finfo(float).eps * s[0] * 1e3:
        raise SynthesisError("channel is uncontrollable")
    pa = np.eye(n, dtype=complex)
    for lam in poles:
        pa = pa @ (a - lam * np.eye(n))
    if np.abs(pa.imag).max() > 1e-8 * max(1.0, np.abs(pa.real).max()):
        raise SynthesisError("pole product is not real; poles not conjugate-closed")
    en = np.zeros(n)
    en[-1] = 1.0
    k = np.linalg.solve(ctrb.T, en) @ pa.real
    if not np.isfinite(k).all():
        raise SynthesisError("gain is not finite; desired poles too far out")
    return k


def place_poles(a, b, desired) -> np.ndarray:
    """State-feedback gain K with eig(a - b K) at the desired locations.

    Supports single-input systems via Ackermann's formula and systems that
    decouple into independent single-input channels (such as the planar
    plant, whose x and y axes are separate two-state channels).  For the
    decoupled case the real poles and conjugate pairs of the desired set,
    in linalg.sorted_spectrum order, are dealt to the channels (ordered by
    lowest state index) in the first way that splits no pair.
    """
    am = linalg.as_matrix(a, "a")
    if am.shape[0] != am.shape[1]:
        raise DimensionError("a must be square")
    bm = linalg.as_matrix(b, "b")
    if bm.shape[0] != am.shape[0]:
        raise DimensionError("b must have one row per state")
    n, m = am.shape[0], bm.shape[1]
    poles = np.atleast_1d(np.asarray(desired, dtype=complex))
    if poles.size != n:
        raise ValueError(f"need {n} desired poles, got {poles.size}")
    units = linalg.conjugate_groups(poles)  # ValueError unless conjugate-closed

    if m == 1:
        return _ackermann(am, bm, poles).reshape(1, n)

    comps = _state_components(am)
    scale = max(1.0, np.abs(bm).max())
    k = np.zeros((m, n))
    used_inputs = set()
    groups = _split_conjugate_groups(units, [len(c) for c in comps])
    for comp, sub_poles in zip(comps, groups):
        rows = np.array(comp)
        touching = [
            j for j in range(m) if np.any(np.abs(bm[rows, j]) > 1e-14 * scale)
        ]
        if len(touching) != 1:
            raise SynthesisError(
                "pole placement supports only systems that decouple into "
                "single-input channels"
            )
        j = touching[0]
        if j in used_inputs:
            raise SynthesisError("input drives more than one channel")
        used_inputs.add(j)
        kc = _ackermann(am[np.ix_(rows, rows)], bm[rows, j], sub_poles)
        k[j, rows] = kc
    return k


def observer_gain(a, c, base_poles, speed_factor: float = 4.0) -> np.ndarray:
    """Full-order observer gain L with eig(a - L c) at speed_factor times
    the base poles, placed per channel through duality.

    Speed factors outside [3, 5] are allowed but draw a warning: slower
    observers degrade convergence, faster ones amplify measurement noise.
    """
    if not 3.0 <= speed_factor <= 5.0:
        warnings.warn(
            f"observer speed factor {speed_factor} outside the usual [3, 5] band",
            stacklevel=2,
        )
    am = linalg.as_matrix(a, "a")
    cm = linalg.as_matrix(c, "c")
    if cm.shape[1] != am.shape[0]:
        raise DimensionError("c must have one column per state")
    poles = speed_factor * np.atleast_1d(np.asarray(base_poles, dtype=complex))
    try:
        kt = place_poles(am.T, cm.T, poles)
    except SynthesisError as exc:
        raise SynthesisError(f"observer placement failed: {exc}") from exc
    l = kt.T
    if not _is_hurwitz(am - l @ cm):
        raise SynthesisError("observer placement failed to stabilize a - L c")
    return l


def _stabilizing_riccati(a: np.ndarray, s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P S P + Q = 0.

    The n stable eigenvectors [U1; U2] of the Hamiltonian [[A, -S], [-Q, -A']]
    span the graph of P, so P = U2 U1^-1 (Potter 1966; Laub 1979).  Raises
    SynthesisError when the Hamiltonian does not have exactly n stable
    eigenvalues or U1 is singular.
    """
    n = a.shape[0]
    try:
        lam, vecs = np.linalg.eig(np.block([[a, -s], [-q, -a.T]]))
        stable = lam.real < 0
        if np.count_nonzero(stable) != n:
            raise SynthesisError("Hamiltonian has imaginary-axis eigenvalues")
        u = vecs[:, stable]
        p = np.linalg.solve(u[:n].T, u[n:].T).T.real
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"no stabilizing Riccati solution: {exc}") from exc
    if not np.isfinite(p).all():
        raise SynthesisError("no stabilizing Riccati solution (non-finite P)")
    return 0.5 * (p + p.T)


def _plant_matrices(a, b, w: Weights) -> tuple[np.ndarray, np.ndarray]:
    am = linalg.as_matrix(a, "a")
    bm = linalg.as_matrix(b, "b")
    if am.shape[0] != am.shape[1] or bm.shape[0] != am.shape[0]:
        raise DimensionError("inconsistent (a, b) dimensions")
    if w.q.shape[0] != am.shape[0] or w.r.shape[0] != bm.shape[1]:
        raise DimensionError("weight dimensions do not match the plant")
    return am, bm


def solve_care(a, b, w: Weights) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    The returned P is symmetric PSD with residual below 1e-8 * max(1, ||Q||).
    Raises SynthesisError when the Hamiltonian yields no stabilizing
    solution and NumericalError when the residual bound is not met.
    """
    am, bm = _plant_matrices(a, b, w)
    p = _stabilizing_riccati(am, bm @ np.linalg.solve(w.r, bm.T), w.q)
    residual = am.T @ p + p @ am - p @ bm @ np.linalg.solve(w.r, bm.T @ p) + w.q
    if np.linalg.norm(residual) > 1e-8 * max(1.0, np.linalg.norm(w.q)):
        raise NumericalError("Riccati solution did not meet the residual bound")
    return p


def lqr_gain(a, b, w: Weights) -> SynthesisResult:
    """Optimal state-feedback gain K = R^-1 B' P from the stabilizing CARE
    solution; the closed loop a - b K is Hurwitz by construction."""
    p = solve_care(a, b, w)
    am = linalg.as_matrix(a)
    bm = linalg.as_matrix(b)
    k = np.linalg.solve(w.r, bm.T @ p)
    spectrum = linalg.eigenvalues(am - bm @ k)
    return SynthesisResult(p=p, k=k, closed_loop_spectrum=spectrum)


def assemble_separation_loop(a, b, c, k, l) -> SeparationLoop:
    """Augmented 2n x 2n closed-loop matrices of the observer-based loop.

    error_coords uses [x; e] and is block upper-triangular with diagonal
    blocks a - b k and a - l c; estimate_coords uses [x; xhat].  The two are
    similar, so their spectra coincide: the union of controller and observer
    spectra.
    """
    am = linalg.as_matrix(a, "a")
    bm = linalg.as_matrix(b, "b")
    cm = linalg.as_matrix(c, "c")
    km = linalg.as_matrix(k, "k")
    lm = linalg.as_matrix(l, "l")
    n = am.shape[0]
    if km.shape != (bm.shape[1], n) or lm.shape != (n, cm.shape[0]):
        raise DimensionError("gain dimensions do not match the plant")
    bk = bm @ km
    lc = lm @ cm
    xe = np.block([[am - bk, bk], [np.zeros((n, n)), am - lc]])
    xh = np.block([[am, -bk], [lc, am - bk - lc]])
    return SeparationLoop(error_coords=xe, estimate_coords=xh)


def solve_hinf_riccati(a, b, g, w: Weights, gamma: float) -> np.ndarray:
    """Stabilizing solution of the state-feedback H-infinity Riccati equation

        A'P + PA - P (B R^-1 B' - gamma^-2 G G') P + Q = 0

    for a fixed attenuation level gamma.  Raises SynthesisError when no
    stabilizing PSD solution exists at this gamma.
    """
    am, bm = _plant_matrices(a, b, w)
    gm = linalg.as_matrix(g, "g")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    m = bm @ np.linalg.solve(w.r, bm.T) - (gm @ gm.T) / gamma**2
    p = _stabilizing_riccati(am, m, w.q)
    if not _is_hurwitz(am - m @ p):
        raise SynthesisError(f"gamma={gamma} is infeasible (A - M P not Hurwitz)")
    residual = am.T @ p + p @ am - p @ m @ p + w.q
    if np.linalg.norm(residual) > 1e-7 * max(1.0, np.linalg.norm(w.q)):
        raise SynthesisError(f"gamma={gamma} is infeasible (residual not met)")
    if np.linalg.eigvalsh(p).min() < -1e-9 * max(1.0, np.linalg.norm(p)):
        raise SynthesisError(f"gamma={gamma} is infeasible (indefinite solution)")
    k = np.linalg.solve(w.r, bm.T @ p)
    if not _is_hurwitz(am - bm @ k):
        raise SynthesisError(f"gamma={gamma} is infeasible (closed loop not Hurwitz)")
    return p


def hinf_state_feedback(a, b, g, w: Weights, gamma_range) -> SynthesisResult:
    """Smallest feasible attenuation level in [gamma_lo, gamma_hi] located by
    bisection (relative gap 1e-3) over the fixed-gamma Riccati solve, plus
    the corresponding gain K = R^-1 B' P.

    Raises GammaRangeError when gamma_hi itself is infeasible.
    """
    gamma_lo, gamma_hi = float(gamma_range[0]), float(gamma_range[1])
    if not 0 < gamma_lo <= gamma_hi:
        raise ValueError("gamma_range must satisfy 0 < lo <= hi")

    def attempt(gamma):
        try:
            return solve_hinf_riccati(a, b, g, w, gamma)
        except SynthesisError:
            return None

    p_hi = attempt(gamma_hi)
    if p_hi is None:
        raise GammaRangeError(f"gamma_hi={gamma_hi} is infeasible")
    p_lo = attempt(gamma_lo)
    if p_lo is not None:
        gamma_hi, p_hi = gamma_lo, p_lo
    else:
        while (gamma_hi - gamma_lo) > 1e-3 * gamma_hi:
            mid = 0.5 * (gamma_lo + gamma_hi)
            p_mid = attempt(mid)
            if p_mid is None:
                gamma_lo = mid
            else:
                gamma_hi, p_hi = mid, p_mid
    bm = linalg.as_matrix(b)
    k = np.linalg.solve(w.r, bm.T @ p_hi)
    spectrum = linalg.eigenvalues(linalg.as_matrix(a) - bm @ k)
    return SynthesisResult(
        p=p_hi, k=k, closed_loop_spectrum=spectrum, gamma=gamma_hi
    )


def hinf_norm(sys: StateSpace, grid=None) -> float:
    """Grid lower bound on the H-infinity norm of a stable system: the
    maximum over the frequency grid (checked as in frequency_response) of
    the largest singular value of the response.  Default grid: 2000
    log-spaced points spanning six decades around the plant's eigenfrequency
    scale.  Raises SingularMatrixError at a numerically singular point."""
    if stability_class(sys.a) is not Stability.ASYMPTOTICALLY_STABLE:
        raise UndefinedNormError("H-infinity norm is undefined for unstable systems")
    if grid is None:
        lam = linalg.eigenvalues(sys.a)
        mags = np.abs(lam)
        center = float(np.median(mags[mags > 0])) if np.any(mags > 0) else 1.0
        grid = np.logspace(np.log10(center) - 3, np.log10(center) + 3, 2000)
    h = frequency_response(sys, grid)
    if np.isnan(h).any():
        raise SingularMatrixError("resolvent is numerically singular on the grid")
    return float(np.linalg.svd(h, compute_uv=False)[:, 0].max())


def sqrtm_psd(m) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition (negative rounding
    noise clipped at zero)."""
    mm = linalg.as_matrix(m)
    vals, vecs = np.linalg.eigh(0.5 * (mm + mm.T))
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def weighted_performance_loop(a, b, g, w: Weights, k) -> StateSpace:
    """Closed loop from disturbance w to the weighted output
    z = [Q^1/2 x; R^1/2 u] under u = -K x; used to verify attained
    H-infinity bounds by frequency sweep."""
    am = linalg.as_matrix(a)
    bm = linalg.as_matrix(b)
    gm = linalg.as_matrix(g)
    km = linalg.as_matrix(k)
    cz = np.vstack([sqrtm_psd(w.q), -sqrtm_psd(w.r) @ km])
    return StateSpace(am - bm @ km, gm, cz)


def lqr_loop_transfer(plant: StateSpace, k) -> StateSpace:
    """Loop transfer K (sI - A)^-1 B broken at the plant input."""
    return StateSpace(plant.a, plant.b, linalg.as_matrix(k))


def observer_compensator(plant: StateSpace, k, l) -> StateSpace:
    """Observer-based compensator realization (A - BK - LC, L, K, 0) from
    measured output to control, for loop analysis at the plant input."""
    km = linalg.as_matrix(k)
    lm = linalg.as_matrix(l)
    a = plant.a - plant.b @ km - lm @ plant.c
    return StateSpace(a, lm, km)
