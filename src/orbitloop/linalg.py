"""Dense real linear algebra for small matrices (n <= ~16).

Factorizations are delegated to LAPACK through numpy/scipy (eigenvalues via
Hessenberg reduction + shifted QR, rank via SVD, expm via scaling-and-squaring
with a Pade kernel, the Lyapunov solve via Bartels-Stewart).  scipy is
imported only when expm or solve_lyapunov runs, so of the CLI commands only
`response` loads it.  All entry points validate that inputs are finite real
matrices so NaN/Inf never propagate silently.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionError,
    NoUniqueSolutionError,
    NumericalError,
)

__all__ = [
    "as_matrix",
    "conjugate_groups",
    "eigenvalues",
    "rank",
    "expm",
    "solve_lyapunov",
    "sorted_spectrum",
    "spectra_close",
]

# Beyond this condition number a matrix counts as numerically singular.
_MAX_COND = 1e13


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float64 array with finite entries.

    Raises DimensionError for non-2-D input and ValueError for NaN/Inf
    entries.  This is the constructor boundary for every matrix-valued
    argument in the package.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _square(m, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    return a


def conjugate_groups(values) -> list[tuple[complex, ...]]:
    """Split a set closed under conjugation into real singletons and
    (+imag, -imag) pairs, ordered by descending real part, ties by
    descending |imag| and then imag.  A value x is real when |imag x| <=
    1e-9 |x|; any other x pairs with the value nearest its conjugate, which
    must lie within 1e-9 |x| of it.  Raises ValueError for a value that is
    not finite or has no partner.
    """
    v = np.ravel(np.asarray(values, dtype=complex))
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    vals = [complex(x) for x in v]
    tol = 1e-9
    groups = []
    while vals:
        x = vals.pop(0)
        if abs(x.imag) <= tol * abs(x):
            groups.append((x,))
            continue
        y = min(vals, key=lambda w: abs(w - x.conjugate()), default=None)
        if y is None or abs(y - x.conjugate()) > tol * abs(x):
            raise ValueError(f"{x} is neither real nor paired with its conjugate")
        vals.remove(y)
        groups.append((x, y) if x.imag > 0 else (y, x))
    return sorted(groups, key=lambda g: (-g[0].real, -abs(g[0].imag), -g[0].imag))


def sorted_spectrum(values) -> np.ndarray:
    """Order a set closed under conjugation by its conjugate groups
    (conjugate_groups), writing each pair as +imag then -imag."""
    return np.array([x for g in conjugate_groups(values) for x in g], dtype=complex)


def spectra_close(a, b, tol: float = 1e-8) -> bool:
    """Multiset comparison of two eigenvalue collections: greedy nearest
    matching with every pair within tol.  Robust where plain sorting is not,
    i.e. for repeated eigenvalues perturbed at roundoff level."""
    av = np.asarray(a, dtype=complex).ravel()
    bv = list(np.asarray(b, dtype=complex).ravel())
    if av.size != len(bv):
        return False
    for x in av:
        j = min(range(len(bv)), key=lambda i: abs(bv[i] - x), default=None)
        if j is None or abs(bv[j] - x) > tol:
            return False
        bv.pop(j)
    return True


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a square matrix, with multiplicity.

    Eigenvalues within 1e-13 * max(1, ||m||) of the real axis are snapped
    onto it; LAPACK returns the others of a real matrix as exact conjugate
    pairs.  Returns a complex array in sorted_spectrum order.
    """
    a = _square(m)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR sweep did not converge
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    near_real = np.abs(lam.imag) <= 1e-13 * max(1.0, float(np.linalg.norm(a, 2)))
    lam[near_real] = lam[near_real].real
    return sorted_spectrum(lam)


def rank(m, tol: float | None = None) -> int:
    """Numerical rank via singular values: those above tol, by default
    sigma_max * max(rows, cols) * eps, the standard SVD rank threshold."""
    return int(np.linalg.matrix_rank(as_matrix(m), tol))


def expm(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of m*t (scaling-and-squaring, Pade kernel).

    Raises NumericalError if the result overflows double precision.
    """
    a = _square(m)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    import scipy.linalg

    with np.errstate(over="ignore", invalid="ignore"):
        phi = scipy.linalg.expm(a * t)
    if not np.isfinite(phi).all():
        raise NumericalError("matrix exponential overflowed for this m*t")
    return phi


def solve_lyapunov(a, q) -> np.ndarray:
    """Solve the continuous Lyapunov equation a'P + P a + q = 0.

    Bartels-Stewart Schur solve (scipy); the returned P is explicitly
    symmetrized.  Raises NoUniqueSolutionError when some pair of eigenvalues
    of `a` sums to (numerically) zero, the case in which the equation has no
    unique solution.
    """
    am = _square(a, "a")
    qm = _square(q, "q")
    n = am.shape[0]
    if qm.shape[0] != n:
        raise DimensionError(f"q must be {n}x{n}, got {qm.shape}")
    lam = np.linalg.eigvals(am)
    scale = max(1.0, float(np.linalg.norm(am, 2)))
    sums = lam[:, None] + lam[None, :]
    if np.min(np.abs(sums)) <= 1e-9 * scale:
        raise NoUniqueSolutionError(
            "eigenvalue pair of `a` sums to zero; Lyapunov equation has no "
            "unique solution"
        )
    import scipy.linalg

    p = scipy.linalg.solve_continuous_lyapunov(am.T, -qm)
    return 0.5 * (p + p.T)
