"""Dense real linear algebra for small matrices (n <= ~16).

Factorizations are delegated to LAPACK through numpy/scipy (eigenvalues via
Hessenberg reduction + shifted QR, rank via SVD, expm via scaling-and-squaring
with a Pade kernel, the Lyapunov solve via Bartels-Stewart).  All entry
points validate that inputs are finite real matrices so NaN/Inf never
propagate silently.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    NoUniqueSolutionError,
    NumericalError,
    SingularMatrixError,
)

__all__ = [
    "as_matrix",
    "eigenvalues",
    "rank",
    "solve_linear",
    "expm",
    "solve_lyapunov",
    "sorted_spectrum",
    "spectra_close",
]


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


def sorted_spectrum(values) -> np.ndarray:
    """Order eigenvalues by descending real part, ties by descending
    imaginary part."""
    v = np.asarray(values, dtype=complex)
    order = np.lexsort((-v.imag, -v.real))
    return v[order]


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

    For real input the result is conjugate-symmetric: eigenvalues with
    tiny imaginary residue are snapped to the real axis and complex pairs
    are symmetrized.  Returns a complex array sorted by descending real
    part (ties by descending imaginary part).
    """
    a = _square(m)
    try:
        lam = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:  # QR sweep did not converge
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    scale = max(1.0, float(np.linalg.norm(a, 2)))
    lam = lam.copy()
    lam[np.abs(lam.imag) <= 1e-13 * scale] = lam[np.abs(lam.imag) <= 1e-13 * scale].real
    # Symmetrize conjugate pairs: match each +imag value with its closest
    # -imag partner and average the pair.
    pos = [i for i in range(lam.size) if lam[i].imag > 0]
    neg = [i for i in range(lam.size) if lam[i].imag < 0]
    for i in pos:
        if not neg:
            break
        j = min(neg, key=lambda k: abs(lam[k] - lam[i].conjugate()))
        mean = 0.5 * (lam[i] + lam[j].conjugate())
        lam[i] = mean
        lam[j] = mean.conjugate()
        neg.remove(j)
    return sorted_spectrum(lam)


def rank(m, tol: float | None = None) -> int:
    """Numerical rank via singular values.

    Default tolerance is max(rows, cols) * eps * sigma_max, the standard
    SVD rank threshold.
    """
    a = as_matrix(m)
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0:
        return 0
    if tol is None:
        tol = max(a.shape) * np.finfo(float).eps * float(s[0])
    return int(np.sum(s > tol))


def solve_linear(a, b) -> np.ndarray:
    """Solve a x = b with partial pivoting.

    Raises SingularMatrixError when `a` is numerically singular (exact zero
    pivot, or condition number beyond ~1e13 so the residual contract cannot
    hold).
    """
    am = _square(a, "a")
    bm = as_matrix(b, "b")
    if bm.shape[0] != am.shape[0]:
        raise DimensionError(
            f"rhs has {bm.shape[0]} rows, expected {am.shape[0]}"
        )
    try:
        x = np.linalg.solve(am, bm)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"singular coefficient matrix: {exc}") from exc
    if not np.isfinite(x).all() or np.linalg.cond(am) > 1e13:
        raise SingularMatrixError("coefficient matrix is numerically singular")
    return x


def expm(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of m*t (scaling-and-squaring, Pade kernel).

    Raises NumericalError if the result overflows double precision.
    """
    a = _square(m)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
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
    p = scipy.linalg.solve_continuous_lyapunov(am.T, -qm)
    return 0.5 * (p + p.T)
