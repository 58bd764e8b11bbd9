"""Small dense linear-algebra primitives with pinned conventions.

Everything here works on small (d <= ~16) dense matrices.  The canonical
factor form used throughout the package is lower triangular with
non-negative diagonal; matrix square roots are non-unique, and fixing the
form makes regression values deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgetrf, dgetrs, dtrtrs

from .errors import NotPositiveSemiDefinite, NotSymmetric, SingularFactor
from .models import LinearSystem
from .ode import OdeProblem, SolverSpec, integrate


def cholesky_lower(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular Cholesky factor of a symmetric PSD matrix.

    Unlike ``np.linalg.cholesky`` this accepts singular PSD inputs (zero
    pivots are kept as zero rows/columns of the factor).

    Raises
    ------
    ValueError
        If ``sigma`` has a non-finite entry.
    NotSymmetric
        If ``sigma`` deviates from symmetry by more than 1e-10 relative.
    NotPositiveSemiDefinite
        If a pivot falls below ``-1e-12 * ||sigma||``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma)):
        raise ValueError(f"matrix to factor has a non-finite entry:\n{sigma}")
    d = sigma.shape[0]
    norm = np.linalg.norm(sigma)
    if np.linalg.norm(sigma - sigma.T) > 1e-10 * max(norm, 1e-300):
        raise NotSymmetric("matrix is not symmetric within 1e-10 relative")
    L = np.zeros_like(sigma)
    for j in range(d):
        pivot = sigma[j, j] - L[j, :j] @ L[j, :j]
        if pivot < -1e-12 * norm:
            raise NotPositiveSemiDefinite(f"negative pivot {pivot} at index {j}")
        L[j, j] = np.sqrt(max(pivot, 0.0))
        if L[j, j] > 0.0:
            L[j + 1:, j] = (sigma[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


@lru_cache(maxsize=None)
def _lower_mask(d: int) -> np.ndarray:
    """The (read-only) boolean mask ``np.tril`` builds on every call."""
    mask = np.tri(d, dtype=bool)
    mask.flags.writeable = False
    return mask


def tria(a: np.ndarray) -> np.ndarray:
    """Triangularize: lower-triangular L with L @ L.T == A @ A.T.

    Implemented as QR of ``A.T`` followed by a transpose; columns are
    sign-fixed so the diagonal is non-negative (canonical form).
    Requires at least as many columns as rows.  Calls LAPACK ``dgeqrf``
    directly, the routine behind ``np.linalg.qr(mode="r")``; R is the same
    to the bit, without the wrapper's per-call cost.
    """
    a = np.asarray(a, dtype=float)
    d, n = a.shape
    if n < d:
        raise ValueError(f"tria needs n >= d, got {d}x{n}")
    qr = dgeqrf(a.T)[0]
    L = np.where(_lower_mask(d), qr[:d, :d].T, 0.0)   # np.tril, to the bit
    # canonical form: negate the columns with a negative diagonal entry
    np.multiply(L, -1.0, out=L, where=L.diagonal() < 0.0)
    return L


def cubature_points(mean: np.ndarray, factor: np.ndarray):
    """Third-degree spherical-radial cubature points of N(mean, M M^T).

    Returns ``(points, offsets)``, both (2d, d) with one point per row:
    ``offsets`` holds sqrt(d) times each column of M, then the negated
    rows, and ``points = mean + offsets``.  Every point has weight 1/(2d).
    """
    spread = np.sqrt(mean.shape[0]) * factor.T
    offsets = np.concatenate([spread, -spread])
    return mean + offsets, offsets


def solve_transpose(m: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Solve ``X @ M.T = K`` for X, i.e. return ``K @ inv(M.T)``.

    Uses LU with partial pivoting, calling LAPACK ``dgetrf``/``dgetrs``
    directly; scipy's LU factor/solve wrappers call the same routines, so
    the result is the same to the bit, without their per-call checks.
    Raises :class:`SingularFactor` when a pivot is exactly zero or its
    magnitude drops below ``1e-14 * ||M||``, so that an adaptive
    integration step evaluating this can be rejected rather than
    producing garbage.  No warning is emitted first, so the contract
    holds under warnings-as-errors too.
    """
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    lu, piv, info = dgetrf(m)
    if info > 0 or abs(lu.diagonal()).min() < 1e-14 * np.linalg.norm(m):
        raise SingularFactor("factor M is numerically singular")
    # X M^T = K  <=>  M X^T = K^T
    return dgetrs(lu, piv, k.T)[0].T


def solve_lower_right(l: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``X @ L = B`` for X, with L lower triangular and nonsingular.

    Calls LAPACK ``dtrtrs`` directly, as ``L.T X.T = B.T``.  That is the
    call ``scipy.linalg.solve_triangular(L.T, B.T)`` makes when ``L.T`` is
    not Fortran-contiguous (L a block of a larger C-ordered array, as in
    ``measurement_update``), so X is the same to the bit there, without
    scipy's per-call checks.  The caller checks that L has no zero
    diagonal entry and that both inputs are finite.
    """
    return dtrtrs(l, b.T, lower=1, trans=1)[0].T


def lyapunov_oracle(sys: LinearSystem, x0, sigma0, t: float, tol: float = 1e-12):
    """Ground-truth moment propagation for a linear SDE.

    Integrates the mean equation dx/dt = J x and the Lyapunov equation
    dSigma/dt = J Sigma + Sigma J.T + K with the adaptive solver at
    tolerance ``tol``.  This is the independent oracle the level-set and
    Ito-Taylor updates are judged against; it never touches factor form.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    J, K = sys.J, sys.K
    d = sys.dim
    x0 = np.asarray(x0, dtype=float)
    sigma0 = np.asarray(sigma0, dtype=float)

    def rhs(_t, y):
        x = y[:d]
        s = y[d:].reshape(d, d)
        ds = J @ s + s @ J.T + K
        return np.concatenate([J @ x, ds.ravel()])

    y0 = np.concatenate([x0, sigma0.ravel()])
    problem = OdeProblem(dim=d + d * d, rhs=rhs, t0=0.0, t1=float(t), y0=y0)
    spec = SolverSpec(kind="adaptive-embedded", abs_tol=tol, rel_tol=tol)
    y1, _ = integrate(problem, spec)
    sigma = y1[d:].reshape(d, d)
    sigma = 0.5 * (sigma + sigma.T)
    return y1[:d], sigma
