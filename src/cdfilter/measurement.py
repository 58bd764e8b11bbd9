"""Square-root cubature measurement update, shared by both filters.

One joint QR of the stacked (measurement | state) deviation matrix yields
the innovation factor, cross term, and posterior factor at once, without
ever forming a covariance.  The posterior factor comes out lower
triangular with non-negative diagonal (canonical form), and the update
tolerates a rank-deficient prior factor as long as the measurement noise
factor has full rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInnovationCovariance, NonFiniteBelief
from .linalg import solve_lower_right, tria
from .models import GaussianBelief, MeasurementModel


@dataclass(frozen=True)
class UpdateDiagnostics:
    """What one update saw.  ``innovation_factor`` is the lower-triangular
    factor of the innovation covariance, ``Pyy = T11 @ T11.T``: the
    predicted measurements' cubature covariance plus R."""

    predicted_measurement: np.ndarray
    innovation: np.ndarray
    gain: np.ndarray
    innovation_factor: np.ndarray


def _wrap(angles: np.ndarray) -> np.ndarray:
    wrapped = -(np.mod(-angles + np.pi, 2.0 * np.pi) - np.pi)
    # np.mod rounds a tiny negative remainder up to 2 pi, which lands on -pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def wrap_angles(residual: np.ndarray, flags) -> np.ndarray:
    """Wrap flagged components to (-pi, pi]."""
    if flags is None:
        return residual
    out = residual.copy()
    out[flags] = _wrap(out[flags])
    return out


def _straddling_rows(Y: np.ndarray, flags) -> np.ndarray:
    """Indices of the flagged rows of ``Y`` (angles, one column per cubature
    point) whose predictions span more than pi: these straddle the cut at
    +/-pi, where a plain mean lands on the far side of the circle."""
    if flags is None:
        return np.empty(0, dtype=np.intp)
    rows = np.flatnonzero(flags)
    angles = Y[rows]
    return rows[angles.max(axis=1) - angles.min(axis=1) > np.pi]


def measurement_update(belief: GaussianBelief, mm: MeasurementModel, y: np.ndarray):
    """Condition a belief on one measurement ``y``.

    Returns ``(posterior_belief, UpdateDiagnostics)``; a non-finite entry
    in ``y`` is a ``ValueError``.  A non-finite prior mean or factor, or
    one so large that a cubature point's predicted measurement overflows,
    raises ``NonFiniteBelief``.

    A flagged (angle) component whose cubature predictions span more than
    pi is moved onto the branch of the first point's prediction before
    the mean and the deviations are taken, and its predicted measurement
    is wrapped back to (-pi, pi].  Below that span the arithmetic is the
    plain mean.
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError(f"measurement has a non-finite entry: {y}")
    d = belief.dim
    nz = mm.meas_dim
    n_pts = 2 * d
    mean, M = belief.mean, belief.factor
    if not (np.isfinite(mean).all() and np.isfinite(M).all()):
        raise NonFiniteBelief("prior mean or factor has a non-finite entry")

    spread = np.sqrt(d) * np.concatenate([M, -M], axis=1)
    pts = mean[:, None] + spread
    w = 1.0 / np.sqrt(n_pts)
    # [[yc, R], [xc, 0]] with yc, xc the weighted measurement and state
    # deviations; an overflow shows as a non-finite entry, not a warning
    stacked = np.zeros((nz + d, n_pts + nz))
    with np.errstate(over="ignore", invalid="ignore"):
        # one point per row in Fortran order: Y is (nz, 2d) and C-ordered,
        # so each component's mean sums along contiguous memory
        Y = np.array([mm.h(p) for p in pts.T], order="F").T
        cut = _straddling_rows(Y, mm.residual_wrap)
        if cut.size:
            ref = Y[cut, :1]
            Y[cut] = ref + _wrap(Y[cut] - ref)
        y_pred = Y.sum(axis=1) / n_pts
        stacked[:nz, :n_pts] = w * (Y - y_pred[:, None])
    if cut.size:
        y_pred[cut] = _wrap(y_pred[cut])
    stacked[:nz, n_pts:] = mm.noise_factor
    stacked[nz:, :n_pts] = w * spread
    if not np.isfinite(stacked).all():
        raise NonFiniteBelief("prior spread gives a non-finite predicted measurement")
    T = tria(stacked)
    T11 = T[:nz, :nz]
    T21 = T[nz:, :nz]
    T22 = T[nz:, nz:]
    if (T11.diagonal() == 0.0).any():
        raise DegenerateInnovationCovariance(
            "innovation factor has a zero diagonal entry")
    # gain solves W @ T11 = T21 with T11 lower triangular
    gain = solve_lower_right(T11, T21)
    innovation = wrap_angles(y - y_pred, mm.residual_wrap)
    posterior = GaussianBelief(mean=mean + gain @ innovation, factor=T22,
                               time=belief.time)
    return posterior, UpdateDiagnostics(predicted_measurement=y_pred,
                                        innovation=innovation, gain=gain,
                                        innovation_factor=T11)
