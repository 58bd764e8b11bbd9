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
    predicted_measurement: np.ndarray
    innovation: np.ndarray
    gain: np.ndarray


def wrap_angles(residual: np.ndarray, flags) -> np.ndarray:
    """Wrap flagged components to (-pi, pi]."""
    if flags is None:
        return residual
    out = residual.copy()
    wrapped = -(np.mod(-out[flags] + np.pi, 2.0 * np.pi) - np.pi)
    # np.mod rounds a tiny negative remainder up to 2 pi, which lands on -pi
    out[flags] = np.where(wrapped == -np.pi, np.pi, wrapped)
    return out


def measurement_update(belief: GaussianBelief, mm: MeasurementModel, y: np.ndarray):
    """Condition a belief on one measurement ``y``.

    Returns ``(posterior_belief, UpdateDiagnostics)``; a non-finite entry
    in ``y`` is a ``ValueError``.  A non-finite prior mean or factor, or
    one so large that a cubature point's predicted measurement overflows,
    raises ``NonFiniteBelief``.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError(f"measurement has a non-finite entry: {y}")
    d = belief.dim
    nz = mm.meas_dim
    mean, M = belief.mean, belief.factor
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(M))):
        raise NonFiniteBelief("prior mean or factor has a non-finite entry")

    spread = np.sqrt(d) * np.concatenate([M, -M], axis=1)
    pts = mean[:, None] + spread
    Y = np.empty((nz, 2 * d))
    w = 1.0 / np.sqrt(2 * d)
    # [[yc, R], [xc, 0]] with yc, xc the weighted measurement and state
    # deviations; an overflow shows as a non-finite entry, not a warning
    stacked = np.zeros((nz + d, 2 * d + nz))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(2 * d):
            Y[:, i] = mm.h(pts[:, i])
        y_pred = Y.mean(axis=1)
        stacked[:nz, :2 * d] = w * (Y - y_pred[:, None])
    stacked[:nz, 2 * d:] = mm.noise_factor
    stacked[nz:, :2 * d] = w * spread
    if not np.all(np.isfinite(stacked)):
        raise NonFiniteBelief("prior spread gives a non-finite predicted measurement")
    T = tria(stacked)
    T11 = T[:nz, :nz]
    T21 = T[nz:, :nz]
    T22 = T[nz:, nz:]
    if np.any(np.diag(T11) == 0.0):
        raise DegenerateInnovationCovariance(
            "innovation factor has a zero diagonal entry")
    # gain solves W @ T11 = T21 with T11 lower triangular
    gain = solve_lower_right(T11, T21)
    innovation = wrap_angles(y - y_pred, mm.residual_wrap)
    posterior = GaussianBelief(mean=mean + gain @ innovation, factor=T22,
                               time=belief.time)
    return posterior, UpdateDiagnostics(predicted_measurement=y_pred,
                                        innovation=innovation, gain=gain)
