"""Cubature-filter time-update with a strong order 1.5 Ito-Taylor map.

This is the baseline the level-set update is compared against.  It takes
the drift Jacobian (and, when the process noise excites curved directions,
the drift Hessians) from the model's analytic derivatives, and raises
``MissingDerivatives`` when the model lacks them.  Two variants:

* ``proper-it15``    - noise blocks rebuilt at every substep with the
  substep length; converges (weak order 2) to the exact moments.
* ``paper-faithful`` - noise blocks built once per measurement interval,
  at the first substep, with the full interval length; faster, but the
  m -> infinity limit is biased.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingDerivatives, check_count
from .linalg import tria
from .models import GaussianBelief, SdeModel

VARIANT_MODES = ("paper-faithful", "proper-it15")


@dataclass(frozen=True)
class CdckfVariant:
    mode: str = "paper-faithful"
    m: int = 1

    def __post_init__(self):
        if self.mode not in VARIANT_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        check_count("m", self.m, 1)


class It15Operators:
    """Drift-derivative operators entering the order-1.5 Ito-Taylor map.

    With J the drift Jacobian and H the stacked Hessians, the map is

        f_d(x) = x + dt * v + 0.5 * dt^2 * L0(v),
        L0(v)_i = (J v)_i + 0.5 * sum_pq K[p,q] * H[i][p,q],

    and the noise-coupling matrix is L(v) = J @ sqrt(K).  J and H come
    from the model's analytic ``drift_jacobian`` and ``drift_hessians``;
    the Hessians are needed only when K is nonzero.
    """

    def __init__(self, model: SdeModel):
        self.model = model
        if model.drift_jacobian is None:
            raise MissingDerivatives("drift_jacobian required")
        if model.drift_hessians is None and model.has_noise:
            raise MissingDerivatives("drift_hessians required when K is nonzero")

    def l0(self, x, t):
        """The scalar generator applied componentwise to the drift
        (autonomous drift: no explicit time-derivative term).

        ``x`` is one point (d,) or points as the rows of an (n, d) array.
        The model is called once per point; ``J v`` is one stacked matmul
        and the Hessian term one einsum over all points.
        """
        pts = x if x.ndim == 2 else x[np.newaxis, :]
        model = self.model
        v = np.array([model.drift(p, t) for p in pts])
        jac = np.array([model.drift_jacobian(p, t) for p in pts])
        out = np.matmul(jac, v[:, :, np.newaxis])[:, :, 0]
        if model.has_noise:
            hess = np.array([model.drift_hessians(p, t) for p in pts])
            out = out + 0.5 * np.einsum("pq,nipq->ni", model.noise_cov(), hess)
        return out if x.ndim == 2 else out[0]

    def lv(self, x, t):
        """Noise-coupling matrix with entries sum_k sqrtK[k,j] dv_i/dx_k."""
        return self.model.drift_jacobian(x, t) @ self.model.diffusion_factor


def it15_point_predict(x: np.ndarray, t: float, dt: float, ops: It15Operators):
    """Propagate points through the order-1.5 Taylor map.

    ``x`` is one point (d,) or points as the rows of an (n, d) array; the
    result has the same shape.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    # l0 evaluates the drift once more itself: two drift calls per point,
    # the count radar.csv's rhs_evals_mean and perfbench's mc-grid pin
    pts = x if x.ndim == 2 else x[np.newaxis, :]
    v = np.array([ops.model.drift(p, t) for p in pts])
    out = pts + dt * v + 0.5 * dt * dt * ops.l0(pts, t)
    return out if x.ndim == 2 else out[0]


def cdckf_time_update(belief: GaussianBelief, model: SdeModel,
                      variant: CdckfVariant, t1: float,
                      ops: It15Operators | None = None) -> GaussianBelief:
    """Cubature time-update over ``m`` equal substeps.

    Per substep: spread 2d cubature points mean +/- sqrt(d) * column,
    push them through the Taylor map in one call, average for the new
    mean, and triangularize [centered points | noise blocks] for the new
    factor.
    """
    if t1 < belief.time:
        raise ValueError("t1 must be >= belief.time")
    if t1 == belief.time:
        return belief
    if ops is None:
        ops = It15Operators(model)
    d = model.dim
    m = variant.m
    total = t1 - belief.time
    dt = total / m
    n_pts = 2 * d
    sqrt_d = np.sqrt(d)
    w = 1.0 / np.sqrt(n_pts)
    sqrt_k = model.diffusion_factor
    # noise blocks: every substep (proper-it15) or once per interval
    proper = variant.mode == "proper-it15"
    tau = dt if proper else total

    x = belief.mean.copy()
    M = belief.factor.copy()
    t = belief.time
    for s in range(m):
        spread = sqrt_d * M.T
        pts = np.concatenate([x + spread, x - spread])
        # points as columns again, so the mean sums along contiguous memory
        # in the same order as the per-point loop did
        prop = np.ascontiguousarray(it15_point_predict(pts, t, dt, ops).T)
        x_new = prop.sum(axis=1) / n_pts
        blocks = w * (prop - x_new[:, np.newaxis])
        if proper or s == 0:
            L = ops.lv(x_new, t)
            blocks = np.concatenate([blocks,
                                     np.sqrt(tau) * (sqrt_k + 0.5 * tau * L),
                                     np.sqrt(tau**3 / 12.0) * L], axis=1)
        M = tria(blocks)
        x = x_new
        t += dt
    return GaussianBelief(mean=x, factor=M, time=t1)
