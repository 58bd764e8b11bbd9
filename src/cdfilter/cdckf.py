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

from .errors import MissingDerivatives
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
        if self.m < 1:
            raise ValueError("m must be >= 1")


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
        self._K = model.noise_cov()
        self._needs_hessians = np.any(self._K != 0.0)
        if model.drift_jacobian is None:
            raise MissingDerivatives("drift_jacobian required")
        if model.drift_hessians is None and self._needs_hessians:
            raise MissingDerivatives("drift_hessians required when K is nonzero")

    def l0(self, x, t):
        """The scalar generator applied componentwise to the drift
        (autonomous drift: no explicit time-derivative term)."""
        v = self.model.drift(x, t)
        out = self.model.drift_jacobian(x, t) @ v
        if self._needs_hessians:
            out = out + 0.5 * np.einsum("pq,ipq->i", self._K,
                                        self.model.drift_hessians(x, t))
        return out

    def lv(self, x, t):
        """Noise-coupling matrix with entries sum_k sqrtK[k,j] dv_i/dx_k."""
        return self.model.drift_jacobian(x, t) @ self.model.diffusion_factor


def it15_point_predict(x: np.ndarray, t: float, dt: float, ops: It15Operators):
    """Propagate a single point through the order-1.5 Taylor map."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    v = ops.model.drift(x, t)
    return x + dt * v + 0.5 * dt * dt * ops.l0(x, t)


def cdckf_time_update(belief: GaussianBelief, model: SdeModel,
                      variant: CdckfVariant, t1: float,
                      ops: It15Operators | None = None) -> GaussianBelief:
    """Cubature time-update over ``m`` equal substeps.

    Per substep: spread 2d cubature points mean +/- sqrt(d) * column,
    push each through the Taylor map, average for the new mean, and
    triangularize [centered points | noise blocks] for the new factor.
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
    sqrt_d = np.sqrt(d)
    w = 1.0 / np.sqrt(2 * d)
    sqrt_k = model.diffusion_factor
    # noise blocks: every substep (proper-it15) or once per interval
    proper = variant.mode == "proper-it15"
    tau = dt if proper else total

    x = belief.mean.copy()
    M = belief.factor.copy()
    t = belief.time
    for s in range(m):
        spread = sqrt_d * M
        pts = np.concatenate([x[:, None] + spread, x[:, None] - spread], axis=1)
        prop = np.empty_like(pts)
        for i in range(2 * d):
            prop[:, i] = it15_point_predict(pts[:, i], t, dt, ops)
        x_new = prop.mean(axis=1)
        blocks = [w * (prop - x_new[:, None])]
        if proper or s == 0:
            L = ops.lv(x_new, t)
            blocks += [np.sqrt(tau) * (sqrt_k + 0.5 * tau * L),
                       np.sqrt(tau**3 / 12.0) * L]
        M = tria(np.concatenate(blocks, axis=1))
        x = x_new
        t += dt
    return GaussianBelief(mean=x, factor=M, time=t1)
