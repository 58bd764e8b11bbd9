"""Domain types shared by every filter in the package.

The covariance of a belief is never stored directly: a belief carries a
square-root factor ``M`` with ``Sigma = M @ M.T``, which keeps the
covariance positive semi-definite under finite precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


Drift = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian state estimate: mean, square-root covariance factor, time.

    ``factor`` is a general square matrix during the time-update; after a
    measurement update it is lower triangular with non-negative diagonal
    (the canonical form used for regression testing).
    """

    mean: np.ndarray
    factor: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        factor = np.asarray(self.factor, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "factor", factor)
        d = mean.shape[0]
        if d < 1 or mean.ndim != 1:
            raise ValueError("mean must be a vector with d >= 1")
        if factor.shape != (d, d):
            raise ValueError("factor must be d x d with d = len(mean)")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def covariance(self) -> np.ndarray:
        return self.factor @ self.factor.T


@dataclass(frozen=True)
class SdeModel:
    """Ito diffusion dx/dt = v(x, t) + sqrt(K) dB/dt.

    ``drift_jacobian`` and ``drift_hessians`` are only needed by the
    Ito-Taylor baseline; the level-set filter never evaluates them.
    ``drift_hessians(x, t)[i]`` is the d x d Hessian of drift component i;
    the array may be read-only (a model with constant Hessians can return
    one shared array), so callers must not write to it.

    K and ``has_noise`` (K has a nonzero entry) are computed once, at
    construction; ``dataclasses.replace`` recomputes them.
    """

    dim: int
    drift: Drift
    diffusion_factor: np.ndarray
    drift_jacobian: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    drift_hessians: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        sqrt_k = np.asarray(self.diffusion_factor, dtype=float)
        object.__setattr__(self, "diffusion_factor", sqrt_k)
        if sqrt_k.shape != (self.dim, self.dim):
            raise ValueError("diffusion_factor must be dim x dim")
        noise = sqrt_k @ sqrt_k.T
        noise.flags.writeable = False
        object.__setattr__(self, "_noise_cov", noise)
        object.__setattr__(self, "has_noise", bool(np.any(noise != 0.0)))

    def noise_cov(self) -> np.ndarray:
        """Process noise matrix K = sqrt(K) @ sqrt(K).T (read-only)."""
        return self._noise_cov


@dataclass(frozen=True)
class MeasurementModel:
    """Discrete measurement y = h(x) + tau, tau ~ N(0, R = noise_factor @ noise_factor.T).

    ``residual_wrap`` flags components of the innovation that are angles and
    must be wrapped to (-pi, pi] before the gain is applied.
    """

    meas_dim: int
    h: Callable[[np.ndarray], np.ndarray]
    noise_factor: np.ndarray
    residual_wrap: Optional[np.ndarray] = None

    def __post_init__(self):
        sqrt_r = np.asarray(self.noise_factor, dtype=float)
        object.__setattr__(self, "noise_factor", sqrt_r)
        if sqrt_r.shape != (self.meas_dim, self.meas_dim):
            raise ValueError("noise_factor must be meas_dim x meas_dim")
        if self.residual_wrap is not None:
            flags = np.asarray(self.residual_wrap, dtype=bool)
            object.__setattr__(self, "residual_wrap", flags)
            if flags.shape != (self.meas_dim,):
                raise ValueError("residual_wrap must have one flag per component")


@dataclass(frozen=True)
class LinearSystem:
    """Linear SDE dx/dt = J x + sqrt(K) dB/dt; the exactly-solvable case."""

    J: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        K = np.asarray(self.K, dtype=float)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "K", K)
        if J.shape != K.shape or J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError("J and K must be square with matching shape")

    @property
    def dim(self) -> int:
        return self.J.shape[0]

    def as_sde(self) -> SdeModel:
        """Wrap as an SdeModel with analytic derivatives (Hessians vanish)."""
        from .linalg import cholesky_lower

        J = self.J
        d = self.dim
        sqrt_k = cholesky_lower(self.K)
        return SdeModel(
            dim=d,
            drift=lambda x, t=0.0: J @ x,
            diffusion_factor=sqrt_k,
            drift_jacobian=lambda x, t=0.0: J,
            drift_hessians=lambda x, t=0.0: np.zeros((d, d, d)),
        )
