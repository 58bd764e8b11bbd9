"""Level-set time-update: the belief evolves as an ODE on (mean | factor).

The columns of the factor M are treated as points on the one-sigma level
set of the belief; each point moves with the drift field plus the
diffusion velocity 0.5 * K @ inv(M.T).  Three center-velocity variants are
provided:

* ``standard`` - center moves with v(mean); d+1 drift evaluations.
* ``averaged`` - center moves with the symmetric average over the 2d
  points mean +/- column; 2d evaluations, best accuracy.
* ``partial``  - forward points plus a single backward point; d+1
  evaluations, a compromise between the two.

For a linear drift all three are identical and the update is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import check_count
from .linalg import solve_transpose
from .models import GaussianBelief, SdeModel
from .ode import OdeProblem, SolverSpec, integrate

VARIANTS = ("standard", "averaged", "partial")


def pack_state(mean: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Flatten (mean | factor) into the solver vector: mean first, then the
    factor column-major.  This layout is part of the public contract."""
    return np.concatenate([mean, factor.ravel(order="F")])


def unpack_state(y: np.ndarray, d: int):
    return y[:d], y[d:].reshape((d, d), order="F")


def count_drift_evals(variant: str, d: int) -> int:
    """Drift evaluations one rhs call performs: 2d averaged, d+1 otherwise."""
    _check_variant(variant)
    check_count("d", d, 1)
    return 2 * d if variant == "averaged" else d + 1


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")


def lskf_rhs(t: float, mean: np.ndarray, factor: np.ndarray, model: SdeModel,
             variant: str = "averaged"):
    """Time derivative of (mean, factor) for the level-set update.

    Returns ``(dmean, dfactor)``.  Raises :class:`SingularFactor` (via the
    diffusion-velocity solve) when the factor is not invertible; the
    adaptive solver treats that as a rejectable step.
    """
    _check_variant(variant)
    d = model.dim
    v = model.drift
    # column i is the drift at the point mean + column i; the points are
    # the contiguous rows of mean + factor.T (one drift call each), and
    # stacking them in Fortran order makes forward's rows contiguous
    forward = np.array([v(point, t) for point in mean + factor.T], order="F").T
    if variant == "standard":
        center = v(mean, t)
    elif variant == "averaged":
        acc = forward.sum(axis=1)
        for point in mean - factor.T:
            acc += v(point, t)
        center = acc / (2 * d)
    else:  # partial: reuse the d forward points, one backward point
        backward = v(mean - factor[:, 0], t)
        center = (forward.sum(axis=1) + d * backward) / (2 * d)
    dfactor = forward - center[:, np.newaxis]
    if model.has_noise:
        # noise-free models stay valid even with a singular factor
        dfactor += 0.5 * solve_transpose(factor, model.noise_cov())
    return center, dfactor


def lskf_time_update(belief: GaussianBelief, model: SdeModel, variant: str,
                     t1: float, spec: SolverSpec) -> GaussianBelief:
    """Propagate a belief to time ``t1`` by integrating the packed ODE.

    The returned factor is a general (non-triangular) matrix; it is only
    canonicalized inside the measurement update.
    """
    _check_variant(variant)
    if t1 < belief.time:
        raise ValueError("t1 must be >= belief.time")
    if t1 == belief.time:
        return belief
    d = model.dim
    n = d * (d + 1)

    def rhs(t, y):
        dmean, dfactor = lskf_rhs(t, *unpack_state(y, d), model, variant)
        # written straight into the solver vector, in pack_state's layout
        out = np.empty(n)
        out[:d] = dmean
        out[d:].reshape(d, d).T[...] = dfactor
        return out

    problem = OdeProblem(dim=n, rhs=rhs, t0=belief.time, t1=t1,
                         y0=pack_state(belief.mean, belief.factor))
    y1, _ = integrate(problem, spec)
    mean, factor = unpack_state(y1, d)
    return GaussianBelief(mean=mean, factor=factor, time=t1)
