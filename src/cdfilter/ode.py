"""Fixed-step and adaptive Runge-Kutta integration over a flat real vector.

The fixed kinds take exactly ``steps`` equal steps of the named classical
scheme.  The adaptive kind is a Dormand-Prince 4(5) embedded pair with a
PI step controller (safety 0.9, growth clamp [0.2, 5.0]); a recoverable
right-hand-side failure (e.g. a singular covariance factor mid-step)
rejects the trial step and halves it.  A failure at the initial point
propagates at once, since no smaller step can avoid it.

The pair is first-same-as-last (FSAL): the seventh stage is evaluated at
the accepted point, so it is the next step's first stage, and a rejected
step keeps its first stage.  ``SolveStats.rhs_evals`` counts every rhs
call that returned; without failures that is ``1 + 6 * (accepted +
rejected)`` for the adaptive kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MaxStepsExceeded, RecoverableRhsError, StepUnderflow, check_count

FIXED_KINDS = ("fixed-rk1", "fixed-rk2", "fixed-rk4")
ADAPTIVE = "adaptive-embedded"


@dataclass(frozen=True)
class OdeProblem:
    dim: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    t0: float
    t1: float
    y0: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError(f"t0 and t1 must be finite, got t0={self.t0}, t1={self.t1}")
        if self.t1 < self.t0:
            raise ValueError("t1 must be >= t0")
        y0 = np.asarray(self.y0, dtype=float)
        object.__setattr__(self, "y0", y0)
        if y0.shape != (self.dim,):
            raise ValueError("y0 length must equal dim")


@dataclass(frozen=True)
class SolverSpec:
    kind: str
    steps: int = 1
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.kind not in FIXED_KINDS + (ADAPTIVE,):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.kind in FIXED_KINDS:
            check_count("steps", self.steps, 1)
        # an infinite tolerance makes the error scale infinite, so every
        # step would be accepted
        if self.kind == ADAPTIVE and not (0 < self.abs_tol < math.inf
                                          and 0 < self.rel_tol < math.inf):
            raise ValueError("adaptive tolerances must be positive and finite")
        check_count("max_steps", self.max_steps, 1)


@dataclass
class SolveStats:
    rhs_evals: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4

# the nonzero coefficients as (stage, coefficient) pairs, in stage order
_DP_A_NZ = [[(j, a) for j, a in enumerate(row) if a != 0.0] for row in _DP_A]
_DP_E_NZ = [(j, e) for j, e in enumerate(_DP_E) if e != 0.0]


def _stage_sum(pairs, ks):
    """``sum(c * ks[j] for j, c in pairs)`` without the generator: the same
    additions in the same order, ``0 + c0 k0 + c1 k1 + ...``.  The first
    ``+=`` makes a new array; the rest add in place."""
    acc = 0.0
    for j, c in pairs:
        acc += c * ks[j]
    return acc


def _fixed_step(kind, rhs, t, y, h, stats):
    if kind == "fixed-rk1":
        stats.rhs_evals += 1
        return y + h * rhs(t, y)
    if kind == "fixed-rk2":
        # explicit midpoint
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        stats.rhs_evals += 2
        return y + h * k2
    # classical RK4
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    stats.rhs_evals += 4
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(problem: OdeProblem, spec: SolverSpec):
    """Integrate from t0 to t1; returns ``(y(t1), SolveStats)``."""
    if spec.kind in FIXED_KINDS:
        return _integrate_fixed(problem, spec)
    return _integrate_adaptive(problem, spec)


def _integrate_fixed(problem, spec):
    stats = SolveStats()
    y = problem.y0.copy()
    m = spec.steps
    h = (problem.t1 - problem.t0) / m
    if h == 0.0:
        return y, stats
    for i in range(m):
        y = _fixed_step(spec.kind, problem.rhs, problem.t0 + i * h, y, h, stats)
        stats.accepted_steps += 1
    return y, stats


def _integrate_adaptive(problem, spec):
    stats = SolveStats()
    rhs = problem.rhs
    t, t1 = problem.t0, problem.t1
    y = problem.y0.copy()
    span = t1 - t
    if span == 0.0:
        return y, stats
    h = span / 100.0
    err_prev = 1.0
    consecutive_failures = 0
    ks = [None] * 7
    ks[0] = rhs(t, y)
    stats.rhs_evals += 1
    while t < t1:
        if stats.accepted_steps + stats.rejected_steps >= spec.max_steps:
            raise MaxStepsExceeded(f"exceeded {spec.max_steps} steps")
        h = min(h, t1 - t)
        if h < 1e-14 * span:
            raise StepUnderflow(f"step {h} underflowed at t={t}")
        try:
            for i in range(1, 7):
                # the last stage's point is the 5th-order solution (a[6] == b5)
                yi = y + h * _stage_sum(_DP_A_NZ[i], ks)
                ks[i] = rhs(t + _DP_C[i] * h, yi)
                stats.rhs_evals += 1
        except RecoverableRhsError:
            stats.rejected_steps += 1
            consecutive_failures += 1
            if consecutive_failures > 20:
                raise
            h *= 0.5
            continue
        consecutive_failures = 0
        err = h * _stage_sum(_DP_E_NZ, ks)
        scale = spec.abs_tol + spec.rel_tol * np.linalg.norm(y)
        ratio = np.linalg.norm(err) / scale
        if ratio <= 1.0:
            t += h
            y = yi
            ks[0] = ks[6]
            stats.accepted_steps += 1
            r = max(ratio, 1e-10)
            # PI controller (orders match the 5th-order propagating solution)
            factor = 0.9 * r ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            h *= min(5.0, max(0.2, factor))
            err_prev = r
        else:
            stats.rejected_steps += 1
            h *= min(1.0, max(0.2, 0.9 * ratio ** (-0.2)))
    return y, stats


def order_of_accuracy(problem: OdeProblem, kind: str, step_counts, error_floor: float = 0.0):
    """Empirical convergence order of a fixed-step scheme on one problem.

    The reference solution is the adaptive solver at tolerance 1e-12.
    Returns the least-squares slope of log(error) versus log(step size);
    points with error at or below ``error_floor`` are dropped (round-off
    floor of high-order schemes).
    """
    ref, _ = integrate(problem, SolverSpec(kind=ADAPTIVE, abs_tol=1e-12, rel_tol=1e-12))
    dts, errs = [], []
    for m in step_counts:
        y, _ = integrate(problem, SolverSpec(kind=kind, steps=int(m)))
        err = np.linalg.norm(y - ref)
        if err > error_floor:
            dts.append((problem.t1 - problem.t0) / m)
            errs.append(err)
    if len(errs) < 2:
        raise ValueError("not enough error points above the floor to fit a slope")
    slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
    return float(slope)
