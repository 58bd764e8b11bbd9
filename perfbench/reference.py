"""Independent reference implementations the benchmark checks cdfilter against.

Nothing here imports cdfilter.  The radar model (coordinated turn, range /
azimuth / elevation from one station) is written out again in vectorized
form, the filters are written in covariance form where the algorithm allows
it, and the level-set ODE is integrated with scipy's DOP853 at a tolerance
far below the program's.  Agreement therefore means the program computes
the published algorithm, not merely that it computes what it computed
before.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

DEG = math.pi / 180.0
STATION = np.array([1500.0, 10.0, 0.0])
SIGMA1 = math.sqrt(0.2)
SIGMA2 = 7e-4
DIVERGENCE_M = 500.0
HORIZON = 120.0
EM_SUBSTEPS = 1000
POS = [0, 2, 4]


def x0(omega_deg: float) -> np.ndarray:
    return np.array([1000.0, 0.0, 2650.0, 150.0, 200.0, 0.0, omega_deg * DEG])


P0 = np.diag([100.0, 1.0, 100.0, 1.0, 100.0, 1.0, 0.01])
SQRT_K = np.diag([0.0, SIGMA1, 0.0, SIGMA1, 0.0, SIGMA1, SIGMA2])
K = SQRT_K @ SQRT_K.T
R = np.diag([50.0, 0.1 * DEG, 0.1 * DEG]) ** 2


def drift(X: np.ndarray) -> np.ndarray:
    """Coordinated-turn drift on the columns of a (7, n) array."""
    V = np.zeros_like(X)
    V[0] = X[1]
    V[1] = -X[6] * X[3]
    V[2] = X[3]
    V[3] = X[6] * X[1]
    V[4] = X[5]
    return V


def generator(X: np.ndarray) -> np.ndarray:
    """L0 v = J(x) v for each column; the Hessian term vanishes because K is
    diagonal and the drift's only curvature is in the (velocity, turn) cross
    terms."""
    V = drift(X)
    out = np.zeros_like(X)
    out[0] = V[1]
    out[1] = -X[6] * V[3] - X[3] * V[6]
    out[2] = V[3]
    out[3] = X[6] * V[1] + X[1] * V[6]
    out[4] = V[5]
    return out


def jacobian(x: np.ndarray) -> np.ndarray:
    J = np.zeros((7, 7))
    J[0, 1] = J[2, 3] = J[4, 5] = 1.0
    J[1, 3], J[1, 6] = -x[6], -x[3]
    J[3, 1], J[3, 6] = x[6], x[1]
    return J


def measure(X: np.ndarray) -> np.ndarray:
    """Range, azimuth, elevation of each column of a (7, n) array."""
    dx, dy, dz = X[0] - STATION[0], X[2] - STATION[1], X[4] - STATION[2]
    horiz = np.hypot(dx, dy)
    return np.array([np.sqrt(dx * dx + dy * dy + dz * dz),
                     np.arctan2(dy, dx), np.arctan2(dz, horiz)])


def simulate_truth(omega_deg: float, interval: float, seeds):
    """Euler-Maruyama truth and noisy measurements for several trials at once.

    Trial ``i`` draws from ``default_rng(seeds[i])`` in the same order as a
    per-trial simulation would: per interval, an (n_sub, 7) block of process
    noise, then three measurement-noise normals.  Returns times, truth
    (trials, n, 7) and measurements (trials, n, 3).
    """
    rngs = [np.random.default_rng(s) for s in seeds]
    n = int(np.floor(HORIZON / interval + 1e-9))
    times = interval * np.arange(1, n + 1)
    h = interval / EM_SUBSTEPS
    sqrt_h = math.sqrt(h)
    sk = np.diag(SQRT_K)
    X = np.tile(x0(omega_deg), (len(seeds), 1))
    truth = np.empty((len(seeds), n, 7))
    meas = np.empty((len(seeds), n, 3))
    r_sd = np.sqrt(np.diag(R))
    for k in range(n):
        noise = np.stack([g.standard_normal((EM_SUBSTEPS, 7)) for g in rngs], axis=1)
        for j in range(EM_SUBSTEPS):
            V = np.zeros_like(X)
            V[:, 0] = X[:, 1]
            V[:, 1] = -X[:, 6] * X[:, 3]
            V[:, 2] = X[:, 3]
            V[:, 3] = X[:, 6] * X[:, 1]
            V[:, 4] = X[:, 5]
            X = X + h * V + sqrt_h * (sk * noise[j])
        truth[:, k] = X
        for i, g in enumerate(rngs):
            meas[i, k] = measure(X[i][:, None])[:, 0] + r_sd * g.standard_normal(3)
    return times, truth, meas


def _wrap(a):
    return -(np.mod(-a + np.pi, 2.0 * np.pi) - np.pi)


def measurement_update(mean, M, y):
    """Cubature update in covariance form, with cubature points taken from
    the given factor; returns the mean and the canonical (Cholesky) factor of
    the posterior covariance."""
    d = mean.size
    S = math.sqrt(d) * np.concatenate([M, -M], axis=1)
    Y = measure(mean[:, None] + S)
    y_pred = Y.mean(axis=1)
    Yc = Y - y_pred[:, None]
    Pyy = Yc @ Yc.T / (2 * d) + R
    Pxy = S @ Yc.T / (2 * d)
    gain = np.linalg.solve(Pyy, Pxy.T).T
    innov = y - y_pred
    innov[1:] = _wrap(innov[1:])
    P = M @ M.T - gain @ Pyy @ gain.T
    return mean + gain @ innov, np.linalg.cholesky(0.5 * (P + P.T))


def _levelset_rhs(y, d):
    mean, M = y[:d], y[d:].reshape((d, d), order="F")
    F = drift(mean[:, None] + M)
    B = drift(mean[:, None] - M)
    center = (F.sum(axis=1) + B.sum(axis=1)) / (2 * d)
    dM = F - center[:, None] + 0.5 * np.linalg.solve(M, K).T
    return np.concatenate([center, dM.ravel(order="F")])


def lskf_predict(mean, M, dt, solver):
    """Averaged-variant level-set time-update over ``dt``.

    ``solver`` is ``"tight"`` (DOP853 at 1e-12) or ``"rk2"`` (one explicit
    midpoint step).  Returns mean, factor and drift evaluations made by a
    solver that evaluates the drift at 2d points per rhs call (the count the
    program reports for one midpoint step)."""
    d = mean.size
    y0 = np.concatenate([mean, M.ravel(order="F")])
    if solver == "rk2":
        k1 = _levelset_rhs(y0, d)
        y1 = y0 + dt * _levelset_rhs(y0 + 0.5 * dt * k1, d)
        evals = 2 * 2 * d
    else:
        sol = solve_ivp(lambda _t, y: _levelset_rhs(y, d), (0.0, dt), y0,
                        method="DOP853", rtol=1e-12, atol=1e-12)
        y1 = sol.y[:, -1]
        evals = 0
    return y1[:d], y1[d:].reshape((d, d), order="F"), evals


def cdckf_predict(mean, M, dt, m):
    """Paper-faithful IT-1.5 cubature time-update: ``m`` substeps, noise
    blocks built once, at the first substep, for the whole interval."""
    d = mean.size
    h = dt / m
    P = None
    for s in range(m):
        X = mean[:, None] + math.sqrt(d) * np.concatenate([M, -M], axis=1)
        Xp = X + h * drift(X) + 0.5 * h * h * generator(X)
        mean = Xp.mean(axis=1)
        Xc = Xp - mean[:, None]
        P = Xc @ Xc.T / (2 * d)
        if s == 0:
            L = jacobian(mean) @ SQRT_K
            A = math.sqrt(dt) * (SQRT_K + 0.5 * dt * L)
            B = math.sqrt(dt ** 3 / 12.0) * L
            P = P + A @ A.T + B @ B.T
        M = np.linalg.cholesky(0.5 * (P + P.T))
    # two drift evaluations per point per substep (the map and its generator)
    return mean, M, 2 * 2 * d * m


def run_trial(filter_id, times, truth, meas, omega_deg, m=1):
    """Filter one trajectory.  ``filter_id`` is ``lskf-adaptive``,
    ``lskf-rk2`` or ``cdckf``.  Returns a dict with the final mean, the
    per-step squared position errors, the divergence flag and the drift
    evaluations the program would count (fixed-step filters only), and the
    final posterior standard deviations."""
    mean, M = x0(omega_deg), np.linalg.cholesky(P0)
    t_prev = 0.0
    sq_pos = np.zeros(len(times))
    evals = 0
    divergent = False
    for k, t in enumerate(times):
        try:
            if filter_id == "cdckf":
                mean, M, e = cdckf_predict(mean, M, t - t_prev, m)
            else:
                solver = "rk2" if filter_id == "lskf-rk2" else "tight"
                mean, M, e = lskf_predict(mean, M, t - t_prev, solver)
            evals += e
            mean, M = measurement_update(mean, M, meas[k])
        except np.linalg.LinAlgError:
            divergent = True
            break
        t_prev = t
        err = mean - truth[k]
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(M))):
            divergent = True
            break
        sq_pos[k] = float(np.sum(err[POS] ** 2))
        if math.sqrt(sq_pos[k]) > DIVERGENCE_M:
            divergent = True
            break
    return {"mean": mean, "std": np.sqrt(np.sum(M ** 2, axis=1)), "sq_pos": sq_pos,
            "divergent": divergent, "drift_evals": evals}


def linear_moments(J, Kmat, mean0, sigma0, t):
    """Exact mean and covariance of dx = J x dt + sqrt(K) dB at time t, by
    Van Loan's block matrix exponential."""
    d = J.shape[0]
    block = np.zeros((2 * d, 2 * d))
    block[:d, :d] = -J
    block[:d, d:] = Kmat
    block[d:, d:] = J.T
    E = expm(block * t)
    phi = E[d:, d:].T
    Q = phi @ E[:d, d:]
    sigma = phi @ sigma0 @ phi.T + Q
    return phi @ mean0, 0.5 * (sigma + sigma.T)
