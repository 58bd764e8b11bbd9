"""Concrete experiment models: linear moment propagation, a noisy harmonic
oscillator, the radar coordinated-turn tracking problem, and a nonlinear
transport flow with an exact density.

All angle-like inputs are converted to radians here, at construction;
nothing downstream ever sees degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AtStationSingularity
from .linalg import cholesky_lower
from .models import GaussianBelief, LinearSystem, MeasurementModel, SdeModel

DEG = math.pi / 180.0

RADAR_STATION = np.array([1500.0, 10.0, 0.0])


# ---------------------------------------------------------------------------
# coordinated-turn aircraft model (state [e, de, n, dn, z, dz, w])
# ---------------------------------------------------------------------------

def coordinated_turn_drift(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Constant-speed turn dynamics; the turn rate w is itself a state."""
    return np.array([x[1], -x[6] * x[3], x[3], x[6] * x[1], x[5], 0.0, 0.0])


def coordinated_turn_jacobian(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    J = np.zeros((7, 7))
    J[0, 1] = 1.0
    J[1, 3] = -x[6]
    J[1, 6] = -x[3]
    J[2, 3] = 1.0
    J[3, 1] = x[6]
    J[3, 6] = x[1]
    J[4, 5] = 1.0
    return J


def coordinated_turn_hessians(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    # only the turn-rate/velocity cross terms are curved
    H = np.zeros((7, 7, 7))
    H[1, 3, 6] = H[1, 6, 3] = -1.0
    H[3, 1, 6] = H[3, 6, 1] = 1.0
    return H


def radar_measure(x: np.ndarray, station: np.ndarray = RADAR_STATION) -> np.ndarray:
    """Range, azimuth, elevation of a coordinated-turn state as seen from
    the station.  Azimuth uses the two-argument arctangent."""
    dx = x[0] - station[0]
    dy = x[2] - station[1]
    dz = x[4] - station[2]
    horiz = math.hypot(dx, dy)
    if horiz <= 0.0:
        raise AtStationSingularity("target directly above the station")
    return np.array([math.sqrt(dx * dx + dy * dy + dz * dz),
                     math.atan2(dy, dx),
                     math.atan2(dz, horiz)])


@dataclass(frozen=True)
class RadarScenario:
    """Full description of one radar tracking experiment.

    ``omega0_deg`` is the initial turn rate in degrees per second (stored;
    converted where the state vector is built).  ``sigma2`` keeps the
    7e-4 reading of the process noise on the turn rate; override via the
    field for sensitivity studies.
    """

    omega0_deg: float = 6.0
    interval: float = 6.0           # measurement interval T, seconds
    horizon: float = 120.0
    sigma1: float = math.sqrt(0.2)
    sigma2: float = 7e-4
    station: np.ndarray = field(default_factory=lambda: RADAR_STATION.copy())
    sigma_r: float = 50.0
    sigma_angle_deg: float = 0.1
    em_substeps: int = 1000         # truth-simulation substeps per interval

    def __post_init__(self):
        if self.interval <= 0 or self.horizon <= 0:
            raise ValueError("interval and horizon must be positive")
        if self.interval > self.horizon:
            raise ValueError("interval exceeds the horizon")

    @property
    def omega0(self) -> float:
        return self.omega0_deg * DEG

    def initial_state(self) -> np.ndarray:
        return np.array([1000.0, 0.0, 2650.0, 150.0, 200.0, 0.0, self.omega0])

    def initial_covariance(self) -> np.ndarray:
        return np.diag([100.0, 1.0, 100.0, 1.0, 100.0, 1.0, 0.01])

    def sde_model(self) -> SdeModel:
        s1, s2 = self.sigma1, self.sigma2
        sqrt_k = np.diag([0.0, s1, 0.0, s1, 0.0, s1, s2])
        return SdeModel(dim=7, drift=coordinated_turn_drift,
                        diffusion_factor=sqrt_k,
                        drift_jacobian=coordinated_turn_jacobian,
                        drift_hessians=coordinated_turn_hessians)

    def measurement_model(self) -> MeasurementModel:
        sa = self.sigma_angle_deg * DEG
        station = self.station
        return MeasurementModel(
            meas_dim=3,
            h=lambda x: radar_measure(x, station),
            noise_factor=np.diag([self.sigma_r, sa, sa]),
            residual_wrap=np.array([False, True, True]),
        )

    def measurement_times(self) -> np.ndarray:
        # as many whole intervals as fit (a 7 s interval over a 120 s
        # horizon gives 17 measurements, the last at 119 s)
        n = int(np.floor(self.horizon / self.interval + 1e-9))
        return self.interval * np.arange(1, n + 1)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray          # measurement instants k*T
    truth_states: np.ndarray   # truth at those instants, shape (n, 7)
    measurements: np.ndarray   # noisy radar readings, shape (n, 3)


def simulate_truth(scenario: RadarScenario, rng_seed: int) -> Trajectory:
    """Deterministic truth + measurement simulation for one trial."""
    rng = np.random.default_rng(rng_seed)
    model = scenario.sde_model()
    mm = scenario.measurement_model()
    sqrt_k_diag = np.diag(model.diffusion_factor)
    x = scenario.initial_state()
    times = scenario.measurement_times()
    n_sub = scenario.em_substeps
    h = scenario.interval / n_sub
    sqrt_h = math.sqrt(h)
    states = np.empty((len(times), 7))
    meas = np.empty((len(times), 3))
    t = 0.0
    for k in range(len(times)):
        noise = rng.standard_normal((n_sub, 7))
        for j in range(n_sub):
            # Euler-Maruyama; diagonal diffusion
            x = x + h * coordinated_turn_drift(x, t) + sqrt_h * (sqrt_k_diag * noise[j])
            t += h
        states[k] = x
        meas[k] = mm.h(x) + mm.noise_factor @ rng.standard_normal(3)
    return Trajectory(times=times, truth_states=states, measurements=meas)


def make_trial(scenario: RadarScenario, rng_seed: int):
    """Simulate one trial and build the filter's initial belief.

    Truth and filter both start at the scenario's initial state; Sigma0
    expresses the guess uncertainty the filter is told to assume.  (A
    sampled initial guess makes the very first time-update propagate a
    large turn-rate error through the strongly nonlinear dynamics and
    dominates every aggregate with that transient.)
    Returns ``(Trajectory, initial_belief)``.
    """
    traj = simulate_truth(scenario, rng_seed)
    factor0 = cholesky_lower(scenario.initial_covariance())
    return traj, GaussianBelief(mean=scenario.initial_state(), factor=factor0,
                                time=0.0)


# ---------------------------------------------------------------------------
# linear moment-propagation benchmarks with a Lyapunov oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearScenario:
    """A linear SDE, its Gaussian initial belief and the final time."""

    system: LinearSystem
    mean0: np.ndarray
    sigma0: np.ndarray
    t_end: float

    def sde_model(self) -> SdeModel:
        return self.system.as_sde()


def linear_fp_scenario() -> LinearScenario:
    """2-d linear benchmark with a nilpotent drift.  The source problem
    states its diffusion term without the 1/2 factor our process-noise
    convention carries, so the effective K fed to the filters is twice the
    printed matrix; the Lyapunov oracle confirms this reading (see tests)."""
    J = np.array([[0.0, 0.1], [0.0, 0.0]])
    K_eff = 2.0 * np.array([[0.5, 0.25], [0.25, 1.5]])
    return LinearScenario(system=LinearSystem(J=J, K=K_eff),
                          mean0=np.zeros(2),
                          sigma0=np.array([[2.0, 1.0], [1.0, 2.0]]),
                          t_end=10.0)


def oscillator_scenario() -> LinearScenario:
    """Noisy 3-d harmonic oscillator."""
    J = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [-1.0, 0.0, 0.0]])
    K = np.diag([0.01**2, 0.01**2, 0.02**2])
    return LinearScenario(system=LinearSystem(J=J, K=K),
                          mean0=np.array([1.0, 0.0, 0.0]),
                          sigma0=np.diag([0.01**2, 0.01**2, 0.03**2]),
                          t_end=0.2)


# ---------------------------------------------------------------------------
# nonlinear transport flow with exact pushforward density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransportScenario:
    """Deterministic flow v(x, y) = (0, x^2) applied to a centered Gaussian.

    The flow preserves volume, so the exact density at time t is the
    initial density evaluated at the backward characteristics
    (x, y - x^2 t).  The exact pushforward is non-Gaussian, which is what
    separates the center-velocity variants of the level-set update.
    """

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValueError("a and b must be positive")

    def sde_model(self) -> SdeModel:
        def hess(x, t=0.0):
            H = np.zeros((2, 2, 2))
            H[1, 0, 0] = 2.0
            return H

        return SdeModel(
            dim=2,
            drift=lambda x, t=0.0: np.array([0.0, x[0] ** 2]),
            diffusion_factor=np.zeros((2, 2)),
            drift_jacobian=lambda x, t=0.0: np.array([[0.0, 0.0], [2.0 * x[0], 0.0]]),
            drift_hessians=hess,
        )

    def sigma0(self) -> np.ndarray:
        return np.diag([self.a**2, self.b**2])

    def flow(self, point: np.ndarray, t: float) -> np.ndarray:
        """Characteristic through ``point``: x constant, y advanced by x^2 t."""
        return np.array([point[0], point[1] + point[0] ** 2 * t])

    def exact_density(self, xg: np.ndarray, yg: np.ndarray, t: float) -> np.ndarray:
        a, b = self.a, self.b
        arg = (xg / a) ** 2 + ((yg - xg**2 * t) / b) ** 2
        return np.exp(-0.5 * arg) / (2.0 * math.pi * a * b)

    def gaussian_density(self, mean, cov, xg, yg):
        det = np.linalg.det(cov)
        inv = np.linalg.inv(cov)
        dx = xg - mean[0]
        dy = yg - mean[1]
        q = inv[0, 0] * dx**2 + 2.0 * inv[0, 1] * dx * dy + inv[1, 1] * dy**2
        return np.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    def l2_error(self, mean, cov, t, half_width: float = 6.0, n: int = 121) -> float:
        """L2 distance on a grid between a Gaussian estimate and the exact
        pushforward density at time t."""
        xs = np.linspace(-half_width, half_width, n)
        ys = np.linspace(-half_width, half_width + 2.0 * self.a**2 * t, n)
        xg, yg = np.meshgrid(xs, ys, indexing="ij")
        diff = self.gaussian_density(mean, cov, xg, yg) - self.exact_density(xg, yg, t)
        da = (xs[1] - xs[0]) * (ys[1] - ys[0])
        return float(math.sqrt(np.sum(diff**2) * da))
