"""Concrete experiment models: linear moment propagation, a noisy harmonic
oscillator, the radar coordinated-turn tracking problem, and a nonlinear
transport flow with an exact density.

All angle-like inputs are converted to radians here, at construction;
nothing downstream ever sees degrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import AtStationSingularity, check_count
from .linalg import cholesky_lower
from .models import GaussianBelief, LinearSystem, MeasurementModel, SdeModel

DEG = math.pi / 180.0

RADAR_STATION = np.array([1500.0, 10.0, 0.0])


# ---------------------------------------------------------------------------
# coordinated-turn aircraft model (state [e, de, n, dn, z, dz, w])
# ---------------------------------------------------------------------------

# The callbacks below run once per cubature point, so they read the state
# once with ``tolist`` and compute in Python floats: the same IEEE double
# arithmetic as numpy's scalars, without their per-operation cost or their
# overflow warnings.

def coordinated_turn_drift(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    """Constant-speed turn dynamics; the turn rate w is itself a state."""
    _, x1, _, x3, _, x5, w = x.tolist()
    return np.array([x1, -w * x3, x3, w * x1, x5, 0.0, 0.0])


# the constant entries of the Jacobian: each position moves with its velocity
_TURN_JACOBIAN = np.zeros((7, 7))
_TURN_JACOBIAN[0, 1] = _TURN_JACOBIAN[2, 3] = _TURN_JACOBIAN[4, 5] = 1.0


def coordinated_turn_jacobian(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    _, x1, _, x3, _, _, w = x.tolist()
    J = _TURN_JACOBIAN.copy()
    J[1, 3] = -w
    J[1, 6] = -x3
    J[3, 1] = w
    J[3, 6] = x1
    return J


# only the turn-rate/velocity cross terms are curved, and their Hessians do
# not depend on the state: one read-only array serves every call
_TURN_HESSIANS = np.zeros((7, 7, 7))
_TURN_HESSIANS[1, 3, 6] = _TURN_HESSIANS[1, 6, 3] = -1.0
_TURN_HESSIANS[3, 1, 6] = _TURN_HESSIANS[3, 6, 1] = 1.0
_TURN_HESSIANS.flags.writeable = False


def coordinated_turn_hessians(x: np.ndarray, t: float = 0.0) -> np.ndarray:
    """The drift Hessians, a constant: the returned array is read-only."""
    return _TURN_HESSIANS


def radar_measure(x: np.ndarray, station: np.ndarray = RADAR_STATION) -> np.ndarray:
    """Range, azimuth, elevation of a coordinated-turn state as seen from
    the station.  Azimuth uses the two-argument arctangent."""
    e, _, n, _, z, _, _ = x.tolist()
    se, sn, sz = station.tolist()
    dx = e - se
    dy = n - sn
    dz = z - sz
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
    sigma_r: float = 50.0
    sigma_angle_deg: float = 0.1
    em_substeps: int = 1000         # truth-simulation substeps per interval

    def __post_init__(self):
        if not 0 < self.interval <= self.horizon < math.inf:
            raise ValueError(f"interval {self.interval:g} s is outside "
                             f"(0, {self.horizon:g}] (the horizon, which must "
                             "be finite)")
        check_count("em_substeps", self.em_substeps, 1)
        noise = ("sigma1", "sigma2", "sigma_r", "sigma_angle_deg")
        # the covariances square the noise levels
        bad = [n for n in noise
               if not ((v := getattr(self, n)) >= 0 and v * v < math.inf)]
        if not math.isfinite(self.omega0_deg):
            bad.append("omega0_deg")
        if bad:
            raise ValueError(f"bad {', '.join(bad)}: omega0_deg must be finite, "
                             "and the noise levels >= 0 with a finite square")

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
        return MeasurementModel(
            meas_dim=3,
            h=radar_measure,
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


def _running_sum(x0, a, b) -> np.ndarray:
    """Every value of ``x_{j+1} = (x_j + a_j) + b_j``, ``x_0`` to ``x_n``,
    added in exactly that order; ``a`` is a scalar or has ``b``'s length n.

    ``np.add.accumulate`` over the interleaved ``[x_0, a_0, b_0, a_1, b_1,
    ...]`` is sequential, so it rounds as the loop does (``np.sum`` would
    add pairwise).
    """
    buf = np.empty(2 * len(b) + 1)
    buf[0] = x0
    buf[1::2] = a
    buf[2::2] = b
    np.add.accumulate(buf, out=buf)
    return buf[::2]


def _turn_recursion(x1, x3, w, e1, e3, h, out1, out3):
    """Rows 1 and 3 of one trial over one interval, in Python floats:
    ``x1 <- (x1 + h (-w x3)) + e1`` and ``x3 <- (x3 + h (w x1)) + e3``, with
    ``w`` the turn rate at the start of each substep.  Writes both rows at
    the start of every substep, and at the end, into ``out1`` and
    ``out3`` (one entry longer than ``w``)."""
    x1, x3, mh = float(x1), float(x3), -h
    o1, o3 = memoryview(out1), memoryview(out3)
    o1[0], o3[0] = x1, x3
    # negating h is exact, so (x3 w) (-h) has the bits of h (-w x3)
    for j, wj, e1j, e3j in zip(count(1), memoryview(w), memoryview(e1),
                               memoryview(e3)):
        x1, x3 = (x1 + (x3 * wj) * mh) + e1j, (x3 + (x1 * wj) * h) + e3j
        o1[j], o3[j] = x1, x3


def simulate_truth(scenario: RadarScenario, rng_seed: int) -> Trajectory:
    """Deterministic truth + measurement simulation, Euler-Maruyama with
    ``em_substeps`` steps per measurement interval.

    ``rng_seed`` is one seed, an integer >= 0.  The trial draws only from
    ``default_rng(rng_seed)``, in this order: per interval one
    (em_substeps, 7) block of process noise, then three measurement-noise
    normals.  The trajectory is bitwise equal to the plain loop
    ``x <- (x + h f(x)) + dW`` over substeps for that seed.

    The loop runs one state component at a time over a whole interval.
    The drift is ``[x1, -x6 x3, x3, x6 x1, x5, 0, 0]``, so rows 5 and 6 are
    random walks, ``x <- (x + 0 h) + dW`` (the ``0 h`` keeps the sign a
    zero gets in the loop), and each position row 0, 2, 4 is
    ``x <- (x + h v) + dW`` over the history of its velocity row 1, 3, 5.
    These are running sums (``_running_sum``), taken in the order row 6,
    then rows 1 and 3, then rows 5, 4, 0 and 2.  Rows 1 and 3 are the one
    nonlinear pair, stepped in Python floats (``_turn_recursion``) over
    the turn-rate history, about 0.15 us per substep.  The working buffers
    take about 0.16 MB at 1000 substeps.
    """
    check_count("seed", rng_seed, 0)
    mm = scenario.measurement_model()
    sk = np.diag(scenario.sde_model().diffusion_factor)
    times = scenario.measurement_times()
    n_sub = scenario.em_substeps
    h = scenario.interval / n_sub
    sqrt_h = math.sqrt(h)
    rng = np.random.default_rng(rng_seed)
    x = scenario.initial_state()
    states = np.empty((len(times), 7))
    meas = np.empty((len(times), 3))
    noise = np.empty((n_sub, 7))
    dw = noise.T                        # component, substep
    vel = np.empty((2, n_sub + 1))      # rows 1, 3 at each substep
    for k in range(len(times)):
        rng.standard_normal(out=noise)
        noise *= sk                     # dW = sqrt(h) * (sqrt(K) * noise)
        noise *= sqrt_h
        w = _running_sum(x[6], 0.0 * h, dw[6])  # turn rate at each substep
        _turn_recursion(x[1], x[3], w[:-1], dw[1], dw[3], h, vel[0], vel[1])
        x5 = _running_sum(x[5], 0.0 * h, dw[5])
        x[4] = _running_sum(x[4], x5[:-1] * h, dw[4])[-1]
        x[0] = _running_sum(x[0], vel[0, :-1] * h, dw[0])[-1]
        x[2] = _running_sum(x[2], vel[1, :-1] * h, dw[2])[-1]
        x[1], x[3], x[5], x[6] = vel[0, -1], vel[1, -1], x5[-1], w[-1]
        states[k] = x
        meas[k] = mm.h(x) + mm.noise_factor @ rng.standard_normal(3)
    if not (np.all(np.isfinite(states)) and np.all(np.isfinite(meas))):
        raise ValueError(
            f"truth simulation of seed {rng_seed} left the finite range under "
            f"sigma1={scenario.sigma1:g}, sigma2={scenario.sigma2:g}, "
            f"sigma_r={scenario.sigma_r:g}, "
            f"sigma_angle_deg={scenario.sigma_angle_deg:g}")
    return Trajectory(times=times, truth_states=states, measurements=meas)


def make_trial(scenario: RadarScenario, rng_seed: int):
    """Simulate one trial and build the filter's initial belief.

    Truth and filter both start at the scenario's initial state; Sigma0
    expresses the guess uncertainty the filter is told to assume.  (A
    sampled initial guess makes the very first time-update propagate a
    large turn-rate error through the strongly nonlinear dynamics and
    dominates every aggregate with that transient.)
    Returns ``(Trajectory, initial_belief)`` for the one seed ``rng_seed``
    (see ``simulate_truth``).
    """
    traj = simulate_truth(scenario, rng_seed)
    belief = GaussianBelief(mean=scenario.initial_state(),
                            factor=cholesky_lower(scenario.initial_covariance()),
                            time=0.0)
    return traj, belief


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
        # sigma0 squares both
        if not (self.a > 0 and self.b > 0 and self.a * self.a < math.inf
                and self.b * self.b < math.inf):
            raise ValueError("a and b must be positive with a finite square, "
                             f"got a={self.a}, b={self.b}")

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
