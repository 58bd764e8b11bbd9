"""Monte-Carlo benchmark harness for the radar tracking problem, plus the
two moment-convergence studies and the Appendix-A variant comparison.
``make_advance`` is the one map from a filter id to its time-update.
``BenchConfig``, ``check_filters``, ``run_grid``, ``convergence_study``
and ``run_appendix_a`` raise ``ValueError`` for a bad argument before any
work.

Trials are deterministic: trial ``i`` always uses seed ``base_seed + i``,
so results are independent of execution order and of how many workers run
them.  Divergent trials (position error above the threshold, or any
non-finite value, or a solver failure) are excluded from RMSE sums and
reported as a separate count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .cdckf import CdckfVariant, It15Operators, cdckf_time_update
from .errors import AllTrialsDivergent, CdFilterError, check_count
from .lskf import VARIANTS, lskf_time_update
from .measurement import measurement_update
from .models import GaussianBelief, SdeModel
from .ode import ADAPTIVE, SolverSpec
from .scenarios import (RadarScenario, TransportScenario, linear_fp_scenario,
                        make_trial, oscillator_scenario)
from .linalg import cholesky_lower, lyapunov_oracle

FILTER_IDS = ("lskf-rk1", "lskf-rk2", "lskf-rk4", "lskf-adaptive", "cdckf",
              "cdckf-proper")

# the moment-convergence problems, by name
PROBLEMS = {"linear-fp": linear_fp_scenario, "oscillator": oscillator_scenario}

# a trial diverges once its position error exceeds this (metres)
DIVERGENCE_THRESHOLD = 500.0

_POS = (0, 2, 4)
_VEL = (1, 3, 5)


@dataclass(frozen=True)
class BenchConfig:
    omega_deg: tuple = (6.0, 12.0, 24.0)
    intervals: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    m_values: tuple = (1,)
    filters: tuple = ("lskf-adaptive", "cdckf")
    variant: str = "averaged"     # level-set center-velocity mode
    trials: int = 100
    base_seed: int = 20210001
    abs_tol: float = 1e-8
    rel_tol: float = 1e-8
    sigma2: float = 7e-4
    em_substeps: int = 1000

    def __post_init__(self):
        check_count("trials", self.trials, 1)
        check_count("base_seed", self.base_seed, 0)
        if not (self.omega_deg and self.intervals):
            raise ValueError("omega_deg and intervals must not be empty")
        for omega in self.omega_deg:
            for interval in self.intervals:
                self.scenario(omega, interval)
        SolverSpec(ADAPTIVE, abs_tol=self.abs_tol, rel_tol=self.rel_tol)
        check_filters(self.filters, self.m_values, self.variant)

    def scenario(self, omega_deg: float, interval: float) -> RadarScenario:
        return RadarScenario(omega0_deg=omega_deg, interval=interval,
                             sigma2=self.sigma2, em_substeps=self.em_substeps)

    def metadata(self) -> dict:
        """The run's conventions, as recorded in a manifest."""
        return {
            "base_seed": self.base_seed,
            "trials": self.trials,
            "lskf_variant": self.variant,
            "adaptive_abs_tol": self.abs_tol,
            "adaptive_rel_tol": self.rel_tol,
            "divergence_rule": "instantaneous position error norm > "
                               f"{DIVERGENCE_THRESHOLD} m, or non-finite "
                               "value, or solver failure; divergent trials are "
                               "excluded from RMSE and counted separately",
            "sigma2": self.sigma2,
            "angle_wrapping": "azimuth/elevation innovations wrapped to (-pi, pi]",
            "initialization": "truth and filter both start at x0; Sigma0 is the assumed guess covariance",
            "seed_rule": "trial i uses base_seed + i",
        }


@dataclass(frozen=True)
class TrialMetrics:
    sq_pos: np.ndarray      # per-measurement squared position error
    sq_vel: np.ndarray
    sq_turn: np.ndarray
    divergent: bool
    wall_s: float
    drift_evals: int


def _counting_model(model: SdeModel):
    """Wrap the drift so evaluations can be reported per trial."""
    counter = {"n": 0}
    drift = model.drift

    def counted(x, t=0.0):
        counter["n"] += 1
        return drift(x, t)

    return replace(model, drift=counted), counter


def make_advance(filter_id: str, model: SdeModel, m: int,
                 variant: str = "averaged", abs_tol: float = 1e-8,
                 rel_tol: float = 1e-8):
    """The time-update of one filter id, as ``advance(belief, t1)``.

    ``m`` is the number of fixed steps for ``lskf-rk*`` and the number of
    cubature substeps for ``cdckf*``; ``lskf-adaptive`` needs no
    subdivision between measurements and ignores it.  Every id rejects an
    ``m`` that is not an integer >= 1.  ``variant`` is the level-set
    center-velocity mode.
    """
    if filter_id not in FILTER_IDS:
        raise ValueError(f"unknown filter {filter_id!r} "
                         f"(choose from {', '.join(FILTER_IDS)})")
    check_count("m", m, 1)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if filter_id.startswith("cdckf"):
        mode = "paper-faithful" if filter_id == "cdckf" else "proper-it15"
        cdckf_variant = CdckfVariant(mode, m)
        ops = It15Operators(model)
        return lambda b, t1: cdckf_time_update(b, model, cdckf_variant, t1, ops)
    if filter_id == "lskf-adaptive":
        spec = SolverSpec("adaptive-embedded", abs_tol=abs_tol, rel_tol=rel_tol)
    else:
        spec = SolverSpec("fixed-" + filter_id.removeprefix("lskf-"), steps=m)
    return lambda b, t1: lskf_time_update(b, model, variant, t1, spec)


def check_filters(filter_ids, m_values, variant: str = "averaged"):
    """Reject an empty list, an unknown id or variant and an ``m`` that is
    not an integer >= 1 for every (id, m) pair, before any filter runs."""
    if not filter_ids:
        raise ValueError("no filter id given")
    if not m_values:
        raise ValueError("no m value given")
    model = RadarScenario().sde_model()
    for f in filter_ids:
        for m in m_values:
            make_advance(f, model, m, variant)


def run_trial(config: BenchConfig, filter_id: str, m: int,
              scenario: RadarScenario, trial) -> TrialMetrics:
    """One trial of one filter on ``scenario``: alternate the time-update
    and the measurement update over ``trial``, the ``make_trial`` output
    ``(Trajectory, initial_belief)``, and record the squared errors.  A
    non-finite belief, a position error above ``DIVERGENCE_THRESHOLD`` or
    a ``CdFilterError`` (which zeroes every error) makes it divergent."""
    traj, b = trial
    model, counter = _counting_model(scenario.sde_model())
    advance = make_advance(filter_id, model, m, config.variant,
                           config.abs_tol, config.rel_tol)
    mm = scenario.measurement_model()
    n = len(traj.times)
    sq_pos = np.zeros(n)
    sq_vel = np.zeros(n)
    sq_turn = np.zeros(n)
    divergent = True            # unless the loop runs to its end
    t0 = time.perf_counter()
    try:
        for k, t_k in enumerate(traj.times):
            b = advance(b, t_k)
            b, _ = measurement_update(b, mm, traj.measurements[k])
            err = b.mean - traj.truth_states[k]
            if not np.all(np.isfinite(b.mean)) or not np.all(np.isfinite(b.factor)):
                break
            sq_pos[k] = sum(err[i] ** 2 for i in _POS)
            sq_vel[k] = sum(err[i] ** 2 for i in _VEL)
            sq_turn[k] = err[6] ** 2
            if np.sqrt(sq_pos[k]) > DIVERGENCE_THRESHOLD:
                break
        else:
            divergent = False
    except CdFilterError:
        sq_pos = sq_vel = sq_turn = np.zeros(n)
    wall = time.perf_counter() - t0
    return TrialMetrics(sq_pos=sq_pos, sq_vel=sq_vel, sq_turn=sq_turn,
                        divergent=divergent, wall_s=wall,
                        drift_evals=counter["n"])


def rmse(metrics: list, quantity: str) -> float:
    """Root-mean-square error over all non-divergent trials and instants.

    ``quantity`` is one of ``position``, ``velocity``, ``turn_rate``.
    """
    attr = {"position": "sq_pos", "velocity": "sq_vel",
            "turn_rate": "sq_turn"}[quantity]
    live = [t for t in metrics if not t.divergent]
    if not live:
        raise AllTrialsDivergent("no non-divergent trials to aggregate")
    total = sum(float(np.sum(getattr(t, attr))) for t in live)
    n_meas = len(live[0].sq_pos)
    return float(np.sqrt(total / (len(live) * n_meas)))


def _trial_worker(args):
    """Trial ``i`` of one grid cell: simulate it from seed
    ``base_seed + i``, then run every (filter, m) on it; one metrics entry
    per (filter, m)."""
    config, omega, interval, cells, i = args
    scenario = config.scenario(omega, interval)
    trial = make_trial(scenario, config.base_seed + i)
    return [run_trial(config, f, m, scenario, trial) for (f, m) in cells]


def run_grid(config: BenchConfig, jobs: int = 1) -> list:
    """Sweep (filter, omega, interval, m), ``trials`` Monte-Carlo runs per
    cell; trajectories are shared across filters within a cell/trial.
    One task is one trial (``_trial_worker``).  With ``jobs > 1`` each cell
    maps its trials over one process pool of ``min(jobs, trials)``
    workers; otherwise they run in order in this process.  Returns one row
    dict per (filter, omega, interval, m) cell."""
    check_count("jobs", jobs, 1)
    cells = [(f, m) for f in config.filters for m in config.m_values]
    rows = []
    for omega in config.omega_deg:
        for interval in config.intervals:
            args = [(config, omega, interval, cells, i) for i in range(config.trials)]
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=min(jobs, config.trials)) as pool:
                    per_trial = list(pool.map(_trial_worker, args))
            else:
                per_trial = [_trial_worker(a) for a in args]
            for c, (f, m) in enumerate(cells):
                metrics = [trial[c] for trial in per_trial]
                rows.append(_aggregate(config, f, m, omega, interval, metrics))
    return rows


def _aggregate(config, filter_id, m, omega, interval, metrics):
    divergent = sum(t.divergent for t in metrics)
    row = {
        "filter": filter_id,
        "variant": config.variant,
        "omega_deg": omega,
        "interval_s": interval,
        "m": m,
        "trials": config.trials,
        "divergent": divergent,
        "rmse_pos_m": np.nan,
        "rmse_vel_mps": np.nan,
        "rmse_turn_radps": np.nan,
        "wall_ms_per_trial": 1e3 * float(np.mean([t.wall_s for t in metrics])),
        "rhs_evals_mean": float(np.mean([t.drift_evals for t in metrics])),
    }
    if divergent < config.trials:
        row["rmse_pos_m"] = rmse(metrics, "position")
        row["rmse_vel_mps"] = rmse(metrics, "velocity")
        row["rmse_turn_radps"] = rmse(metrics, "turn_rate")
    return row


# ---------------------------------------------------------------------------
# moment-convergence studies and the Appendix-A variant comparison
# ---------------------------------------------------------------------------

def convergence_study(problem: str, methods, step_counts):
    """Error of each time-update method versus the Lyapunov oracle.

    ``problem`` is ``linear-fp`` or ``oscillator``; ``methods`` are filter
    ids.  Returns one row per (method, steps): dt, mean-error L2 norm,
    covariance-error Frobenius.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r} "
                         f"(choose from {', '.join(PROBLEMS)})")
    check_filters(methods, step_counts)
    sc = PROBLEMS[problem]()
    ref_mean, ref_cov = lyapunov_oracle(sc.system, sc.mean0, sc.sigma0,
                                        sc.t_end, 1e-13)
    model = sc.sde_model()
    belief0 = GaussianBelief(mean=sc.mean0, factor=cholesky_lower(sc.sigma0))
    rows = []
    for method in methods:
        for m in step_counts:
            advance = make_advance(method, model, m, abs_tol=1e-10, rel_tol=1e-10)
            b = advance(belief0, sc.t_end)
            rows.append({
                "method": method,
                "steps": m,
                "dt": sc.t_end / m,
                "err_mean_l2": float(np.linalg.norm(b.mean - ref_mean)),
                "err_cov_fro": float(np.linalg.norm(b.covariance() - ref_cov)),
            })
    return rows


def check_appendix_a(factorizations: int, seed: int, a: float, b: float,
                     t_end: float) -> TransportScenario:
    """Reject bad Appendix-A arguments; returns the transport flow."""
    check_count("seed", seed, 0)
    check_count("factorizations", factorizations, 1)
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and >= 0, got {t_end}")
    return TransportScenario(a, b)


def run_appendix_a(factorizations: int, seed: int, a: float, b: float,
                   t_end: float):
    """Compare center-velocity variants over random covariance factors."""
    ts = check_appendix_a(factorizations, seed, a, b, t_end)
    model = ts.sde_model()
    base_factor = cholesky_lower(ts.sigma0())
    rng = np.random.default_rng(seed)
    advances = {v: make_advance("lskf-rk4", model, 32, v) for v in VARIANTS}
    errors = {v: [] for v in VARIANTS}
    covs = {v: [] for v in VARIANTS}
    for _ in range(factorizations):
        q, _r = np.linalg.qr(rng.standard_normal((2, 2)))
        belief0 = GaussianBelief(mean=np.zeros(2), factor=base_factor @ q)
        for v in VARIANTS:
            b1 = advances[v](belief0, t_end)
            errors[v].append(ts.l2_error(b1.mean, b1.covariance(), t_end))
            covs[v].append(b1.covariance())
    return [{
        "variant": v,
        "factorizations": factorizations,
        "mean_l2_err": float(np.mean(errors[v])),
        "cov_entry_std": float(np.mean(np.std(np.array(covs[v]), axis=0))),
    } for v in VARIANTS]
