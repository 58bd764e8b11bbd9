"""Acceptance suite: nine end-to-end checks of the published claims.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output of a failing run) in addition to
its asserts.
"""

import time

import numpy as np
import pytest

from cdfilter import (
    CdckfVariant,
    GaussianBelief,
    LinearSystem,
    MeasurementModel,
    OdeProblem,
    SolverSpec,
    cdckf_time_update,
    cholesky_lower,
    count_drift_evals,
    integrate,
    lskf_rhs,
    lskf_time_update,
    lyapunov_oracle,
    measurement_update,
    order_of_accuracy,
)
from cdfilter.bench import BenchConfig, run_appendix_a, run_grid
from cdfilter.models import SdeModel
from cdfilter.scenarios import linear_fp_scenario, oscillator_scenario


def _report(n, ok, detail=""):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, detail


def _random_linear_system(rng, d):
    J = rng.standard_normal((d, d))
    J /= max(1.0, np.linalg.norm(J, 2))
    A = rng.standard_normal((d, d))
    K = A @ A.T / d
    M0 = rng.standard_normal((d, d)) + (1.0 + d / 4.0) * np.eye(d)
    x0 = rng.standard_normal(d)
    return LinearSystem(J=J, K=K), x0, M0


def test_acceptance_1_linear_drift_exactness():
    # a Gaussian stays Gaussian under linear drift: the level-set update
    # at tight tolerance reproduces the exact first two moments
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    spec = SolverSpec("adaptive-embedded", abs_tol=1e-10, rel_tol=1e-10)
    for _ in range(50):
        d = int(rng.integers(1, 6))
        sys, x0, M0 = _random_linear_system(rng, d)
        t_end = float(rng.uniform(0.1, 2.0))
        belief = GaussianBelief(mean=x0, factor=M0)
        out = lskf_time_update(belief, sys.as_sde(), "averaged", t_end, spec)
        _, s_ref = lyapunov_oracle(sys, x0, M0 @ M0.T, t_end, 1e-12)
        worst = max(worst, float(np.linalg.norm(out.covariance() - s_ref)))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-7 and elapsed < 10.0,
            f"worst covariance error {worst:.3e}, {elapsed:.1f} s")


def test_acceptance_2_solver_order_preserved():
    # covariance error of the level-set update inherits the order of the
    # underlying fixed-step scheme on the 2-d linear benchmark
    sc = linear_fp_scenario()
    model = sc.sde_model()
    belief0 = GaussianBelief(mean=sc.mean0, factor=cholesky_lower(sc.sigma0))
    _, s_ref = lyapunov_oracle(sc.system, sc.mean0, sc.sigma0, sc.t_end, 1e-13)
    t0 = time.perf_counter()

    def slope(kind, step_counts, floor):
        dts, errs = [], []
        for m in step_counts:
            out = lskf_time_update(belief0, model, "averaged", sc.t_end,
                                   SolverSpec(kind, steps=m))
            err = np.abs(out.covariance() - s_ref).max()
            if err > floor:
                dts.append(sc.t_end / m)
                errs.append(err)
        fit, _ = np.polyfit(np.log(dts), np.log(errs), 1)
        return float(fit)

    p1 = slope("fixed-rk1", (40, 80, 160, 320, 640), 0.0)
    p2 = slope("fixed-rk2", (20, 40, 80, 160, 320), 0.0)
    p4 = slope("fixed-rk4", (5, 10, 20, 40, 80), 1e-11)
    elapsed = time.perf_counter() - t0
    ok = (abs(p1 - 1.0) <= 0.15 and abs(p2 - 2.0) <= 0.2
          and abs(p4 - 4.0) <= 0.4 and elapsed < 30.0)
    _report(2, ok, f"slopes {p1:.2f}/{p2:.2f}/{p4:.2f}, {elapsed:.1f} s")


def test_acceptance_3_refinement_limits():
    # on the oscillator: proper Taylor-map and level-set limits coincide
    # with the oracle; the once-per-interval noise discretization does not
    sc = oscillator_scenario()
    model = sc.sde_model()
    belief0 = GaussianBelief(mean=sc.mean0, factor=cholesky_lower(sc.sigma0))
    x_ref, s_ref = lyapunov_oracle(sc.system, sc.mean0, sc.sigma0,
                                   sc.t_end, 1e-13)
    t0 = time.perf_counter()

    proper = cdckf_time_update(belief0, model,
                               CdckfVariant("proper-it15", 1024), sc.t_end)
    lskf2 = lskf_time_update(belief0, model, "averaged", sc.t_end,
                             SolverSpec("fixed-rk2", steps=1024))
    agree_mean = np.linalg.norm(proper.mean - lskf2.mean)
    agree_cov = np.linalg.norm(proper.covariance() - lskf2.covariance())
    proper_vs_oracle = max(np.linalg.norm(proper.mean - x_ref),
                           np.linalg.norm(proper.covariance() - s_ref))
    lskf_vs_oracle = max(np.linalg.norm(lskf2.mean - x_ref),
                         np.linalg.norm(lskf2.covariance() - s_ref))
    a = (agree_mean <= 1e-6 and agree_cov <= 1e-6
         and proper_vs_oracle <= 1e-6 and lskf_vs_oracle <= 1e-6)

    biased = cdckf_time_update(belief0, model,
                               CdckfVariant("paper-faithful", 1024), sc.t_end)
    bias = np.linalg.norm(biased.covariance() - s_ref)
    b = bias > 1e-5

    rk4 = lskf_time_update(belief0, model, "averaged", sc.t_end,
                           SolverSpec("fixed-rk4", steps=32))
    rk4_err = max(np.linalg.norm(rk4.mean - x_ref),
                  np.linalg.norm(rk4.covariance() - s_ref))
    c = rk4_err <= 1e-9
    elapsed = time.perf_counter() - t0
    _report(3, a and b and c and elapsed < 60.0,
            f"limit gap {agree_cov:.1e}, bias {bias:.1e}, "
            f"rk4 {rk4_err:.1e}, {elapsed:.1f} s")


def test_acceptance_4_measurement_update_oracle():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        d = int(rng.integers(1, 7))
        nz = int(rng.integers(1, d + 1))
        M = rng.standard_normal((d, d)) + 0.5 * np.eye(d)
        if i < 20:
            M[:, rng.integers(0, d)] = 0.0   # rank-deficient prior factor
        sigma = M @ M.T
        H = rng.standard_normal((nz, d))
        B = rng.standard_normal((nz, nz))
        R = B @ B.T + 0.2 * np.eye(nz)
        mean = rng.standard_normal(d)
        y = rng.standard_normal(nz)

        mm = MeasurementModel(meas_dim=nz, h=lambda x, H=H: H @ x,
                              noise_factor=cholesky_lower(R))
        post, _ = measurement_update(GaussianBelief(mean, M), mm, y)

        S = H @ sigma @ H.T + R
        W = sigma @ H.T @ np.linalg.inv(S)
        ref_mean = mean + W @ (y - H @ mean)
        ref_sigma = sigma - W @ S @ W.T
        worst = max(worst,
                    float(np.abs(post.mean - ref_mean).max()),
                    float(np.abs(post.covariance() - ref_sigma).max()))
    elapsed = time.perf_counter() - t0
    _report(4, worst <= 1e-10 and elapsed < 5.0,
            f"worst deviation {worst:.2e}, {elapsed:.1f} s")


# module-scope cache so criteria 5 and 6 share the expensive sweep
_GRID_RESULTS = {}


def _rmse_grid(filter_id, m):
    key = (filter_id, m)
    if key not in _GRID_RESULTS:
        cfg = BenchConfig(omega_deg=(6.0, 12.0, 24.0), intervals=(2.0, 4.0, 6.0),
                          m_values=(m,), filters=(filter_id,), trials=25)
        _GRID_RESULTS[key] = {(r["omega_deg"], r["interval_s"]): r
                              for r in run_grid(cfg).rows}
    return _GRID_RESULTS[key]


def test_acceptance_5_radar_study():
    t0 = time.perf_counter()
    lskf = _rmse_grid("lskf-adaptive", 1)
    cdckf = _rmse_grid("cdckf", 64)
    ok = True
    lines = []
    for cell in sorted(lskf):
        a, b = lskf[cell], cdckf[cell]
        cell_ok = (a["rmse_pos_m"] <= b["rmse_pos_m"]
                   and a["divergent"] <= b["divergent"])
        ok = ok and cell_ok
        lines.append(f"w={cell[0]:g} T={cell[1]:g}: "
                     f"{a['rmse_pos_m']:.1f} vs {b['rmse_pos_m']:.1f} m")
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 900.0,
            "; ".join(lines) + f"; {elapsed:.0f} s")


def test_acceptance_6_subdivision_invariance():
    # pre-splitting the adaptive update into m pieces must not change the
    # per-trial final estimate on matched seeds
    worst = 0.0
    finals = {}
    for m in (1, 4, 16):
        cfg = BenchConfig(omega_deg=(6.0,), intervals=(6.0,), m_values=(m,),
                          filters=("lskf-adaptive",), trials=3)
        from cdfilter.scenarios import make_trial
        per_trial = []
        for i in range(cfg.trials):
            sc = cfg.scenario(6.0, 6.0)
            traj, belief = make_trial(sc, cfg.base_seed + i)
            model, mm = sc.sde_model(), sc.measurement_model()
            b = belief
            spec = SolverSpec("adaptive-embedded", abs_tol=cfg.abs_tol,
                              rel_tol=cfg.rel_tol)
            for k, t_k in enumerate(traj.times):
                edges = np.linspace(b.time, t_k, m + 1)
                for te in edges[1:]:
                    b = lskf_time_update(b, model, "averaged", te, spec)
                b, _ = measurement_update(b, mm, traj.measurements[k])
            per_trial.append(b.mean)
        finals[m] = per_trial
    for m in (4, 16):
        for a, b in zip(finals[1], finals[m]):
            worst = max(worst, float(np.abs(a - b).max()))
    _report(6, worst <= 1e-6, f"max final-mean deviation {worst:.2e}")


def test_acceptance_7_divergence_reproduction():
    cfg = BenchConfig(omega_deg=(24.0,), intervals=(6.0,), m_values=(1,),
                      filters=("cdckf",), trials=25)
    row = run_grid(cfg).rows[0]
    _report(7, row["divergent"] == 25,
            f"divergent {row['divergent']}/25")


def test_acceptance_8_variant_ordering_on_transport_flow():
    rows = {r["variant"]: r for r in run_appendix_a(256, 20210001, 0.5, 1.0, 1.0)}
    std, avg, par = rows["standard"], rows["averaged"], rows["partial"]
    ok = (avg["mean_l2_err"] < std["mean_l2_err"]
          and par["mean_l2_err"] < std["mean_l2_err"]
          and avg["cov_entry_std"] <= par["cov_entry_std"])
    _report(8, ok,
            f"L2 err std/avg/par = {std['mean_l2_err']:.4f}/"
            f"{avg['mean_l2_err']:.4f}/{par['mean_l2_err']:.4f}; "
            f"cov std avg/par = {avg['cov_entry_std']:.4f}/"
            f"{par['cov_entry_std']:.4f}")


def test_acceptance_9_cost_accounting():
    counts = {}

    def make_model(d):
        def drift(x, t=0.0):
            counts["n"] += 1
            return -x

        return SdeModel(dim=d, drift=drift, diffusion_factor=np.eye(d))

    ok = True
    details = []
    for d in (2, 3, 7):
        model = make_model(d)
        for variant in ("standard", "averaged", "partial"):
            counts["n"] = 0
            lskf_rhs(0.0, np.zeros(d), np.eye(d), model, variant)
            expect = count_drift_evals(variant, d)
            per_rhs_ok = counts["n"] == expect
            # one RK4 step costs exactly four rhs calls
            counts["n"] = 0
            belief = GaussianBelief(np.zeros(d), np.eye(d))
            lskf_time_update(belief, model, variant, 0.5,
                             SolverSpec("fixed-rk4", steps=1))
            rk4_ok = counts["n"] == 4 * expect
            ok = ok and per_rhs_ok and rk4_ok
            details.append(f"{variant}[d={d}]={'ok' if per_rhs_ok and rk4_ok else 'BAD'}")
    expected_table = (count_drift_evals("averaged", 3) == 6
                      and count_drift_evals("standard", 3) == 4
                      and count_drift_evals("partial", 3) == 4)
    _report(9, ok and expected_table, ", ".join(details))
