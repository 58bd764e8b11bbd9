import numpy as np
import pytest

from cdfilter import AllTrialsDivergent, GaussianBelief, RadarScenario, cholesky_lower
from cdfilter.bench import (
    FILTER_IDS,
    BenchConfig,
    TrialMetrics,
    _filter_loop,
    convergence_study,
    make_advance,
    rmse,
    run_grid,
    run_trial,
)
from cdfilter.linalg import lyapunov_oracle
from cdfilter.scenarios import make_trial, oscillator_scenario, simulate_truth

# a cheap single-cell configuration used by several tests
_FAST = dict(omega_deg=(6.0,), intervals=(6.0,), m_values=(2,),
             filters=("cdckf",), em_substeps=50)


class TestConfig:
    def test_defaults_match_published_grid(self):
        cfg = BenchConfig()
        assert cfg.omega_deg == (6.0, 12.0, 24.0)
        assert cfg.intervals == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        assert cfg.trials == 100
        assert cfg.base_seed == 20210001

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(trials=0)
        with pytest.raises(ValueError):
            BenchConfig(filters=("ekf",))
        # m = 0 would skip the time-update (adaptive) or fail inside a
        # worker (cdckf); both are rejected up front
        for f in ("lskf-adaptive", "cdckf"):
            with pytest.raises(ValueError):
                BenchConfig(filters=(f,), m_values=(0,))
        with pytest.raises(ValueError):
            BenchConfig(variant="bogus")
        # a bad adaptive tolerance is found here, not inside run_grid
        for tol in ({"abs_tol": 0.0}, {"rel_tol": -1e-8}):
            with pytest.raises(ValueError):
                BenchConfig(filters=("lskf-adaptive",), **tol)

    def test_known_filter_ids(self):
        assert set(FILTER_IDS) == {"lskf-rk1", "lskf-rk2", "lskf-rk4",
                                   "lskf-adaptive", "cdckf", "cdckf-proper"}


class TestRmse:
    def _metric(self, sq, divergent=False):
        z = np.asarray(sq, float)
        return TrialMetrics(sq_pos=z, sq_vel=z, sq_turn=z,
                            divergent=divergent, wall_s=0.0, drift_evals=0)

    def test_hand_computed(self):
        # two trials, two instants: sqrt((1+4+9+16)/4)
        metrics = [self._metric([1.0, 4.0]), self._metric([9.0, 16.0])]
        np.testing.assert_allclose(rmse(metrics, "position"),
                                   np.sqrt(30.0 / 4.0))

    def test_divergent_trials_excluded(self):
        metrics = [self._metric([1.0, 1.0]),
                   self._metric([1e9, 1e9], divergent=True)]
        np.testing.assert_allclose(rmse(metrics, "position"), 1.0)

    def test_all_divergent_raises(self):
        with pytest.raises(AllTrialsDivergent):
            rmse([self._metric([1.0], divergent=True)], "position")

    def test_order_invariance(self):
        rng = np.random.default_rng(14)
        metrics = [self._metric(rng.uniform(0, 10, 5)) for _ in range(8)]
        a = rmse(metrics, "velocity")
        b = rmse(list(reversed(metrics)), "velocity")
        assert a == b


class TestRunTrial:
    def test_deterministic(self):
        cfg = BenchConfig(trials=1, **_FAST)
        a = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 0)
        b = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 0)
        np.testing.assert_array_equal(a.sq_pos, b.sq_pos)
        assert a.divergent == b.divergent
        c = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 1)
        assert not np.array_equal(a.sq_pos, c.sq_pos)

    def test_reports_drift_eval_count(self):
        cfg = BenchConfig(trials=1, **_FAST)
        t = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 0)
        # 20 intervals x 2 substeps x 14 cubature points x 2 drift calls
        assert t.drift_evals == 20 * 2 * 14 * 2

    def test_noise_free_straight_line_tracks_exactly(self):
        # zero noise everywhere and near-perfect initialization: the
        # filter follows a straight-line flight with negligible position
        # error at every measurement.  (With exact measurements the belief
        # collapses to machine zero; past ~10 updates the innovation factor
        # underflows and the documented degenerate-covariance error fires,
        # so the check runs over a 60 s horizon.)
        sc = RadarScenario(omega0_deg=0.0, sigma1=0.0, sigma2=0.0,
                           sigma_r=0.0, sigma_angle_deg=0.0, horizon=60.0,
                           em_substeps=10)
        traj = simulate_truth(sc, 0)
        belief = GaussianBelief(sc.initial_state(), 1e-4 * np.eye(7))
        advance = make_advance("lskf-adaptive", sc.sde_model(), 1)
        sq_pos, _, _, divergent = _filter_loop(
            advance, sc.measurement_model(), traj, belief, 500.0)
        assert not divergent
        assert np.sqrt(sq_pos.max()) <= 1e-3


class TestRunGrid:
    def test_single_trial_matches_run_trial(self):
        cfg = BenchConfig(trials=1, **_FAST)
        report = run_grid(cfg)
        assert len(report.rows) == 1
        row = report.rows[0]
        t = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 0)
        np.testing.assert_allclose(row["rmse_pos_m"],
                                   np.sqrt(t.sq_pos.mean()), rtol=1e-12)
        assert row["divergent"] == int(t.divergent)

    def test_parallel_equals_serial(self):
        cfg = BenchConfig(trials=3, **_FAST)
        serial = run_grid(cfg, jobs=1)
        parallel = run_grid(cfg, jobs=2)
        for a, b in zip(serial.rows, parallel.rows):
            for key in ("rmse_pos_m", "rmse_vel_mps", "rmse_turn_radps",
                        "divergent"):
                assert abs(a[key] - b[key]) <= 1e-12 * max(1.0, abs(a[key]))

    def test_metadata_records_conventions(self):
        report = run_grid(BenchConfig(trials=1, **_FAST))
        md = report.metadata
        assert md["base_seed"] == 20210001
        assert "base_seed + i" in md["seed_rule"]
        assert "500" in md["divergence_rule"]
        assert "(-pi, pi]" in md["angle_wrapping"]

    def test_em_substep_halving_changes_aggregates_little(self):
        # the truth simulation is an approximation; halving its step must
        # not move the Monte-Carlo aggregates by more than 2%
        vals = {}
        for sub in (1000, 2000):
            cfg = BenchConfig(omega_deg=(6.0,), intervals=(6.0,),
                              m_values=(4,), filters=("cdckf",),
                              trials=100, em_substeps=sub)
            vals[sub] = run_grid(cfg).rows[0]
        for q in ("rmse_pos_m", "rmse_vel_mps", "rmse_turn_radps"):
            rel = abs(vals[1000][q] - vals[2000][q]) / vals[1000][q]
            assert rel <= 0.02, (q, rel)


class TestConvergenceStudy:
    def test_linear_fp_rows(self):
        rows = convergence_study("linear-fp", ["lskf-rk2"], [8, 32])
        assert [r["steps"] for r in rows] == [8, 32]
        assert rows[0]["err_cov_fro"] > rows[1]["err_cov_fro"]
        # second-order scheme: 4x steps => ~16x error drop
        ratio = rows[0]["err_cov_fro"] / rows[1]["err_cov_fro"]
        assert 10.0 <= ratio <= 25.0

    def test_oscillator_common_limit(self):
        rows = convergence_study("oscillator",
                                 ["lskf-rk2", "cdckf-proper"], [256])
        for r in rows:
            assert r["err_mean_l2"] <= 1e-6
            assert r["err_cov_fro"] <= 1e-6

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            convergence_study("lorenz", ["lskf-rk2"], [8])


class TestMakeAdvance:
    def test_every_filter_id_advances_a_belief(self):
        # each time-update moves the oscillator's belief to t_end and
        # closer to the exact moments than the unpropagated belief
        sc = oscillator_scenario()
        model = sc.sde_model()
        belief0 = GaussianBelief(sc.mean0, cholesky_lower(sc.sigma0))
        ref_mean, _ = lyapunov_oracle(sc.system, sc.mean0, sc.sigma0,
                                      sc.t_end, 1e-13)
        stay = np.linalg.norm(belief0.mean - ref_mean)
        for filter_id in FILTER_IDS:
            b = make_advance(filter_id, model, 4)(belief0, sc.t_end)
            assert b.time == sc.t_end, filter_id
            assert np.all(np.isfinite(b.factor)), filter_id
            assert np.linalg.norm(b.mean - ref_mean) < 0.1 * stay, filter_id

    def test_unknown_id_rejected_everywhere(self):
        model = oscillator_scenario().sde_model()
        with pytest.raises(ValueError):
            make_advance("ekf", model, 1)
        with pytest.raises(ValueError):
            BenchConfig(filters=("ekf",))
        with pytest.raises(ValueError):
            convergence_study("linear-fp", ["ekf"], [8])

    def test_nonpositive_m_rejected(self):
        model = oscillator_scenario().sde_model()
        for filter_id in FILTER_IDS:
            with pytest.raises(ValueError):
                make_advance(filter_id, model, 0)

    def test_adaptive_ignores_m(self):
        sc = RadarScenario(omega0_deg=12.0, interval=4.0, em_substeps=50)
        _, belief = make_trial(sc, 3)
        model = sc.sde_model()
        base = make_advance("lskf-adaptive", model, 1)(belief, 4.0)
        for m in (2, 7):
            b = make_advance("lskf-adaptive", model, m)(belief, 4.0)
            np.testing.assert_array_equal(b.mean, base.mean)
            np.testing.assert_array_equal(b.factor, base.factor)
        rows = convergence_study("oscillator", ["lskf-adaptive"], [4, 64])
        assert rows[0]["err_cov_fro"] == rows[1]["err_cov_fro"]
        assert rows[0]["err_mean_l2"] == rows[1]["err_mean_l2"]
