import numpy as np
import pytest

import cdfilter.bench as bench
from cdfilter import (AllTrialsDivergent, CdckfVariant, GaussianBelief, RadarScenario,
                      SolverSpec, cholesky_lower)
from cdfilter.bench import (
    FILTER_IDS,
    BenchConfig,
    TrialMetrics,
    _filter_loop,
    check_appendix_a,
    convergence_study,
    make_advance,
    rmse,
    run_appendix_a,
    run_grid,
    run_trial,
)
from cdfilter.errors import check_count
from cdfilter.linalg import lyapunov_oracle
from cdfilter.lskf import count_drift_evals
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

    @pytest.mark.parametrize("tol", [{"abs_tol": np.nan}, {"rel_tol": np.nan},
                                     {"abs_tol": np.inf}, {"rel_tol": np.inf}])
    def test_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError):
            SolverSpec("adaptive-embedded", **tol)
        with pytest.raises(ValueError):
            make_advance("lskf-adaptive", RadarScenario().sde_model(), 1, **tol)
        with pytest.raises(ValueError):
            BenchConfig(**tol)

    def test_known_filter_ids(self):
        assert set(FILTER_IDS) == {"lskf-rk1", "lskf-rk2", "lskf-rk4",
                                   "lskf-adaptive", "cdckf", "cdckf-proper"}


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if a trial, a time-update or an oracle starts."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the arguments were checked")

    for name in ("make_trial", "lskf_time_update", "cdckf_time_update",
                 "lyapunov_oracle"):
        monkeypatch.setattr(bench, name, refuse)


class TestRejectedBeforeWork:
    """A bad run value raises ValueError at its library entry point before
    any row or trial is computed."""

    @pytest.mark.parametrize("kwargs", [
        {"intervals": (0.0,)},
        {"intervals": (121.0,)},
        {"intervals": (np.nan,)},
        {"intervals": ()},
        {"omega_deg": ()},
        {"filters": ()},
        {"m_values": ()},
        {"filters": ("cdckf",), "rel_tol": np.nan},
        {"omega_deg": (np.nan,)},
        {"sigma2": np.nan},
        {"em_substeps": 0},
        {"m_values": (2.5,), "filters": ("lskf-rk2",)},
        {"m_values": (2.5,), "filters": ("cdckf",)},
        {"trials": 1.5},
        {"trials": np.nan},
        {"em_substeps": 2.5},
        {"base_seed": -1},
        {"base_seed": 1.5},
        {"trials": True},
        {"base_seed": True},
        {"em_substeps": True},
    ])
    def test_bench_config(self, no_work, kwargs):
        with pytest.raises(ValueError):
            BenchConfig(**kwargs)

    @pytest.mark.parametrize("methods, steps", [
        ([], [8]),
        (["lskf-rk2"], []),
        (["lskf-rk2"], [8, 0]),
        (["lskf-rk2"], [2.5]),
    ])
    def test_convergence_study(self, no_work, methods, steps):
        with pytest.raises(ValueError):
            convergence_study("linear-fp", methods, steps)

    @pytest.mark.parametrize("factorizations, t_end", [
        (0, 1.0), (4, -1.0), (4, np.nan), (4, np.inf),
        (2.5, 1.0), (np.nan, 1.0), (True, 1.0),
    ])
    def test_appendix_a(self, no_work, factorizations, t_end):
        with pytest.raises(ValueError):
            run_appendix_a(factorizations, 1, 0.5, 1.0, t_end)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_appendix_a_seed(self, no_work, seed):
        with pytest.raises(ValueError, match="seed"):
            check_appendix_a(4, seed, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="seed"):
            run_appendix_a(4, seed, 0.5, 1.0, 1.0)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", None, True])
    def test_run_grid_jobs(self, no_work, jobs):
        with pytest.raises(ValueError, match="jobs"):
            check_count("jobs", jobs, 1)
        with pytest.raises(ValueError, match="jobs"):
            run_grid(BenchConfig(trials=1, **_FAST), jobs=jobs)

    def test_non_integer_counts_rejected_where_owned(self):
        with pytest.raises(ValueError, match="integer"):
            SolverSpec("fixed-rk2", steps=2.5)
        with pytest.raises(ValueError, match="integer"):
            CdckfVariant("paper-faithful", 2.5)
        with pytest.raises(ValueError, match="integer"):
            RadarScenario(em_substeps=2.5)
        for filter_id in FILTER_IDS:
            with pytest.raises(ValueError, match="integer"):
                make_advance(filter_id, RadarScenario().sde_model(), 2.5)
        for max_steps in (2.5, 0, -1, True):
            with pytest.raises(ValueError, match="integer"):
                SolverSpec("adaptive-embedded", max_steps=max_steps)
        for d in (2.5, True):
            with pytest.raises(ValueError, match="integer"):
                count_drift_evals("averaged", d)
        sc = RadarScenario(em_substeps=10)
        for seed in (1.5, True, -1, np.nan, [1, 1.5], (7, True)):
            for fn in (simulate_truth, make_trial):
                with pytest.raises(ValueError, match="seed"):
                    fn(sc, seed)
        # numpy integers are integers
        BenchConfig(trials=np.int64(2), m_values=(np.int64(2),),
                    em_substeps=np.int64(50), base_seed=np.int64(5))
        SolverSpec("adaptive-embedded", max_steps=np.int64(5))
        assert count_drift_evals("averaged", np.int64(3)) == 6
        check_appendix_a(np.int64(4), np.int64(1), 0.5, 1.0, 1.0)
        assert len(make_trial(sc, [np.int64(7), 8])) == 2

    def test_unknown_id_message_lists_the_ids(self):
        with pytest.raises(ValueError, match="cdckf-proper"):
            make_advance("ekf", RadarScenario().sde_model(), 1)


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

    def test_non_finite_prior_counts_as_divergent(self, monkeypatch):
        # a time-update that returns a NaN belief: the measurement update
        # raises NonFiniteBelief, and the trial is divergent, not a crash
        def nan_advance(*args, **kwargs):
            return lambda b, t1: GaussianBelief(np.full(7, np.nan), b.factor, t1)

        monkeypatch.setattr(bench, "make_advance", nan_advance)
        t = run_trial(BenchConfig(trials=1, **_FAST), "cdckf", 2, 6.0, 6.0, 0)
        assert t.divergent

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
        rows = run_grid(cfg)
        assert len(rows) == 1
        row = rows[0]
        t = run_trial(cfg, "cdckf", 2, 6.0, 6.0, 0)
        np.testing.assert_allclose(row["rmse_pos_m"],
                                   np.sqrt(t.sq_pos.mean()), rtol=1e-12)
        assert row["divergent"] == int(t.divergent)

    def test_parallel_equals_serial(self):
        # every field but the timing is equal, bit for bit; one trial on
        # two jobs makes one chunk
        for trials in (3, 1):
            cfg = BenchConfig(trials=trials, **_FAST)
            serial = run_grid(cfg, jobs=1)
            parallel = run_grid(cfg, jobs=2)
            assert len(serial) == len(parallel) == 1
            for a, b in zip(serial, parallel):
                assert a.keys() == b.keys()
                for key in a.keys() - {"wall_ms_per_trial"}:
                    assert a[key] == b[key], (trials, key)

    @pytest.mark.parametrize("trials", [1, 2, 3, 4, 7, 25, 100])
    @pytest.mark.parametrize("jobs", [-1, 0, 1, 2, 3, 8])
    def test_chunks_are_contiguous_and_never_empty(self, trials, jobs):
        chunks = bench._chunks(trials, jobs)
        assert len(chunks) == (min(jobs, trials) if jobs > 1 else 1)
        assert all(len(c) > 0 for c in chunks)
        assert [i for c in chunks for i in c] == list(range(trials))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_grid_builds_no_empty_chunk(self, monkeypatch):
        seen = []
        worker = bench._trial_worker

        def record(args):
            seen.append(list(args[4]))
            return worker(args)

        monkeypatch.setattr(bench, "_trial_worker", record)
        run_grid(BenchConfig(trials=1, **_FAST), jobs=1)
        run_grid(BenchConfig(trials=3, **_FAST), jobs=1)
        assert seen == [[0], [0, 1, 2]]

    def test_metadata_records_conventions(self):
        md = BenchConfig(trials=1, **_FAST).metadata()
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
            vals[sub] = run_grid(cfg)[0]
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
