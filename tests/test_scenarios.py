import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cdfilter import (
    AtStationSingularity,
    RadarScenario,
    coordinated_turn_drift,
    linear_fp_scenario,
    lyapunov_oracle,
    make_trial,
    oscillator_scenario,
    radar_measure,
    simulate_truth,
)
from cdfilter.scenarios import (
    RADAR_STATION,
    TransportScenario,
    _running_sum,
    coordinated_turn_hessians,
    coordinated_turn_jacobian,
)


class TestCoordinatedTurn:
    def test_drift_values(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5])
        np.testing.assert_allclose(coordinated_turn_drift(x),
                                   [2.0, -2.0, 4.0, 1.0, 6.0, 0.0, 0.0])

    def test_jacobian_matches_finite_difference(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(7) * [1000, 10, 1000, 10, 100, 10, 0.1]
        J = coordinated_turn_jacobian(x)
        h = 1e-6
        for j in range(7):
            e = np.zeros(7)
            e[j] = h
            fd = (coordinated_turn_drift(x + e) - coordinated_turn_drift(x - e)) / (2 * h)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-6)

    def test_hessians_are_constant_and_symmetric(self):
        H = coordinated_turn_hessians(np.zeros(7))
        assert np.count_nonzero(H) == 4
        assert H[1, 3, 6] == H[1, 6, 3] == -1.0
        assert H[3, 1, 6] == H[3, 6, 1] == 1.0


class TestRadarMeasure:
    def test_known_geometry(self):
        # directly east of the station at its altitude: zero azimuth/elevation
        x = np.zeros(7)
        x[0], x[2], x[4] = RADAR_STATION[0] + 100.0, RADAR_STATION[1], 0.0
        np.testing.assert_allclose(radar_measure(x), [100.0, 0.0, 0.0],
                                   atol=1e-12)

    def test_round_trip(self):
        # invert (range, azimuth, elevation) back to position
        rng = np.random.default_rng(13)
        for _ in range(20):
            x = np.zeros(7)
            x[0], x[2], x[4] = rng.uniform(-3000, 3000, 3)
            try:
                r, az, el = radar_measure(x)
            except AtStationSingularity:
                continue
            horiz = r * math.cos(el)
            pos = RADAR_STATION + [horiz * math.cos(az), horiz * math.sin(az),
                                   r * math.sin(el)]
            np.testing.assert_allclose(pos, x[[0, 2, 4]], atol=1e-9)

    def test_station_singularity(self):
        x = np.zeros(7)
        x[0], x[2], x[4] = RADAR_STATION[0], RADAR_STATION[1], 500.0
        with pytest.raises(AtStationSingularity):
            radar_measure(x)


class TestRadarScenario:
    def test_defaults(self):
        sc = RadarScenario()
        np.testing.assert_allclose(sc.initial_state(),
                                   [1000, 0, 2650, 150, 200, 0, 6 * math.pi / 180])
        np.testing.assert_allclose(np.diag(sc.initial_covariance()),
                                   [100, 1, 100, 1, 100, 1, 0.01])
        assert len(sc.measurement_times()) == 20
        assert sc.measurement_times()[0] == 6.0

    def test_noise_shape(self):
        model = RadarScenario().sde_model()
        K = model.noise_cov()
        np.testing.assert_allclose(np.diag(K), [0, 0.2, 0, 0.2, 0, 0.2, 7e-4 ** 2])
        assert np.count_nonzero(K - np.diag(np.diag(K))) == 0

    def test_non_dividing_interval_truncates(self):
        sc = RadarScenario(interval=7.0, horizon=120.0)
        assert len(sc.measurement_times()) == 17
        assert sc.measurement_times()[-1] == 119.0
        with pytest.raises(ValueError):
            RadarScenario(interval=130.0, horizon=120.0)

    @pytest.mark.parametrize("field, value", [
        ("sigma1", math.nan), ("sigma1", -0.1), ("sigma2", math.inf),
        ("sigma_r", math.inf), ("sigma_r", -1.0), ("sigma_angle_deg", math.nan),
        ("horizon", math.inf), ("omega0_deg", math.nan),
    ])
    def test_non_finite_or_negative_setting_rejected(self, field, value):
        # at the parent sigma1 = nan gave NaN truth states, sigma_r = inf and
        # sigma_angle_deg = nan non-finite measurements, and horizon = inf an
        # OverflowError in measurement_times
        with pytest.raises(ValueError, match=field):
            RadarScenario(em_substeps=10, **{field: value})

    def test_measurement_model_wraps_angles_only(self):
        mm = RadarScenario().measurement_model()
        np.testing.assert_array_equal(mm.residual_wrap, [False, True, True])
        np.testing.assert_allclose(np.diag(mm.noise_factor),
                                   [50.0, 0.1 * math.pi / 180, 0.1 * math.pi / 180])


class TestTruthSimulation:
    def test_deterministic_given_seed(self):
        sc = RadarScenario(em_substeps=100)
        a = simulate_truth(sc, 42)
        b = simulate_truth(sc, 42)
        np.testing.assert_array_equal(a.truth_states, b.truth_states)
        np.testing.assert_array_equal(a.measurements, b.measurements)
        c = simulate_truth(sc, 43)
        assert not np.array_equal(a.truth_states, c.truth_states)

    def test_noise_free_linear_flight_is_exact(self):
        # omega = 0 and zero noise: velocities constant, Euler is exact,
        # and halving the substep changes nothing
        sc = RadarScenario(omega0_deg=0.0, sigma1=0.0, sigma2=0.0,
                           sigma_r=0.0, sigma_angle_deg=0.0)
        x0 = sc.initial_state()
        for substeps in (1000, 2000):
            traj = simulate_truth(RadarScenario(
                omega0_deg=0.0, sigma1=0.0, sigma2=0.0, sigma_r=0.0,
                sigma_angle_deg=0.0, em_substeps=substeps), 0)
            for k, t in enumerate(traj.times):
                expect = x0.copy()
                expect[0] += t * x0[1]
                expect[2] += t * x0[3]
                expect[4] += t * x0[5]
                np.testing.assert_allclose(traj.truth_states[k], expect,
                                           atol=1e-8)

    def test_noise_free_model_conserves_horizontal_speed(self):
        # circular-motion invariant: d/dt (de^2 + dn^2) = 0 for the drift
        # alone; integrate the deterministic model tightly over 120 s
        from cdfilter import OdeProblem, SolverSpec, integrate

        sc = RadarScenario(omega0_deg=6.0)
        x0 = sc.initial_state()
        prob = OdeProblem(dim=7, rhs=lambda t, y: coordinated_turn_drift(y),
                          t0=0.0, t1=120.0, y0=x0)
        y, _ = integrate(prob, SolverSpec("adaptive-embedded",
                                          abs_tol=1e-12, rel_tol=1e-12))
        speed = math.hypot(y[1], y[3])
        assert abs(speed - 150.0) <= 1e-6

    def test_make_trial_initial_belief(self):
        sc = RadarScenario(em_substeps=10)
        traj, belief = make_trial(sc, 7)
        np.testing.assert_array_equal(belief.mean, sc.initial_state())
        np.testing.assert_allclose(belief.covariance(), sc.initial_covariance(),
                                   atol=1e-12)
        assert belief.time == 0.0
        assert len(traj.times) == 20


def _per_trial_truth(scenario, rng_seed):
    """The one-trial Euler-Maruyama loop that the batched ``simulate_truth``
    replaced, kept unchanged as its reference."""
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
    return times, states, meas


def _assert_same_trajectory(traj, reference):
    times, states, meas = reference
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.truth_states, states)
    assert np.array_equal(traj.measurements, meas)
    # bit for bit, down to the sign of a zero
    assert traj.truth_states.tobytes() == states.tobytes()
    assert traj.measurements.tobytes() == meas.tobytes()


def _simulate(scenario, seeds):
    return [simulate_truth(scenario, s) for s in seeds]


_SEEDS = [20210001 + i for i in range(25)]
_ACCEPTANCE_5_CELLS = [(w, T) for w in (6.0, 12.0, 24.0) for T in (2.0, 4.0, 6.0)]


@pytest.fixture(scope="class", params=_ACCEPTANCE_5_CELLS,
                ids=[f"w{w:g}-T{T:g}" for w, T in _ACCEPTANCE_5_CELLS])
def acceptance_5_cell(request):
    """An acceptance-5 cell and its 25 trials from the per-trial loop."""
    omega, interval = request.param
    sc = RadarScenario(omega0_deg=omega, interval=interval)
    return sc, [_per_trial_truth(sc, s) for s in _SEEDS]


class TestBatchedTruthEqualsPerTrialLoop:
    """Every trajectory of ``simulate_truth``, which steps each state
    component over a whole interval at once, equals the per-trial loop."""

    def test_cell_one_seed_at_a_time(self, acceptance_5_cell):
        sc, reference = acceptance_5_cell
        for traj, ref in zip(_simulate(sc, _SEEDS), reference):
            _assert_same_trajectory(traj, ref)

    # "N1": one seed per simulate_truth call
    @pytest.mark.parametrize("seeds", [_SEEDS[:5]], ids=["N1"])
    @pytest.mark.parametrize("substeps", [500, 2000])
    def test_other_substep_counts(self, substeps, seeds):
        sc = RadarScenario(omega0_deg=12.0, interval=4.0, em_substeps=substeps)
        for traj, seed in zip(_simulate(sc, seeds), seeds):
            _assert_same_trajectory(traj, _per_trial_truth(sc, seed))

    @pytest.mark.parametrize("seeds", [[0, 1, 2]], ids=["N1"])
    def test_noise_free_straight_line(self, seeds):
        # the scenario of test_noise_free_straight_line_tracks_exactly,
        # where every noise term is an exact zero
        sc = RadarScenario(omega0_deg=0.0, sigma1=0.0, sigma2=0.0,
                           sigma_r=0.0, sigma_angle_deg=0.0, horizon=60.0,
                           em_substeps=10)
        for traj, seed in zip(_simulate(sc, seeds), seeds):
            _assert_same_trajectory(traj, _per_trial_truth(sc, seed))


_EDGE_FLOATS = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     -2.225073858507201e-308]))


class TestRunningSum:
    @given(_EDGE_FLOATS,
           st.lists(st.tuples(_EDGE_FLOATS, _EDGE_FLOATS), min_size=1, max_size=40))
    @example(-0.0, [(0.0, -0.0)])
    @example(-0.0, [(-0.0, -0.0), (0.0, 5e-324)])
    @example(5e-324, [(-5e-324, -0.0)])
    def test_equals_the_plain_loop(self, x0, steps):
        a, b = (np.array(v) for v in zip(*steps))
        want = [x0]
        for aj, bj in zip(a.tolist(), b.tolist()):
            want.append((want[-1] + aj) + bj)
        got = _running_sum(x0, a, b)
        assert got.tobytes() == np.array(want).tobytes()

    def test_scalar_a_broadcasts(self):
        b = np.random.default_rng(3).standard_normal(50)
        got = _running_sum(0.7, 0.0, b)
        assert got.shape == (51,)
        assert got.tobytes() == _running_sum(0.7, np.zeros(50), b).tobytes()


class TestBatchedTrials:
    def test_numpy_integer_seed_is_one_trial(self):
        sc = RadarScenario(em_substeps=10)
        traj, _ = make_trial(sc, np.int64(7))
        np.testing.assert_array_equal(traj.truth_states,
                                      make_trial(sc, 7)[0].truth_states)

    @pytest.mark.parametrize("fn", [simulate_truth, make_trial])
    @pytest.mark.parametrize("seed, shown", [(None, "None"), ("12", "'12'"),
                                             (b"7", "b'7'"),
                                             pytest.param([7], r"\[7\]", id="list"),
                                             pytest.param((7, 8), r"\(7, 8\)",
                                                          id="tuple")])
    def test_non_sequence_seed_rejected_by_name(self, fn, seed, shown):
        # a string or a sequence is one bad seed, named whole
        with pytest.raises(ValueError, match=f"seed .* got {shown}$"):
            fn(RadarScenario(em_substeps=10), seed)


class TestLinearScenarios:
    def test_linear_fp_covariance_at_t10(self):
        # frozen from the moment oracle; confirms the effective noise
        # strength is twice the printed matrix (the 1/2-convention reading)
        sc = linear_fp_scenario()
        _, s = lyapunov_oracle(sc.system, sc.mean0, sc.sigma0, sc.t_end, 1e-12)
        # closed form: J is nilpotent, so Sigma(10) is polynomial in t and
        # comes out to integers exactly
        np.testing.assert_allclose(s, [[31.0, 23.0], [23.0, 32.0]], rtol=1e-9)

    def test_oscillator_shape(self):
        sc = oscillator_scenario()
        assert sc.t_end == 0.2
        np.testing.assert_allclose(np.diag(sc.system.K), [1e-4, 1e-4, 4e-4])
        np.testing.assert_allclose(np.diag(sc.sigma0), [1e-4, 1e-4, 9e-4])


class TestTransport:
    def test_flow_characteristics(self):
        sc = TransportScenario(1.0, 1.0)
        np.testing.assert_allclose(sc.flow(np.array([2.0, 1.0]), 0.5),
                                   [2.0, 3.0])

    def test_exact_density_is_transported_initial_density(self):
        sc = TransportScenario(0.5, 1.0)
        xg, yg = np.meshgrid(np.linspace(-2, 2, 11), np.linspace(-2, 2, 11),
                             indexing="ij")
        t = 0.7
        np.testing.assert_allclose(sc.exact_density(xg, yg, t),
                                   sc.exact_density(xg, yg - xg**2 * t, 0.0),
                                   atol=1e-15)

    def test_l2_error_zero_for_exact_gaussian_at_t0(self):
        sc = TransportScenario(0.5, 1.0)
        err = sc.l2_error(np.zeros(2), sc.sigma0(), 0.0)
        assert err <= 1e-12

    def test_l2_error_positive_after_transport(self):
        sc = TransportScenario(0.5, 1.0)
        assert sc.l2_error(np.zeros(2), sc.sigma0(), 1.0) > 1e-3

    def test_parameter_validation(self):
        for a, b in [(-1.0, 1.0), (math.inf, 1.0), (0.5, math.inf), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                TransportScenario(a, b)

    def test_model_is_noise_free(self):
        model = TransportScenario(0.5, 1.0).sde_model()
        assert np.all(model.noise_cov() == 0.0)
        np.testing.assert_allclose(model.drift(np.array([3.0, 9.0]), 0.0),
                                   [0.0, 9.0])
