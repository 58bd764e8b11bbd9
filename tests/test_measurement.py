import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cdfilter import (
    DegenerateInnovationCovariance,
    CdFilterError,
    GaussianBelief,
    MeasurementModel,
    NonFiniteBelief,
    RadarScenario,
    cholesky_lower,
    measurement_update,
    radar_measure,
    wrap_angles,
)
from cdfilter.scenarios import RADAR_STATION


def _kalman_reference(mean, sigma, H, R, y):
    S = H @ sigma @ H.T + R
    W = sigma @ H.T @ np.linalg.inv(S)
    post_mean = mean + W @ (y - H @ mean)
    post_sigma = sigma - W @ S @ W.T
    return post_mean, post_sigma


def _linear_model(H, R):
    return MeasurementModel(meas_dim=H.shape[0], h=lambda x: H @ x,
                            noise_factor=cholesky_lower(R))


class TestWrapAngles:
    def test_none_flags_passthrough(self):
        r = np.array([4.0, -4.0])
        assert wrap_angles(r, None) is r

    def test_wraps_to_half_open_interval(self):
        flags = np.array([True])
        np.testing.assert_allclose(wrap_angles(np.array([np.pi + 0.1]), flags),
                                   [-np.pi + 0.1], atol=1e-12)
        np.testing.assert_allclose(wrap_angles(np.array([-np.pi - 0.1]), flags),
                                   [np.pi - 0.1], atol=1e-12)
        # boundary maps to +pi, not -pi
        np.testing.assert_allclose(wrap_angles(np.array([-np.pi]), flags),
                                   [np.pi], atol=1e-12)
        np.testing.assert_allclose(wrap_angles(np.array([3 * np.pi]), flags),
                                   [np.pi], atol=1e-12)

    @given(st.one_of(
        st.floats(-1e3, 1e3),
        st.sampled_from([3 * np.pi, -3 * np.pi,
                         np.nextafter(np.pi, 4.0), np.nextafter(-np.pi, -4.0)])))
    @example(np.pi)
    @example(-np.pi)
    def test_lands_in_half_open_interval_and_is_congruent(self, r):
        w = wrap_angles(np.array([r]), np.array([True]))[0]
        assert -np.pi < w <= np.pi
        assert abs(math.remainder(w - r, 2 * np.pi)) <= 1e-12 * max(1.0, abs(r))

    def test_only_flagged_components_touched(self):
        r = np.array([7.0, 7.0])
        out = wrap_angles(r, np.array([False, True]))
        assert out[0] == 7.0
        np.testing.assert_allclose(out[1], 7.0 - 2 * np.pi, atol=1e-12)


class TestMeasurementUpdate:
    def test_matches_kalman_scalar(self):
        # 1-d state, identity measurement: textbook result
        belief = GaussianBelief(np.array([1.0]), np.array([[2.0]]))
        mm = _linear_model(np.eye(1), np.eye(1))
        post, diag = measurement_update(belief, mm, np.array([3.0]))
        # W = 4/5, posterior mean 1 + 0.8*2, variance 4/5
        np.testing.assert_allclose(diag.gain, [[0.8]], atol=1e-12)
        np.testing.assert_allclose(post.mean, [2.6], atol=1e-12)
        np.testing.assert_allclose(post.covariance(), [[0.8]], atol=1e-12)

    def test_matches_kalman_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            nz = int(rng.integers(1, d + 1))
            A = rng.standard_normal((d, d))
            sigma = A @ A.T + 0.1 * np.eye(d)
            H = rng.standard_normal((nz, d))
            B = rng.standard_normal((nz, nz))
            R = B @ B.T + 0.1 * np.eye(nz)
            mean = rng.standard_normal(d)
            y = rng.standard_normal(nz)
            belief = GaussianBelief(mean, cholesky_lower(sigma))
            post, _ = measurement_update(belief, _linear_model(H, R), y)
            ref_mean, ref_sigma = _kalman_reference(mean, sigma, H, R, y)
            np.testing.assert_allclose(post.mean, ref_mean, atol=1e-10)
            np.testing.assert_allclose(post.covariance(), ref_sigma, atol=1e-10)

    def test_rank_deficient_prior_accepted(self):
        # zero out one factor column: prior covariance is singular but the
        # update still matches the closed form
        rng = np.random.default_rng(9)
        d, nz = 4, 2
        M = rng.standard_normal((d, d))
        M[:, -1] = 0.0
        sigma = M @ M.T
        H = rng.standard_normal((nz, d))
        R = np.eye(nz)
        mean = rng.standard_normal(d)
        y = rng.standard_normal(nz)
        post, _ = measurement_update(GaussianBelief(mean, M),
                                     _linear_model(H, R), y)
        ref_mean, ref_sigma = _kalman_reference(mean, sigma, H, R, y)
        np.testing.assert_allclose(post.mean, ref_mean, atol=1e-10)
        np.testing.assert_allclose(post.covariance(), ref_sigma, atol=1e-10)

    def test_posterior_never_exceeds_prior(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            A = rng.standard_normal((d, d))
            sigma = A @ A.T + 0.05 * np.eye(d)
            H = rng.standard_normal((1, d))
            belief = GaussianBelief(rng.standard_normal(d), cholesky_lower(sigma))
            post, _ = measurement_update(belief, _linear_model(H, np.eye(1)),
                                         rng.standard_normal(1))
            gap = sigma - post.covariance()
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.trace(sigma)

    def test_posterior_factor_is_canonical(self):
        rng = np.random.default_rng(11)
        belief = GaussianBelief(np.zeros(3),
                                rng.standard_normal((3, 3)) + 2 * np.eye(3))
        post, _ = measurement_update(belief, _linear_model(np.eye(3)[:1], np.eye(1)),
                                     np.array([0.5]))
        assert np.allclose(np.triu(post.factor, 1), 0.0)
        assert np.all(np.diag(post.factor) >= 0.0)

    def test_angle_wrapped_innovation(self):
        # azimuth-like measurement near the branch cut: the innovation must
        # be the short way around, not ~2 pi
        belief = GaussianBelief(np.array([np.pi - 0.05]), np.array([[0.01]]))
        mm = MeasurementModel(meas_dim=1, h=lambda x: x.copy(),
                              noise_factor=np.array([[0.1]]),
                              residual_wrap=np.array([True]))
        post, diag = measurement_update(belief, mm, np.array([-np.pi + 0.05]))
        np.testing.assert_allclose(diag.innovation, [0.1], atol=1e-10)
        assert abs(post.mean[0] - (np.pi - 0.05)) < 0.2

    def test_degenerate_innovation_raises(self):
        belief = GaussianBelief(np.zeros(2), np.zeros((2, 2)))
        mm = _linear_model(np.eye(2)[:1], np.zeros((1, 1)))
        with pytest.raises(DegenerateInnovationCovariance):
            measurement_update(belief, mm, np.array([1.0]))

    @given(st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 1))
    def test_non_finite_measurement_rejected(self, bad, index):
        def h(x):
            raise AssertionError("h evaluated before y was checked")

        mm = MeasurementModel(meas_dim=2, h=h, noise_factor=np.eye(2))
        y = np.zeros(2)
        y[index] = bad
        with pytest.raises(ValueError, match="non-finite"):
            measurement_update(GaussianBelief(np.zeros(2), np.eye(2)), mm, y)

    @pytest.mark.parametrize("where, value", [
        ("mean", np.nan), ("factor", np.inf), ("factor", 1e200)])
    def test_non_finite_prior_raises_by_name(self, where, value):
        # 1e200 is finite, but the range at the cubature points overflows
        sc = RadarScenario()
        mean = sc.initial_state()
        factor = np.eye(7)
        target = mean if where == "mean" else factor
        target[0] = value
        mm = sc.measurement_model()
        y = mm.h(sc.initial_state())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteBelief):
                measurement_update(GaussianBelief(mean, factor), mm, y)
        assert issubclass(NonFiniteBelief, CdFilterError)

    def test_nonlinear_measurement_uses_cubature_points(self):
        # h(x) = x^2 on N(0, 1): predicted measurement is the cubature
        # average over the two points +-sqrt(d), i.e. exactly 1 = E[x^2]
        belief = GaussianBelief(np.zeros(1), np.eye(1))
        mm = MeasurementModel(meas_dim=1, h=lambda x: x * x,
                              noise_factor=np.array([[1.0]]))
        _, diag = measurement_update(belief, mm, np.array([1.0]))
        np.testing.assert_allclose(diag.predicted_measurement, [1.0], atol=1e-12)


class TestInnovationFactor:
    @pytest.mark.parametrize("seed", range(5))
    def test_is_the_innovation_covariance_factor(self, seed):
        # T11 @ T11.T is the covariance-form Pyy = Yc Yc^T / 2d + R, with
        # Yc the centered cubature predictions (away from the azimuth cut)
        rng = np.random.default_rng(seed)
        sc = RadarScenario()
        mm = sc.measurement_model()
        mean = sc.initial_state() + rng.standard_normal(7)
        factor = cholesky_lower(sc.initial_covariance()) @ (
            np.eye(7) + 0.3 * rng.standard_normal((7, 7)))
        _, diag = measurement_update(GaussianBelief(mean, factor), mm,
                                     mm.h(mean) + rng.standard_normal(3) * 0.01)
        pts = mean[:, None] + math.sqrt(7) * np.concatenate([factor, -factor], axis=1)
        Y = np.column_stack([mm.h(p) for p in pts.T])
        Yc = Y - Y.mean(axis=1, keepdims=True)
        pyy = Yc @ Yc.T / 14 + mm.noise_factor @ mm.noise_factor.T
        T11 = diag.innovation_factor
        assert T11.shape == (3, 3)
        assert np.allclose(np.triu(T11, 1), 0.0)
        assert np.linalg.norm(T11 @ T11.T - pyy) <= 1e-9 * np.linalg.norm(pyy)


def _rotation(phi):
    """The 7 x 7 rotation of a coordinated-turn state's horizontal position
    and velocity by ``phi`` about the vertical axis."""
    c, s = math.cos(phi), math.sin(phi)
    R = np.eye(7)
    R[np.ix_([0, 2], [0, 2])] = R[np.ix_([1, 3], [1, 3])] = [[c, -s], [s, c]]
    return R


def _rotated_update(mean, factor, y, phi):
    """The radar update of a belief and a measurement rotated about the
    station by ``phi``, with the posterior rotated back."""
    sc = RadarScenario()
    station = np.zeros(7)
    station[[0, 2, 4]] = RADAR_STATION
    R = _rotation(phi)
    y_rot = wrap_angles(y + np.array([0.0, phi, 0.0]), np.array([False, True, False]))
    post, diag = measurement_update(
        GaussianBelief(station + R @ (mean - station), R @ factor),
        sc.measurement_model(), y_rot)
    return station + R.T @ (post.mean - station), R.T @ post.covariance() @ R, diag


class TestAzimuthCut:
    # a target 2 km west of the station: azimuth ~ pi, and the radar
    # prior's cubature points straddle the cut at +/-pi
    WEST = np.array([RADAR_STATION[0] - 2000.0, 0.0, RADAR_STATION[1] + 0.5,
                     0.0, 0.0, 0.0, 0.1])

    def test_noise_free_measurement_of_the_mean_leaves_it_in_place(self):
        sc = RadarScenario()
        factor = cholesky_lower(sc.initial_covariance())
        y = radar_measure(self.WEST)
        post, diag = measurement_update(GaussianBelief(self.WEST, factor),
                                        sc.measurement_model(), y)
        assert abs(diag.predicted_measurement[1] - y[1]) < 1e-6
        assert -np.pi < diag.predicted_measurement[1] <= np.pi
        assert np.linalg.norm(post.mean - self.WEST) < 0.01
        # the north s.d. is what it is 30 m further north, off the cut
        north = self.WEST.copy()
        north[2] += 30.0
        off_cut, _ = measurement_update(GaussianBelief(north, factor),
                                        sc.measurement_model(), radar_measure(north))
        sd = math.sqrt(post.covariance()[2, 2])
        sd_off = math.sqrt(off_cut.covariance()[2, 2])
        assert abs(sd - sd_off) < 0.01 * sd_off

    def test_rotation_invariance_oracle(self):
        # rotating the geometry about the station moves the azimuth near 0,
        # where no cut is crossed; the posterior must rotate with it
        sc = RadarScenario()
        factor = cholesky_lower(sc.initial_covariance())
        y = radar_measure(self.WEST) + np.array([20.0, 0.001, -0.001])
        post, _ = measurement_update(GaussianBelief(self.WEST, factor),
                                     sc.measurement_model(), y)
        mean_rot, cov_rot, diag = _rotated_update(self.WEST, factor, y, -np.pi)
        assert abs(diag.predicted_measurement[1]) < 0.01
        assert np.linalg.norm(post.mean - mean_rot) <= 1e-9 * np.linalg.norm(self.WEST)
        cov = post.covariance()
        assert np.linalg.norm(cov - cov_rot) <= 1e-9 * np.linalg.norm(cov)

    @given(r=st.floats(500.0, 5000.0), north=st.floats(-1.0, 1.0),
           sd=st.floats(1.0, 30.0), phi=st.floats(-math.pi, math.pi),
           noise=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
           seed=st.integers(0, 2**32 - 1))
    def test_beliefs_straddling_the_cut_rotate_with_the_geometry(
            self, r, north, sd, phi, noise, seed):
        # a target west of the station, less than one prior s.d. north or
        # south of it, so that its cubature points fall on both sides of
        # the cut; any rotation about the station must commute with the
        # update
        rng = np.random.default_rng(seed)
        sc = RadarScenario()
        mm = sc.measurement_model()
        mean = np.array([RADAR_STATION[0] - r, rng.standard_normal(),
                         RADAR_STATION[1] + north * sd, rng.standard_normal(),
                         rng.normal(0.0, 100.0), rng.standard_normal(), 0.1])
        scale = np.array([sd, 1.0, sd, 1.0, sd, 1.0, 0.1])
        # unit diagonal: the north column alone puts points 2.6 s.d. either side
        factor = scale[:, None] * (np.eye(7) + 0.2 * np.tril(rng.standard_normal((7, 7)), -1))
        pts = mean[:, None] + math.sqrt(7) * np.concatenate([factor, -factor], axis=1)
        azimuths = [radar_measure(p)[1] for p in pts.T]
        assert max(azimuths) - min(azimuths) > np.pi
        y = wrap_angles(radar_measure(mean) + np.diag(mm.noise_factor) * noise,
                        mm.residual_wrap)
        post, diag = measurement_update(GaussianBelief(mean, factor), mm, y)
        assert -np.pi < diag.predicted_measurement[1] <= np.pi
        mean_rot, cov_rot, _ = _rotated_update(mean, factor, y, phi)
        assert np.linalg.norm(post.mean - mean_rot) <= 1e-9 * np.linalg.norm(mean)
        cov = post.covariance()
        assert np.linalg.norm(cov - cov_rot) <= 1e-8 * np.linalg.norm(cov)
