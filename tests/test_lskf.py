import dataclasses

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from cdfilter import (
    GaussianBelief,
    LinearSystem,
    SolverSpec,
    cholesky_lower,
    count_drift_evals,
    lskf_rhs,
    lskf_time_update,
    lyapunov_oracle,
    pack_state,
    unpack_state,
)
from cdfilter.scenarios import RadarScenario, TransportScenario


def _benchmark_system():
    J = np.array([[0.0, 0.1], [0.0, 0.0]])
    K = np.array([[1.0, 0.5], [0.5, 3.0]])
    return LinearSystem(J=J, K=K)


def _reference_lskf_rhs(t, mean, factor, model, variant="averaged"):
    """The per-point level-set rhs with the noise matrix and the
    diffusion-velocity solve computed on every call; the fast path must
    reproduce it bit for bit."""
    d = model.dim
    v = model.drift
    forward = np.empty((d, d))
    for i in range(d):
        forward[:, i] = v(mean + factor[:, i], t)
    if variant == "standard":
        center = v(mean, t)
    elif variant == "averaged":
        acc = forward.sum(axis=1)
        for i in range(d):
            acc = acc + v(mean - factor[:, i], t)
        center = acc / (2 * d)
    else:
        backward = v(mean - factor[:, 0], t)
        center = (forward.sum(axis=1) + d * backward) / (2 * d)
    noise = model.diffusion_factor @ model.diffusion_factor.T
    dfactor = forward - center[:, np.newaxis]
    if np.any(noise != 0.0):
        lu, piv = lu_factor(factor, check_finite=False)
        dfactor = dfactor + 0.5 * lu_solve((lu, piv), noise.T,
                                           check_finite=False).T
    return center, dfactor


def _belief(sigma0, mean=None, t=0.0):
    sigma0 = np.asarray(sigma0, dtype=float)
    d = sigma0.shape[0]
    if mean is None:
        mean = np.zeros(d)
    return GaussianBelief(mean=np.asarray(mean, float),
                          factor=cholesky_lower(sigma0), time=t)


class TestPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        mean = rng.standard_normal(4)
        factor = rng.standard_normal((4, 4))
        m2, f2 = unpack_state(pack_state(mean, factor), 4)
        np.testing.assert_array_equal(m2, mean)
        np.testing.assert_array_equal(f2, factor)

    def test_layout_is_mean_then_factor_column_major(self):
        mean = np.array([9.0, 8.0])
        factor = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(pack_state(mean, factor),
                                      [9.0, 8.0, 1.0, 2.0, 3.0, 4.0])


class TestDriftEvalCount:
    def test_table(self):
        for d in (1, 3, 7):
            assert count_drift_evals("averaged", d) == 2 * d
            assert count_drift_evals("standard", d) == d + 1
            assert count_drift_evals("partial", d) == d + 1

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            count_drift_evals("mystery", 3)
        with pytest.raises(ValueError):
            count_drift_evals("averaged", 0)


class TestRhs:
    def test_pure_diffusion_identity_factor(self):
        # v = 0, K = I, M = I: dmean = 0, dfactor = 0.5 I
        sys = LinearSystem(J=np.zeros((2, 2)), K=np.eye(2))
        model = sys.as_sde()
        dmean, dfactor = lskf_rhs(0.0, np.zeros(2), np.eye(2), model)
        np.testing.assert_allclose(dmean, 0.0, atol=1e-15)
        np.testing.assert_allclose(dfactor, 0.5 * np.eye(2), atol=1e-15)

    def test_linear_drift_matches_matrix_form(self):
        # for v(x) = Jx, standard and averaged give dmean = J mean and
        # dfactor = JM + K M^-T / 2 exactly
        sys = _benchmark_system()
        model = sys.as_sde()
        rng = np.random.default_rng(4)
        mean = rng.standard_normal(2)
        factor = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        expect_df = sys.J @ factor + 0.5 * sys.K @ np.linalg.inv(factor.T)
        for variant in ("standard", "averaged"):
            dmean, dfactor = lskf_rhs(0.0, mean, factor, model, variant)
            np.testing.assert_allclose(dmean, sys.J @ mean, atol=1e-13)
            np.testing.assert_allclose(dfactor, expect_df, atol=1e-13)

    def test_partial_center_closed_form(self):
        # the partially-averaged center keeps a rank-one residual on linear
        # drift: v_p - J mean = J (sum_i m_i - d m_1) / (2d).  Check that
        # exact expression, and that the residual vanishes for d = 1.
        sys = _benchmark_system()
        model = sys.as_sde()
        rng = np.random.default_rng(7)
        mean = rng.standard_normal(2)
        factor = rng.standard_normal((2, 2)) + 2 * np.eye(2)
        dmean, dfactor = lskf_rhs(0.0, mean, factor, model, "partial")
        resid = sys.J @ (factor.sum(axis=1) - 2 * factor[:, 0]) / 4.0
        np.testing.assert_allclose(dmean, sys.J @ mean + resid, atol=1e-14)
        expect_df = (sys.J @ factor - resid[:, np.newaxis]
                     + 0.5 * sys.K @ np.linalg.inv(factor.T))
        np.testing.assert_allclose(dfactor, expect_df, atol=1e-14)

        one_d = LinearSystem(J=np.array([[0.7]]), K=np.array([[0.3]])).as_sde()
        dm_p, df_p = lskf_rhs(0.0, np.array([0.4]), np.array([[1.2]]), one_d, "partial")
        dm_a, df_a = lskf_rhs(0.0, np.array([0.4]), np.array([[1.2]]), one_d, "averaged")
        np.testing.assert_allclose(dm_p, dm_a, atol=1e-15)
        np.testing.assert_allclose(df_p, df_a, atol=1e-15)

    def test_variants_differ_on_nonlinear_drift(self):
        model = RadarScenario().sde_model()
        rng = np.random.default_rng(5)
        mean = np.array([1000.0, 10.0, 2650.0, 150.0, 200.0, 1.0, 0.1])
        factor = np.eye(7) + 0.1 * rng.standard_normal((7, 7))
        outs = {v: lskf_rhs(0.0, mean, factor, model, v) for v in
                ("standard", "averaged", "partial")}
        assert not np.allclose(outs["standard"][0], outs["averaged"][0])
        assert not np.allclose(outs["partial"][0], outs["averaged"][0])

    @pytest.mark.parametrize("variant", ["standard", "averaged", "partial"])
    def test_equals_reference_on_radar_model(self, variant):
        model = RadarScenario(omega0_deg=12.0).sde_model()
        rng = np.random.default_rng(8)
        scale = np.array([10.0, 1.0, 10.0, 1.0, 10.0, 1.0, 0.1])
        for _ in range(20):
            mean = RadarScenario().initial_state() + scale * rng.standard_normal(7)
            factor = scale[:, None] * rng.standard_normal((7, 7))
            got = lskf_rhs(1.5, mean, factor, model, variant)
            want = _reference_lskf_rhs(1.5, mean, factor, model, variant)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("variant", ["standard", "averaged", "partial"])
    def test_equals_reference_on_noise_free_transport(self, variant):
        model = TransportScenario(0.5, 1.0).sde_model()
        rng = np.random.default_rng(9)
        for _ in range(20):
            mean = rng.standard_normal(2)
            factor = rng.standard_normal((2, 2))
            got = lskf_rhs(0.0, mean, factor, model, variant)
            want = _reference_lskf_rhs(0.0, mean, factor, model, variant)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


class TestNoiseCov:
    def test_equals_factor_product(self):
        model = RadarScenario().sde_model()
        sqrt_k = model.diffusion_factor
        assert np.array_equal(model.noise_cov(), sqrt_k @ sqrt_k.T)

    def test_is_read_only(self):
        model = RadarScenario().sde_model()
        with pytest.raises(ValueError):
            model.noise_cov()[1, 1] = 5.0

    def test_replace_recomputes(self):
        model = TransportScenario(0.5, 1.0).sde_model()
        sqrt_k = np.array([[1.0, 0.0], [0.5, 2.0]])
        noisy = dataclasses.replace(model, diffusion_factor=sqrt_k)
        assert np.array_equal(noisy.noise_cov(), sqrt_k @ sqrt_k.T)
        assert np.all(model.noise_cov() == 0.0)
        # the rhs sees the new noise, not the cached state of the original
        mean, factor = np.array([0.3, -0.2]), np.array([[1.0, 0.2], [0.0, 1.5]])
        got = lskf_rhs(0.0, mean, factor, noisy)
        want = _reference_lskf_rhs(0.0, mean, factor, noisy)
        assert np.array_equal(got[1], want[1])
        assert not np.array_equal(got[1], lskf_rhs(0.0, mean, factor, model)[1])


class TestTimeUpdate:
    def test_linear_agrees_with_moment_oracle(self):
        sys = _benchmark_system()
        belief = _belief([[2.0, 1.0], [1.0, 2.0]])
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=1e-10, rel_tol=1e-10)
        out = lskf_time_update(belief, sys.as_sde(), "averaged", 10.0, spec)
        x_ref, s_ref = lyapunov_oracle(sys, belief.mean, belief.covariance(),
                                       10.0, 1e-12)
        np.testing.assert_allclose(out.mean, x_ref, atol=1e-8)
        assert np.linalg.norm(out.covariance() - s_ref) <= 1e-7

    def test_oscillator_frozen_covariance(self):
        # third-order chain with weak forcing noise, t = 0.2; values frozen
        # from the moment oracle at tolerance 1e-13
        J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        K = np.diag([1e-4, 1e-4, 4e-4])
        sys = LinearSystem(J=J, K=K)
        belief = _belief(np.diag([1e-4, 1e-4, 9e-4]), mean=[1.0, 0.0, 0.0])
        spec = SolverSpec(kind="fixed-rk4", steps=64)
        out = lskf_time_update(belief, sys.as_sde(), "averaged", 0.2, spec)
        x_ref, s_ref = lyapunov_oracle(sys, belief.mean, belief.covariance(),
                                       0.2, 1e-13)
        np.testing.assert_allclose(out.mean, x_ref, atol=1e-10)
        assert np.linalg.norm(out.covariance() - s_ref) <= 1e-10
        # spot-check the oracle itself against hand-derived leading terms:
        # x(t) = exp(Jt) x0 => x1 ~ 1 - t^3/6, x2 ~ -t^2/2, x3 ~ -t
        np.testing.assert_allclose(
            x_ref, [1.0 - 0.2 ** 3 / 6, -0.2 ** 2 / 2, -0.2], atol=2e-4)

    def test_standard_averaged_agreement_on_linear_drift(self):
        sys = _benchmark_system()
        belief = _belief([[2.0, 1.0], [1.0, 2.0]])
        spec = SolverSpec(kind="fixed-rk4", steps=32)
        a = lskf_time_update(belief, sys.as_sde(), "standard", 10.0, spec)
        b = lskf_time_update(belief, sys.as_sde(), "averaged", 10.0, spec)
        assert np.abs(a.mean - b.mean).max() <= 1e-12
        assert np.abs(a.factor - b.factor).max() <= 1e-12

    def test_orthogonal_factor_invariance(self):
        # M and MQ represent the same covariance; for a linear field the
        # propagated covariance must agree although the factors differ
        sys = _benchmark_system()
        rng = np.random.default_rng(6)
        M = cholesky_lower(np.array([[2.0, 1.0], [1.0, 2.0]]))
        Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=1e-11, rel_tol=1e-11)
        mean = np.array([1.0, -1.0])
        a = lskf_time_update(GaussianBelief(mean, M), sys.as_sde(),
                             "averaged", 10.0, spec)
        b = lskf_time_update(GaussianBelief(mean, M @ Q), sys.as_sde(),
                             "averaged", 10.0, spec)
        assert not np.allclose(a.factor, b.factor)
        assert np.linalg.norm(a.covariance() - b.covariance()) <= 1e-8 * (
            1 + np.linalg.norm(a.covariance()))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-9)

    def test_zero_span_returns_input(self):
        sys = _benchmark_system()
        belief = _belief(np.eye(2), t=2.0)
        out = lskf_time_update(belief, sys.as_sde(), "averaged", 2.0,
                               SolverSpec(kind="fixed-rk4", steps=4))
        assert out is belief

    def test_backwards_time_rejected(self):
        sys = _benchmark_system()
        belief = _belief(np.eye(2), t=2.0)
        with pytest.raises(ValueError):
            lskf_time_update(belief, sys.as_sde(), "averaged", 1.0,
                             SolverSpec(kind="fixed-rk4", steps=4))
