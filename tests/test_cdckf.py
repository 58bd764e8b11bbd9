import numpy as np
import pytest

from cdfilter import (
    CdckfVariant,
    GaussianBelief,
    It15Operators,
    LinearSystem,
    MissingDerivatives,
    cdckf_time_update,
    cholesky_lower,
    it15_point_predict,
    lyapunov_oracle,
)
from cdfilter.scenarios import RadarScenario


def _benchmark():
    J = np.array([[0.0, 0.1], [0.0, 0.0]])
    K = np.array([[1.0, 0.5], [0.5, 3.0]])
    return LinearSystem(J=J, K=K)


def _belief(sigma, mean):
    return GaussianBelief(mean=np.asarray(mean, float),
                          factor=cholesky_lower(sigma))


class TestOperators:
    def test_linear_model_l0(self):
        # for v = Jx: L0(v) = J(Jx); no Hessian contribution
        sys = _benchmark()
        ops = It15Operators(sys.as_sde())
        x = np.array([2.0, -1.0])
        np.testing.assert_allclose(ops.l0(x, 0.0), sys.J @ sys.J @ x, atol=1e-14)

    def test_lv_is_jacobian_times_sqrt_noise(self):
        model = RadarScenario().sde_model()
        ops = It15Operators(model)
        x = np.array([1000.0, 10.0, 2650.0, 150.0, 200.0, 1.0, 0.1])
        expect = model.drift_jacobian(x, 0.0) @ model.diffusion_factor
        np.testing.assert_allclose(ops.lv(x, 0.0), expect, atol=1e-14)

    def test_missing_jacobian_raises(self):
        from cdfilter import SdeModel
        model = SdeModel(dim=1, drift=lambda x, t: -x,
                         diffusion_factor=np.eye(1))
        with pytest.raises(MissingDerivatives):
            It15Operators(model)

    def test_missing_hessians_ok_when_noise_free(self):
        from cdfilter import SdeModel
        model = SdeModel(dim=1, drift=lambda x, t: x * x,
                         diffusion_factor=np.zeros((1, 1)),
                         drift_jacobian=lambda x, t: np.array([[2 * x[0]]]))
        It15Operators(model)  # no Hessian needed without process noise

    def test_finite_difference_fallback(self):
        model = RadarScenario().sde_model()
        from cdfilter import SdeModel
        bare = SdeModel(dim=7, drift=model.drift,
                        diffusion_factor=model.diffusion_factor)
        fd = It15Operators(bare, finite_diff=True)
        exact = It15Operators(model)
        x = np.array([1000.0, 10.0, 2650.0, 150.0, 200.0, 1.0, 0.1])
        np.testing.assert_allclose(fd.jacobian(x, 0.0), exact.jacobian(x, 0.0),
                                   atol=1e-3)
        np.testing.assert_allclose(fd.l0(x, 0.0), exact.l0(x, 0.0),
                                   rtol=1e-3, atol=1e-3)


class TestPointPredict:
    def test_linear_map_closed_form(self):
        # x + dt Jx + dt^2/2 J^2 x : the degree-2 Taylor polynomial of exp(J dt)
        sys = _benchmark()
        ops = It15Operators(sys.as_sde())
        x = np.array([1.0, 1.0])
        dt = 0.25
        expect = x + dt * sys.J @ x + 0.5 * dt * dt * sys.J @ sys.J @ x
        np.testing.assert_allclose(it15_point_predict(x, 0.0, dt, ops), expect,
                                   atol=1e-15)

    def test_nonpositive_dt_rejected(self):
        ops = It15Operators(_benchmark().as_sde())
        with pytest.raises(ValueError):
            it15_point_predict(np.zeros(2), 0.0, 0.0, ops)


class TestTimeUpdate:
    def test_linear_proper_converges_to_oracle(self):
        sys = _benchmark()
        s0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        belief = _belief(s0, [0.0, 0.0])
        x_ref, s_ref = lyapunov_oracle(sys, belief.mean, s0, 10.0, 1e-13)
        # J here is nilpotent (J @ J = 0), so the order-1.5 map and its
        # noise blocks are exact: every substep count hits the oracle
        for m in (1, 8, 128):
            out = cdckf_time_update(belief, sys.as_sde(),
                                    CdckfVariant("proper-it15", m), 10.0)
            assert np.linalg.norm(out.covariance() - s_ref) <= 1e-10
            np.testing.assert_allclose(out.mean, x_ref, atol=1e-9)

    def test_paper_faithful_limit_is_biased(self):
        # with the noise discretized once per interval the m -> infinity
        # limit misses the oracle by a visible margin on the benchmark
        sys = _benchmark()
        s0 = np.array([[2.0, 1.0], [1.0, 2.0]])
        belief = _belief(s0, [0.0, 0.0])
        _, s_ref = lyapunov_oracle(sys, belief.mean, s0, 10.0, 1e-13)
        a = cdckf_time_update(belief, sys.as_sde(),
                              CdckfVariant("paper-faithful", 512), 10.0)
        b = cdckf_time_update(belief, sys.as_sde(),
                              CdckfVariant("paper-faithful", 1024), 10.0)
        err_a = np.linalg.norm(a.covariance() - s_ref)
        err_b = np.linalg.norm(b.covariance() - s_ref)
        # the residual bias dominates whatever still changes with m
        assert err_b > 1e-5
        assert abs(err_a - err_b) <= 0.05 * err_b

    def test_weak_order_two_slope(self):
        # proper-it15 covariance error on the oscillator decays ~ dt^2
        J = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 0.0, 0.0]])
        K = np.diag([1e-4, 1e-4, 4e-4])
        sys = LinearSystem(J=J, K=K)
        belief = _belief(np.diag([1e-4, 1e-4, 9e-4]), [1.0, 0.0, 0.0])
        _, s_ref = lyapunov_oracle(sys, belief.mean, belief.covariance(),
                                   0.2, 1e-13)
        dts, errs = [], []
        for m in (4, 8, 16, 32):
            out = cdckf_time_update(belief, sys.as_sde(),
                                    CdckfVariant("proper-it15", m), 0.2)
            dts.append(0.2 / m)
            errs.append(np.linalg.norm(out.covariance() - s_ref))
        slope, _ = np.polyfit(np.log(dts), np.log(errs), 1)
        assert abs(slope - 2.0) <= 0.4

    def test_substep_count_equals_spec(self):
        # m substeps means m Taylor-map sweeps: count drift calls
        sys = _benchmark()
        calls = {"n": 0}
        base = sys.as_sde()

        def counting(x, t):
            calls["n"] += 1
            return base.drift(x, t)

        from cdfilter import SdeModel
        model = SdeModel(dim=2, drift=counting,
                         diffusion_factor=base.diffusion_factor,
                         drift_jacobian=base.drift_jacobian,
                         drift_hessians=base.drift_hessians)
        belief = _belief(np.eye(2), [0.0, 0.0])
        cdckf_time_update(belief, model, CdckfVariant("proper-it15", 5), 1.0)
        # 2d cubature points per substep, 2 drift calls each (v and L0's v)
        assert calls["n"] == 5 * 2 * 2 * 2

    def test_factor_is_lower_triangular(self):
        sys = _benchmark()
        belief = _belief(np.eye(2), [0.0, 0.0])
        out = cdckf_time_update(belief, sys.as_sde(),
                                CdckfVariant("proper-it15", 3), 1.0)
        assert np.allclose(np.triu(out.factor, 1), 0.0)
        assert np.all(np.diag(out.factor) >= 0.0)

    def test_zero_span_returns_input(self):
        sys = _benchmark()
        belief = _belief(np.eye(2), [0.0, 0.0])
        assert cdckf_time_update(belief, sys.as_sde(),
                                 CdckfVariant("proper-it15", 2), 0.0) is belief

    def test_bad_variant_args(self):
        with pytest.raises(ValueError):
            CdckfVariant("heun", 1)
        with pytest.raises(ValueError):
            CdckfVariant("proper-it15", 0)
