from dataclasses import replace

import numpy as np
import pytest

from cdfilter import (
    CdckfVariant,
    GaussianBelief,
    It15Operators,
    LinearSystem,
    MissingDerivatives,
    SdeModel,
    TransportScenario,
    cdckf_time_update,
    cholesky_lower,
    it15_point_predict,
    linear_fp_scenario,
    lyapunov_oracle,
    oscillator_scenario,
    tria,
)
from cdfilter.scenarios import RadarScenario


def _benchmark():
    J = np.array([[0.0, 0.1], [0.0, 0.0]])
    K = np.array([[1.0, 0.5], [0.5, 3.0]])
    return LinearSystem(J=J, K=K)


def _belief(sigma, mean):
    return GaussianBelief(mean=np.asarray(mean, float),
                          factor=cholesky_lower(sigma))


def _reference_l0(model, x, t):
    """The per-point generator the batched map replaced: its own drift
    call, ``J @ v``, and the Hessian term as one einsum per point."""
    v = model.drift(x, t)
    out = model.drift_jacobian(x, t) @ v
    if model.has_noise:
        out = out + 0.5 * np.einsum("pq,ipq->i", model.noise_cov(),
                                    model.drift_hessians(x, t))
    return out


def _reference_point_predict(x, t, dt, model):
    """The per-point order-1.5 Taylor map the batched map replaced."""
    v = model.drift(x, t)
    return x + dt * v + 0.5 * dt * dt * _reference_l0(model, x, t)


def _two_branch_update(belief, model, variant, t1):
    """Reference time-update: each cubature point goes through the
    per-point map in a column loop, and the noise blocks are built in two
    branches: every substep with its own length (proper-it15), or once, at
    the first substep, with the whole interval's length (paper-faithful)."""
    d = model.dim
    total = t1 - belief.time
    dt = total / variant.m
    w = 1.0 / np.sqrt(2 * d)
    sqrt_k = model.diffusion_factor
    x, M, t = belief.mean.copy(), belief.factor.copy(), belief.time
    for s in range(variant.m):
        spread = np.sqrt(d) * M
        pts = np.concatenate([x[:, None] + spread, x[:, None] - spread], axis=1)
        prop = np.empty_like(pts)
        for i in range(2 * d):
            prop[:, i] = _reference_point_predict(pts[:, i], t, dt, model)
        x_new = prop.mean(axis=1)
        blocks = [w * (prop - x_new[:, None])]
        if variant.mode == "proper-it15":
            L = model.drift_jacobian(x_new, t) @ sqrt_k
            blocks += [np.sqrt(dt) * (sqrt_k + 0.5 * dt * L),
                       np.sqrt(dt**3 / 12.0) * L]
        elif s == 0:
            L = model.drift_jacobian(x_new, t) @ sqrt_k
            blocks += [np.sqrt(total) * (sqrt_k + 0.5 * total * L),
                       np.sqrt(total**3 / 12.0) * L]
        M = tria(np.concatenate(blocks, axis=1))
        x = x_new
        t += dt
    return x, M


def _assert_matches_reference(belief, model, variant, t1):
    out = cdckf_time_update(belief, model, variant, t1, It15Operators(model))
    mean, factor = _two_branch_update(belief, model, variant, t1)
    assert np.array_equal(out.mean, mean)
    assert np.array_equal(out.factor, factor)


def _quadratic_model(d, seed):
    """A model whose Hessians and process noise are both dense, so the
    Hessian term of L0 is a full d*d contraction for every component."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    B = rng.standard_normal((d, d, d))
    B = B + B.transpose(0, 2, 1)
    return SdeModel(
        dim=d,
        drift=lambda x, t=0.0: A @ x + 0.5 * np.einsum("ipq,p,q->i", B, x, x),
        diffusion_factor=np.tril(rng.standard_normal((d, d))),
        drift_jacobian=lambda x, t=0.0: A + B @ x,
        drift_hessians=lambda x, t=0.0: B.copy(),
    )


def _counting(model):
    """The model with its drift, Jacobian and Hessians counted per call."""
    calls = {"drift": 0, "jacobian": 0, "hessians": 0}

    def counted(name, fn):
        def wrapped(x, t):
            calls[name] += 1
            return fn(x, t)
        return wrapped

    return replace(model, drift=counted("drift", model.drift),
                   drift_jacobian=counted("jacobian", model.drift_jacobian),
                   drift_hessians=counted("hessians", model.drift_hessians)), calls


class TestOperators:
    def test_missing_jacobian_raises(self):
        model = SdeModel(dim=1, drift=lambda x, t: -x,
                         diffusion_factor=np.eye(1))
        with pytest.raises(MissingDerivatives):
            It15Operators(model)

    def test_missing_hessians_raises_when_noisy(self):
        model = SdeModel(dim=1, drift=lambda x, t: x * x,
                         diffusion_factor=np.eye(1),
                         drift_jacobian=lambda x, t: np.array([[2 * x[0]]]))
        with pytest.raises(MissingDerivatives):
            It15Operators(model)

    def test_missing_hessians_ok_when_noise_free(self):
        model = SdeModel(dim=1, drift=lambda x, t: x * x,
                         diffusion_factor=np.zeros((1, 1)),
                         drift_jacobian=lambda x, t: np.array([[2 * x[0]]]))
        It15Operators(model)  # no Hessian needed without process noise


class TestPointPredict:
    def test_linear_map_closed_form(self):
        # x + dt Jx + dt^2/2 J^2 x : the degree-2 Taylor polynomial of exp(J dt)
        sys = _benchmark()
        ops = It15Operators(sys.as_sde())
        x = np.array([1.0, 1.0])
        dt = 0.25
        expect = x + dt * sys.J @ x + 0.5 * dt * dt * sys.J @ sys.J @ x
        np.testing.assert_allclose(it15_point_predict(x[None, :], 0.0, dt, ops),
                                   expect[None, :], atol=1e-15)

    def test_nonpositive_dt_rejected(self):
        ops = It15Operators(_benchmark().as_sde())
        with pytest.raises(ValueError):
            it15_point_predict(np.zeros(2)[None, :], 0.0, 0.0, ops)

    @pytest.mark.parametrize("model", [RadarScenario().sde_model(),
                                       _quadratic_model(4, 11)])
    def test_rows_equal_the_per_point_map(self, model):
        ops = It15Operators(model)
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((2 * model.dim, model.dim))
        rows = it15_point_predict(pts, 1.5, 0.25, ops)
        assert rows.shape == pts.shape
        for p, row in zip(pts, rows):
            want = _reference_point_predict(p, 1.5, 0.25, model)
            assert np.array_equal(row, want)


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

    @pytest.mark.parametrize("mode", ["paper-faithful", "proper-it15"])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_noise_blocks_match_two_branch_reference(self, mode, m):
        # the initial belief, then factors with mixed columns
        sc = RadarScenario()
        model = sc.sde_model()
        factor0 = cholesky_lower(sc.initial_covariance())
        rng = np.random.default_rng(m)
        factors = [factor0] + [factor0 @ (np.eye(7) + 0.3 * rng.standard_normal((7, 7)))
                               for _ in range(3)]
        for factor in factors:
            belief = GaussianBelief(mean=sc.initial_state(), factor=factor)
            _assert_matches_reference(belief, model, CdckfVariant(mode, m), 4.0)

    @pytest.mark.parametrize("mode", ["paper-faithful", "proper-it15"])
    @pytest.mark.parametrize("m", [1, 3, 64])
    @pytest.mark.parametrize("scenario", [linear_fp_scenario, oscillator_scenario])
    def test_linear_systems_match_reference(self, scenario, mode, m):
        sc = scenario()
        belief = _belief(sc.sigma0, sc.mean0)
        _assert_matches_reference(belief, sc.sde_model(), CdckfVariant(mode, m),
                                  sc.t_end)

    @pytest.mark.parametrize("mode", ["paper-faithful", "proper-it15"])
    @pytest.mark.parametrize("m", [1, 3, 64])
    def test_noise_free_transport_matches_reference(self, mode, m):
        # K = 0: no Hessian term
        ts = TransportScenario(0.5, 1.0)
        belief = _belief(ts.sigma0(), [0.2, -0.1])
        _assert_matches_reference(belief, ts.sde_model(), CdckfVariant(mode, m), 1.0)

    @pytest.mark.parametrize("mode", ["paper-faithful", "proper-it15"])
    def test_dense_hessian_term_matches_reference(self, mode):
        model = _quadratic_model(4, 11)
        belief = _belief(0.01 * np.eye(4), [0.1, -0.2, 0.05, 0.3])
        _assert_matches_reference(belief, model, CdckfVariant(mode, 3), 0.1)

    @pytest.mark.parametrize("mode", ["paper-faithful", "proper-it15"])
    @pytest.mark.parametrize("scenario", [RadarScenario(), TransportScenario(0.5, 1.0)])
    def test_model_call_counts(self, scenario, mode):
        # per substep: two drift calls per cubature point (the map's and
        # L0's), one Jacobian per point plus one per noise-block build, and
        # one Hessian per point only when the process noise is nonzero
        model, calls = _counting(scenario.sde_model())
        d, m = model.dim, 5
        belief = GaussianBelief(mean=np.linspace(1.0, 2.0, d), factor=np.eye(d))
        cdckf_time_update(belief, model, CdckfVariant(mode, m), 2.0)
        builds = m if mode == "proper-it15" else 1
        assert calls["drift"] == 2 * 2 * d * m
        assert calls["jacobian"] == 2 * d * m + builds
        assert calls["hessians"] == (2 * d * m if model.has_noise else 0)

    def test_bad_variant_args(self):
        with pytest.raises(ValueError):
            CdckfVariant("heun", 1)
        with pytest.raises(ValueError):
            CdckfVariant("proper-it15", 0)
