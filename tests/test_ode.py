import numpy as np
import pytest

from cdfilter import (
    LinearSystem,
    MaxStepsExceeded,
    OdeProblem,
    RadarScenario,
    RecoverableRhsError,
    SingularFactor,
    SolveStats,
    SolverSpec,
    cholesky_lower,
    integrate,
    lskf_rhs,
    lyapunov_oracle,
    order_of_accuracy,
    pack_state,
    unpack_state,
)
from cdfilter.ode import _DP_A, _DP_B5, _DP_C, _DP_E


def _decay(lam=-1.0):
    return OdeProblem(dim=1, rhs=lambda t, y: lam * y, t0=0.0, t1=1.0,
                      y0=np.array([1.0]))


def _reference_dp45(problem, spec):
    """Dormand-Prince without first-same-as-last: all seven stages are
    evaluated on every attempt, k1 included.  The solver must reproduce
    its solution and step counts bit for bit."""
    stats = SolveStats()
    rhs = problem.rhs
    t, t1 = problem.t0, problem.t1
    y = problem.y0.copy()
    span = t1 - t
    if span == 0.0:
        return y, stats
    h = span / 100.0
    err_prev = 1.0
    consecutive_failures = 0
    ks = [None] * 7
    while t < t1:
        h = min(h, t1 - t)
        try:
            for i in range(7):
                yi = y
                if i > 0:
                    yi = y + h * sum(
                        aij * ks[j] for j, aij in enumerate(_DP_A[i]) if aij != 0.0
                    )
                ks[i] = rhs(t + _DP_C[i] * h, yi)
            stats.rhs_evals += 7
        except RecoverableRhsError:
            stats.rejected_steps += 1
            consecutive_failures += 1
            if consecutive_failures > 20:
                raise
            h *= 0.5
            continue
        consecutive_failures = 0
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        err = h * sum(e * k for e, k in zip(_DP_E, ks) if e != 0.0)
        scale = spec.abs_tol + spec.rel_tol * np.linalg.norm(y)
        ratio = np.linalg.norm(err) / scale
        if ratio <= 1.0:
            t += h
            y = y5
            stats.accepted_steps += 1
            r = max(ratio, 1e-10)
            factor = 0.9 * r ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            h *= min(5.0, max(0.2, factor))
            err_prev = r
        else:
            stats.rejected_steps += 1
            h *= min(1.0, max(0.2, 0.9 * ratio ** (-0.2)))
    return y, stats


def _radar_problem():
    sc = RadarScenario(omega0_deg=12.0)
    model = sc.sde_model()

    def rhs(t, y):
        mean, factor = unpack_state(y, 7)
        return pack_state(*lskf_rhs(t, mean, factor, model))

    y0 = pack_state(sc.initial_state(), cholesky_lower(sc.initial_covariance()))
    return OdeProblem(dim=56, rhs=rhs, t0=0.0, t1=6.0, y0=y0)


def _failing_window():
    # a recoverable failure on a short time window rejects two steps
    def rhs(t, y):
        if 0.5 < t < 0.505:
            raise SingularFactor("window")
        return -y

    return OdeProblem(dim=1, rhs=rhs, t0=0.0, t1=1.0, y0=np.array([1.0]))


class TestFixedSteppers:
    def test_rk1_single_step_decay(self):
        y, stats = integrate(_decay(), SolverSpec(kind="fixed-rk1", steps=1))
        np.testing.assert_allclose(y, [0.0], atol=1e-15)
        assert stats.rhs_evals == 1

    def test_rk2_midpoint_single_step(self):
        # midpoint on y' = -y over one unit step: 1 - 1 + 1/2
        y, stats = integrate(_decay(), SolverSpec(kind="fixed-rk2", steps=1))
        np.testing.assert_allclose(y, [0.5], atol=1e-15)
        assert stats.rhs_evals == 2

    def test_rk4_single_step_matches_truncated_exponential(self):
        y, _ = integrate(_decay(), SolverSpec(kind="fixed-rk4", steps=1))
        np.testing.assert_allclose(y, [1 - 1 + 0.5 - 1 / 6 + 1 / 24], atol=1e-15)

    def test_rk4_eval_count(self):
        _, stats = integrate(_decay(), SolverSpec(kind="fixed-rk4", steps=13))
        assert stats.rhs_evals == 4 * 13
        assert stats.accepted_steps == 13

    def test_rk4_error_ratio(self):
        exact = np.exp(-1.0)
        e = []
        for m in (16, 32):
            y, _ = integrate(_decay(), SolverSpec(kind="fixed-rk4", steps=m))
            e.append(abs(y[0] - exact))
        assert 12.0 <= e[0] / e[1] <= 20.0

    def test_quadrature_is_exact_for_rk4(self):
        # rhs polynomial of degree <= 3 in t is integrated exactly
        prob = OdeProblem(dim=1, rhs=lambda t, y: np.array([t ** 3]),
                          t0=0.0, t1=2.0, y0=np.array([0.0]))
        y, _ = integrate(prob, SolverSpec(kind="fixed-rk4", steps=3))
        np.testing.assert_allclose(y, [4.0], rtol=1e-13)

    def test_zero_span(self):
        prob = OdeProblem(dim=2, rhs=lambda t, y: y, t0=1.0, t1=1.0,
                          y0=np.array([3.0, 4.0]))
        y, stats = integrate(prob, SolverSpec(kind="fixed-rk4", steps=5))
        np.testing.assert_array_equal(y, [3.0, 4.0])
        assert stats.rhs_evals == 0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            OdeProblem(dim=1, rhs=lambda t, y: y, t0=1.0, t1=0.0, y0=np.array([1.0]))

    @pytest.mark.parametrize("t1", [np.nan, np.inf, -np.inf])
    def test_non_finite_end_rejected(self, t1):
        # an infinite span would step until max_steps; a NaN one would
        # return y0 stamped with a NaN time
        with pytest.raises(ValueError, match="t1"):
            OdeProblem(dim=1, rhs=lambda t, y: y, t0=0.0, t1=t1, y0=np.array([1.0]))
        sys = LinearSystem(J=np.zeros((1, 1)), K=np.eye(1))
        with pytest.raises(ValueError, match="t1"):
            lyapunov_oracle(sys, np.zeros(1), np.eye(1), t1)


class TestAdaptive:
    def test_tolerance_is_met(self):
        for tol in (1e-6, 1e-10):
            spec = SolverSpec(kind="adaptive-embedded", abs_tol=tol, rel_tol=tol)
            y, _ = integrate(_decay(), spec)
            assert abs(y[0] - np.exp(-1.0)) <= 100 * tol

    def test_stiff_direction_uses_more_steps(self):
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=1e-9, rel_tol=1e-9)
        _, slow = integrate(_decay(-1.0), spec)
        _, fast = integrate(_decay(-40.0), spec)
        assert fast.accepted_steps > slow.accepted_steps

    def test_split_invariance(self):
        tol = 1e-9
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=tol, rel_tol=tol)
        rhs = lambda t, y: np.array([np.sin(t) * y[0], y[0] - y[1]])
        whole = OdeProblem(dim=2, rhs=rhs, t0=0.0, t1=3.0, y0=np.array([1.0, 0.0]))
        y_whole, _ = integrate(whole, spec)
        y = np.array([1.0, 0.0])
        for (a, b) in ((0.0, 1.2), (1.2, 1.9), (1.9, 3.0)):
            y, _ = integrate(OdeProblem(dim=2, rhs=rhs, t0=a, t1=b, y0=y), spec)
        assert np.linalg.norm(y - y_whole) <= 10 * tol

    def test_recoverable_failure_halves_step(self):
        # rhs raises on any step that lands beyond t=0.5 with too large h;
        # the integrator must retry with smaller steps and still finish.
        calls = {"fail": 0}

        def rhs(t, y):
            if t > 0.5 and calls["fail"] < 3:
                calls["fail"] += 1
                raise SingularFactor("transient")
            return -y

        prob = OdeProblem(dim=1, rhs=rhs, t0=0.0, t1=1.0, y0=np.array([1.0]))
        y, stats = integrate(prob, SolverSpec(kind="adaptive-embedded",
                                              abs_tol=1e-8, rel_tol=1e-8))
        assert calls["fail"] == 3
        assert stats.rejected_steps >= 3
        np.testing.assert_allclose(y, [np.exp(-1.0)], atol=1e-6)

    def test_persistent_failure_propagates(self):
        calls = []

        def rhs(t, y):
            calls.append(t)
            raise SingularFactor("always")

        prob = OdeProblem(dim=1, rhs=rhs, t0=0.0, t1=1.0, y0=np.array([1.0]))
        with pytest.raises(SingularFactor):
            integrate(prob, SolverSpec(kind="adaptive-embedded"))
        # a failure at the initial point cannot be cured by a smaller step
        assert calls == [0.0]

    @pytest.mark.parametrize("make_problem, tol", [
        (_radar_problem, 1e-8),
        (lambda: _decay(-40.0), 1e-9),
        (_failing_window, 1e-8),
    ])
    def test_equals_seven_stage_reference(self, make_problem, tol):
        problem = make_problem()
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=tol, rel_tol=tol)
        y, stats = integrate(problem, spec)
        y_ref, ref = _reference_dp45(problem, spec)
        assert np.array_equal(y, y_ref)
        assert stats.accepted_steps == ref.accepted_steps
        assert stats.rejected_steps == ref.rejected_steps

    @pytest.mark.parametrize("lam", [-1.0, -40.0])
    def test_first_same_as_last_eval_count(self, lam):
        # k1 once, then six new stages per attempted step
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=1e-9, rel_tol=1e-9)
        _, stats = integrate(_decay(lam), spec)
        assert stats.rhs_evals == 1 + 6 * (stats.accepted_steps + stats.rejected_steps)

    @pytest.mark.parametrize("make_problem, tol", [
        (lambda: _decay(-40.0), 1e-9),
        (_failing_window, 1e-8),
    ])
    def test_reference_problems_reject_steps(self, make_problem, tol):
        # the equality check above must cover both rejection branches
        spec = SolverSpec(kind="adaptive-embedded", abs_tol=tol, rel_tol=tol)
        _, ref = _reference_dp45(make_problem(), spec)
        assert ref.rejected_steps > 0

    def test_max_steps_enforced(self):
        prob = _decay(-1000.0)
        with pytest.raises(MaxStepsExceeded):
            integrate(prob, SolverSpec(kind="adaptive-embedded", abs_tol=1e-13,
                                       rel_tol=1e-13, max_steps=5))


class TestOrderOfAccuracy:
    def test_orders_on_smooth_nonlinear_problem(self):
        prob = OdeProblem(dim=1, rhs=lambda t, y: np.array([y[0] * np.cos(t)]),
                          t0=0.0, t1=2.0, y0=np.array([1.0]))
        p1 = order_of_accuracy(prob, "fixed-rk1", [40, 80, 160, 320])
        p2 = order_of_accuracy(prob, "fixed-rk2", [20, 40, 80, 160])
        p4 = order_of_accuracy(prob, "fixed-rk4", [5, 10, 20, 40],
                               error_floor=1e-12)
        assert abs(p1 - 1.0) <= 0.25
        assert abs(p2 - 2.0) <= 0.25
        assert abs(p4 - 4.0) <= 0.35

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SolverSpec(kind="fixed-rk3")
