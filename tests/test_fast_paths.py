"""The radar callbacks compute in Python floats and the filters' glue works
in place; these tests hold them, bit for bit, to the numpy-scalar forms
they replaced (frozen below) and to the per-point references of the
filters' own tests."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cdfilter import (
    AtStationSingularity,
    CdckfVariant,
    GaussianBelief,
    OdeProblem,
    RadarScenario,
    SolverSpec,
    cdckf_time_update,
    cholesky_lower,
    lskf_time_update,
    measurement_update,
    pack_state,
    radar_measure,
    solve_lower_right,
    tria,
    unpack_state,
    wrap_angles,
)
from cdfilter.scenarios import (
    RADAR_STATION,
    coordinated_turn_drift,
    coordinated_turn_hessians,
    coordinated_turn_jacobian,
)
from test_cdckf import _two_branch_update
from test_lskf import _reference_lskf_rhs
from test_ode import _reference_dp45


# -- the numpy-scalar forms, as they were -------------------------------------

def _numpy_drift(x, t=0.0):
    return np.array([x[1], -x[6] * x[3], x[3], x[6] * x[1], x[5], 0.0, 0.0])


def _numpy_jacobian(x, t=0.0):
    J = np.zeros((7, 7))
    J[0, 1] = 1.0
    J[1, 3] = -x[6]
    J[1, 6] = -x[3]
    J[2, 3] = 1.0
    J[3, 1] = x[6]
    J[3, 6] = x[1]
    J[4, 5] = 1.0
    return J


def _numpy_hessians(x, t=0.0):
    H = np.zeros((7, 7, 7))
    H[1, 3, 6] = H[1, 6, 3] = -1.0
    H[3, 1, 6] = H[3, 6, 1] = 1.0
    return H


def _numpy_radar_measure(x, station=RADAR_STATION):
    dx = x[0] - station[0]
    dy = x[2] - station[1]
    dz = x[4] - station[2]
    horiz = math.hypot(dx, dy)
    if horiz <= 0.0:
        raise AtStationSingularity("target directly above the station")
    return np.array([math.sqrt(dx * dx + dy * dy + dz * dz),
                     math.atan2(dy, dx),
                     math.atan2(dz, horiz)])


def _numpy_model(scenario):
    return replace(scenario.sde_model(), drift=_numpy_drift,
                   drift_jacobian=_numpy_jacobian, drift_hessians=_numpy_hessians)


# -- states -----------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.1e-309, np.inf, -np.inf,
            np.nan, 1e200, -1e200, 1e-200]


def _states(n=1000, seed=2021):
    """Radar-like states, with entries replaced at random by signed zeros,
    subnormals, infinities, NaN and values whose products overflow or
    underflow; a few sit exactly on the station."""
    rng = np.random.default_rng(seed)
    scale = np.array([2000.0, 200.0, 2000.0, 200.0, 500.0, 20.0, 0.5])
    states = rng.standard_normal((n, 7)) * scale
    special = rng.random((n, 7)) < 0.15
    states[special] = rng.choice(_SPECIAL, size=special.sum())
    states[:5, [0, 2, 4]] = RADAR_STATION
    return states


def _outcome(fn, x):
    try:
        return fn(x).tobytes()
    except AtStationSingularity:
        return "at station"


@pytest.mark.parametrize("fast, frozen", [
    (coordinated_turn_drift, _numpy_drift),
    (coordinated_turn_jacobian, _numpy_jacobian),
    (coordinated_turn_hessians, _numpy_hessians),
    (radar_measure, _numpy_radar_measure),
], ids=["drift", "jacobian", "hessians", "radar_measure"])
def test_callbacks_equal_the_numpy_scalar_forms(fast, frozen):
    states = _states()
    with np.errstate(all="ignore"):
        want = [_outcome(frozen, x) for x in states]
    with warnings.catch_warnings():
        # Python float arithmetic overflows to inf silently; nothing may warn
        warnings.simplefilter("error")
        got = [_outcome(fast, x) for x in states]
    assert got == want
    if fast is radar_measure:
        assert "at station" in want


def test_the_hessian_constant_is_read_only():
    H = coordinated_turn_hessians(np.zeros(7))
    assert H is coordinated_turn_hessians(np.ones(7))
    assert not H.flags.writeable
    with pytest.raises(ValueError):
        H[1, 3, 6] = 0.0


# -- one interval on every acceptance-5 cell ------------------------------------

_CELLS = [(w, T) for w in (6.0, 12.0, 24.0) for T in (2.0, 4.0, 6.0)]
_IDS = [f"w{w:g}-T{T:g}" for w, T in _CELLS]


def _initial_belief(sc):
    return GaussianBelief(mean=sc.initial_state(),
                          factor=cholesky_lower(sc.initial_covariance()))


@pytest.mark.parametrize("omega, interval", _CELLS, ids=_IDS)
def test_cdckf_interval_equals_the_two_branch_reference(omega, interval):
    sc = RadarScenario(omega0_deg=omega, interval=interval)
    belief = _initial_belief(sc)
    variant = CdckfVariant("paper-faithful", 64)
    out = cdckf_time_update(belief, sc.sde_model(), variant, interval)
    mean, factor = _two_branch_update(belief, _numpy_model(sc), variant, interval)
    assert out.mean.tobytes() == mean.tobytes()
    assert out.factor.tobytes() == factor.tobytes()


@pytest.mark.parametrize("omega, interval", _CELLS, ids=_IDS)
def test_lskf_interval_equals_the_seven_stage_reference(omega, interval):
    sc = RadarScenario(omega0_deg=omega, interval=interval)
    belief = _initial_belief(sc)
    spec = SolverSpec(kind="adaptive-embedded", abs_tol=1e-8, rel_tol=1e-8)
    out = lskf_time_update(belief, sc.sde_model(), "averaged", interval, spec)
    model = _numpy_model(sc)

    def rhs(t, y):
        return pack_state(*_reference_lskf_rhs(t, *unpack_state(y, 7), model))

    problem = OdeProblem(dim=56, rhs=rhs, t0=0.0, t1=interval,
                         y0=pack_state(belief.mean, belief.factor))
    y1, _ = _reference_dp45(problem, spec)
    mean, factor = unpack_state(y1, 7)
    assert out.mean.tobytes() == mean.tobytes()
    assert out.factor.tobytes() == factor.tobytes()


def _numpy_measurement_update(belief, mm, y):
    """The update's arithmetic as it was before the azimuth cut was
    handled: a strided column fill of the predictions and a plain mean."""
    d, nz = belief.dim, mm.meas_dim
    mean, M = belief.mean, belief.factor
    spread = np.sqrt(d) * np.concatenate([M, -M], axis=1)
    pts = mean[:, None] + spread
    Y = np.empty((nz, 2 * d))
    for i in range(2 * d):
        Y[:, i] = _numpy_radar_measure(pts[:, i])
    y_pred = Y.mean(axis=1)
    w = 1.0 / np.sqrt(2 * d)
    stacked = np.zeros((nz + d, 2 * d + nz))
    stacked[:nz, :2 * d] = w * (Y - y_pred[:, None])
    stacked[:nz, 2 * d:] = mm.noise_factor
    stacked[nz:, :2 * d] = w * spread
    T = tria(stacked)
    gain = solve_lower_right(T[:nz, :nz], T[nz:, :nz])
    innovation = wrap_angles(y - y_pred, mm.residual_wrap)
    return mean + gain @ innovation, T[nz:, nz:], y_pred


def test_measurement_update_off_the_cut_equals_the_plain_mean():
    rng = np.random.default_rng(17)
    sc = RadarScenario()
    mm = sc.measurement_model()
    for _ in range(200):
        mean = sc.initial_state() + rng.standard_normal(7) * [300, 5, 300, 5, 50, 1, 0.1]
        factor = cholesky_lower(sc.initial_covariance()) @ (
            np.eye(7) + 0.3 * rng.standard_normal((7, 7)))
        y = mm.h(mean) + np.diag(mm.noise_factor) * rng.standard_normal(3)
        post, diag = measurement_update(GaussianBelief(mean, factor), mm, y)
        want_mean, want_factor, want_pred = _numpy_measurement_update(
            GaussianBelief(mean, factor), mm, y)
        assert diag.predicted_measurement.tobytes() == want_pred.tobytes()
        assert post.mean.tobytes() == want_mean.tobytes()
        assert post.factor.tobytes() == want_factor.tobytes()
