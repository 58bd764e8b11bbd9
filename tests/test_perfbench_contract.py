"""The benchmark harness in ``perfbench/`` times the library from outside by
swapping module-level names (``cdfilter.lskf.integrate``,
``cdfilter.bench._trial_worker`` ...) and model factory methods.  A rename
of any of them would silently break ``perfbench/run.py --trace 1``; this
test makes it fail the ordinary suite instead.
"""

import importlib.util
from pathlib import Path

import pytest

import cdfilter.bench
import cdfilter.cdckf
import cdfilter.cli  # noqa: F401 - the tracer swaps names in loaded modules
import cdfilter.lskf
import cdfilter.measurement
import cdfilter.ode
import cdfilter.scenarios
from cdfilter import GaussianBelief, cholesky_lower

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    layertrace = _layertrace()
    originals = (cdfilter.bench._trial_worker, cdfilter.bench.ProcessPoolExecutor,
                 cdfilter.bench.run_grid, cdfilter.lskf.integrate,
                 cdfilter.scenarios.RadarScenario.sde_model)
    tracer = layertrace.Tracer(tmp_path / "spans")
    try:
        tracer.install()
        assert cdfilter.bench.run_grid is not originals[2]
    except layertrace.TraceError as exc:
        pytest.fail(f"perfbench can no longer trace the library: {exc}")
    finally:
        tracer.uninstall()
    assert (cdfilter.bench._trial_worker, cdfilter.bench.ProcessPoolExecutor,
            cdfilter.bench.run_grid, cdfilter.lskf.integrate,
            cdfilter.scenarios.RadarScenario.sde_model) == originals


def test_tracer_sees_the_cubature_layers(tmp_path):
    # `perfbench/run.py --trace 1` fails when a required layer records no
    # calls; these are the ones the cubature filter and the measurement
    # update must reach through the swapped names
    layertrace = _layertrace()
    tracer = layertrace.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        sc = cdfilter.scenarios.RadarScenario()
        model = sc.sde_model()
        belief = GaussianBelief(mean=sc.initial_state(),
                                factor=cholesky_lower(sc.initial_covariance()))
        belief = cdfilter.cdckf.cdckf_time_update(
            belief, model, cdfilter.cdckf.CdckfVariant("paper-faithful", 2), sc.interval)
        y = cdfilter.scenarios.radar_measure(sc.initial_state())
        cdfilter.measurement.measurement_update(belief, sc.measurement_model(), y)
        calls = {name: stats[0] for name, stats in tracer.layers.items()}
    finally:
        tracer.uninstall()
    for name in ("cdckf.time_update", "cdckf.point_predict", "linalg.tria",
                 "models.drift", "models.jacobian", "models.hessians",
                 "measurement.update"):
        assert calls[name] > 0, name


def test_tracer_counts_one_batched_chunk(tmp_path):
    # `mc-grid` requires `scenarios.make_trial` and `bench.worker` to record
    # calls.  A serial cell is one chunk: one worker task and one batched
    # `make_trial`.  `models.h` runs once per measurement in the truth
    # simulation and once per cubature point in each measurement update,
    # as it did when every trial was simulated alone.
    layertrace = _layertrace()
    tracer = layertrace.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        cfg = cdfilter.bench.BenchConfig(omega_deg=(6.0,), intervals=(6.0,),
                                         m_values=(2,), filters=("cdckf",),
                                         trials=3, em_substeps=50)
        rows = cdfilter.bench.run_grid(cfg, jobs=1)
        calls = {name: stats[0] for name, stats in tracer.layers.items()}
    finally:
        tracer.uninstall()
    n_meas, d = 20, 7
    assert rows[0]["divergent"] == 0
    assert calls["scenarios.make_trial"] == 1
    assert calls["bench.worker"] == 1
    assert calls["models.h"] == 3 * n_meas * (1 + 2 * d)


def _traced_calls(tmp_path, run):
    """Run ``run(scenario)`` under the tracer; its calls per layer and the
    ``SolveStats`` it captured."""
    layertrace = _layertrace()
    tracer = layertrace.Tracer(tmp_path / "spans")
    tracer.install()
    try:
        run(cdfilter.scenarios.RadarScenario(omega0_deg=12.0, interval=4.0))
        calls = {name: stats[0] for name, stats in tracer.layers.items()}
        solve = dict(tracer.solve)
    finally:
        tracer.uninstall()
    return calls, solve


def _initial_belief(sc):
    return GaussianBelief(mean=sc.initial_state(),
                          factor=cholesky_lower(sc.initial_covariance()))


def test_tracer_counts_the_level_set_identities(tmp_path):
    # `perfbench/run.py --trace 1` checks these on track-lskf: one drift
    # call per cubature point (2d = 14 for the averaged variant) in every
    # rhs, one rhs per solver evaluation, one diffusion solve per rhs
    def run(sc):
        spec = cdfilter.ode.SolverSpec(kind="adaptive-embedded",
                                       abs_tol=1e-8, rel_tol=1e-8)
        cdfilter.lskf.lskf_time_update(_initial_belief(sc), sc.sde_model(),
                                       "averaged", sc.interval, spec)

    calls, solve = _traced_calls(tmp_path, run)
    assert calls["lskf.time_update"] == calls["ode.integrate"] == 1
    assert solve["rhs_evals"] > 0
    assert calls["lskf.rhs"] == solve["rhs_evals"]
    assert calls["models.drift"] == 14 * calls["lskf.rhs"]
    assert calls["linalg.solve_transpose"] == calls["lskf.rhs"]


def test_tracer_counts_the_cubature_identities(tmp_path):
    # per substep two drift calls, one Jacobian and one Hessian per point;
    # paper-faithful builds its noise blocks (one more Jacobian) once
    d, m = 7, 4

    def run(sc):
        cdfilter.cdckf.cdckf_time_update(
            _initial_belief(sc), sc.sde_model(),
            cdfilter.cdckf.CdckfVariant("paper-faithful", m), sc.interval)

    calls, solve = _traced_calls(tmp_path, run)
    assert calls["cdckf.time_update"] == 1
    assert calls["cdckf.point_predict"] == calls["linalg.tria"] == m
    assert calls["models.drift"] == 2 * 2 * d * m
    assert calls["models.jacobian"] == 2 * d * m + 1
    assert calls["models.hessians"] == 2 * d * m
    assert solve["rhs_evals"] == calls["linalg.solve_transpose"] == 0
