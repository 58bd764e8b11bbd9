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
