"""The benchmark's own tests: counter identities, repeatable counters, the
correctness gate and the refusal to run without the program.

    python3 -m pytest perfbench

They run the traced workloads with a one-second budget (one pass each),
about two minutes in all on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402 - sets the thread environment before numpy

run.import_program()

import workloads  # noqa: E402
from cdfilter import lskf  # noqa: E402
from layertrace import TraceError, Tracer  # noqa: E402


def _bench(*args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _traced(workload):
    proc = _bench("--workload", workload, "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


def _counts(metrics, units):
    return {k: v for k, v in metrics.items() if units[k] == "count"}


@pytest.fixture(scope="module")
def units():
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload, made once for all tests."""
    return {w: (_traced(w), _traced(w)) for w in run.WORKLOAD_NAMES}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counters_repeat_exactly(workload, traced, units):
    first, second = traced[workload]
    assert set(first) == set(units)
    assert _counts(first, units) == _counts(second, units)


def test_track_lskf_identities(traced):
    m = traced["track-lskf"][0]
    assert m["ode.rhs_evals"] > 0
    assert m["models.drift_evals"] == 14 * m["ode.rhs_evals"]
    assert m["lskf.rhs.calls"] == m["ode.rhs_evals"]


def test_track_cdckf_never_touches_the_ode_side(traced):
    m = traced["track-cdckf"][0]
    for name in ("ode.rhs_evals", "ode.accepted_steps", "ode.rejected_steps",
                 "ode.integrate.calls", "linalg.solve_transpose.calls"):
        assert m[name] == 0, name
    assert m["cdckf.point_predict.calls"] > 0


def test_mc_grid_opens_one_pool_per_cell(traced):
    m = traced["mc-grid"][0]
    assert m["bench.pools_created"] == len(workloads.CELLS)
    assert m["scenarios.make_trial.calls"] > 0


def test_gate_rejects_the_wrong_center_velocity(tmp_path, monkeypatch):
    # a seed without committed outputs: only the reference check applies
    w = workloads.make("track-lskf", 7, tmp_path)
    w.setup()
    w.trials = w.trials[-2:]
    good = w.run_pass()
    assert w.check([good])[0] == []
    right = lskf.lskf_time_update

    def standard(belief, model, variant, t1, spec):
        return right(belief, model, "standard", t1, spec)

    monkeypatch.setattr(lskf, "lskf_time_update", standard)
    failures, _ = w.check([w.run_pass()])
    assert failures and all("final mean" in f for f in failures)


def test_tracer_fails_loudly_on_a_missing_name(tmp_path, monkeypatch):
    monkeypatch.delattr(lskf, "lskf_rhs")
    tracer = Tracer(tmp_path)
    try:
        with pytest.raises(TraceError, match="cdfilter.lskf.lskf_rhs"):
            tracer.install()
    finally:
        tracer.uninstall()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "moments", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
