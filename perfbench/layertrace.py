"""Outside-in tracing of cdfilter's layers.

The tracer swaps module-level names (``cdfilter.lskf.integrate``,
``cdfilter.lskf.solve_transpose`` ...) and model factory methods for timing
wrappers, records calls, busy time and child time per layer, and restores
everything on ``uninstall``.  Nothing under ``src/`` is modified, and the
untraced benchmark run never installs it.

A span's self time is its duration minus the time of the traced spans it
called.  Work done in process-pool workers is recorded by wrapping
``cdfilter.bench._trial_worker``: inside a worker the wrapper zeroes the
inherited counters, runs the task and writes the task's counters to one
span file, which the parent merges after the grid finishes.  This relies on
workers being forked after ``install``; a worker started another way records
nothing, and the workload's zero-call check reports the blind layer.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path


class TraceError(RuntimeError):
    """A traced name is missing or a layer the workload must hit was not hit."""


# (layer, home module, public name): every cdfilter module attribute bound
# to the same function object is swapped, so ``from x import y`` copies and
# call-time lookups are both traced.
FUNCTIONS = (
    ("lskf.time_update", "cdfilter.lskf", "lskf_time_update"),
    ("lskf.rhs", "cdfilter.lskf", "lskf_rhs"),
    ("ode.integrate", "cdfilter.ode", "integrate"),
    ("linalg.solve_transpose", "cdfilter.linalg", "solve_transpose"),
    ("linalg.tria", "cdfilter.linalg", "tria"),
    ("linalg.lyapunov_oracle", "cdfilter.linalg", "lyapunov_oracle"),
    ("cdckf.time_update", "cdfilter.cdckf", "cdckf_time_update"),
    ("cdckf.point_predict", "cdfilter.cdckf", "it15_point_predict"),
    ("measurement.update", "cdfilter.measurement", "measurement_update"),
    ("scenarios.make_trial", "cdfilter.scenarios", "make_trial"),
    ("bench.run_grid", "cdfilter.bench", "run_grid"),
)

# (owner, method, kind): factories whose models get traced callables.
FACTORIES = (
    ("cdfilter.scenarios", "RadarScenario", "sde_model", "sde"),
    ("cdfilter.scenarios", "RadarScenario", "measurement_model", "measurement"),
    ("cdfilter.scenarios", "TransportScenario", "sde_model", "sde"),
    ("cdfilter.models", "LinearSystem", "as_sde", "sde"),
)

MODEL_LAYERS = ("models.drift", "models.jacobian", "models.hessians", "models.h")
WORKER_LAYER = "bench.worker"
LAYERS = tuple(f[0] for f in FUNCTIONS) + MODEL_LAYERS + (WORKER_LAYER,)
SOLVE_FIELDS = ("rhs_evals", "accepted_steps", "rejected_steps")


def _resolve(module_name: str, attr: str):
    module = sys.modules.get(module_name)
    if module is None or not hasattr(module, attr):
        raise TraceError(f"traced name {module_name}.{attr} no longer exists")
    return module, getattr(module, attr)


class Tracer:
    """Per-layer calls, busy and child seconds, plus ODE and pool counters."""

    def __init__(self, span_dir: Path):
        self.span_dir = Path(span_dir)
        self.owner_pid = os.getpid()
        # [calls, busy_s, child_s] per layer, mutated in place by the wrappers
        self.layers = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.solve = dict.fromkeys(SOLVE_FIELDS, 0)
        self.pools = {"created": 0, "capacity_s": 0.0}
        self.top_s = 0.0           # time in spans with no traced parent
        self._stack = []
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _span(self, layer: str, fn, on_result=None):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_solve(self, result):
        stats = result[1]
        for name in SOLVE_FIELDS:
            self.solve[name] += getattr(stats, name)

    def wrap_sde(self, model):
        """The model with its drift and derivatives traced (``None`` stays)."""
        fields = {"drift": self._span("models.drift", model.drift)}
        if model.drift_jacobian is not None:
            fields["drift_jacobian"] = self._span("models.jacobian", model.drift_jacobian)
        if model.drift_hessians is not None:
            fields["drift_hessians"] = self._span("models.hessians", model.drift_hessians)
        return replace(model, **fields)

    def wrap_measurement(self, mm):
        return replace(mm, h=self._span("models.h", mm.h))

    # -- install / uninstall -------------------------------------------------

    def _swap(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Swap every traced name; raises TraceError if one is missing."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cdfilter" or n.startswith("cdfilter.")]
        for layer, home, name in FUNCTIONS:
            _, original = _resolve(home, name)
            on_result = self._count_solve if layer == "ode.integrate" else None
            traced = self._span(layer, original, on_result)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, attr, traced)
        for module_name, cls_name, method, kind in FACTORIES:
            _, cls = _resolve(module_name, cls_name)
            if not hasattr(cls, method):
                raise TraceError(f"traced name {module_name}.{cls_name}.{method} "
                                 "no longer exists")
            self._swap(cls, method, self._factory(getattr(cls, method), kind))
        bench, worker = _resolve("cdfilter.bench", "_trial_worker")
        self._swap(bench, "_trial_worker", self._worker(worker))
        _resolve("cdfilter.bench", "ProcessPoolExecutor")
        self._swap(bench, "ProcessPoolExecutor", self._pool_class())
        self.span_dir.mkdir(parents=True, exist_ok=True)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _factory(self, method, kind):
        wrap = self.wrap_sde if kind == "sde" else self.wrap_measurement

        @functools.wraps(method)
        def traced_factory(*args, **kwargs):
            return wrap(method(*args, **kwargs))

        return traced_factory

    def _worker(self, fn):
        """Pool-task wrapper; ``functools.wraps`` keeps it picklable by name."""
        traced = self._span(WORKER_LAYER, fn)

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() == self.owner_pid:
                return traced(*args, **kwargs)
            self.reset()
            self._stack.clear()
            result = traced(*args, **kwargs)
            fd, _ = tempfile.mkstemp(suffix=".json", dir=self.span_dir)
            with open(fd, "w") as fh:
                json.dump(self.snapshot(), fh)
            return result

        return task

    def _pool_class(self):
        tracer = self

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pools["created"] += 1
                self._traced_workers = max_workers or os.cpu_count()
                self._traced_start = time.perf_counter()

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._traced_start is not None:
                    lifetime = time.perf_counter() - self._traced_start
                    tracer.pools["capacity_s"] += self._traced_workers * lifetime
                    self._traced_start = None

        return CountingPool

    # -- snapshots -------------------------------------------------------------

    def reset(self):
        for stats in self.layers.values():
            stats[:] = [0, 0.0, 0.0]
        for name in SOLVE_FIELDS:
            self.solve[name] = 0
        self.pools.update(created=0, capacity_s=0.0)
        self.top_s = 0.0

    def snapshot(self) -> dict:
        return {"layers": {k: list(v) for k, v in self.layers.items()},
                "solve": dict(self.solve), "pools": dict(self.pools),
                "top_s": self.top_s}

    def take(self) -> dict:
        """Snapshot including merged worker span files, then reset."""
        snap = self.snapshot()
        for path in sorted(self.span_dir.glob("*.json")):
            with open(path) as fh:
                worker = json.load(fh)
            path.unlink()
            for layer, (calls, busy, child) in worker["layers"].items():
                mine = snap["layers"][layer]
                mine[0] += calls
                mine[1] += busy
                mine[2] += child
            for name in SOLVE_FIELDS:
                snap["solve"][name] += worker["solve"][name]
        self.reset()
        return snap


def layer_metrics(snap: dict, wall_s: float, overhead_frac: float) -> dict:
    """The per-layer metrics of one traced snapshot, keyed by metric name."""
    layers, solve = snap["layers"], snap["solve"]
    out = {}

    def calls(name):
        return layers[name][0]

    def busy(name):
        return layers[name][1]

    def self_s(name):
        return layers[name][1] - layers[name][2]

    def us_per_call(name):
        return 1e6 * busy(name) / calls(name) if calls(name) else 0.0

    steps = solve["accepted_steps"] + solve["rejected_steps"]
    out["ode.rhs_evals"] = (solve["rhs_evals"], "count")
    out["ode.accepted_steps"] = (solve["accepted_steps"], "count")
    out["ode.rejected_steps"] = (solve["rejected_steps"], "count")
    out["ode.accept_ratio"] = (solve["accepted_steps"] / steps if steps else 0.0, "ratio")
    out["ode.rhs_evals_per_step"] = (
        solve["rhs_evals"] / solve["accepted_steps"] if solve["accepted_steps"] else 0.0,
        "count")
    full = ("ode.integrate", "lskf.time_update", "lskf.rhs", "cdckf.time_update",
            "measurement.update")
    for name in full:
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
        out[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("lskf.rhs", "measurement.update", "linalg.solve_transpose",
                 "cdckf.point_predict", "linalg.tria", "scenarios.make_trial"):
        out[f"{name}.us_per_call"] = (us_per_call(name), "us")
    for name in ("linalg.solve_transpose", "cdckf.point_predict", "linalg.tria",
                 "scenarios.make_trial", "linalg.lyapunov_oracle"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.busy_s"] = (busy(name), "s")
    out["models.drift_evals"] = (calls("models.drift"), "count")
    out["models.drift.busy_s"] = (busy("models.drift"), "s")
    out["models.jacobian_evals"] = (calls("models.jacobian"), "count")
    out["models.hessian_evals"] = (calls("models.hessians"), "count")
    out["models.h_evals"] = (calls("models.h"), "count")
    out["bench.run_grid.busy_s"] = (busy("bench.run_grid"), "s")
    out["bench.pools_created"] = (snap["pools"]["created"], "count")
    capacity = snap["pools"]["capacity_s"]
    out["bench.pool_busy_frac"] = (busy(WORKER_LAYER) / capacity if capacity else 0.0,
                                   "ratio")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    out["trace.coverage_frac"] = (snap["top_s"] / wall_s if wall_s else 0.0, "ratio")
    return out
