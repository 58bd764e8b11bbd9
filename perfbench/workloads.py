"""The four benchmark workloads.

Each workload is a single closed-loop client: it issues one request, waits
for the result, then issues the next.  ``setup`` builds the inputs from the
seed, ``run_pass`` does one fixed unit of work (the same work every pass)
and returns its timings and outputs, and ``check`` compares the outputs
with the independent reference in ``reference.py`` and, for the seeds
recorded in ``expected.json``, with the committed values.

cdfilter functions are looked up through their modules at call time
(``lskf.lskf_time_update``), so the tracer's swapped names take effect.
"""

from __future__ import annotations

import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cdfilter import cdckf, cli, errors, linalg, lskf, measurement, ode, scenarios

import reference as ref

CELLS = tuple((w, T) for w in (6.0, 12.0, 24.0) for T in (2.0, 4.0, 6.0))
EXPECTED = Path(__file__).resolve().parent / "expected.json"

# Final radar means are compared in units of the reference posterior
# standard deviation.  Over seeds 101-115 on all nine cells, the standard
# center velocity in place of the averaged one moved them by >= 1.8e-3 sigma,
# and the program's adaptive solver at tol 1e-8 stayed within 2.1e-6 sigma of
# the tight reference.
MEAN_SIGMAS = 1e-4
VALUE_RTOL = 1e-6


@dataclass
class Pass:
    wall_s: float
    trials: int
    latencies_s: list          # one per client request
    output: object             # compared bitwise between passes


def _expected(workload: str, seed: int):
    if not EXPECTED.exists():
        return None
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _close(a, b, rtol, atol=0.0) -> bool:
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        return False
    both_nan = np.isnan(a) & np.isnan(b)
    return bool(np.all(both_nan | (np.abs(a - b) <= atol + rtol * np.abs(b))))


def _same(a, b) -> bool:
    """Bitwise equality of nested outputs (NaN equals NaN)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _sigmas(mean, ref_mean, ref_std) -> float:
    """Largest difference between two means, in standard deviations."""
    return float(np.max(np.abs(mean - ref_mean) / ref_std))


def _repeatable(passes) -> list:
    first = passes[0].output
    return [f"pass {i} output differs from pass 0"
            for i, p in enumerate(passes[1:], 1) if not _same(p.output, first)]


class Workload:
    name = ""
    setup_traced = False      # the traced run re-runs setup under the tracer
    required = ()             # layers that must record calls when traced

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, passes) -> tuple[list, dict]:
        """Failure messages, and the accuracy figures the checks looked at."""
        raise NotImplementedError

    def identities(self, metrics: dict) -> list:
        """Counter identities the traced run must satisfy."""
        return []

    def record(self, passes) -> dict:
        """This seed's entry for ``expected.json``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# track-lskf / track-cdckf: the README quick-start loop over the 3x3 cells
# ---------------------------------------------------------------------------

class Track(Workload):
    """One trial per acceptance-5 cell, trajectories built in set-up; a
    request is one measurement step (time-update plus measurement update)."""

    SPEC = ode.SolverSpec("adaptive-embedded", abs_tol=1e-8, rel_tol=1e-8)
    CDCKF = cdckf.CdckfVariant("paper-faithful", 64)
    setup_traced = True

    def __init__(self, filter_id: str, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.filter_id = filter_id
        self.name = "track-lskf" if filter_id == "lskf-adaptive" else "track-cdckf"
        self.trials = []

    def setup(self):
        trials = []
        for w, T in CELLS:
            sc = scenarios.RadarScenario(omega0_deg=w, interval=T)
            traj, belief = scenarios.make_trial(sc, self.seed)
            model = sc.sde_model()
            ops = cdckf.It15Operators(model) if self.filter_id == "cdckf" else None
            trials.append((w, T, traj, belief, model, sc.measurement_model(), ops))
        self.trials = trials
        # warm-up: one step of the first trial
        _, _, traj, belief, model, mm, ops = trials[0]
        b = self._advance(belief, model, ops, traj.times[0])
        measurement.measurement_update(b, mm, traj.measurements[0])

    def _advance(self, b, model, ops, t1):
        if ops is None:
            return lskf.lskf_time_update(b, model, "averaged", t1, self.SPEC)
        return cdckf.cdckf_time_update(b, model, self.CDCKF, t1, ops)

    def run_pass(self) -> Pass:
        clock = time.perf_counter
        latencies = []
        outputs = []
        start = clock()
        for w, T, traj, b, model, mm, ops in self.trials:
            sq_pos = np.zeros(len(traj.times))
            divergent = False
            steps = 0
            for k, t_k in enumerate(traj.times):
                t0 = clock()
                try:
                    b = self._advance(b, model, ops, t_k)
                    b, _ = measurement.measurement_update(b, mm, traj.measurements[k])
                except errors.CdFilterError:
                    latencies.append(clock() - t0)
                    divergent = True
                    break
                latencies.append(clock() - t0)
                steps += 1
                err = b.mean - traj.truth_states[k]
                if not (np.all(np.isfinite(b.mean)) and np.all(np.isfinite(b.factor))):
                    divergent = True
                    break
                sq_pos[k] = float(np.sum(err[[0, 2, 4]] ** 2))
                if math.sqrt(sq_pos[k]) > ref.DIVERGENCE_M:
                    divergent = True
                    break
            outputs.append({"cell": (w, T), "mean": b.mean.copy(), "steps": steps,
                            "divergent": divergent, "sq_pos": sq_pos,
                            "std": np.sqrt(np.sum(b.factor ** 2, axis=1))})
        return Pass(wall_s=clock() - start, trials=len(self.trials),
                    latencies_s=latencies, output=outputs)

    def check(self, passes):
        failures = _repeatable(passes)
        outputs = passes[0].output
        for (w, T, traj, *_), out in zip(self.trials, outputs):
            r = ref.run_trial(self.filter_id, traj.times, traj.truth_states,
                              traj.measurements, w, m=self.CDCKF.m)
            if r["divergent"] != out["divergent"]:
                failures.append(f"cell {w:g}/{T:g}: divergent={out['divergent']}, "
                                f"reference says {r['divergent']}")
            elif not out["divergent"]:
                off = _sigmas(out["mean"], r["mean"], r["std"])
                if not off <= MEAN_SIGMAS:
                    failures.append(f"cell {w:g}/{T:g}: final mean off the reference "
                                    f"by {off:.3g} posterior standard deviations")
        info = _radar_info(outputs)
        expected = _expected(self.name, self.seed)
        if expected is not None:
            failures += _compare_track(outputs, info, expected)
        return failures, info

    def record(self, passes):
        outputs = passes[0].output
        info = _radar_info(outputs)
        return {"divergent": info["divergent"],
                "rmse_pos_m": info["rmse_pos_m"],
                "final_means": [o["mean"].tolist() for o in outputs],
                "final_stds": [o["std"].tolist() for o in outputs]}

    def identities(self, m):
        if self.filter_id == "lskf-adaptive":
            d = 7
            out = []
            if m["models.drift_evals"] != 2 * d * m["ode.rhs_evals"]:
                out.append("models.drift_evals != 14 * ode.rhs_evals")
            if m["lskf.rhs.calls"] != m["ode.rhs_evals"]:
                out.append("lskf.rhs.calls != ode.rhs_evals")
            return out
        zero = [k for k in ("ode.rhs_evals", "ode.accepted_steps", "ode.rejected_steps",
                            "ode.integrate.calls", "linalg.solve_transpose.calls")
                if m[k] != 0]
        return [f"{k} is not 0 on track-cdckf" for k in zero]

    @property
    def required(self):
        common = ("measurement.update", "models.drift", "models.h", "scenarios.make_trial")
        if self.filter_id == "lskf-adaptive":
            return common + ("lskf.time_update", "lskf.rhs", "ode.integrate",
                             "linalg.solve_transpose")
        return common + ("cdckf.time_update", "cdckf.point_predict", "linalg.tria",
                         "models.jacobian", "models.hessians")


def _radar_info(outputs) -> dict:
    live = [o for o in outputs if not o["divergent"]]
    n_meas = sum(len(o["sq_pos"]) for o in live)
    total = sum(float(np.sum(o["sq_pos"])) for o in live)
    return {
        "rmse_pos_m": math.sqrt(total / n_meas) if n_meas else float("nan"),
        "failed_frac": (len(outputs) - len(live)) / len(outputs),
        "divergent": len(outputs) - len(live),
    }


def _compare_track(outputs, info, expected) -> list:
    failures = []
    if info["divergent"] != expected["divergent"]:
        failures.append(f"divergent {info['divergent']}, "
                        f"committed {expected['divergent']}")
    if not _close(info["rmse_pos_m"], expected["rmse_pos_m"], VALUE_RTOL):
        failures.append(f"rmse_pos_m {info['rmse_pos_m']!r}, "
                        f"committed {expected['rmse_pos_m']!r}")
    for out, mean, std in zip(outputs, expected["final_means"], expected["final_stds"]):
        if not _sigmas(out["mean"], np.asarray(mean), np.asarray(std)) <= MEAN_SIGMAS:
            failures.append(f"cell {out['cell']}: final mean differs from the "
                            "committed one")
    return failures


# ---------------------------------------------------------------------------
# mc-grid: `cdfilter radar` in-process, truth simulation in the timed path
# ---------------------------------------------------------------------------

class McGrid(Workload):
    """A request is one ``cdfilter radar`` command over the 3x3 cells."""

    name = "mc-grid"
    TRIALS = 4
    FILTERS = ("lskf-rk2", "cdckf")
    # one cell every filter tracks and one where both diverge (omega = 24)
    REF_CELLS = ((12.0, 6.0), (24.0, 4.0))
    required = ("bench.run_grid", "bench.worker", "scenarios.make_trial",
                "lskf.time_update", "lskf.rhs", "ode.integrate", "cdckf.time_update",
                "cdckf.point_predict", "linalg.tria", "measurement.update",
                "models.drift", "models.jacobian", "models.h")

    def _argv(self, out: Path, cells=CELLS, trials=None, jobs=2):
        omegas = sorted({w for w, _ in cells})
        intervals = sorted({T for _, T in cells})
        return ["radar", "--omega-deg", ",".join(f"{w:g}" for w in omegas),
                "--interval-s", ",".join(f"{T:g}" for T in intervals),
                "--m", "1", "--filters", ",".join(self.FILTERS),
                "--trials", str(trials or self.TRIALS), "--jobs", str(jobs),
                "--seed", str(self.seed), "--out", str(out)]

    def setup(self):
        out = self.scratch / "warmup"
        if cli.main(self._argv(out, cells=((6.0, 6.0),), trials=1, jobs=1)) != 0:
            raise RuntimeError("warm-up radar command failed")
        shutil.rmtree(out)

    def run_pass(self) -> Pass:
        clock = time.perf_counter
        out = self.scratch / "grid"
        start = clock()
        rc = cli.main(self._argv(out))
        wall = clock() - start
        trials = len(CELLS) * len(self.FILTERS) * self.TRIALS
        rows = cli.read_csv(out / "radar.csv") if rc == 0 else None
        shutil.rmtree(out, ignore_errors=True)
        return Pass(wall_s=wall, trials=trials, latencies_s=[wall],
                    output={"rc": rc, "rows": rows})

    def check(self, passes):
        failures = [f"cdfilter radar returned {p.output['rc']}"
                    for p in passes if p.output["rc"] != 0]
        if failures:
            return failures, {}
        failures += _repeatable(passes)
        rows = passes[0].output["rows"]
        by_key = {(r["filter"], float(r["omega_deg"]), float(r["interval_s"])): r
                  for r in rows}
        if len(rows) != len(CELLS) * len(self.FILTERS):
            failures.append(f"radar.csv has {len(rows)} rows")
        for r in rows:
            if not 0 <= r["divergent"] <= r["trials"]:
                failures.append(f"row {r['filter']}/{r['omega_deg']}/{r['interval_s']}: "
                                f"divergent={r['divergent']}")
        for w, T in self.REF_CELLS:
            times, truth, meas = ref.simulate_truth(
                w, T, [self.seed + i for i in range(self.TRIALS)])
            for f in self.FILTERS:
                rs = [ref.run_trial(f, times, truth[i], meas[i], w, m=1)
                      for i in range(self.TRIALS)]
                want = _cell_summary(rs)
                got = by_key.get((f, w, T))
                if got is None:
                    failures.append(f"no row for {f} at {w:g}/{T:g}")
                    continue
                for key, rtol in (("divergent", 0.0), ("rhs_evals_mean", 0.0),
                                  ("rmse_pos_m", VALUE_RTOL)):
                    if not _close(float(got[key]), want[key], rtol):
                        failures.append(f"{f} at {w:g}/{T:g}: {key} {got[key]!r}, "
                                        f"reference {want[key]!r}")
        info = _grid_info(rows)
        expected = _expected(self.name, self.seed)
        if expected is not None:
            for r in rows:
                key = f"{r['filter']}/{r['omega_deg']:g}/{r['interval_s']:g}"
                want = expected.get(key)
                if want is None or r["divergent"] != want["divergent"] or not _close(
                        float(r["rmse_pos_m"]), want["rmse_pos_m"], VALUE_RTOL):
                    failures.append(f"row {key} differs from the committed one")
        return failures, info

    def record(self, passes):
        return {f"{r['filter']}/{r['omega_deg']:g}/{r['interval_s']:g}":
                {"divergent": r["divergent"],
                 "rmse_pos_m": None if math.isnan(r["rmse_pos_m"]) else r["rmse_pos_m"]}
                for r in passes[0].output["rows"]}

    def identities(self, m):
        if m["bench.pools_created"] != len(CELLS):
            return [f"bench.pools_created is {m['bench.pools_created']}, "
                    f"expected one pool per cell ({len(CELLS)})"]
        return []


def _cell_summary(results) -> dict:
    live = [r for r in results if not r["divergent"]]
    rmse = float("nan")
    if live:
        total = sum(float(np.sum(r["sq_pos"])) for r in live)
        rmse = math.sqrt(total / (len(live) * len(live[0]["sq_pos"])))
    return {"divergent": len(results) - len(live), "rmse_pos_m": rmse,
            "rhs_evals_mean": float(np.mean([r["drift_evals"] for r in results]))}


def _grid_info(rows) -> dict:
    sq, n, div, trials = 0.0, 0, 0, 0
    for r in rows:
        live = r["trials"] - r["divergent"]
        n_meas = int(math.floor(ref.HORIZON / float(r["interval_s"]) + 1e-9))
        if live:
            sq += float(r["rmse_pos_m"]) ** 2 * live * n_meas
            n += live * n_meas
        div += r["divergent"]
        trials += r["trials"]
    return {"rmse_pos_m": math.sqrt(sq / n), "failed_frac": div / trials,
            "divergent": div}


# ---------------------------------------------------------------------------
# moments: convergence tables and the Appendix-A variant comparison
# ---------------------------------------------------------------------------

class Moments(Workload):
    """A request is one CLI command; a trial is one filter run over one
    oracle problem (a table row, or one factorization and variant)."""

    name = "moments"
    METHODS = ("lskf-rk1", "lskf-rk2", "lskf-rk4", "lskf-adaptive", "cdckf",
               "cdckf-proper")
    STEPS = (4, 8, 16, 32, 64, 128, 256)
    FACTORIZATIONS = 32
    ORDERS = {"lskf-rk1": 1, "lskf-rk2": 2, "lskf-rk4": 4}
    required = ("lskf.time_update", "lskf.rhs", "ode.integrate",
                "linalg.solve_transpose", "linalg.lyapunov_oracle",
                "cdckf.time_update", "cdckf.point_predict", "linalg.tria",
                "models.drift")

    def _commands(self):
        methods = ",".join(self.METHODS)
        steps = ",".join(map(str, self.STEPS))
        return (
            (["convergence", "linear-fp", "--methods", methods, "--steps", steps],
             "convergence_linear-fp.csv"),
            (["convergence", "oscillator", "--methods", methods, "--steps", steps],
             "convergence_oscillator.csv"),
            (["appendix-a", "--factorizations", str(self.FACTORIZATIONS),
              "--seed", str(self.seed)], "appendix_a.csv"),
        )

    def setup(self):
        out = self.scratch / "warmup"
        argv = ["convergence", "oscillator", "--methods", "lskf-rk1,cdckf",
                "--steps", "4", "--out", str(out)]
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up convergence command failed")
        shutil.rmtree(out)

    def run_pass(self) -> Pass:
        clock = time.perf_counter
        out = self.scratch / "moments"
        latencies, tables = [], {}
        start = clock()
        for argv, fname in self._commands():
            t0 = clock()
            rc = cli.main(argv + ["--out", str(out)])
            latencies.append(clock() - t0)
            tables[fname] = cli.read_csv(out / fname) if rc == 0 else rc
        wall = clock() - start
        shutil.rmtree(out, ignore_errors=True)
        trials = 2 * len(self.METHODS) * len(self.STEPS) + 3 * self.FACTORIZATIONS
        return Pass(wall_s=wall, trials=trials, latencies_s=latencies, output=tables)

    def check(self, passes):
        failures = [f"{name}: command returned {t}" for p in passes
                    for name, t in p.output.items() if not isinstance(t, list)]
        if failures:
            return failures, {}
        failures += _repeatable(passes)
        tables = passes[0].output
        worst_adaptive = 0.0
        for problem in ("linear-fp", "oscillator"):
            sc = (scenarios.linear_fp_scenario() if problem == "linear-fp"
                  else scenarios.oscillator_scenario())
            exact_mean, exact_cov = ref.linear_moments(sc.system.J, sc.system.K,
                                                       sc.mean0, sc.sigma0, sc.t_end)
            scale = max(1.0, float(np.linalg.norm(exact_cov)))
            o_mean, o_cov = linalg.lyapunov_oracle(sc.system, sc.mean0, sc.sigma0,
                                                   sc.t_end, 1e-13)
            if not (_close(o_cov, exact_cov, 0.0, 1e-9 * scale)
                    and _close(o_mean, exact_mean, 0.0, 1e-9 * (1 + np.abs(exact_mean)))):
                failures.append(f"{problem}: lyapunov_oracle disagrees with the "
                                "matrix-exponential moments")
            rows = tables[f"convergence_{problem}.csv"]
            worst_adaptive = max(worst_adaptive, max(
                r["err_cov_fro"] for r in rows if r["method"] == "lskf-adaptive"))
            failures += _convergence_failures(problem, rows, scale, self.ORDERS)
        appa = {r["variant"]: r for r in tables["appendix_a.csv"]}
        std, avg, par = appa["standard"], appa["averaged"], appa["partial"]
        if not (avg["mean_l2_err"] < std["mean_l2_err"]
                and par["mean_l2_err"] < std["mean_l2_err"]
                and avg["cov_entry_std"] <= par["cov_entry_std"]):
            failures.append("appendix-a: variant ordering against the exact "
                            "transport density does not hold")
        info = {"oracle_err_cov": worst_adaptive, "failed_frac": 0.0}
        expected = _expected(self.name, self.seed)
        if expected is not None:
            failures += _compare_tables(tables, expected)
        return failures, info

    def record(self, passes):
        return passes[0].output


def _convergence_failures(problem, rows, scale, orders) -> list:
    failures = []
    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(r)
    if max(r["err_cov_fro"] for r in by_method["lskf-adaptive"]) > 1e-7 * scale:
        failures.append(f"{problem}: lskf-adaptive covariance error above 1e-7")
    for method, order in orders.items():
        pts = [(r["dt"], r["err_cov_fro"] + r["err_mean_l2"]) for r in by_method[method]]
        pts = [(dt, e) for dt, e in pts if e > 1e-11 * scale][-4:]
        if len(pts) < 3:
            failures.append(f"{problem}: {method} has too few points above round-off")
            continue
        slope = np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
        if abs(slope - order) > 0.3:
            failures.append(f"{problem}: {method} converges at order {slope:.2f}, "
                            f"expected {order}")
    proper = min(r["err_cov_fro"] for r in by_method["cdckf-proper"])
    faithful = by_method["cdckf"][-1]["err_cov_fro"]
    if not (proper < 1e-6 * scale and faithful > 100 * proper):
        failures.append(f"{problem}: cdckf refinement limits are not the published "
                        "ones (proper converges, paper-faithful stays biased)")
    return failures


def _compare_tables(tables, expected) -> list:
    failures = []
    for fname, want_rows in expected.items():
        rows = tables[fname]
        if len(rows) != len(want_rows):
            failures.append(f"{fname}: {len(rows)} rows, committed {len(want_rows)}")
            continue
        for got, want in zip(rows, want_rows):
            for key, value in want.items():
                if isinstance(value, str) or key in ("steps", "factorizations"):
                    ok = got[key] == value
                else:
                    # values below ~1e-9 are round-off or solver-tolerance sized
                    ok = _close(got[key], value, VALUE_RTOL, 1e-9)
                if not ok:
                    failures.append(f"{fname}: {key} {got[key]!r}, committed {value!r}")
    return failures


def make(name: str, seed: int, scratch: Path) -> Workload:
    if name == "track-lskf":
        return Track("lskf-adaptive", seed, scratch)
    if name == "track-cdckf":
        return Track("cdckf", seed, scratch)
    if name == "mc-grid":
        return McGrid(seed, scratch)
    if name == "moments":
        return Moments(seed, scratch)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("track-lskf", "track-cdckf", "mc-grid", "moments")
