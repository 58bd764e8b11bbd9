"""Batch command-line front end.

Three subcommands: ``convergence`` (moment-convergence tables),
``radar`` (Monte-Carlo tracking grid), ``appendix-a`` (center-velocity
variant comparison on the transport flow).  Every run writes a manifest
first, then deterministic CSV result files; re-running from the manifest
alone reproduces the result files bitwise.  Wall-clock timings go to a
separate ``timing.json`` sidecar so the result files stay deterministic.

Configuration can come from a flat INI-style file (section = subcommand,
keys = long flag names); explicit flags override file values, and an
unknown key or an unreadable file is a usage error.  The environment
variable ``CDFILTER_SEED`` overrides every ``--seed``, and the manifest
records the seed that ran.  The CLI only casts values: any value the
library rejects is a usage error reported before anything is written,
and a library caller gets the same ``ValueError``.

Exit codes: 0 success, 1 runtime failure (a numerical ``CdFilterError``
or an I/O error), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .bench import (FILTER_IDS, PROBLEMS, BenchConfig, check_appendix_a,
                    check_filters, convergence_study, run_appendix_a, run_grid)
from .errors import check_count
from .lskf import VARIANTS

RADAR_CSV_COLUMNS = ("filter", "variant", "omega_deg", "interval_s", "m",
                     "trials", "divergent", "rmse_pos_m", "rmse_vel_mps",
                     "rmse_turn_radps", "rhs_evals_mean")
CONV_CSV_COLUMNS = ("method", "steps", "dt", "err_mean_l2", "err_cov_fro")
APPA_CSV_COLUMNS = ("variant", "factorizations", "mean_l2_err", "cov_entry_std")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _parse(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_csv(path) -> list[dict]:
    """Parse a result CSV back into typed rows (exact round-trip)."""
    with open(path, newline="") as fh:
        return [{key: _parse(text) for key, text in raw.items()}
                for raw in csv.DictReader(fh)]


def _floats(text: str):
    return tuple(float(v) for v in text.split(","))


def _ints(text: str):
    return tuple(int(v) for v in text.split(","))


def _ids(text: str):
    return tuple(v.strip() for v in text.split(",") if v.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfilter",
        description="Continuous-discrete filtering benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", default=None,
                        help="INI config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    conv = sub.add_parser("convergence", help="time-update convergence table")
    conv.add_argument("problem", choices=PROBLEMS)
    conv.add_argument("--methods", type=_ids,
                      default=tuple(f for f in FILTER_IDS if f != "lskf-adaptive"))
    conv.add_argument("--steps", type=_ints,
                      default=(4, 8, 16, 32, 64, 128, 256, 512, 1024))
    conv.add_argument("--out", default="out")

    radar = sub.add_parser("radar", help="Monte-Carlo radar tracking grid")
    # BenchConfig's field defaults, read without building a config
    default = {f.name: f.default for f in dataclasses.fields(BenchConfig)}
    radar.add_argument("--omega-deg", type=_floats, default=default["omega_deg"])
    radar.add_argument("--interval-s", type=_floats, default=default["intervals"])
    radar.add_argument("--m", type=_ints, default=default["m_values"])
    radar.add_argument("--filters", type=_ids, default=default["filters"])
    radar.add_argument("--trials", type=int, default=default["trials"])
    radar.add_argument("--seed", type=int, default=default["base_seed"])
    radar.add_argument("--variant", choices=VARIANTS, default=default["variant"])
    radar.add_argument("--tol-abs", type=float, default=default["abs_tol"])
    radar.add_argument("--tol-rel", type=float, default=default["rel_tol"])
    radar.add_argument("--sigma2", type=float, default=default["sigma2"])
    radar.add_argument("--jobs", type=int, default=1)
    radar.add_argument("--out", default="out")

    appa = sub.add_parser("appendix-a", help="center-velocity variant comparison")
    appa.add_argument("--factorizations", type=int, default=1024)
    appa.add_argument("--seed", type=int, default=20210001)
    appa.add_argument("--a", type=float, default=0.5)
    appa.add_argument("--b", type=float, default=1.0)
    appa.add_argument("--t-end", type=float, default=1.0)
    appa.add_argument("--out", default="out")
    return parser


def _with_config(parser, argv):
    """Splice the --config file's section for the chosen subcommand into
    argv as ``--key=value`` flags right after the subcommand, so argparse
    casts the values and rejects unknown keys, and later explicit flags
    win."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, rest = probe.parse_known_args(argv)
    if not known.config or not rest or rest[0] not in _COMMANDS:
        return argv
    command = rest[0]
    ini = configparser.ConfigParser()
    try:
        with open(known.config) as fh:
            ini.read_file(fh)
        items = ini.items(command) if ini.has_section(command) else []
    except (OSError, configparser.Error) as exc:
        parser.error(f"cannot read config file {known.config}: {exc}")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in items]
    # the probe consumed exactly the tokens before the subcommand
    at = len(argv) - len(rest) + 1
    return argv[:at] + flags + argv[at:]


def _start_run(args, command: str, table: str, decisions: dict) -> Path:
    """Create the output directory and write the manifest into it, before
    any result file; returns the directory."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    settings = {k: v for k, v in vars(args).items()
                if k not in ("command", "config")}
    manifest = {
        "tool": "cdfilter",
        "version": __version__,
        "command": command,
        "settings": settings,
        "result_files": {"table": table},
        "decisions": decisions,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def cmd_convergence(args) -> int:
    check_filters(args.methods, args.steps)
    fname = f"convergence_{args.problem}.csv"
    out = _start_run(args, "convergence", fname, {
        "reference": "adaptive Lyapunov integration at tolerance 1e-13",
        "lskf_variant": "averaged",
    })
    rows = convergence_study(args.problem, args.methods, args.steps)
    _write_csv(out / fname, CONV_CSV_COLUMNS, rows)
    return 0


def cmd_radar(args) -> int:
    config = BenchConfig(
        omega_deg=args.omega_deg,
        intervals=args.interval_s,
        m_values=args.m,
        filters=args.filters,
        variant=args.variant,
        trials=args.trials,
        base_seed=args.seed,
        abs_tol=args.tol_abs,
        rel_tol=args.tol_rel,
        sigma2=args.sigma2,
    )
    check_count("jobs", args.jobs, 1)
    out = _start_run(args, "radar", "radar.csv",
                     dict(config.metadata(), seed=args.seed))
    t0 = time.perf_counter()
    rows = run_grid(config, jobs=args.jobs)
    _write_csv(out / "radar.csv", RADAR_CSV_COLUMNS, rows)
    # timings are non-deterministic; they live outside the result files
    timing = {
        "total_s": time.perf_counter() - t0,
        "wall_ms_per_trial": {
            f"{r['filter']}/omega{r['omega_deg']:g}/T{r['interval_s']:g}/m{r['m']}":
                r["wall_ms_per_trial"] for r in rows
        },
    }
    with open(out / "timing.json", "w") as fh:
        json.dump(timing, fh, indent=2)
    return 0


def cmd_appendix_a(args) -> int:
    check_appendix_a(args.factorizations, args.seed, args.a, args.b, args.t_end)
    out = _start_run(args, "appendix-a", "appendix_a.csv", {
        "flow": "v(x, y) = (0, x^2), volume-preserving characteristics oracle",
        "error_metric": "grid L2 distance between estimate density and exact pushforward",
    })
    rows = run_appendix_a(args.factorizations, args.seed, args.a, args.b,
                          args.t_end)
    _write_csv(out / "appendix_a.csv", APPA_CSV_COLUMNS, rows)
    return 0


_COMMANDS = {
    "convergence": cmd_convergence,
    "radar": cmd_radar,
    "appendix-a": cmd_appendix_a,
}


def run_from_manifest(manifest_path, out_dir=None) -> int:
    """Re-execute a recorded run; reproduces its result files bitwise."""
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    args = argparse.Namespace(**{
        k: tuple(v) if isinstance(v, list) else v
        for k, v in manifest["settings"].items()
    })
    if out_dir is not None:
        args.out = str(out_dir)
    return _COMMANDS[manifest["command"]](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_with_config(parser, argv))
        # set in args, so the manifest and any replay keep the seed that ran
        env_seed = os.environ.get("CDFILTER_SEED")
        if env_seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(env_seed)
            except ValueError:
                parser.error(f"CDFILTER_SEED must be an integer, got {env_seed!r}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"cdfilter: error: {exc}", file=sys.stderr)
        # a rejected argument is a ValueError, a numerical failure a CdFilterError
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
