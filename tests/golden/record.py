#!/usr/bin/env python3
"""Write the golden result files that ``tests/test_golden.py`` compares against.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/golden/record.py

Runs every command in ``RUNS`` through the ``cdfilter`` command line in this
process and writes each result CSV next to this script, together with
``versions.json``: the Python, numpy and scipy versions that produced the
bits.  Runs that share a golden file must write the same bytes, or nothing
is recorded.  Run it again only when a change is meant to move these
outputs, and say why in the change.  The bits do not depend on the number
of BLAS threads; one thread only keeps the ``--jobs 2`` pool from
oversubscribing a small host.
"""

import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from cdfilter.bench import FILTER_IDS
from cdfilter.cli import main as cdfilter_main

GOLDEN = Path(__file__).resolve().parent
RECORD_COMMAND = "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tests/golden/record.py"

_ALL_IDS = ",".join(FILTER_IDS)
# every filter id, both cubature modes, m > 1, and the divergent lskf-rk1
# and omega = 24 rows
_RADAR_GRID = ["radar", "--omega-deg", "12,24", "--interval-s", "4,6",
               "--filters", _ALL_IDS, "--m", "1,2", "--trials", "2"]
_RADAR_CELL = ["radar", "--omega-deg", "12", "--interval-s", "4",
               "--filters", "lskf-adaptive,lskf-rk2", "--trials", "2"]

# run id -> (golden file, command line without --out)
RUNS = {
    "radar-grid-jobs1": ("radar_grid.csv", _RADAR_GRID + ["--jobs", "1"]),
    "radar-grid-jobs2": ("radar_grid.csv", _RADAR_GRID + ["--jobs", "2"]),
    "radar-partial": ("radar_partial.csv", _RADAR_CELL + ["--variant", "partial"]),
    "radar-standard": ("radar_standard.csv", _RADAR_CELL + ["--variant", "standard"]),
    "convergence-linear-fp": ("convergence_linear-fp.csv",
                              ["convergence", "linear-fp", "--methods", _ALL_IDS,
                               "--steps", "4,16,64"]),
    "convergence-oscillator": ("convergence_oscillator.csv",
                               ["convergence", "oscillator", "--methods", _ALL_IDS,
                                "--steps", "4,16,64"]),
    "appendix-a": ("appendix_a.csv", ["appendix-a", "--factorizations", "8"]),
}


def versions() -> dict:
    """The versions whose arithmetic the golden bits depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def regenerate(argv, out: Path) -> bytes:
    """Run one command line into ``out``; returns its result table's bytes.
    ``CDFILTER_SEED`` must be unset, since it overrides every seed."""
    if "CDFILTER_SEED" in os.environ:
        raise RuntimeError("unset CDFILTER_SEED: it overrides the recorded seeds")
    code = cdfilter_main(list(argv) + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"cdfilter {' '.join(argv)} exited {code}")
    return table(out)


def table(out: Path) -> bytes:
    """The bytes of the result table that a run wrote into ``out``."""
    manifest = json.loads((out / "manifest.json").read_text())
    return (out / manifest["result_files"]["table"]).read_bytes()


def main() -> int:
    tables = {}
    with tempfile.TemporaryDirectory() as tmp:
        for run_id, (golden, argv) in RUNS.items():
            data = regenerate(argv, Path(tmp) / run_id)
            if tables.setdefault(golden, data) != data:
                print(f"{run_id}: differs from an earlier run of {golden}; "
                      "nothing recorded", file=sys.stderr)
                return 1
            print(f"{run_id}: {len(data)} bytes", flush=True)
    for golden, data in tables.items():
        (GOLDEN / golden).write_bytes(data)
    with open(GOLDEN / "versions.json", "w") as fh:
        json.dump(versions(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
