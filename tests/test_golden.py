"""The result CSVs are bitwise fixed: each command in ``tests/golden/record.py``
is run again (in process, but for the one with a process pool), and its
table must equal the golden file byte for byte.  A deliberate change
re-records the files and says why."""

import difflib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_GOLDEN = _ROOT / "tests" / "golden"


def _record_module():
    spec = importlib.util.spec_from_file_location("golden_record", _GOLDEN / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = _record_module()

# record.regenerate(argv[3:], Path(argv[2])), with argv[1] (the directory of
# record.py) on the import path
_CHILD = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
          "import record; record.regenerate(sys.argv[3:], Path(sys.argv[2]))")


def _regenerate(argv, out):
    """``record.regenerate``; a command with a process pool runs it in a
    child interpreter with one BLAS thread.  Pool workers fork from the
    running process and keep its BLAS threads: on a 2-core host the
    ``--jobs 2`` grid took 13-52 s with the default threads, 3.3 s with one."""
    if "--jobs" not in argv or argv[argv.index("--jobs") + 1] == "1":
        return record.regenerate(argv, out)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _CHILD, str(_GOLDEN),
                           str(out), *argv], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return record.table(out)


@pytest.mark.parametrize("run_id", record.RUNS)
def test_result_table_is_bitwise_golden(tmp_path, monkeypatch, run_id):
    recorded = json.loads((_GOLDEN / "versions.json").read_text())
    if recorded != record.versions():
        pytest.fail(f"the golden files were recorded with {recorded}, this run "
                    f"has {record.versions()}; if no output is meant to move, "
                    f"re-record them with `{record.RECORD_COMMAND}`")
    monkeypatch.delenv("CDFILTER_SEED", raising=False)
    golden, argv = record.RUNS[run_id]
    got = _regenerate(argv, tmp_path)
    expected = (_GOLDEN / golden).read_bytes()
    if got != expected:
        diff = difflib.unified_diff(
            expected.decode().splitlines(keepends=True),
            got.decode().splitlines(keepends=True),
            f"tests/golden/{golden}", f"cdfilter {' '.join(argv)}")
        pytest.fail("result table differs from its golden file:\n" + "".join(diff))
