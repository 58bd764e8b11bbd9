#!/usr/bin/env python3
"""Write expected.json: the committed outputs the benchmark compares against.

    python3 perfbench/record_expected.py

Runs one pass of every workload at the default and the hold-out seed, and
records it only if it already passes the independent reference check.  Run
it again only when a change is meant to move these outputs, and say why in
the change.
"""

import json
import sys
import tempfile

import run  # sets the thread environment before numpy is imported


def main() -> int:
    run.import_program()
    import workloads

    recorded = {}
    target = workloads.EXPECTED
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        # check against the reference alone, not the file being replaced
        workloads.EXPECTED = run.Path(tmp) / "none.json"
        for name in run.WORKLOAD_NAMES:
            for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
                w = workloads.make(name, seed, run.Path(tmp))
                w.setup()
                passes = [w.run_pass()]
                failures, _ = w.check(passes)
                if failures:
                    print(f"{name} seed {seed}: not recorded: {failures}", file=sys.stderr)
                    return 1
                recorded.setdefault(name, {})[str(seed)] = w.record(passes)
                print(f"{name} seed {seed}: recorded", flush=True)
    with open(target, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
