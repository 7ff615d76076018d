"""Record the expected outcome of every case any workload seed can select.

Run from the repository root, at a commit whose solver behaviour is the
reference:

    python3 solvebench/record_expected.py

It solves each distinct case once, untraced, and rewrites
``solvebench/expected.json``. Every benchmark run checks its solves against
that table, so re-record only when a change to the solver's trajectory is
intended.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import MULTI8_GEOMETRIES, WORKLOADS, cases


def main() -> int:
    run.load_program()
    import harness

    distinct = {}
    for workload in WORKLOADS:
        for seed in range(len(MULTI8_GEOMETRIES)):
            for case in cases(workload, seed):
                distinct.setdefault(case.key, case)
    table = {}
    for key, case in distinct.items():
        solve = harness.run_case(case, expected=None)
        if solve.problem is not None:
            print(f"{key}: {solve.problem}", file=sys.stderr)
            return 1
        table[key] = solve.outcome
        print(f"{key}: {solve.outcome}", flush=True)
    with open(harness.EXPECTED_PATH, "w") as handle:
        json.dump({"cases": table}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
