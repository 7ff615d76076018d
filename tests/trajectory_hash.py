"""Print one sha256 over the trajectories of 48 reference solves.

Run as ``python3 -W error tests/trajectory_hash.py [EXPECTED]``; it imports
the ``fracsolve`` of its own checkout. The solves are every preset in
(single-pm, single-tpm, multi4-pm, multi4-tpm), times every line-search
``Strategy`` in enum order, times u_c in (1e-4, 1e-2, 1.0), each with default
``NewtonOptions`` otherwise. One hash is updated per solve with the ``repr``
of a tuple built from its report's trace: (status value, iterations, the
step lengths, line-search evaluations, tightening rounds, the recorded
scales, the recorded regime censuses, divergence reason), each list holding
the non-``None`` values of one record field in iteration order; then with
the bytes of its final iterate. A change that keeps every trajectory bitwise
keeps the printed hash. Given an expected hash, the script exits 1 when the
printed one differs.

``--outcomes`` prints the integer outcome of each solve instead, with the
numpy and scipy versions that produced them, as the JSON that
``tests/golden/trajectory_outcomes.json`` holds and
``tests/test_golden_outcomes.py`` compares against; a change that moves a
trajectory on purpose rewrites that file with it.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fracsolve.linesearch import Strategy
from fracsolve.models import preset
from fracsolve.newton import NewtonOptions, solve

PRESETS = ("single-pm", "single-tpm", "multi4-pm", "multi4-tpm")
DISPLACEMENTS = (1e-4, 1e-2, 1.0)


def reference_solves():
    """Yield ``(preset, strategy value, u_c, report)`` for the 48 solves, in hash order."""
    for name in PRESETS:
        for strategy in Strategy:
            for u_c in DISPLACEMENTS:
                report = solve(preset(name, characteristic_displacement=u_c),
                               options=NewtonOptions(line_search=strategy))
                yield name, strategy.value, u_c, report


def outcome(name: str, strategy: str, u_c: float, report) -> dict:
    """One solve's integer outcome: status, counts and divergence reason."""
    return {"preset": name, "strategy": strategy, "u_c": u_c,
            "status": report.status.value, "iterations": report.iterations,
            "ls_evals": report.ls_evaluations, "tightenings": report.tightening_rounds,
            "divergence_reason": report.divergence_reason}


def recorded(report, name: str) -> list:
    """The non-``None`` values of one trace record field, in iteration order."""
    return [getattr(record, name) for record in report.trace
            if getattr(record, name) is not None]


def trajectory_hash() -> str:
    digest = hashlib.sha256()
    for _, _, _, report in reference_solves():
        alphas = [search.alpha for search in recorded(report, "search")]
        digest.update(repr((report.status.value, report.iterations, alphas,
                            report.ls_evaluations, report.tightening_rounds,
                            recorded(report, "scale"), recorded(report, "census"),
                            report.divergence_reason)).encode())
        digest.update(report.x.tobytes())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("expected", nargs="?", help="exit 1 unless the hash equals this")
    parser.add_argument("--outcomes", action="store_true",
                        help="print each solve's integer outcome as JSON instead")
    args = parser.parse_args(argv)
    if args.outcomes:
        solves = [outcome(*solved) for solved in reference_solves()]
        print(json.dumps({"numpy": np.__version__, "scipy": scipy.__version__,
                          "solves": solves}, indent=1))
        return 0
    digest = trajectory_hash()
    print(digest)
    if args.expected is not None and digest != args.expected:
        print(f"trajectory hash differs from the expected {args.expected}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
