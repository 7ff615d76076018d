"""Print one sha256 over the trajectories of 48 reference solves.

Run as ``python3 -W error tests/trajectory_hash.py``; it takes no options
and imports the ``fracsolve`` of its own checkout. The solves are every preset
in (single-pm, single-tpm, multi4-pm, multi4-tpm), times every line-search
``Strategy`` in enum order, times u_c in (1e-4, 1e-2, 1.0), each with default
``NewtonOptions`` otherwise. One hash is updated per solve with the ``repr``
of its (status value, iterations, alphas, line-search evaluations, tightening
rounds, scale history, regime history, divergence reason), then with the
bytes of its final iterate. A change that keeps every trajectory bitwise
keeps the printed hash.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fracsolve.linesearch import Strategy
from fracsolve.models import preset
from fracsolve.newton import NewtonOptions, solve

PRESETS = ("single-pm", "single-tpm", "multi4-pm", "multi4-tpm")
DISPLACEMENTS = (1e-4, 1e-2, 1.0)


def trajectory_hash() -> str:
    digest = hashlib.sha256()
    for name in PRESETS:
        for strategy in Strategy:
            for u_c in DISPLACEMENTS:
                report = solve(preset(name, characteristic_displacement=u_c),
                               options=NewtonOptions(line_search=strategy))
                digest.update(repr((report.status.value, report.iterations, report.alphas,
                                    report.ls_evaluations, report.tightening_rounds,
                                    report.scale_history, report.regime_history,
                                    report.divergence_reason)).encode())
                digest.update(report.x.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(trajectory_hash())
