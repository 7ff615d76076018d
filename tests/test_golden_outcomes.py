"""The committed integer outcomes of the reference solves and the default sweep.

``golden/trajectory_outcomes.json`` holds the status, iterations, line-search
evaluations, tightening rounds and divergence reason of the 48 solves that
``trajectory_hash.py`` hashes, with the numpy and scipy versions that made
them. Another release may round differently, so the comparison runs only
under those versions; CI's pinned job runs it there. A change that moves a
trajectory on purpose rewrites the file with ``python3 -W error
tests/trajectory_hash.py --outcomes`` and names the solves that moved.

``golden/sweep_outcomes.csv`` holds the default sweep's CSV without its
schema line and its ``final_norm`` column (``tail -n +2 sweep.csv | cut -d,
-f1-9,11,12``): each row's key and integer outcome. The pinned CI job diffs
a fresh sweep against it, which names the rows a change moved; here only
its rows are checked against the sweep's cells.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

import trajectory_hash
from fracsolve.bench import SweepSpec

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDED = json.loads((GOLDEN / "trajectory_outcomes.json").read_text())


@pytest.mark.skipif((np.__version__, scipy.__version__) != (RECORDED["numpy"], RECORDED["scipy"]),
                    reason=f"outcomes recorded under numpy {RECORDED['numpy']} "
                           f"and scipy {RECORDED['scipy']}")
def test_reference_solves_keep_their_integer_outcomes():
    got = [trajectory_hash.outcome(*solved) for solved in trajectory_hash.reference_solves()]
    want = RECORDED["solves"]
    assert len(got) == len(want) == 48
    moved = [(old, new) for old, new in zip(want, got) if old != new]
    assert not moved, moved


def test_sweep_outcomes_cover_the_default_sweep():
    with open(GOLDEN / "sweep_outcomes.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    keys = sorted((r["strategy"], r["model"], float(r["phi"]), int(r["cells"]),
                   float(r["u_c"]), int(r["seed"])) for r in rows)
    assert keys == sorted(SweepSpec().cells())
    assert len(rows) == 160
