"""Print what a different sparse-LU column order changes in the sweep and the gate.

Run as ``python3 tests/rounding_census.py``; it takes no options and imports
the ``fracsolve`` of its own checkout. It runs the default 160-row sweep
twice, first as the program runs it (``splu``'s default COLAMD column order)
and then with ``scipy.sparse.linalg.splu`` monkeypatched to the
``MMD_AT_PLUS_A`` order, and prints every row whose status, iterations,
``ls_evals`` or tightenings differ between the two. Then it runs the twelve
acceptance criteria of ``test_acceptance.py`` under the swapped order and
prints each one's outcome. Both orders pass ``linear_solve``'s residual check,
so every difference is rounding carried through the Newton trajectories. It
costs about two sweeps and one acceptance run.
"""

import concurrent.futures
import functools
import multiprocessing
import os
import sys
from collections import Counter
from pathlib import Path

import pytest
import scipy.sparse.linalg as spla

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fracsolve.bench import SweepSpec, solve_cell

COLUMN_ORDER = "MMD_AT_PLUS_A"
MOVES = ("status", "iterations", "ls_evals", "tightenings")
_DEFAULT_SPLU = spla.splu


def _use_column_order(swapped: bool) -> None:
    spla.splu = (functools.partial(_DEFAULT_SPLU, permc_spec=COLUMN_ORDER) if swapped
                 else _DEFAULT_SPLU)


def _sweep(swapped: bool) -> list:
    """The default sweep's rows, sorted; each worker sets the column order itself."""
    workers = min(2, os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
            initializer=_use_column_order, initargs=(swapped,)) as pool:
        return sorted(pool.map(solve_cell, SweepSpec().cells()))


class _Outcomes:
    """The outcome of each test, from pytest's reports."""

    def __init__(self):
        self.outcomes = {}

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            self.outcomes[report.nodeid.rpartition("::")[2]] = report.outcome


def main() -> int:
    default, swapped = _sweep(False), _sweep(True)
    moved = [(a, b) for a, b in zip(default, swapped)
             if any(getattr(a, name) != getattr(b, name) for name in MOVES)]
    print(f"# sweep rows that move under {COLUMN_ORDER} "
          f"(status iterations ls_evals tightenings, COLAMD -> {COLUMN_ORDER})")
    for a, b in moved:
        before = " ".join(str(getattr(a, name)) for name in MOVES)
        after = " ".join(str(getattr(b, name)) for name in MOVES)
        print(f"{a.strategy} {a.model} phi={a.phi:g} cells={a.cells} u_c={a.u_c:g}: "
              f"{before} -> {after}")
    by_strategy = Counter(a.strategy for a, _ in moved)
    statuses = sum(a.status != b.status for a, b in moved)
    print(f"# {len(moved)} of {len(default)} rows move, {statuses} of them in status; "
          + ", ".join(f"{name} {count}" for name, count in sorted(by_strategy.items())))

    _use_column_order(True)
    outcomes = _Outcomes()
    pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", str(HERE / "test_acceptance.py")],
                plugins=[outcomes])
    print(f"# acceptance criteria under {COLUMN_ORDER}")
    for name, outcome in sorted(outcomes.outcomes.items()):
        print(f"{name}: {outcome.upper()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
