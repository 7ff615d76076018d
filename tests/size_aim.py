"""Check the size aim: a 96x96 solve stays under a gigabyte of resident memory.

Run as ``python3 tests/size_aim.py``; it imports the ``fracsolve`` of its own
checkout. It solves one sweep cell, single-tpm at 96x96 cells (73,728 dofs)
with the constraint-adaptive search, in a child interpreter that inherits the
``-W`` options. Then it prints the child's status and iterations, the wall
time and the child's peak resident set (``ru_maxrss`` of the waited-for
children, in KiB on Linux), and exits 1 when that peak reaches 1 GB. One run
takes about 30 s and 300 MB.
"""

import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

CELL = ("constraint-adaptive", "single-tpm", 0.1, 96, 0.01, 0)
LIMIT_BYTES = 10**9


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        from fracsolve.bench import solve_cell

        row = solve_cell(CELL)
        print(f"{row.status} after {row.iterations} iterations")
        return 0
    started = time.perf_counter()
    subprocess.run([sys.executable, *(f"-W{w}" for w in sys.warnoptions), __file__, "--child"],
                   check=True)
    wall = time.perf_counter() - started
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    print(f"wall {wall:.1f} s, peak resident set {peak / 1e6:.0f} MB "
          f"(limit {LIMIT_BYTES / 1e6:.0f} MB)")
    return 0 if peak < LIMIT_BYTES else 1


if __name__ == "__main__":
    sys.exit(main())
