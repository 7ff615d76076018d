"""Benchmark harness: strategy comparison sweeps with CSV and table output.

Runs the Newton driver over a cartesian sweep of globalization strategy,
model preset, dilation angle, mesh size, characteristic displacement and
seed, recording iteration counts the way the comparison figures report them
(``NC`` for runs that hit the iteration cap, ``Div`` for diverged runs).
Sweeps are embarrassingly parallel; rows are sorted by their coordinates so
output is deterministic regardless of execution order.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .contact import check_dilation_angle
from .linesearch import Strategy
from .models import MULTI_CELLS_PER_SIDE, PRESET_NAMES, preset
from .newton import ConvergenceCriterion, CriterionKind, NewtonOptions, SolveStatus, solve
from .scaling import CharacteristicScales

__all__ = [
    "SweepSpec",
    "ResultRow",
    "run_sweep",
    "emit_csv",
    "emit_table",
    "main",
]

CSV_SCHEMA_COMMENT = "# fracsolve sweep schema v1"

ALL_STRATEGIES = tuple(s.value for s in Strategy)
DEFAULT_U_C_SWEEP = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
SWEEP_AXES = ("strategies", "models", "phi_values", "cells_values", "u_c_values", "seeds")


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep definition over distinct axis values; every cell yields exactly one row."""

    strategies: tuple[str, ...] = ALL_STRATEGIES
    models: tuple[str, ...] = ("single-pm", "single-tpm")
    phi_values: tuple[float, ...] = (0.1, 0.2)
    cells_values: tuple[int, ...] = (6, 12)
    u_c_values: tuple[float, ...] = DEFAULT_U_C_SWEEP
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        for name in SWEEP_AXES:
            values = getattr(self, name)
            if len(values) == 0:
                raise ValueError(f"sweep axis {name} is empty")
            if len(set(values)) < len(values):
                raise ValueError(f"sweep axis {name} repeats a value")
        for s in self.strategies:
            Strategy(s)  # raises on unknown names
        # Before any solve, a build's checks reject a bad name or axis value:
        # phi and u_c meet only these two checks in a build.
        for model, size, seed in dict.fromkeys((c[1], c[3], c[5]) for c in self.cells()):
            preset(model, cells_per_side=size, seed=seed)
        for phi in self.phi_values:
            check_dilation_angle(phi)
        for u_c in self.u_c_values:
            CharacteristicScales(u_c)

    def cells(self) -> list[tuple]:
        out = []
        for strategy in self.strategies:
            for model in self.models:
                # Multi-fracture presets have a fixed mesh, so one cells
                # value; only they take a seed, so single presets run one.
                multi = model.startswith("multi")
                sizes = (MULTI_CELLS_PER_SIDE,) if multi else self.cells_values
                seeds = self.seeds if multi else self.seeds[:1]
                for phi in self.phi_values:
                    for size in sizes:
                        for u_c in self.u_c_values:
                            for seed in seeds:
                                out.append((strategy, model, phi, size, u_c, seed))
        return out


@dataclass(frozen=True, order=True)
class ResultRow:
    strategy: str
    model: str
    physics: str
    phi: float
    cells: int
    u_c: float
    seed: int
    status: str
    iterations: int
    final_norm: float
    ls_evals: int
    tightenings: int
    wall_time: float = dataclasses.field(default=0.0, compare=False)


CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow) if f.compare)
CSV_HEADER = ",".join(CSV_COLUMNS)


def resolve_criterion(model_name: str) -> ConvergenceCriterion:
    """Increment criterion for single-fracture presets, residual for multi."""
    multi = model_name.startswith("multi")
    return ConvergenceCriterion(kind=CriterionKind.RESIDUAL if multi else CriterionKind.INCREMENT)


def solve_cell(cell: tuple) -> ResultRow:
    """Construct the model for one sweep cell and run the solver."""
    strategy, model_name, phi, size, u_c, seed = cell
    model = preset(model_name, dilation_angle=phi, characteristic_displacement=u_c,
                   cells_per_side=size, seed=seed)
    options = NewtonOptions(
        criterion=resolve_criterion(model_name),
        line_search=Strategy(strategy),
    )
    started = time.perf_counter()
    try:
        report = solve(model, options=options)
    except Exception as exc:  # a solver fault, never a usage error for main to report
        raise RuntimeError(f"solve of sweep cell {cell} raised {exc!r}") from exc
    elapsed = time.perf_counter() - started

    return ResultRow(
        strategy=strategy,
        model=model_name,
        physics=model.physics.value,
        phi=phi,
        cells=size,
        u_c=u_c,
        seed=seed,
        status=report.status.value,
        iterations=report.iterations,
        final_norm=report.final_norm,
        ls_evals=report.ls_evaluations,
        tightenings=report.tightening_rounds,
        wall_time=elapsed,
    )


def _worker_count(workers: int | None) -> int:
    """The worker processes to run: the available parallelism when None, else ``workers``."""
    if workers is not None and workers < 1:
        raise ValueError("workers must be positive")
    return (os.cpu_count() or 1) if workers is None else workers


def run_sweep(spec: SweepSpec, workers: int | None = None) -> list[ResultRow]:
    """Run every sweep cell, possibly in parallel, and sort the rows."""
    cells = spec.cells()
    # The pool starts all its workers at once, so it gets no more than there are cells.
    workers = min(_worker_count(workers), len(cells))
    if workers == 1:
        rows = [solve_cell(cell) for cell in cells]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(solve_cell, cells))
    rows.sort()
    return rows


def emit_csv(rows: list[ResultRow]) -> str:
    """The CSV text: the schema comment, the header and one line per row."""
    if not rows:
        raise ValueError("no rows to emit")
    lines = [",".join(str(getattr(r, name)) for name in CSV_COLUMNS) for r in rows]
    return "\n".join([CSV_SCHEMA_COMMENT, CSV_HEADER] + lines) + "\n"


def _cell_text(row: ResultRow) -> str:
    if row.status == SolveStatus.CONVERGED.value:
        return str(row.iterations)
    return row.status  # NC or Div


def emit_table(rows: list[ResultRow]) -> str:
    """Aligned text tables, one block per (model, phi, cells, seed) group.

    Within a block: one line per strategy, one column per characteristic
    displacement, iteration counts in the cells (NC/Div for failed runs).
    """
    if not rows:
        raise ValueError("no rows to tabulate")
    groups: dict[tuple, dict[tuple, ResultRow]] = {}
    for r in rows:
        key = (r.model, r.phi, r.cells, r.seed)
        groups.setdefault(key, {})[(r.strategy, r.u_c)] = r

    out = []
    for key in sorted(groups):
        model, phi, cells, seed = key
        table = groups[key]
        u_cs = sorted({u for (_, u) in table})
        strategies = sorted({s for (s, _) in table})
        out.append(f"model={model} phi={phi:g} cells={cells} seed={seed}")
        header = ["strategy".ljust(20)] + [f"u_c={u:g}".rjust(10) for u in u_cs]
        out.append("  ".join(header))
        for strategy in strategies:
            line = [strategy.ljust(20)]
            for u in u_cs:
                row = table.get((strategy, u))
                line.append(("-" if row is None else _cell_text(row)).rjust(10))
            out.append("  ".join(line))
        out.append("")
    return "\n".join(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracsolve-bench",
        description="Run globalization-strategy comparison sweeps on the fracture models.",
    )
    # Each sweep option stores into the SweepSpec field it overrides.
    parser.add_argument("--strategy", nargs="+", metavar="NAME", dest="strategies",
                        help=f"strategies to run (default: all of {', '.join(ALL_STRATEGIES)})")
    parser.add_argument("--model", nargs="+", metavar="PRESET", dest="models",
                        help=f"model presets (choices: {', '.join(PRESET_NAMES)})")
    parser.add_argument("--phi", nargs="+", type=float, dest="phi_values", help="dilation angles")
    parser.add_argument("--cells", nargs="+", type=int, dest="cells_values",
                        help="cells per side (single-fracture presets)")
    parser.add_argument("--uc", nargs="+", type=float, dest="u_c_values",
                        help="characteristic displacements")
    parser.add_argument("--seed", nargs="+", type=int, dest="seeds",
                        help="seeds (multi-fracture presets)")
    parser.add_argument("--out", default="sweep.csv", help="CSV output path (default sweep.csv)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: available parallelism)")
    parser.add_argument("--no-table", action="store_true", help="skip the text table")
    return parser


def _open_output(path: str):
    """The file to write the CSV to, and the path it replaces once written, or None.

    A link is followed, and stays a link. A device or a pipe is written in
    place; anything else gets a new file beside it, so that a failed sweep
    leaves whatever was at ``path`` as it was.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return open(target, "w"), None
    return open(f"{target}.{os.getpid()}.partial", "x"), target


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = SweepSpec(**{name: tuple(getattr(args, name)) for name in SWEEP_AXES
                            if getattr(args, name) is not None})
        workers = _worker_count(args.workers)
        out, target = _open_output(args.out)  # before any cell: a bad path costs no solve
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        with out:
            rows = run_sweep(spec, workers=workers)
            out.write(emit_csv(rows))
        if target is not None:
            os.replace(out.name, target)
    except BaseException:
        if target is not None:
            os.remove(out.name)
        raise

    if not args.no_table:
        print(emit_table(rows))
    converged = sum(1 for r in rows if r.status == SolveStatus.CONVERGED.value)
    print(f"wrote {len(rows)} rows to {args.out} "
          f"({converged} converged, {len(rows) - converged} NC/Div)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
