"""Layered benchmark of the fracsolve Newton solver.

Run from the repository root:

    python3 solvebench/run.py --workload tpm-constraint --seed 0 --seconds 55 --trace 0

Each run builds and solves the workload's fixed case list (see
``workloads.py``) in the whole number of passes whose time is nearest
``--seconds`` seconds, after a set-up phase of warm model builds. Every
solve's outcome is checked against ``expected.json``. The run prints one
``metric`` line per figure, with its unit, and as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, each metric
as ``{"value", "unit"}``. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` they are the per-layer ones that every workload
measures, and the spans are written to ``solvebench/out/``. Layers that only
one search family calls are printed as ``layer`` lines, with the reason when
a workload does not measure them. ``--workload all`` runs every workload in a
process of its own, one after another.

The exit code is 0 only when every solve was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, cases

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> None:
    """Put the checkout's own fracsolve first on the import path."""
    if not (SRC / "fracsolve" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracsolve sources under {SRC}")
    # One BLAS thread: on a shared two-core host, OpenBLAS's spinning worker
    # thread made identical model builds vary from 0.02 s to 0.53 s.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    import fracsolve
    if Path(fracsolve.__file__).resolve().parent != SRC / "fracsolve":
        raise SystemExit(f"error: imported fracsolve from {fracsolve.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import numpy

    for lib in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(dll, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
    }


def print_metrics(metrics: dict, prefix: str = "metric") -> None:
    for name, entry in metrics.items():
        note = f"  (not measured: {entry['not_measured']})" if "not_measured" in entry else ""
        print(f"{prefix} {name} = {entry['value']!r} {entry['unit']}{note}")


def run_one(args) -> int:
    load_program()
    import harness

    env = environment()
    print(f"solvebench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    workload_cases = cases(args.workload, args.seed)
    run = harness.measure(workload_cases, args.seconds, bool(args.trace),
                          harness.load_expected())

    for solve in run.solves:
        o = solve.outcome or {}
        timing = "" if solve.solve_s is None else f" build_s={solve.build_s:.4f} solve_s={solve.solve_s:.4f}"
        verdict = "ok" if solve.problem is None else f"FAILED: {solve.problem}"
        print(f"case {solve.case.key} status={o.get('status')} its={o.get('iterations')} "
              f"ls_evals={o.get('ls_evals')} tightenings={o.get('tightening_rounds')}"
              f"{timing} {verdict}")
    print_metrics(harness.run_facts(run), prefix="fact")

    if args.trace:
        import tracing

        metrics = harness.per_layer(run)
        print_metrics({n: e for n, e in metrics.items() if n in tracing.STRATEGY_SPECIFIC},
                      prefix="layer")
        metrics = {n: e for n, e in metrics.items() if n not in tracing.STRATEGY_SPECIFIC}
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "environment": env,
                       "passes": [tracer.dump() for tracer, _ in run.traced]}, handle)
        print(f"spans written to {path}")
    else:
        metrics = harness.end_to_end(run)
    print_metrics(metrics)

    failed = sum(s.problem is not None for s in run.solves)
    result = {name: {"value": e["value"], "unit": e["unit"]} for name, e in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": len(run.solves),
                      "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, since peak RSS is a high-water mark."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            raise SystemExit(f"error: {workload} printed no result (exit {child.returncode})")
        merged["correct"] &= result["correct"] and child.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
