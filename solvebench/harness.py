"""Runs a workload's passes against fracsolve and turns them into metrics.

End-to-end metrics come from untraced passes, whose only instrumentation is
one timestamp per ``jacobian`` call (one per Newton iteration) taken by a
pass-through model wrapper. Per-layer metrics come from traced passes, each
run right after an untraced pass of the same cases so that the tracing
overhead is their wall-time ratio.

The gated solve timings are given in units of a reference kernel, a fixed
piece of interpreter and small-array work that shares no code with
fracsolve and is timed right before and right after every solve. On a
shared two-core virtual machine the host's own speed drifts by up to half
over minutes: the median time of the same residual-pm solves read 6.8 s in
one run and 4.3 s in a run a few minutes later. The ratio of a solve's time
to the reference time beside it follows that drift far less (its quartile
spread over ten runs was a third of the wall time's), so it compares two
versions of the solver run at different times. The wall-clock figures are
printed beside them.
"""

from __future__ import annotations

import json
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from fracsolve.linesearch import Strategy
from fracsolve.models import preset
from fracsolve.newton import (
    ConvergenceCriterion,
    CriterionKind,
    NewtonOptions,
    SolveStatus,
    solve,
)

from tracing import Tracer, layer_metrics
from workloads import Case

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def reference_kernel() -> float:
    """Fixed work of the kind a solve does: interpreter loops and small arrays."""
    total, table = 0, {}
    for i in range(300_000):
        total += (i * i) % 7
        table[i & 255] = total
    values = np.arange(64, dtype=float)
    for _ in range(6_000):
        values = np.sqrt(values * values + 1.0) - 0.5
    return total + float(values.sum())


def time_reference() -> float:
    started = perf_counter()
    reference_kernel()
    return perf_counter() - started


class TimedModel:
    """Pass-through model that timestamps each ``jacobian`` call."""

    def __init__(self, model):
        self._model = model
        self.stamps: list[float] = []

    def __getattr__(self, name):
        return getattr(self._model, name)

    def jacobian(self, x):
        self.stamps.append(perf_counter())
        return self._model.jacobian(x)


@dataclass
class Solve:
    case: Case
    outcome: dict | None = None       # status, iterations, ls_evals, tightening_rounds
    build_s: float | None = None
    solve_s: float | None = None
    reference_s: float | None = None  # mean reference time just before and after the solve
    iteration_ms: list[float] = field(default_factory=list)
    problem: str | None = None        # why this solve counts as failed


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict]:
    with open(path) as handle:
        return json.load(handle)["cases"]


def build(case: Case, build_fn=preset):
    kwargs = {} if case.cells is None else {"cells_per_side": case.cells}
    return build_fn(case.model, characteristic_displacement=case.u_c,
                    seed=case.geometry, **kwargs)


def options_for(case: Case) -> NewtonOptions:
    return NewtonOptions(
        criterion=ConvergenceCriterion(kind=CriterionKind(case.criterion)),
        line_search=Strategy(case.strategy),
    )


def outcome_of(report) -> dict:
    return {"status": report.status.value, "iterations": report.iterations,
            "ls_evals": report.ls_evaluations,
            "tightening_rounds": report.tightening_rounds}


def check(case: Case, report, expected: dict[str, dict] | None) -> str | None:
    """Why the solve's outcome is wrong, or None when it is right.

    With ``expected`` None only the convergence checks apply.
    """
    got = outcome_of(report)
    if expected is not None:
        want = expected.get(case.key)
        if want is None:
            return f"no expected outcome recorded for {case.key}"
        if got != want:
            return f"expected {want}, got {got}"
    if report.status is SolveStatus.CONVERGED:
        if not report.final_norm < report.criterion.tolerance:
            return f"converged with final norm {report.final_norm!r} above tolerance"
        if report.x is None or not np.all(np.isfinite(report.x)):
            return "converged with a non-finite iterate"
    return None


def run_case(case: Case, expected, tracer: Tracer | None = None) -> Solve:
    """Build and solve one case; a raised error is recorded, not propagated."""
    result = Solve(case)
    build_fn, solve_fn = preset, solve
    if tracer is not None:
        build_fn = tracer.span("models.preset", preset)
        solve_fn = tracer.span("newton.solve", solve)
    try:
        started = perf_counter()
        model = build(case, build_fn)
        result.build_s = perf_counter() - started
        if tracer is not None:
            tracer.trace_model(model)
        timed = TimedModel(model)
        before = time_reference()
        started = perf_counter()
        report = solve_fn(timed, options=options_for(case))
        ended = perf_counter()
        result.reference_s = (before + time_reference()) / 2
    except Exception:  # one failing solve must not stop the run
        traceback.print_exc()
        result.problem = "raised " + traceback.format_exc().strip().splitlines()[-1]
        return result
    result.solve_s = ended - started
    stamps = timed.stamps + [ended]
    result.iteration_ms = [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]
    result.outcome = outcome_of(report)
    result.problem = check(case, report, expected)
    return result


def run_pass(cases: list[Case], expected, tracer: Tracer | None = None) -> list[Solve]:
    if tracer is None:
        return [run_case(case, expected) for case in cases]
    with tracer.instrumented():
        return [run_case(case, expected, tracer) for case in cases]


@dataclass
class Run:
    """Everything one benchmark run measured."""

    setup_builds: list[float]
    passes: list[list[Solve]]                       # untraced
    traced: list[tuple[Tracer, list[Solve]]]        # traced, one per untraced pass
    overheads: list[float]                          # traced / untraced pass wall time

    @property
    def solves(self) -> list[Solve]:
        return ([s for p in self.passes for s in p]
                + [s for _, p in self.traced for s in p])


def measure(cases: list[Case], seconds: float, traced: bool, expected) -> Run:
    """Set up, then run the whole number of passes that ends nearest ``seconds``.

    Each pass is preceded by a round of warm set-up builds of every case,
    which count against ``seconds``; with the builds in the passes they give
    ``setup_s`` its median. Spreading them over the run, not bunching them at
    its start, keeps a few seconds of a slow host from setting that median.

    At least one pass runs; another starts while it would end nearer to
    ``seconds`` than stopping now. Rounding to the nearest count, not down,
    keeps a workload whose pass takes about half of ``seconds`` from
    dropping to one pass whenever the host runs a little slow. A traced run
    pairs each untraced pass with a traced pass of the same cases.
    """
    started = perf_counter()
    build(cases[0])  # discarded: pays the one-time BLAS start-up
    run = Run([], [], [], [])
    walls = []
    while True:
        for case in cases:
            t0 = perf_counter()
            build(case)
            run.setup_builds.append(perf_counter() - t0)
        t0 = perf_counter()
        run.passes.append(run_pass(cases, expected))
        wall = perf_counter() - t0
        if traced:
            tracer = Tracer()
            t1 = perf_counter()
            solves = run_pass(cases, expected, tracer)
            traced_wall = perf_counter() - t1
            for plain, with_trace in zip(run.passes[-1], solves):
                if with_trace.problem is None and plain.outcome != with_trace.outcome:
                    with_trace.problem = (f"tracing changed the outcome: {plain.outcome} "
                                          f"untraced, {with_trace.outcome} traced")
            run.traced.append((tracer, solves))
            run.overheads.append(traced_wall / wall)
            wall += traced_wall
        walls.append(wall)
        if perf_counter() - started + statistics.median(walls) / 2 > seconds:
            return run


def end_to_end(run: Run) -> dict[str, dict]:
    """The untraced metrics, each as {"value", "unit"}.

    Unit ``ref`` is one reference-kernel time, measured beside each solve.
    """
    solves = [s for p in run.passes for s in p if s.outcome is not None]
    relative = [s.solve_s / s.reference_s for s in solves]
    iteration_refs = [ms / 1e3 / s.reference_s for s in solves for ms in s.iteration_ms]
    iterations = sum(s.outcome["iterations"] for s in solves)
    first = [s.outcome for s in run.passes[0] if s.outcome is not None]
    builds = run.setup_builds + [s.build_s for s in solves]
    metrics = {
        "solve_ref_p50": (statistics.median(relative), "ref"),
        "iter_ref_p50": (float(np.percentile(iteration_refs, 50)), "ref"),
        "iter_ref_p90": (float(np.percentile(iteration_refs, 90)), "ref"),
        "newton_its_per_ref": (iterations / sum(relative), "1/ref"),
        "setup_s": (statistics.median(builds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "newton_iterations": (sum(o["iterations"] for o in first), "count"),
        "ls_evals": (sum(o["ls_evals"] for o in first), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run_facts(run: Run) -> dict[str, dict]:
    """Untraced figures reported beside the metrics but not gated.

    ``tightening_rounds`` is zero on the residual workload and
    ``failed_share`` is zero whenever the run is correct, so neither can be a
    gated end-to-end metric. The wall-clock timings follow the host's speed.
    """
    solves = run.solves
    timed = [s for p in run.passes for s in p if s.outcome is not None]
    first = [s.outcome for s in run.passes[0] if s.outcome is not None]
    samples = [ms for s in timed for ms in s.iteration_ms]
    facts = {
        "solve_s_p50": (statistics.median(s.solve_s for s in timed), "s"),
        "iter_ms_p50": (float(np.percentile(samples, 50)), "ms"),
        "iter_ms_p90": (float(np.percentile(samples, 90)), "ms"),
        "newton_its_per_s": (sum(s.outcome["iterations"] for s in timed)
                             / sum(s.solve_s for s in timed), "1/s"),
        "reference_ms_p50": (1e3 * statistics.median(s.reference_s for s in timed), "ms"),
        "tightening_rounds": (sum(o["tightening_rounds"] for o in first), "count"),
        "failed_share": (sum(s.problem is not None for s in solves) / len(solves), "ratio"),
        "iteration_samples": (len(samples), "count"),
        "solves_timed": (sum(len(p) for p in run.passes), "count"),
        "passes": (len(run.passes), "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in facts.items()}


def per_layer(run: Run) -> dict[str, dict]:
    """Per-layer metrics: the median over traced passes of each per-pass value."""
    per_pass = [layer_metrics(tracer) for tracer, _ in run.traced]
    out = {}
    for name, entry in per_pass[0].items():
        out[name] = dict(entry, value=statistics.median(m[name]["value"] for m in per_pass))
    out["bench.trace_overhead"] = {"value": statistics.median(run.overheads), "unit": "ratio"}
    return out
