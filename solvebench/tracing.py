"""Span tracing of fracsolve's layers, from outside the program.

The traced run rebinds the module-level names that fracsolve's callers look
up (``fracsolve.newton.linear_solve`` and so on) and wraps the model's
``residual``, ``jacobian`` and ``contact_states`` instance methods. Each
wrapper records a span (name, parent span, start, end) in memory. Per-cell
kernels are called thousands of times per solve, so their calls and time are
aggregated per parent span instead of recorded one by one.

The trial-point evaluation a line search waits on (the indicator field or
the residual norm) is passed to the search as its first argument; it is
wrapped in a span of its own, so the search's self time excludes it.

A layer's self time is its span time minus the time of the spans and kernels
it called. Counts taken from the search outcomes (indicator evaluations,
flagged cells, full steps) and from ``find_root`` results are recorded at the
same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter


def _observe_constraint(counts: Counter, outcome) -> None:
    counts["searches"] += 1
    counts["full_steps"] += outcome.alpha == 1.0
    counts["trial_evals"] += outcome.evaluations
    counts["indicator_evals"] += outcome.evaluations
    counts["flagged_cells"] += outcome.diagnostics["flagged"]
    counts["tightening_rounds"] += outcome.tightening_rounds


def _observe_residual(counts: Counter, outcome) -> None:
    counts["searches"] += 1
    counts["full_steps"] += outcome.alpha == 1.0
    counts["trial_evals"] += outcome.evaluations
    counts["residual_evals"] += outcome.evaluations


def _observe_root(counts: Counter, root) -> None:
    counts["root_queries"] += 1
    counts["roots_found"] += root is not None


# (module, attribute) -> (layer name, aggregated per parent span, observer)
ENTRY_POINTS = {
    ("fracsolve.newton", "linear_solve"): ("newton.linear_solve", False, None),
    ("fracsolve.newton", "search_constraint"):
        ("linesearch.search_constraint", False, _observe_constraint),
    ("fracsolve.newton", "search_residual"):
        ("linesearch.search_residual", False, _observe_residual),
    ("fracsolve.newton", "evaluate_field"): ("indicators.evaluate_field", False, None),
    ("fracsolve.newton", "reference_mask"): ("indicators.reference_mask", False, None),
    ("fracsolve.newton", "p_mean_scale"): ("scaling.p_mean_scale", False, None),
    ("fracsolve.newton", "classify_regime"): ("contact.classify_regime", True, None),
    ("fracsolve.newton", "cell_scale_estimate"): ("scaling.cell_scale_estimate", True, None),
    ("fracsolve.linesearch", "fit"): ("interpolation.fit", True, None),
    ("fracsolve.linesearch", "find_root"): ("interpolation.find_root", True, _observe_root),
    ("fracsolve.linesearch", "find_minimum"): ("interpolation.find_minimum", False, None),
    ("fracsolve.models", "contact_generalized_derivative"):
        ("contact.generalized_derivative", True, None),
    ("fracsolve.models", "normal_complementarity"): ("contact.complementarity", True, None),
    ("fracsolve.models", "tangential_complementarity"): ("contact.complementarity", True, None),
}

# Searches whose first argument is the trial-point evaluation they wait on:
# the indicator field for the constraint search, the residual norm for the
# residual search. It gets a span of its own under the search's span.
TRIAL_EVALUATIONS = {
    "linesearch.search_constraint": "linesearch.trial_eval",
    "linesearch.search_residual": "linesearch.trial_eval",
}

MODEL_METHODS = {
    "residual": "models.residual",
    "jacobian": "models.jacobian",
    "contact_states": "models.contact_states",
}


class Tracer:
    """In-memory spans and per-parent kernel aggregates of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self.kernels: dict[tuple[int, str], list] = {}  # (parent, name) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}  # layer name -> why it is not measured
        self._stack: list[int] = []

    def span(self, name: str, fn, observe=None):
        spans, stack = self.spans, self._stack
        trial = TRIAL_EVALUATIONS.get(name)

        def traced(*args, **kwargs):
            if trial is not None:
                args = (self.span(trial, args[0]),) + args[1:]
            record = [name, stack[-1] if stack else -1, perf_counter(), None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def kernel(self, name: str, fn, observe=None):
        kernels, stack = self.kernels, self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                key = (stack[-1] if stack else -1, name)
                entry = kernels.get(key)
                if entry is None:
                    entry = kernels[key] = [0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Rebind fracsolve's entry points to traced wrappers, then restore them.

        An entry point that no longer exists marks its layer as not measured
        instead of failing the run.
        """
        saved = []
        try:
            for (module_name, attr), (name, per_cell, observe) in ENTRY_POINTS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing[name] = f"{module_name}.{attr} no longer exists"
                    continue
                saved.append((module, attr, original))
                wrap = self.kernel if per_cell else self.span
                setattr(module, attr, wrap(name, original, observe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def trace_model(self, model):
        """Wrap the model's own methods with spans, on this instance only."""
        for method, name in MODEL_METHODS.items():
            bound = getattr(model, method, None)
            if bound is None:
                self.missing[name] = f"model has no {method} method"
                continue
            setattr(model, method, self.span(name, bound))
        return model

    def self_times(self) -> list[tuple[str, float, float]]:
        """(name, span seconds, self seconds) for every recorded span."""
        child = defaultdict(float)
        for _, parent, start, end in self.spans:
            child[parent] += end - start
        for (parent, _), (_, seconds) in self.kernels.items():
            child[parent] += seconds
        return [(name, end - start, end - start - child[index])
                for index, (name, _, start, end) in enumerate(self.spans)]

    def layers(self) -> dict[str, dict]:
        """Per layer name: calls, total seconds and self seconds."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, seconds, self_seconds in self.self_times():
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += seconds
            entry["self_s"] += self_seconds
        for (_, name), (calls, seconds) in self.kernels.items():
            entry = out[name]
            entry["calls"] += calls
            entry["s"] += seconds
            entry["self_s"] += seconds
        return dict(out)

    def dump(self) -> dict:
        """Spans and kernel aggregates as plain data, times relative to the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            "spans": [[i, parent, name, start - origin, end - origin]
                      for i, (name, parent, start, end) in enumerate(self.spans)],
            "kernels": [[parent, name, calls, seconds]
                        for (parent, name), (calls, seconds) in self.kernels.items()],
            "counts": dict(self.counts),
            "missing": self.missing,
        }


SEARCHES = ("linesearch.search_constraint", "linesearch.search_residual")
SPLINE_QUERIES = ("interpolation.find_root", "interpolation.find_minimum")

# Per-layer metrics: (metric name, layers summed, statistic). Statistic "s"
# is total time, "self_s" self time, "calls" the number of calls. A
# workload's strategy calls one search family only, so the merged search and
# spline-query metrics are measured on every workload while the ones of a
# single family are not.
LAYER_STATS = (
    ("models.jacobian_s", ("models.jacobian",), "s"),
    ("models.jacobian_calls", ("models.jacobian",), "calls"),
    ("models.residual_s", ("models.residual",), "s"),
    ("models.residual_calls", ("models.residual",), "calls"),
    ("models.contact_states_s", ("models.contact_states",), "s"),
    ("models.contact_states_calls", ("models.contact_states",), "calls"),
    ("models.preset_s", ("models.preset",), "s"),
    ("newton.linear_solve_s", ("newton.linear_solve",), "s"),
    ("newton.linear_solve_calls", ("newton.linear_solve",), "calls"),
    ("newton.solve_self_s", ("newton.solve",), "self_s"),
    ("linesearch.search_self_s", SEARCHES, "self_s"),
    ("linesearch.search_calls", SEARCHES, "calls"),
    ("linesearch.trial_eval_s", ("linesearch.trial_eval",), "s"),
    ("linesearch.search_constraint_self_s", ("linesearch.search_constraint",), "self_s"),
    ("linesearch.search_constraint_calls", ("linesearch.search_constraint",), "calls"),
    ("linesearch.search_residual_self_s", ("linesearch.search_residual",), "self_s"),
    ("indicators.evaluate_field_s", ("indicators.evaluate_field",), "s"),
    ("indicators.evaluate_field_calls", ("indicators.evaluate_field",), "calls"),
    ("indicators.reference_mask_s", ("indicators.reference_mask",), "s"),
    ("interpolation.query_s", SPLINE_QUERIES, "s"),
    ("interpolation.query_calls", SPLINE_QUERIES, "calls"),
    ("interpolation.find_root_s", ("interpolation.find_root",), "s"),
    ("interpolation.find_root_calls", ("interpolation.find_root",), "calls"),
    ("interpolation.fit_s", ("interpolation.fit",), "s"),
    ("interpolation.fit_calls", ("interpolation.fit",), "calls"),
    ("interpolation.find_minimum_s", ("interpolation.find_minimum",), "s"),
    ("contact.generalized_derivative_s", ("contact.generalized_derivative",), "s"),
    ("contact.generalized_derivative_calls", ("contact.generalized_derivative",), "calls"),
    ("contact.complementarity_s", ("contact.complementarity",), "s"),
    ("contact.complementarity_calls", ("contact.complementarity",), "calls"),
    ("contact.classify_regime_s", ("contact.classify_regime",), "s"),
    ("contact.classify_regime_calls", ("contact.classify_regime",), "calls"),
    ("scaling.cell_scale_estimate_s", ("scaling.cell_scale_estimate",), "s"),
    ("scaling.p_mean_scale_s", ("scaling.p_mean_scale",), "s"),
)

# Counts and shares taken from outcomes: (metric, source layers, count,
# count it is a share of, or None for a plain count).
OUTCOME_STATS = (
    ("linesearch.trial_evals", SEARCHES, "trial_evals", None),
    ("linesearch.indicator_evals", ("linesearch.search_constraint",), "indicator_evals", None),
    ("linesearch.residual_evals", ("linesearch.search_residual",), "residual_evals", None),
    ("linesearch.flagged_cells", ("linesearch.search_constraint",), "flagged_cells", None),
    ("linesearch.tightening_rounds", ("linesearch.search_constraint",),
     "tightening_rounds", None),
    ("linesearch.full_step_share", SEARCHES, "full_steps", "searches"),
    ("interpolation.root_found_share", ("interpolation.find_root",),
     "roots_found", "root_queries"),
)

# Metrics of layers that only one search family or the adaptive scale calls.
# They read zero on the workloads of the other family, so they are printed
# but left out of the result line, whose metrics every workload measures.
STRATEGY_SPECIFIC = frozenset({
    "linesearch.search_constraint_self_s", "linesearch.search_constraint_calls",
    "linesearch.search_residual_self_s",
    "linesearch.indicator_evals", "linesearch.residual_evals",
    "linesearch.flagged_cells", "linesearch.tightening_rounds",
    "indicators.evaluate_field_s", "indicators.evaluate_field_calls",
    "indicators.reference_mask_s",
    "interpolation.find_root_s", "interpolation.find_root_calls",
    "interpolation.find_minimum_s", "interpolation.root_found_share",
    "scaling.cell_scale_estimate_s", "scaling.p_mean_scale_s",
})

UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric of one traced pass.

    A metric whose entry point no longer exists, or whose layers this
    workload never calls, has value 0 and a ``not_measured`` reason.
    """
    layers = tracer.layers()
    out: dict[str, dict] = {}
    for metric, names, stat in LAYER_STATS:
        stats = [layers.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0}) for name in names]
        entry = {"value": sum(s[stat] for s in stats), "unit": UNITS[stat]}
        missing = [tracer.missing[name] for name in names if name in tracer.missing]
        if len(missing) == len(names):
            entry["not_measured"] = "; ".join(missing)
        elif stat != "calls" and sum(s["calls"] for s in stats) == 0:
            entry["not_measured"] = "no calls on this workload"
        out[metric] = entry

    for metric, sources, numerator, denominator in OUTCOME_STATS:
        value = tracer.counts[numerator]
        unit = "count"
        missing = [tracer.missing[s] for s in sources if s in tracer.missing]
        reason = "; ".join(missing) if len(missing) == len(sources) else None
        if denominator is not None:
            base = tracer.counts[denominator]
            unit = "ratio"
            if base == 0:
                value = 0.0
                reason = reason or "no calls on this workload"
            else:
                value = value / base
        entry = {"value": value, "unit": unit}
        if reason is not None:
            entry["not_measured"] = reason
        out[metric] = entry
    return out
