"""Tests of the benchmark itself: metric coverage, span accounting, trace neutrality.

Run from the repository root:

    python3 -m pytest solvebench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracing
from workloads import MULTI8_GEOMETRIES, WORKLOADS, Case, cases

ROOT = harness.EXPECTED_PATH.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Small cases that between them reach every layer: both search families,
# the adaptive scale and the per-cell contact kernels.
SMALL = [
    Case("single-tpm", 4, "constraint-adaptive", 1e-2),
    Case("single-pm", 4, "residual", 1e-2),
]


@pytest.fixture(scope="module")
def traced_run():
    return harness.measure(SMALL, seconds=1e-3, traced=True, expected=None)


def test_every_declared_metric_is_emitted_with_a_unit(traced_run):
    per_layer = harness.per_layer(traced_run)
    emitted = {"end_to_end": harness.end_to_end(traced_run),
               "per_layer": {n: e for n, e in per_layer.items()
                             if n not in tracing.STRATEGY_SPECIFIC}}
    assert tracing.STRATEGY_SPECIFIC < set(per_layer)
    for kind, metrics in emitted.items():
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert set(metrics) == set(declared), kind
        for name, entry in metrics.items():
            assert entry["unit"] == declared[name], name
            assert isinstance(entry["value"], (int, float)), name
    # These cases reach every layer, so nothing is left unmeasured.
    for name, entry in per_layer.items():
        assert "not_measured" not in entry, (name, entry)


@pytest.mark.parametrize("case", SMALL, ids=lambda c: c.strategy)
def test_result_line_metrics_are_measured_by_either_search_family(case):
    tracer = tracing.Tracer()
    harness.run_pass([case], None, tracer)
    for name, entry in tracing.layer_metrics(tracer).items():
        if name not in tracing.STRATEGY_SPECIFIC:
            assert entry["value"] > 0 and "not_measured" not in entry, (name, entry)


def test_missing_entry_point_is_reported_not_measured(monkeypatch):
    key = ("fracsolve.models", "contact_generalized_derivative")
    monkeypatch.delitem(tracing.ENTRY_POINTS, key)
    monkeypatch.setitem(tracing.ENTRY_POINTS, ("fracsolve.models", "no_such_kernel"),
                        ("contact.generalized_derivative", True, None))
    tracer = tracing.Tracer()
    harness.run_pass(SMALL[:1], None, tracer)
    metrics = tracing.layer_metrics(tracer)
    for name in ("contact.generalized_derivative_s", "contact.generalized_derivative_calls"):
        assert "no_such_kernel no longer exists" in metrics[name]["not_measured"]
    assert "not_measured" not in metrics["models.jacobian_s"]


def test_layers_a_workload_never_calls_are_marked():
    tracer = tracing.Tracer()
    harness.run_pass(SMALL[1:], None, tracer)  # residual search only
    metrics = tracing.layer_metrics(tracer)
    assert metrics["interpolation.find_root_calls"] == {"value": 0, "unit": "count"}
    for name in ("interpolation.find_root_s", "interpolation.root_found_share",
                 "linesearch.search_constraint_self_s"):
        assert metrics[name]["not_measured"] == "no calls on this workload"


def test_self_times_are_nonnegative_and_within_the_span(traced_run):
    for tracer, _ in traced_run.traced:
        assert tracer.spans
        for name, seconds, self_seconds in tracer.self_times():
            assert 0.0 <= self_seconds <= seconds, name
        for name, parent, start, end in tracer.spans:
            if parent >= 0:
                _, _, parent_start, parent_end = tracer.spans[parent]
                assert parent_start <= start <= end <= parent_end, name


def test_tracing_leaves_the_trajectory_unchanged(traced_run):
    for plain, (tracer, traced) in zip(traced_run.passes, traced_run.traced):
        assert [s.outcome for s in plain] == [s.outcome for s in traced]
        assert all(s.problem is None for s in plain + traced)
        layers = tracer.layers()
        assert layers["models.jacobian"]["calls"] == sum(s.outcome["iterations"] for s in traced)
        assert tracer.counts["trial_evals"] == sum(s.outcome["ls_evals"] for s in traced)
        assert tracer.counts["indicator_evals"] + tracer.counts["residual_evals"] \
            == tracer.counts["trial_evals"]
        assert tracer.counts["tightening_rounds"] \
            == sum(s.outcome["tightening_rounds"] for s in traced)


def test_one_iteration_sample_per_newton_iteration(traced_run):
    for solve in traced_run.passes[0]:
        assert len(solve.iteration_ms) == solve.outcome["iterations"]
        assert all(ms > 0.0 for ms in solve.iteration_ms)
        assert sum(solve.iteration_ms) <= 1e3 * solve.solve_s
        assert solve.reference_s > 0.0


def test_instrumentation_is_removed_after_the_pass():
    import fracsolve.linesearch
    import fracsolve.newton

    originals = (fracsolve.newton.linear_solve, fracsolve.linesearch.find_root)
    harness.run_pass(SMALL[:1], None, tracing.Tracer())
    assert (fracsolve.newton.linear_solve, fracsolve.linesearch.find_root) == originals


def test_outcome_mismatch_is_a_failure():
    case = SMALL[0]
    good = harness.run_case(case, None)
    assert good.problem is None
    wrong = dict(good.outcome, iterations=good.outcome["iterations"] + 1)
    assert "expected" in harness.run_case(case, {case.key: wrong}).problem
    assert "no expected outcome" in harness.run_case(case, {}).problem


def test_expected_table_covers_every_seed():
    expected = harness.load_expected()
    for workload in WORKLOADS:
        for seed in range(-1, 2 * len(MULTI8_GEOMETRIES)):
            for case in cases(workload, seed):
                assert case.key in expected, (workload, seed, case.key)


def test_benchmark_json_names_known_workloads():
    names = [w["name"] for w in SPEC["workloads"]]
    assert len(names) >= 2 and set(names) <= set(WORKLOADS)


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "solvebench", tmp_path / "solvebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert "correct" not in child.stdout


def test_predictions_cite_declared_names():
    predictions = json.loads((ROOT / "solvebench" / "predictions.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]} | tracing.STRATEGY_SPECIFIC
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in predictions["predictions"]:
        assert set(entry["per_layer"]) <= per_layer, entry
        assert entry["end_to_end"] in end_to_end, entry
        assert set(entry["workloads"]) <= set(WORKLOADS), entry
