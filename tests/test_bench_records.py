"""Committed benchmark records name only what the benchmark declares.

Every ``BENCH_*.json`` at the repository root holds the last-line JSON objects
of ``solvebench/run.py`` runs. Each must parse, and each workload and metric
it names must be one that ``BENCHMARK.json``, ``solvebench/workloads.py`` or
``solvebench/tracing.py`` declares, so a renamed or invented figure cannot
slip into the record. A ``--workload all`` run names each metric
``<workload>.<metric>`` and must cover every workload.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _solvebench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"solvebench_{name}", ROOT / "solvebench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _declared():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracing = _solvebench_module("tracing")
    metrics = {m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    metrics |= {name for name, _, _ in tracing.LAYER_STATS}
    metrics |= {name for name, _, _, _ in tracing.OUTCOME_STATS}
    workloads = set(_solvebench_module("workloads").WORKLOADS)
    return workloads, metrics


def _run_metrics(run, workloads):
    """The metric names of one run, with a ``--workload all`` run's prefixes checked and removed."""
    names = set(run["result"]["metrics"])
    if run["workload"] != "all":
        assert run["workload"] in workloads
        return names
    split = [name.partition(".") for name in names]
    assert {workload for workload, _, _ in split} == workloads
    return {metric for _, _, metric in split}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_names_only_declared_workloads_and_metrics(path):
    workloads, metrics = _declared()
    record = json.loads(path.read_text())
    assert record["env"].startswith("env ")
    assert record["protocol"]
    assert record["runs"]
    for run in record["runs"] + record.get("superseded_runs", []):
        assert run["tree"] in ("parent", "change")
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        names = _run_metrics(run, workloads)
        assert names <= metrics, names - metrics
        for entry in result["metrics"].values():
            assert set(entry) == {"value", "unit"}
    for workload, summary in record.get("summary", {}).items():
        assert workload in workloads
        assert set(summary["metrics"]) <= metrics
