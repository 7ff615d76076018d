"""Benchmark harness: sweep bookkeeping, CSV round-trips, CLI behavior."""

import csv

import pytest

import fracsolve.bench
from fracsolve.bench import (
    ALL_STRATEGIES,
    CSV_HEADER,
    CSV_SCHEMA_COMMENT,
    ResultRow,
    SweepSpec,
    emit_csv,
    emit_table,
    main,
    resolve_criterion,
    run_sweep,
    solve_cell,
)
from fracsolve.models import MULTI_CELLS_PER_SIDE
from fracsolve.newton import CriterionKind

SMALL = SweepSpec(strategies=("constraint-adaptive",), models=("single-pm",),
                  phi_values=(0.1,), cells_values=(4,), u_c_values=(0.01,), seeds=(0,))


# Typed columns of the sweep CSV; the rest are strings.
_CSV_TYPES = {"phi": float, "cells": int, "u_c": float, "seed": int, "iterations": int,
              "final_norm": float, "ls_evals": int, "tightenings": int}


def _read_csv(path):
    """Every row of a sweep CSV, read with the standard ``csv`` module."""
    with open(path, newline="") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    return [ResultRow(**{name: _CSV_TYPES.get(name, str)(text) for name, text in record.items()})
            for record in csv.DictReader(lines)]


def _row(**overrides):
    base = dict(strategy="constraint-adaptive", model="single-pm", physics="poro",
                phi=0.1, cells=6, u_c=0.01, seed=0, status="Converged",
                iterations=13, final_norm=1e-12, ls_evals=170, tightenings=0)
    base.update(overrides)
    return ResultRow(**base)


# ---------------------------------------------------------------------------
# sweep definition


def test_default_spec_arity():
    assert len(SweepSpec().cells()) == 160


def test_minimal_spec_is_one_cell():
    assert len(SMALL.cells()) == 1


def test_multi_presets_take_one_cells_value():
    # multi-fracture presets ignore cells_per_side; two values would run the
    # same solve twice and write two identical rows
    spec = SweepSpec(strategies=("none",), models=("multi4-pm", "single-pm"),
                     phi_values=(0.1,), cells_values=(6, 12), u_c_values=(0.01,))
    sizes = [(cell[1], cell[3]) for cell in spec.cells()]
    assert sizes == [("multi4-pm", MULTI_CELLS_PER_SIDE), ("single-pm", 6), ("single-pm", 12)]


def test_single_presets_take_one_seed():
    # only multi-fracture presets read the seed; two seeds would run every
    # single-fracture solve twice and write rows differing only in the seed
    spec = SweepSpec(strategies=("none",), models=("multi4-pm", "single-pm"),
                     phi_values=(0.1,), cells_values=(4,), u_c_values=(0.01,), seeds=(0, 1))
    seeds = [(cell[1], cell[5]) for cell in spec.cells()]
    assert seeds == [("multi4-pm", 0), ("multi4-pm", 1), ("single-pm", 0)]


def test_cells_order_is_deterministic():
    spec = SweepSpec()
    assert spec.cells() == spec.cells()


@pytest.mark.parametrize("kwargs", [
    {"strategies": ("warp-drive",)},
    {"strategies": ()},
    {"models": ("single-xyz",)},
    {"u_c_values": ()},
    {"u_c_values": (0.01, 0.01)},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


def test_resolve_criterion():
    assert resolve_criterion("single-pm").kind is CriterionKind.INCREMENT
    assert resolve_criterion("multi4-pm").kind is CriterionKind.RESIDUAL


# ---------------------------------------------------------------------------
# solving cells


def test_solve_cell_records_model_metadata():
    row = solve_cell(("constraint-adaptive", "single-pm", 0.1, 4, 0.01, 0))
    assert row.status == "Converged"
    assert row.physics == "poro"
    assert row.cells == 4
    assert row.iterations > 0
    assert row.final_norm < 1e-10
    assert row.wall_time > 0.0


def test_iteration_cap_renders_as_nc():
    # NC at the cap of 100 in the default sweep
    row = solve_cell(("residual", "single-pm", 0.1, 6, 1e-4, 0))
    assert row.status == "NC"
    assert row.iterations == 100


# ---------------------------------------------------------------------------
# CSV and tables


def test_csv_round_trip(tmp_path):
    rows = run_sweep(SMALL, workers=1)
    path = tmp_path / "sweep.csv"
    emit_csv(rows, str(path))
    assert _read_csv(path) == rows


def test_csv_structure_single_row(tmp_path):
    path = tmp_path / "one.csv"
    emit_csv([_row()], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_SCHEMA_COMMENT
    assert lines[1] == CSV_HEADER
    assert len(lines) == 3
    assert sum(1 for ln in lines if not ln.startswith("#")) == 2


def test_rerun_is_byte_identical(tmp_path):
    spec = SweepSpec(strategies=("none", "constraint-adaptive"), models=("single-pm",),
                     phi_values=(0.1,), cells_values=(4,), u_c_values=(0.01,), seeds=(0,))
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    emit_csv(run_sweep(spec, workers=1), str(paths[0]))
    emit_csv(run_sweep(spec, workers=1), str(paths[1]))
    emit_csv(run_sweep(spec, workers=2), str(paths[2]))
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_emit_table_rendering():
    rows = [
        _row(u_c=0.01, iterations=13),
        _row(u_c=0.1, status="NC", iterations=100),
        _row(strategy="none", u_c=0.01, status="Div", iterations=4),
        # strategy "none" at u_c=0.1 intentionally missing
    ]
    text = emit_table(rows)
    assert "model=single-pm phi=0.1 cells=6 seed=0" in text
    assert "u_c=0.01" in text and "u_c=0.1" in text
    assert "13" in text
    assert "NC" in text
    assert "Div" in text
    assert "-" in text


def test_empty_outputs_raise(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], str(tmp_path / "never.csv"))
    with pytest.raises(ValueError):
        emit_table([])


# ---------------------------------------------------------------------------
# CLI


def test_main_happy_path(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["--model", "single-pm", "--strategy", "constraint-adaptive",
                 "--phi", "0.1", "--cells", "4", "--uc", "0.01",
                 "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 0
    assert out.exists()
    captured = capsys.readouterr()
    assert "wrote 1 rows" in captured.out


def test_every_flag_lands_on_its_spec_field(tmp_path):
    out = tmp_path / "cli.csv"
    code = main(["--strategy", "none",
                 "--model", "single-pm", "multi4-pm", "--phi", "0.1", "--cells", "2",
                 "--uc", "0.01", "--seed", "3",
                 "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 0
    # Single presets run the first seed.
    expected = [solve_cell(("none", "multi4-pm", 0.1, MULTI_CELLS_PER_SIDE, 0.01, 3)),
                solve_cell(("none", "single-pm", 0.1, 2, 0.01, 3))]
    assert _read_csv(out) == expected


def test_main_prints_table_by_default(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(["--model", "single-pm", "--strategy", "none",
                 "--cells", "4", "--uc", "0.01", "--out", str(out), "--workers", "1"])
    assert code == 0
    assert "strategy" in capsys.readouterr().out


def test_main_rejects_unknown_model(tmp_path, capsys):
    code = main(["--model", "single-xyz", "--out", str(tmp_path / "x.csv"),
                 "--workers", "1", "--no-table"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_main_rejects_a_repeated_axis_value(tmp_path, capsys):
    # a repeated value would run its cells twice and write duplicate rows
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--phi", "0.1", "--cells", "2",
                 "--uc", "0.01", "0.01", "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: sweep axis u_c_values repeats a value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_main_rejects_nonpositive_workers(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--uc", "0.01", "--out", str(out), "--workers", workers, "--no-table"])
    assert code == 1
    assert "error: workers must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_main_rejects_nan_characteristic_displacement(tmp_path, capsys, value):
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--uc", value, "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: characteristic quantities must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_main_does_not_report_a_solve_fault_as_a_usage_error(tmp_path, capsys, monkeypatch):
    # a model that cannot be built is a usage error (exit 1, above); an
    # exception from inside a solve is a fault and names its sweep cell
    def faulty_solve(model, options):
        raise ValueError("estimates must be finite")

    monkeypatch.setattr(fracsolve.bench, "solve", faulty_solve)
    out = tmp_path / "x.csv"
    with pytest.raises(RuntimeError, match=r"^solve of sweep cell \('none', 'single-pm'"):
        main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
              "--uc", "0.01", "--out", str(out), "--workers", "1", "--no-table"])
    assert "error:" not in capsys.readouterr().err
    assert not out.exists()


def test_all_strategies_constant():
    assert ALL_STRATEGIES == ("none", "residual", "constraint-const", "constraint-adaptive")
