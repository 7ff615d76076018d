"""Benchmark harness: sweep bookkeeping, CSV round-trips, CLI behavior."""

import csv
import dataclasses
import math
import os

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
from fracsolve.models import MULTI_CELLS_PER_SIDE, preset
from fracsolve.newton import CriterionKind, SolveStatus, solve

SMALL = SweepSpec(strategies=("constraint-adaptive",), models=("single-pm",),
                  phi_values=(0.1,), cells_values=(4,), u_c_values=(0.01,), seeds=(0,))
TWO_CELLS = dataclasses.replace(SMALL, strategies=("none", "constraint-adaptive"))


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
    {"phi_values": (2.0,)},
    {"cells_values": (1,)},
    {"u_c_values": (0.0,)},
    {"models": ("multi4-pm",), "seeds": (-1,)},
    {"phi_values": (-0.1,)},
    {"phi_values": (math.pi / 2,)},
    {"phi_values": (math.nan,)},
    {"phi_values": (math.inf,)},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SweepSpec(**kwargs)


def test_spec_builds_each_distinct_mesh_once(monkeypatch):
    # phi and u_c reach a build only through their two constructors, so the
    # default spec builds its 2 models x 2 sizes, not its 40 models
    builds = []

    def counting_preset(*args, **kwargs):
        builds.append((args, kwargs))
        return preset(*args, **kwargs)

    monkeypatch.setattr(fracsolve.bench, "preset", counting_preset)
    SweepSpec()
    assert len(builds) == 4


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


@pytest.mark.parametrize("model", ["single-pm", "single-tpm"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_smallest_accepted_displacement_ends_with_a_status(model, strategy):
    # the smallest u_c whose squared weight is finite; at 1e-155 the kernels overflowed
    row = solve_cell((strategy, model, 0.1, 4, 7.5e-155, 0))
    assert row.status in {status.value for status in SolveStatus}


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
    path.write_text(emit_csv(rows))
    assert _read_csv(path) == rows


def test_csv_structure_single_row():
    lines = emit_csv([_row()]).splitlines()
    assert lines[0] == CSV_SCHEMA_COMMENT
    assert lines[1] == CSV_HEADER
    assert len(lines) == 3
    assert sum(1 for ln in lines if not ln.startswith("#")) == 2


def test_rerun_is_byte_identical():
    texts = [emit_csv(run_sweep(TWO_CELLS, workers=workers)) for workers in (1, 1, 2)]
    assert texts[0] == texts[1] == texts[2]


class _SerialPool:
    """A stand-in process pool: records its ``max_workers`` and maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return list(map(fn, iterable))


@pytest.mark.parametrize("workers, cpus", [(500, 1), (None, 64), (2, 1)])
def test_pool_is_no_larger_than_the_sweep(monkeypatch, workers, cpus):
    # the pool forks every worker it is given at start, so a 2-cell sweep gets 2
    monkeypatch.setattr(fracsolve.bench, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    monkeypatch.setattr(fracsolve.bench.os, "cpu_count", lambda: cpus)
    assert run_sweep(TWO_CELLS, workers=workers) == run_sweep(TWO_CELLS, workers=1)
    assert _SerialPool.sizes == [2]


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


def test_empty_outputs_raise():
    with pytest.raises(ValueError):
        emit_csv([])
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


def test_out_defaults_to_sweep_csv_in_the_working_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["--model", "single-pm", "--strategy", "none", "--phi", "0.1", "--cells", "4",
                 "--uc", "0.01", "--workers", "1", "--no-table"])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[:2] == [CSV_SCHEMA_COMMENT, CSV_HEADER]
    assert len(lines) == 3
    assert "wrote 1 rows to sweep.csv" in capsys.readouterr().out


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


def test_main_rejects_a_negative_seed_before_any_solve(tmp_path, capsys, monkeypatch):
    # a single-only sweep builds and solves with its first seed alone, so the
    # -1 would reach no build
    def no_solve(cell):
        raise AssertionError(f"cell {cell} solved with a negative seed on the sweep")

    monkeypatch.setattr(fracsolve.bench, "solve_cell", no_solve)
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2", "--uc", "0.01",
                 "--seed", "0", "-1", "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: sweep axis seeds holds a negative seed, -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-5"])
def test_main_rejects_nonpositive_workers(tmp_path, capsys, workers):
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--uc", "0.01", "--out", str(out), "--workers", workers, "--no-table"])
    assert code == 1
    assert "error: workers must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "1e-155", "1e-310", "1e308"])
def test_main_rejects_nan_characteristic_displacement(tmp_path, capsys, monkeypatch, value):
    # 1e-155's squared weight and 1e308's stress are past the float range
    def no_solve(cell):
        raise AssertionError(f"cell {cell} solved with a displacement that cannot be scaled")

    monkeypatch.setattr(fracsolve.bench, "solve_cell", no_solve)
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--uc", value, "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: characteristic quantities must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_a_bad_axis_value_before_any_solve(tmp_path, capsys, monkeypatch):
    # the last u_c value cannot be built; no cell before it is solved
    solves = []

    def counting_solve(model, options):
        solves.append(model)
        return solve(model, options=options)

    monkeypatch.setattr(fracsolve.bench, "solve", counting_solve)
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "6", "--phi", "0.1",
                 "--uc", "1e-4", "1e-2", "nan", "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: characteristic quantities must be positive" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


def test_main_rejects_a_nan_dilation_angle_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(cell):
        raise AssertionError(f"cell {cell} solved with a dilation angle out of range")

    monkeypatch.setattr(fracsolve.bench, "solve_cell", no_solve)
    out = tmp_path / "x.csv"
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2", "--phi", "nan",
                 "--uc", "0.01", "--out", str(out), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: dilation angle must lie in [0, pi/2)" in capsys.readouterr().err
    assert not out.exists()


def test_main_rejects_an_unwritable_output_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(cell):
        raise AssertionError(f"cell {cell} solved before the output was opened")

    monkeypatch.setattr(fracsolve.bench, "solve_cell", no_solve)
    code = main(["--model", "single-pm", "--strategy", "none", "--cells", "2", "--uc", "0.01",
                 "--out", str(tmp_path / "missing" / "x.csv"), "--workers", "1", "--no-table"])
    assert code == 1
    assert "error: [Errno 2] No such file or directory" in capsys.readouterr().err


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


def _interrupted(spec, workers):
    raise KeyboardInterrupt


def test_an_interrupted_sweep_keeps_a_regular_output_file(tmp_path, monkeypatch):
    # the CSV goes to a new file beside the output, which a failed sweep removes
    monkeypatch.setattr(fracsolve.bench, "run_sweep", _interrupted)
    out = tmp_path / "x.csv"
    out.write_bytes(b"an earlier sweep\n")
    with pytest.raises(KeyboardInterrupt):
        main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
              "--uc", "0.01", "--out", str(out), "--workers", "1", "--no-table"])
    assert out.read_bytes() == b"an earlier sweep\n"
    assert os.listdir(tmp_path) == ["x.csv"]


def test_a_symlinked_output_stays_a_link_to_the_new_csv(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("an earlier sweep\n")
    os.symlink(target, link)
    assert main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--phi", "0.1", "--uc", "0.01", "--out", str(link), "--workers", "1",
                 "--no-table"]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert [row.model for row in _read_csv(target)] == ["single-pm"]
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


def test_a_device_output_is_written_in_place(capsys):
    assert main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
                 "--phi", "0.1", "--uc", "0.01", "--out", os.devnull, "--workers", "1",
                 "--no-table"]) == 0
    assert f"wrote 1 rows to {os.devnull}" in capsys.readouterr().out


def test_an_interrupted_sweep_keeps_a_symlinked_output(tmp_path, monkeypatch):
    # the link and the file it names stay as they were
    monkeypatch.setattr(fracsolve.bench, "run_sweep", _interrupted)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("kept\n")
    os.symlink(target, link)
    with pytest.raises(KeyboardInterrupt):
        main(["--model", "single-pm", "--strategy", "none", "--cells", "2",
              "--uc", "0.01", "--out", str(link), "--workers", "1", "--no-table"])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "kept\n"


def test_all_strategies_constant():
    assert ALL_STRATEGIES == ("none", "residual", "constraint-const", "constraint-adaptive")
