"""The stacked residual against the per-point residual it replaced.

``FractureAssembly.residual`` takes one point ``(n_dofs,)`` or a stack
``(k, n_dofs)``, and the residual search evaluates all of its trial points in
one stacked call. Every row of a stack must be byte for byte the residual of
that row on its own, as ``scalar_oracle.residual`` computes it: on random
stacks of every preset and scaling, on strided views, on rows holding NaN and
infinite entries, on Dirichlet cells, and on cells exactly at the open/closed
and stick/slide branch boundaries. A residual-strategy solve must take the
same steps and reach the same bytes of ``x`` as the per-point path.
"""

import warnings

import numpy as np
import pytest

import fracsolve.newton
import scalar_oracle
from fracsolve.linesearch import Strategy
from fracsolve.models import PRESET_NAMES, Physics, preset
from fracsolve.newton import ConvergenceCriterion, CriterionKind, NewtonOptions, solve
from scalar_oracle import Oracle
from test_assembly_oracle import hand_built, random_iterate

U_C = (1e-4, 1e-2, 1.0)


def _oracle(name, u_c, monkeypatch):
    """The oracle of a preset or of a hand-built model."""
    if name == "hand-built-tpm":
        return hand_built(monkeypatch, oracle=Oracle)
    if name == "hand-built-pm":
        return hand_built(monkeypatch, Physics.PORO, seed=1, oracle=Oracle)
    return Oracle(preset(name, characteristic_displacement=u_c, cells_per_side=4, seed=1))


def _random_stack(oracle, rng, k):
    """k random iterates, one per row."""
    return np.stack([random_iterate(oracle, rng) for _ in range(k)])


def _layouts(stack):
    """The same rows as a contiguous array and as three strided views."""
    k, size = stack.shape
    wide = np.zeros((k, 2 * size))
    wide[:, ::2] = stack
    tall = np.zeros((2 * k, size))
    tall[::2] = stack
    return {"contiguous": stack, "column-strided": wide[:, ::2],
            "row-strided": tall[::2], "fortran": np.asfortranarray(stack)}


def assert_rows_equal_oracle(oracle, stack):
    with np.errstate(all="ignore"):
        got = oracle.model.residual(stack)
        want = [scalar_oracle.residual(oracle, row) for row in np.array(stack)]
    assert got.shape == stack.shape
    assert got.dtype == np.float64
    for row, expected in zip(got, want, strict=True):
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("u_c", U_C)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_random_stacks_equal_per_point_residual(name, u_c, monkeypatch):
    oracle = _oracle(name, u_c, monkeypatch)
    rng = np.random.default_rng(70)
    for k in (1, 2, 5):
        for stack in _layouts(_random_stack(oracle, rng, k)).values():
            assert_rows_equal_oracle(oracle, stack)
    assert_rows_equal_oracle(oracle, _random_stack(oracle, rng, 5))


@pytest.mark.parametrize("name", ["single-tpm", "multi4-pm", "hand-built-tpm", "hand-built-pm"])
def test_one_point_equals_per_point_residual(name, monkeypatch):
    oracle = _oracle(name, 1e-2, monkeypatch)
    model = oracle.model
    rng = np.random.default_rng(71)
    for x in (model.initial_guess(), random_iterate(oracle, rng)):
        got = model.residual(x)
        assert got.shape == x.shape
        assert got.tobytes() == scalar_oracle.residual(oracle, x).tobytes()
        assert got.tobytes() == model.residual(x[None, :])[0].tobytes()


# Both NaN signs: stacked and per-point rows run the same array loops, so
# even the sign of a NaN must match.
@pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf],
                         ids=["nan", "-nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["single-tpm", "multi4-tpm", "hand-built-tpm", "hand-built-pm"])
def test_non_finite_rows(name, bad, monkeypatch):
    oracle = _oracle(name, 1e-2, monkeypatch)
    rng = np.random.default_rng(72)
    stack = _random_stack(oracle, rng, 5)
    n = oracle.n
    stack[0, rng.choice(stack.shape[1], size=stack.shape[1] // 20, replace=False)] = bad
    stack[2, 6 * n + n // 2] = bad     # one pressure
    stack[3] = bad                     # a whole row
    for layout in _layouts(stack).values():
        assert_rows_equal_oracle(oracle, layout)
    # finite rows of a stack stay finite next to non-finite ones
    with np.errstate(all="ignore"):
        assert np.all(np.isfinite(oracle.model.residual(stack)[[1, 4]]))


@pytest.mark.parametrize("name", ["single-pm", "multi4-tpm", "hand-built-tpm"])
def test_branch_ties_and_dirichlet_cells(name, monkeypatch):
    oracle = _oracle(name, 1e-2, monkeypatch)
    model = oracle.model
    rng = np.random.default_rng(73)
    friction = oracle.law.friction
    n = model.n_cells
    stack = _random_stack(oracle, rng, 5)
    for row in stack:
        traction = row[0:3 * n].reshape(n, 3)
        jump = row[3 * n:6 * n].reshape(n, 3)
        pick = rng.integers(0, 4, n)
        # open/closed tie: zero normal traction, jump and slip
        traction[pick == 0] = 0.0
        jump[pick == 0] = 0.0
        # stick/slide tie: |q| equals the friction bound at zero slip
        tie = pick >= 2
        traction[tie, 0] = -1.0 / friction
        traction[tie, 1:3] = [0.0, -1.0]
        jump[tie, 1:3] = 0.0
    assert_rows_equal_oracle(oracle, stack)

    # the ties are really on the boundaries, and every regime is present
    cells, law, layout = oracle.cells(stack), oracle.law, scalar_oracle.CELLS
    regimes = scalar_oracle.regime(cells, law, layout)
    assert np.any(scalar_oracle.normal_indicator(cells, law, layout) == 0.0)
    q_minus_b = scalar_oracle.tangential_indicator(cells, law, layout, True)
    assert np.any((q_minus_b == 0.0) & (regimes != scalar_oracle.OPEN))
    assert set(regimes.ravel().tolist()) == {0, 1, 2}
    assert np.any(np.isfinite(model._fixed))


# ---------------------------------------------------------------------------
# residual-strategy solves: stacked against the per-point path

FUZZ_SLICE = [(name, geometry, u_c) for name in ("multi8-pm", "multi8-tpm")
              for geometry in (2, 3, 4, 5) for u_c in (1e-4, 1.0)]


def _residual_solve(name, geometry, u_c, per_point):
    model = preset(name, seed=geometry, characteristic_displacement=u_c)
    if per_point:
        oracle = Oracle(model)
        model.residual = lambda x: (scalar_oracle.residual(oracle, x) if x.ndim == 1 else
                                    np.stack([scalar_oracle.residual(oracle, r) for r in x]))
    options = NewtonOptions(line_search=Strategy.RESIDUAL,
                            criterion=ConvergenceCriterion(CriterionKind.RESIDUAL))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve(model, options=options)


@pytest.mark.parametrize("name, geometry, u_c", FUZZ_SLICE,
                         ids=[f"{n}-g{g}-{u:g}" for n, g, u in FUZZ_SLICE])
def test_residual_solve_equals_per_point_path(monkeypatch, name, geometry, u_c):
    stacked = _residual_solve(name, geometry, u_c, per_point=False)
    monkeypatch.setattr(fracsolve.newton, "search_residual", scalar_oracle.search_residual)
    per_point = _residual_solve(name, geometry, u_c, per_point=True)
    assert stacked.status is per_point.status
    assert stacked.iterations == per_point.iterations
    assert stacked.ls_evaluations == per_point.ls_evaluations == 5 * stacked.iterations
    assert ([r.search.alpha for r in stacked.trace if r.search is not None]
            == [r.search.alpha for r in per_point.trace if r.search is not None])
    assert stacked.x.tobytes() == per_point.x.tobytes()
