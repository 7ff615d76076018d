"""Array-valued contact kernels against the independent per-cell oracle.

``scalar_oracle`` evaluates the contact residuals, regime, generalized
derivative, indicators and magnitude estimate of one cell at a time here,
with Python scalars and 2-vectors, in the same operation order as the
formulas in the module docstrings. The shipped kernels evaluate all cells at
once; the two must agree bit for bit (NaN where NaN), on random states and on
the edge cases where branches tie, the tangential jump (the step's slip, and
with it the gap subgradient) vanishes, the friction bound is zero, or entries
are not finite.
"""

import numpy as np
import pytest

import scalar_oracle
from fracsolve import contact
from fracsolve.contact import (
    ContactStates,
    classify_regime,
    contact_generalized_derivative,
    normal_complementarity,
    normal_indicator,
    tangential_complementarity,
    tangential_indicator,
)
from fracsolve.scaling import cell_scale_estimate
from scalar_oracle import ONE_CELL, Law

# ---------------------------------------------------------------------------
# inputs


def _random_columns(rng, n):
    """(n, 6) columns sn, st1, st2, un, ut1, ut2."""
    cols = rng.uniform(-2.0, 2.0, (n, 6))
    cols[:, 3:6] *= 10.0 ** rng.integers(-3, 1, (n, 1))   # jumps of several magnitudes
    return cols


def _edge_columns(rng, n):
    """Exact branch ties, zero tangential jump, zero bound and non-finite entries."""
    cols = _random_columns(rng, 6 * n)
    k = 2.0 ** rng.integers(-4, 4, n)
    zero = np.zeros(n)
    # ||q|| == b exactly with sn = -5k and F = 1: q = st = (3k, 4k) at zero
    # tangential jump, and q = (-4k, 3k) at a nonzero dyadic jump ut when the
    # weight is 2, from st = (-4k, 3k) - 2 ut (every sum exact)
    ut = k[:, None] * rng.integers(-4, 5, (n, 2)) / 4.0
    blocks = [np.column_stack([-5 * k, 3 * k, 4 * k, cols[:n, 3], zero, zero]),
              np.column_stack([-5 * k, -4 * k - 2 * ut[:, 0], 3 * k - 2 * ut[:, 1],
                               cols[n:2 * n, 3], ut])]
    # reach == 0 exactly without dilation: un = -sn / w with w a power of two
    ties = cols[2 * n:3 * n].copy()
    ties[:, 3] = -ties[:, 0] / 2.0
    blocks.append(ties)
    # zero tangential jump: zero slip and the gap subgradient's kink
    stuck = cols[3 * n:4 * n].copy()
    stuck[::2, 4:6] = 0.0
    blocks.append(stuck)
    # zero friction bound, with both signs of zero
    unloaded = cols[4 * n:5 * n].copy()
    unloaded[:, 0] = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    blocks.append(unloaded)
    # non-finite entries sprinkled over every column
    wild = cols[5 * n:].copy()
    hit = rng.random(wild.shape) < 0.15
    wild[hit] = rng.choice([np.nan, np.inf, -np.inf], size=hit.sum())
    blocks.append(wild)
    return np.vstack(blocks)


def _states(cols, law, monkeypatch):
    """States of the columns under ``law``, its friction coefficient patched into ``contact``."""
    monkeypatch.setattr(contact, "FRICTION_COEFFICIENT", law.friction)
    return ContactStates(cols[:, 0], cols[:, 1:3], cols[:, 3], cols[:, 4:6], law.angle, law.weight)


def _each(formula, cols, law, *args):
    """The oracle's ``formula`` of every cell of the columns, one cell at a time."""
    cells = [(float(r[0]), r[1:3].copy(), float(r[3]), r[4:6].copy()) for r in cols]
    return np.array([formula(cell, law, ONE_CELL, *extra)
                     for cell, *extra in zip(cells, *args)])


RNG = np.random.default_rng(2024)
RANDOM = _random_columns(RNG, 10_000)
EDGES = _edge_columns(RNG, 400)

CASES = [
    pytest.param(RANDOM, Law(1.0, 0.1, 1.7), id="random-dilating"),
    pytest.param(RANDOM, Law(0.6, 0.0, 100.0), id="random-flat"),
    pytest.param(EDGES, Law(1.0, 0.0, 2.0), id="edges-flat"),
    pytest.param(EDGES, Law(1.0, 0.3, 1.0), id="edges-dilating"),
]


def _assert_exact(actual, expected):
    assert actual.shape == expected.shape
    # equal entry for entry, NaN exactly where the oracle has NaN
    np.testing.assert_array_equal(actual, expected, strict=True)


@pytest.fixture(autouse=True)
def _quiet_nonfinite():
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        yield


# ---------------------------------------------------------------------------
# tests


def test_edge_inputs_hit_every_tie():
    law = Law(1.0, 0.0, 2.0)
    reach = _each(scalar_oracle.normal_indicator, EDGES, law)
    q_minus_b = _each(scalar_oracle.tangential_indicator, EDGES, law, [True] * len(EDGES))
    assert np.sum(reach == 0.0) >= 400
    assert np.sum(q_minus_b == 0.0) >= 800
    assert np.sum((q_minus_b == 0.0) & np.any(EDGES[:, 4:6] != 0.0, axis=1)) >= 300
    assert np.sum(EDGES[:, 0] == 0.0) >= 400
    assert np.sum(np.all(EDGES[:, 4:6] == 0.0, axis=1)) >= 200
    assert np.sum(~np.isfinite(EDGES)) > 0


@pytest.mark.parametrize("cols, law", CASES)
def test_complementarity_equals_oracle(cols, law, monkeypatch):
    states = _states(cols, law, monkeypatch)
    _assert_exact(normal_complementarity(states), _each(scalar_oracle.normal_residual, cols, law))
    _assert_exact(tangential_complementarity(states),
                  _each(scalar_oracle.tangential_residual, cols, law))


@pytest.mark.parametrize("cols, law", CASES)
def test_classify_regime_equals_oracle(cols, law, monkeypatch):
    expected = _each(scalar_oracle.regime, cols, law)
    np.testing.assert_array_equal(classify_regime(_states(cols, law, monkeypatch)), expected)


@pytest.mark.parametrize("cols, law", CASES)
def test_generalized_derivative_equals_oracle(cols, law, monkeypatch):
    _assert_exact(contact_generalized_derivative(_states(cols, law, monkeypatch)),
                  _each(scalar_oracle.derivative, cols, law))


@pytest.mark.parametrize("cols, law", CASES)
def test_indicators_equal_oracle(cols, law, monkeypatch):
    states = _states(cols, law, monkeypatch)
    mask = np.random.default_rng(3).random(len(cols)) < 0.7
    _assert_exact(normal_indicator(states), _each(scalar_oracle.normal_indicator, cols, law))
    _assert_exact(tangential_indicator(states, mask),
                  _each(scalar_oracle.tangential_indicator, cols, law, mask))


@pytest.mark.parametrize("cols, law", CASES)
def test_cell_scale_estimate_equals_oracle(cols, law, monkeypatch):
    _assert_exact(cell_scale_estimate(_states(cols, law, monkeypatch)),
                  _each(scalar_oracle.scale_estimate, cols, law))
