"""Array-valued contact kernels against an independent per-cell scalar oracle.

The oracle below evaluates the contact residuals, regime, generalized
derivative, indicators and magnitude estimate one cell at a time, with Python
scalars and 2-vectors, in the same operation order as the formulas in the
module docstrings. The shipped kernels evaluate all cells at once; the two
must agree bit for bit (NaN where NaN), on random states and on the edge
cases where branches tie, the tangential jump (the step's slip, and with it
the gap subgradient) vanishes, the friction bound is zero, or entries are not
finite.
"""

from collections import namedtuple

import numpy as np
import pytest

from fracsolve import contact
from fracsolve.contact import (
    ContactRegime,
    ContactStates,
    classify_regime,
    contact_generalized_derivative,
    normal_complementarity,
    normal_indicator,
    tangential_complementarity,
    tangential_indicator,
)
from fracsolve.scaling import cell_scale_estimate

# ---------------------------------------------------------------------------
# scalar oracle: one cell is (sn, st, un, ut), floats and 2-vectors

# A contact law: the kernels read the friction coefficient from
# ``contact.FRICTION_COEFFICIENT`` (patched per case) and the angle from the states.
Law = namedtuple("Law", "friction angle")


def _gap(ut, law):
    return float(np.tan(law.angle) * np.linalg.norm(ut))


def oracle_normal(cell, law, weight):
    sn, _, un, ut = cell
    reach = -sn - weight * (un - _gap(ut, law))
    return -sn - max(0.0, reach)


def oracle_tangential(cell, law, weight):
    sn, st, _, ut = cell
    b = -law.friction * sn
    if b <= 0.0:
        return st.copy()
    q = st + weight * ut
    return st * max(b, float(np.linalg.norm(q))) - b * q


def oracle_regime(cell, law, weight):
    sn, st, _, ut = cell
    b = -law.friction * sn
    if b <= 0.0:
        return ContactRegime.OPEN
    q = st + weight * ut
    if float(np.linalg.norm(q)) > b:
        return ContactRegime.SLIDING
    return ContactRegime.STICKING


def oracle_derivative(cell, law, weight):
    sn, st, un, ut = cell
    F = law.friction
    c = float(weight)
    D = np.zeros((3, 6))

    ut_norm = float(np.linalg.norm(ut))
    if ut_norm > 0.0:
        dg_dut = np.tan(law.angle) * ut / ut_norm
    else:
        dg_dut = np.zeros(2)
    reach = -sn - c * (un - _gap(ut, law))
    if reach >= 0.0:
        D[0, 3] = c
        D[0, 4:6] = -c * dg_dut
    else:
        D[0, 0] = -1.0

    b = -F * sn
    if b <= 0.0:
        D[1:3, 1:3] = np.eye(2)
        return D
    q = st + c * ut
    q_norm = float(np.linalg.norm(q))
    if q_norm >= b:
        q_hat = q / q_norm if q_norm > 0.0 else np.zeros(2)
        D[1:3, 0] = F * q
        D[1:3, 1:3] = q_norm * np.eye(2) + np.outer(st, q_hat) - b * np.eye(2)
        D[1:3, 4:6] = c * (np.outer(st, q_hat) - b * np.eye(2))
    else:
        D[1:3, 0] = F * c * ut
        D[1:3, 4:6] = -b * c * np.eye(2)
    return D


def oracle_normal_indicator(cell, law, weight):
    sn, _, un, ut = cell
    return -sn - weight * (un - _gap(ut, law))


def oracle_tangential_indicator(cell, law, weight, active):
    if not active:
        return 0.0
    sn, st, _, ut = cell
    b = -law.friction * sn
    q = st + weight * ut
    return float(np.linalg.norm(q)) - b


def oracle_scale_estimate(cell, law, weight):
    sn, st, un, ut = cell
    traction_norm = float(np.sqrt(sn ** 2 + float(st @ st)))
    jump_norm = float(np.sqrt((un - _gap(ut, law)) ** 2 + float(ut @ ut)))
    return traction_norm + weight * jump_norm


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


def _states(cols, law, weight, monkeypatch):
    """States of the columns under ``law``, its friction coefficient patched into ``contact``."""
    monkeypatch.setattr(contact, "FRICTION_COEFFICIENT", law.friction)
    return ContactStates(cols[:, 0], cols[:, 1:3], cols[:, 3], cols[:, 4:6], law.angle, weight)


def _cells(cols):
    return [(float(r[0]), r[1:3].copy(), float(r[3]), r[4:6].copy()) for r in cols]


RNG = np.random.default_rng(2024)
RANDOM = _random_columns(RNG, 10_000)
EDGES = _edge_columns(RNG, 400)

CASES = [
    pytest.param(RANDOM, Law(1.0, 0.1), 1.7, id="random-dilating"),
    pytest.param(RANDOM, Law(0.6, 0.0), 100.0, id="random-flat"),
    pytest.param(EDGES, Law(1.0, 0.0), 2.0, id="edges-flat"),
    pytest.param(EDGES, Law(1.0, 0.3), 1.0, id="edges-dilating"),
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
    law = Law(1.0, 0.0)
    cells = _cells(EDGES)
    reach = np.array([oracle_normal_indicator(c, law, 2.0) for c in cells])
    q_minus_b = np.array([oracle_tangential_indicator(c, law, 2.0, True) for c in cells])
    assert np.sum(reach == 0.0) >= 400
    assert np.sum(q_minus_b == 0.0) >= 800
    assert np.sum((q_minus_b == 0.0) & np.any(EDGES[:, 4:6] != 0.0, axis=1)) >= 300
    assert np.sum(EDGES[:, 0] == 0.0) >= 400
    assert np.sum(np.all(EDGES[:, 4:6] == 0.0, axis=1)) >= 200
    assert np.sum(~np.isfinite(EDGES)) > 0


@pytest.mark.parametrize("cols, law, weight", CASES)
def test_complementarity_equals_oracle(cols, law, weight, monkeypatch):
    states, cells = _states(cols, law, weight, monkeypatch), _cells(cols)
    _assert_exact(normal_complementarity(states),
                  np.array([oracle_normal(c, law, weight) for c in cells]))
    _assert_exact(tangential_complementarity(states),
                  np.array([oracle_tangential(c, law, weight) for c in cells]))


@pytest.mark.parametrize("cols, law, weight", CASES)
def test_classify_regime_equals_oracle(cols, law, weight, monkeypatch):
    expected = np.array([oracle_regime(c, law, weight) for c in _cells(cols)])
    states = _states(cols, law, weight, monkeypatch)
    np.testing.assert_array_equal(classify_regime(states), expected)


@pytest.mark.parametrize("cols, law, weight", CASES)
def test_generalized_derivative_equals_oracle(cols, law, weight, monkeypatch):
    expected = np.array([oracle_derivative(c, law, weight) for c in _cells(cols)])
    states = _states(cols, law, weight, monkeypatch)
    _assert_exact(contact_generalized_derivative(states), expected)


@pytest.mark.parametrize("cols, law, weight", CASES)
def test_indicators_equal_oracle(cols, law, weight, monkeypatch):
    states, cells = _states(cols, law, weight, monkeypatch), _cells(cols)
    mask = np.random.default_rng(3).random(len(cells)) < 0.7
    _assert_exact(normal_indicator(states),
                  np.array([oracle_normal_indicator(c, law, weight) for c in cells]))
    _assert_exact(tangential_indicator(states, mask),
                  np.array([oracle_tangential_indicator(c, law, weight, m)
                            for c, m in zip(cells, mask)]))


@pytest.mark.parametrize("cols, law, weight", CASES)
def test_cell_scale_estimate_equals_oracle(cols, law, weight, monkeypatch):
    expected = np.array([oracle_scale_estimate(c, law, weight) for c in _cells(cols)])
    states = _states(cols, law, weight, monkeypatch)
    _assert_exact(cell_scale_estimate(states), expected)
