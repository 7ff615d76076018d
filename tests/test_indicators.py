"""Transition indicators and their coherence with the contact kernel."""

import dataclasses

import numpy as np
import pytest

from fracsolve.contact import (
    ContactRegime,
    ContactStates,
    classify_regime,
    evaluate_field,
    gap,
    normal_complementarity,
    normal_indicator,
    reference_mask,
    tangential_indicator,
    transition_values,
)


def _states(sn, st, un, ut, angle=0.0, weight=1.0):
    """States of several cells from per-cell sequences; no dilation by default."""
    return ContactStates(np.asarray(sn, float), np.asarray(st, float), np.asarray(un, float),
                         np.asarray(ut, float), angle, weight)


def _state(sn=0.0, st=(0.0, 0.0), un=0.0, ut=(0.0, 0.0), angle=0.0, weight=1.0):
    """States of a single cell; indicators return arrays with one entry."""
    return _states([sn], [st], [un], [ut], angle, weight)


# ---------------------------------------------------------------------------
# normal indicator


def test_normal_indicator_compressed_at_gap():
    ut = np.array([0.2, 0.0])
    state = _state(sn=-1.0, un=gap(ut, 0.1), ut=ut, angle=0.1)
    assert normal_indicator(state)[0] == pytest.approx(1.0, rel=1e-14)


def test_normal_indicator_open_cell():
    assert normal_indicator(_state(sn=0.0, un=0.5))[0] == pytest.approx(-0.5)


def test_normal_indicator_boundary_is_zero():
    assert normal_indicator(_state(sn=0.0, un=0.0))[0] == 0.0


def test_normal_indicator_linear_along_ray():
    # with the gap frozen by a fixed tangential jump the indicator is affine
    # in (normal traction, normal jump)
    angle = 0.3
    ut = np.array([0.1, -0.2])
    w = 7.0
    rng = np.random.default_rng(11)
    base = _state(sn=-0.4, un=0.05, ut=ut, angle=angle, weight=w)
    direction = (0.8, -0.03)
    i0 = normal_indicator(base)[0]
    i1 = normal_indicator(_state(sn=-0.4 + direction[0], un=0.05 + direction[1], ut=ut,
                                 angle=angle, weight=w))[0]
    for alpha in rng.uniform(0.0, 1.0, 20):
        trial = _state(sn=-0.4 + alpha * direction[0], un=0.05 + alpha * direction[1], ut=ut,
                       angle=angle, weight=w)
        assert normal_indicator(trial)[0] == pytest.approx(
            (1 - alpha) * i0 + alpha * i1, abs=1e-13)


def test_normal_indicator_matches_active_kernel_branch():
    # positive indicator exactly when the penetration branch of the normal
    # residual is selected
    rng = np.random.default_rng(12)
    for _ in range(200):
        state = _state(sn=rng.uniform(-2, 2), un=rng.uniform(-0.5, 0.5),
                       ut=rng.uniform(-0.3, 0.3, 2))
        w = 10.0 ** rng.uniform(-1, 2)
        state = dataclasses.replace(state, weight=w)
        ind = normal_indicator(state)[0]
        if abs(ind) < 1e-9:
            continue
        penetration_branch = w * (state.normal_jump[0] - gap(state.tangential_jump[0], 0.0))
        on_branch = abs(normal_complementarity(state)[0] - penetration_branch) < 1e-12
        assert on_branch == (ind > 0.0)


# ---------------------------------------------------------------------------
# tangential indicator


def test_tangential_indicator_masked_cell_is_exactly_zero():
    state = _state(sn=-1.0, st=(5.0, 0.0))
    assert tangential_indicator(state, reference_active=False)[0] == 0.0


def test_tangential_indicator_sticking():
    state = _state(sn=-1.0, st=(0.5, 0.0))
    assert tangential_indicator(state, True)[0] == pytest.approx(-0.5)


def test_tangential_indicator_sliding():
    state = _state(sn=-1.0, st=(1.0, 0.0), ut=(0.4, 0.0))
    assert tangential_indicator(state, True)[0] == pytest.approx(0.4)


def test_tangential_indicator_matches_regime_classification():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 100:
        state = _state(sn=rng.uniform(-2, -0.1), st=rng.uniform(-1.5, 1.5, 2),
                       un=rng.uniform(-0.1, 0.0), ut=rng.uniform(-0.5, 0.5, 2))
        ind = tangential_indicator(state, True)[0]
        if abs(ind) < 1e-9 or classify_regime(state)[0] == ContactRegime.OPEN:
            continue
        regime = classify_regime(state)[0]
        assert (regime == ContactRegime.SLIDING) == (ind > 0.0)
        checked += 1


# ---------------------------------------------------------------------------
# transition indicator


@pytest.mark.parametrize("ref, trial, expected", [
    (0.5, -0.4, 0.4),
    (0.5, 0.2, -0.2),
    (-0.3, 0.7, 0.7),
    (0.5, 0.0, 0.0),
    (0.0, 0.8, 0.0),
    (1e-200, -1e-200, 1e-200),
    (-1e-200, 1e-200, 1e-200),
    (1e-200, 1e-200, -1e-200),
    (np.inf, 0.0, 0.0),
    (0.0, np.inf, 0.0),
    (0.0, -np.inf, 0.0),
])
def test_transition_indicator_examples(ref, trial, expected):
    # exact: the tiny-value cases would pass any absolute tolerance at zero
    assert transition_values([ref], [trial])[0] == expected


def test_transition_of_value_with_itself_is_nonpositive():
    rng = np.random.default_rng(14)
    for v in rng.uniform(-3, 3, 50):
        assert transition_values([v], [v])[0] <= 0.0


def test_transition_values_vectorized_matches_scalar():
    # scalar reference: -sgn(reference * trial) * |trial|, one pair at a time
    rng = np.random.default_rng(15)
    ref = rng.uniform(-1, 1, 40)
    trial = rng.uniform(-1, 1, 40)
    vec = transition_values(ref, trial)
    scalar = np.array([float(-np.sign(r * t) * abs(t)) for r, t in zip(ref, trial)])
    assert np.array_equal(vec, scalar)


# ---------------------------------------------------------------------------
# field assembly


def _random_cells(rng, n):
    cells = [(rng.uniform(-2, 1), rng.uniform(-1, 1, 2),
              rng.uniform(-0.2, 0.4), rng.uniform(-0.3, 0.3, 2))
             for _ in range(n)]
    return [_state(*cell) for cell in cells], _states(*zip(*cells))


def test_evaluate_field_matches_per_cell_calls():
    rng = np.random.default_rng(16)
    cells, states = _random_cells(rng, 12)
    mask = reference_mask(states)
    field = evaluate_field(states, mask)
    assert field.shape == (2, 12)
    normal, tangential = field
    for i, s in enumerate(cells):
        assert normal[i] == normal_indicator(s)[0]
        assert tangential[i] == tangential_indicator(s, bool(mask[i]))[0]
    assert np.all(tangential[~mask] == 0.0)


def test_reference_mask_is_strict_positivity():
    states = _states([-1.0, 0.0, 0.0], [(0.0, 0.0)] * 3, [0.0, 0.0, 0.5], [(0.0, 0.0)] * 3)
    assert reference_mask(states).tolist() == [True, False, False]
