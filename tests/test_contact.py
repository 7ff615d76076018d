"""Contact kernel: complementarity functions, regimes, generalized derivative."""

import dataclasses

import numpy as np
import pytest

from fracsolve.contact import (
    ContactRegime,
    ContactStates,
    check_dilation_angle,
    classify_regime,
    contact_generalized_derivative,
    friction_bound,
    gap,
    normal_complementarity,
    tangential_complementarity,
)


DILATING = 0.1  # dilation angle, radians; the default state does not dilate


def make_state(sn=0.0, st=(0.0, 0.0), un=0.0, ut=(0.0, 0.0), angle=0.0, weight=1.0):
    """States of a single cell; kernels return arrays with one row."""
    return ContactStates(
        normal_traction=np.array([sn], dtype=float),
        tangential_traction=np.array([st], dtype=float),
        normal_jump=np.array([un], dtype=float),
        tangential_jump=np.array([ut], dtype=float),
        dilation_angle=angle,
        weight=weight,
    )


# ---------------------------------------------------------------------------
# friction bound and gap


def test_friction_bound_compressive():
    assert friction_bound(-1.0) == 1.0


def test_friction_bound_zero_traction_is_open_boundary():
    assert friction_bound(0.0) == 0.0


def test_friction_bound_tensile():
    assert friction_bound(0.5) == -0.5


def test_gap_zero_dilation():
    assert gap(np.array([0.3, -0.4]), 0.0) == 0.0


def test_gap_zero_slip():
    assert gap(np.zeros(2), 0.1) == 0.0


def test_gap_value():
    # tan(0.1) * 0.2, checked against an independent evaluation
    assert gap(np.array([0.2, 0.0]), 0.1) == pytest.approx(0.02006693441709011, rel=1e-14)


def test_gap_positively_homogeneous_and_rotation_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        ut = rng.normal(size=2)
        lam = float(rng.uniform(0.0, 5.0))
        assert gap(lam * ut, 0.1) == pytest.approx(lam * gap(ut, 0.1), rel=1e-12, abs=1e-15)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        assert gap(rot @ ut, 0.1) == pytest.approx(gap(ut, 0.1), rel=1e-12)


# ---------------------------------------------------------------------------
# complementarity functions


def test_normal_complementarity_consistent_open():
    state = make_state(sn=0.0, un=0.5)
    assert normal_complementarity(state)[0] == 0.0


def test_normal_complementarity_consistent_contact():
    state = make_state(sn=-1.0, un=0.0)
    assert normal_complementarity(state)[0] == 0.0


def test_normal_complementarity_penetration():
    state = make_state(sn=-1.0, un=-0.2)
    assert normal_complementarity(state)[0] == pytest.approx(-0.2)


def test_tangential_complementarity_open():
    state = make_state(sn=0.5, st=(0.3, -0.1))
    np.testing.assert_array_equal(
        tangential_complementarity(state)[0], [0.3, -0.1])


def test_tangential_complementarity_consistent_stick():
    state = make_state(sn=-1.0, st=(0.5, 0.0))
    np.testing.assert_allclose(
        tangential_complementarity(state)[0], [0.0, 0.0], atol=1e-15)


def test_tangential_complementarity_slip_against_traction():
    # slip opposing the traction direction leaves a nonzero residual
    state = make_state(sn=-1.0, st=(-1.0, 0.0), ut=(2.0, 0.0))
    np.testing.assert_allclose(
        tangential_complementarity(state)[0], [-2.0, 0.0], atol=1e-15)


def test_tangential_complementarity_consistent_slide():
    state = make_state(sn=-1.0, st=(-1.0, 0.0), ut=(-2.0, 0.0))
    np.testing.assert_allclose(
        tangential_complementarity(state)[0], [0.0, 0.0], atol=1e-15)


def test_open_branch_returns_copy():
    state = make_state(sn=0.5, st=(0.3, 0.0))
    out = tangential_complementarity(state)[0]
    out[0] = 99.0
    assert state.tangential_traction[0, 0] == 0.3


def test_c_independence_of_roots():
    """States solving the system for one weight solve it for every weight."""
    roots = [
        make_state(sn=0.0, un=0.3),                      # open, separated
        make_state(sn=-2.0, un=0.0, st=(1.5, -0.5)),     # stick inside the cone
        make_state(sn=-1.0, st=(-1.0, 0.0), ut=(-2.0, 0.0)),  # slide at the bound
    ]
    for state in roots:
        for weight in (0.1, 1.0, 100.0):
            weighted = dataclasses.replace(state, weight=weight)
            assert abs(normal_complementarity(weighted)[0]) < 1e-12
            assert np.linalg.norm(
                tangential_complementarity(weighted)[0]) < 1e-12


# ---------------------------------------------------------------------------
# regime classification


def test_classify_open():
    assert classify_regime(make_state(sn=0.1))[0] == ContactRegime.OPEN


def test_classify_sticking():
    state = make_state(sn=-1.0, st=(0.2, 0.0))
    assert classify_regime(state)[0] == ContactRegime.STICKING


def test_classify_sliding():
    state = make_state(sn=-1.0, st=(0.9, 0.0), ut=(0.5, 0.0))
    assert classify_regime(state)[0] == ContactRegime.SLIDING


def test_classify_boundary_zero_bound_is_open():
    assert classify_regime(make_state(sn=0.0))[0] == ContactRegime.OPEN


def test_classify_boundary_at_friction_bound_is_sticking():
    # ||q|| == b exactly: not strictly beyond the bound
    state = make_state(sn=-1.0, st=(1.0, 0.0))
    assert classify_regime(state)[0] == ContactRegime.STICKING


# ---------------------------------------------------------------------------
# generalized derivative


def test_derivative_open_normal_row():
    state = make_state(sn=0.2, un=0.5)
    block = contact_generalized_derivative(state)[0]
    assert block[0, 0] == -1.0
    assert block[0, 3] == 0.0


def test_derivative_contact_normal_row():
    state = make_state(sn=-1.0, un=-0.1, weight=2.0)
    block = contact_generalized_derivative(state)[0]
    assert block[0, 0] == 0.0
    assert block[0, 3] == 2.0


def test_derivative_tie_takes_state_change_branch():
    # reach exactly zero: the penetration (contact) branch must be selected
    state = make_state(sn=0.0, un=0.0)
    block = contact_generalized_derivative(state)[0]
    assert block[0, 0] == 0.0
    assert block[0, 3] == 1.0
    # ||q|| exactly at the bound: the sliding branch must be selected
    tie = make_state(sn=-1.0, st=(1.0, 0.0))
    tie_block = contact_generalized_derivative(tie)[0]
    stick = make_state(sn=-1.0, st=(0.5, 0.0))
    stick_block = contact_generalized_derivative(stick)[0]
    assert not np.allclose(tie_block[1:3], stick_block[1:3])
    assert tie_block[1, 0] == pytest.approx(1.0)  # F * q1 on the sliding branch


def _random_nondegenerate_state(rng, angle, weight, margin=1e-3):
    while True:
        state = make_state(
            sn=rng.uniform(-2.0, 2.0),
            st=rng.uniform(-2.0, 2.0, 2),
            un=rng.uniform(-1.0, 1.0),
            ut=rng.uniform(-1.0, 1.0, 2),
            angle=angle,
            weight=weight,
        )
        g = gap(state.tangential_jump[0], angle)
        reach = -state.normal_traction[0] - weight * (state.normal_jump[0] - g)
        b = friction_bound(state.normal_traction[0])
        q = state.tangential_traction[0] + weight * state.tangential_jump[0]
        dist = min(abs(reach), abs(b), abs(float(np.linalg.norm(q)) - b),
                   float(np.linalg.norm(state.tangential_jump[0])))
        if dist > margin:
            return state


def _fd_derivative(state, h=1e-7):
    def residual(vec):
        s = make_state(sn=vec[0], st=vec[1:3], un=vec[3], ut=vec[4:6],
                       angle=state.dilation_angle, weight=state.weight)
        return np.concatenate([
            normal_complementarity(s),
            tangential_complementarity(s)[0],
        ])

    base = np.concatenate([state.normal_traction, state.tangential_traction[0],
                           state.normal_jump, state.tangential_jump[0]])
    cols = []
    for j in range(6):
        plus, minus = base.copy(), base.copy()
        plus[j] += h
        minus[j] -= h
        cols.append((residual(plus) - residual(minus)) / (2.0 * h))
    return np.column_stack(cols)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(5)
    weight = 1.7
    for _ in range(20):
        state = _random_nondegenerate_state(rng, DILATING, weight)
        analytic = contact_generalized_derivative(state)[0]
        numeric = _fd_derivative(state)
        scale = max(1.0, np.max(np.abs(numeric)))
        assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_dilation_chain_rule_zero_at_zero_slip():
    # the gap has no smooth derivative at zero slip; the kernel takes zero
    state = make_state(sn=-1.0, un=0.0, angle=DILATING)
    block = contact_generalized_derivative(state)[0]
    np.testing.assert_array_equal(block[0, 4:6], [0.0, 0.0])


# ---------------------------------------------------------------------------
# validation


def test_parameters_validated():
    for angle in (-0.1, 0.5 * np.pi, 2.0, np.nan, np.inf):
        with pytest.raises(ValueError, match=r"dilation angle must lie in \[0, pi/2\)"):
            check_dilation_angle(angle)
    for angle in (0.0, 0.1, np.nextafter(0.5 * np.pi, 0.0)):
        check_dilation_angle(angle)


def test_states_are_read_only_views():
    jump = np.zeros((4, 2))
    states = ContactStates(np.zeros(4), np.zeros((4, 2)), np.zeros(4), jump, 0.0, 1.0)
    assert states.normal_traction.shape == (4,)
    assert np.shares_memory(states.tangential_jump, jump)
    with pytest.raises(ValueError):
        states.tangential_jump[0, 0] = 1.0
    jump[0, 0] = 2.0  # the caller's array stays writable and is seen through the view
    assert states.tangential_jump[0, 0] == 2.0
