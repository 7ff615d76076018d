"""Characteristic scales and the clamped power-mean magnitude estimate."""

import numpy as np
import pytest

from fracsolve.contact import (
    SCALE_CEILING,
    SCALE_FLOOR,
    ContactStates,
    cell_scale_estimate,
    gap,
    p_mean_scale,
)
from fracsolve.models import DOMAIN_LENGTH, YOUNGS_MODULUS, CharacteristicScales


def test_stress_scale_from_moduli():
    # The shipped Lame constants (2e6, 2e6 Pa) give E = 5e6 Pa over a 1 m domain.
    assert (YOUNGS_MODULUS, DOMAIN_LENGTH) == (5e6, 1.0)
    scales = CharacteristicScales(displacement=0.01)
    assert scales.stress == pytest.approx(5e4, rel=1e-15)
    assert scales.complementarity_weight == pytest.approx(100.0, rel=1e-15)


def test_unit_scales():
    scales = CharacteristicScales(displacement=1.0)
    assert scales.stress == YOUNGS_MODULUS
    assert scales.complementarity_weight == 1.0


def test_scales_reject_nonpositive_inputs():
    # past the float range: the squared weight (1e-155, 1e-310, 5e-324) or the stress (1e308, max)
    for displacement in (0.0, -0.01, np.nan, np.inf, 1e-155, 1e-310, 5e-324, 1e308,
                         1.7976931348623157e308):
        with pytest.raises(ValueError, match="^characteristic quantities must be positive"):
            CharacteristicScales(displacement=displacement)


def test_scales_accept_displacements_whose_derived_scales_are_finite():
    # 1 / 7.5e-155 squared is about 1.8e308, just inside the float range
    for displacement in (7.5e-155, 1e300):
        scales = CharacteristicScales(displacement=displacement)
        assert np.isfinite(scales.stress)
        assert np.isfinite(scales.complementarity_weight * scales.complementarity_weight)


# ---------------------------------------------------------------------------
# per-cell estimates


def _state(angle, weight, sn=0.0, st=(0.0, 0.0), un=0.0, ut=(0.0, 0.0)):
    """States of a single cell; the estimate is an array with one entry."""
    return ContactStates(np.array([sn], float), np.array([st], float), np.array([un], float),
                         np.array([ut], float), angle, weight)


def test_cell_estimate_zero_state():
    assert cell_scale_estimate(_state(0.0, 100.0))[0] == 0.0


def test_cell_estimate_unit_traction():
    assert cell_scale_estimate(_state(0.0, 100.0, sn=-1.0))[0] == 1.0


def test_cell_estimate_combines_traction_and_gap_removed_jump():
    # dilation tan = 0.2 with slip 0.05 gives gap 0.01; the normal jump
    # contributes through its excess over that gap.
    angle = np.arctan(0.2)
    state = _state(angle, 100.0, un=0.02, ut=(0.05, 0.0))
    g = gap(state.tangential_jump[0], angle)
    assert g == pytest.approx(0.01, rel=1e-12)
    expected = 100.0 * np.sqrt((0.02 - g) ** 2 + 0.05 ** 2)
    assert cell_scale_estimate(state)[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# power mean


def test_p_mean_constant_list():
    assert p_mean_scale([1.0, 1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)


def test_p_mean_two_values():
    # ((1 + 32) / 2)^(1/5)
    assert p_mean_scale([1.0, 2.0]) == pytest.approx(1.7518494810508827, rel=1e-14)


def test_p_mean_clamped_below():
    assert p_mean_scale([1e-20, 1e-20]) == SCALE_FLOOR


def test_p_mean_clamped_above():
    # an infinite estimate, or a fifth power past the float range, too
    for values in ([1e20], [1e70], [1.0, np.inf]):
        assert p_mean_scale(values) == SCALE_CEILING


def test_p_mean_between_min_and_max():
    rng = np.random.default_rng(2)
    for _ in range(50):
        vals = rng.uniform(0.1, 10.0, size=rng.integers(1, 20))
        mean = p_mean_scale(vals)
        assert vals.min() - 1e-12 <= mean <= vals.max() + 1e-12


def test_p_mean_monotone_in_each_entry():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.5, 2.0, 8)
    base = p_mean_scale(vals)
    for j in range(len(vals)):
        bumped = vals.copy()
        bumped[j] += 0.25
        assert p_mean_scale(bumped) > base


def test_p_mean_homogeneous():
    rng = np.random.default_rng(5)
    vals = rng.uniform(0.5, 2.0, 10)
    for k in (0.25, 3.0):
        assert p_mean_scale(k * vals) == pytest.approx(k * p_mean_scale(vals), rel=1e-12)


def test_p_mean_rejects_bad_input():
    with pytest.raises(ValueError):
        p_mean_scale([])
    with pytest.raises(ValueError):
        p_mean_scale([1.0, -0.5])
    with pytest.raises(ValueError):
        p_mean_scale([1.0, np.nan])
    with pytest.raises(ValueError):
        p_mean_scale([1.0, -np.inf])
