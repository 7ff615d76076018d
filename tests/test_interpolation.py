"""Shape-preserving cubic interpolation, root finding, and minimization."""

import numpy as np
import pytest

from fracsolve.interpolation import MonotoneCubic, evaluate, find_minimum, find_root, fit


def _dense(a=0.0, b=1.0, n=2001):
    return np.linspace(a, b, n)


# ---------------------------------------------------------------------------
# fitting and evaluation


def test_interpolates_knots_exactly():
    rng = np.random.default_rng(20)
    for _ in range(10):
        x = np.sort(rng.uniform(0, 1, 6))
        x[0], x[-1] = 0.0, 1.0
        if np.any(np.diff(x) < 1e-3):
            continue
        y = rng.uniform(-2, 2, 6)
        spline = fit(x, y)
        assert np.allclose(evaluate(spline, x), y, atol=1e-14)


def test_linear_data_reproduced_exactly():
    spline = fit([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    assert evaluate(spline, 0.5) == pytest.approx(0.5, abs=1e-15)
    rng = np.random.default_rng(21)
    for _ in range(10):
        a, b = rng.uniform(-3, 3, 2)
        x = np.sort(rng.uniform(0, 2, 5))
        x[0], x[-1] = 0.0, 2.0
        if np.any(np.diff(x) < 1e-3):
            continue
        line = fit(x, a * x + b)
        t = _dense(0.0, 2.0, 500)
        assert np.allclose(evaluate(line, t), a * t + b, atol=1e-12)


def test_hat_data_does_not_overshoot():
    spline = fit([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert evaluate(spline, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert np.max(evaluate(spline, _dense(0.0, 2.0))) <= 1.0 + 1e-12


def test_monotone_data_gives_monotone_interpolant():
    # the flat middle segment tempts an unlimited cubic into oscillation
    spline = fit([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.1, 10.0])
    vals = evaluate(spline, _dense(0.0, 3.0, 4001))
    assert np.all(np.diff(vals) >= -1e-12)


def test_two_point_fit_is_the_secant_line():
    spline = fit([0.0, 2.0], [1.0, 5.0])
    t = _dense(0.0, 2.0, 100)
    assert np.allclose(evaluate(spline, t), 1.0 + 2.0 * t, atol=1e-13)


def test_evaluate_scalar_and_array_agree():
    spline = fit([0.0, 0.5, 1.0], [0.3, -0.1, 0.4])
    t = np.array([0.1, 0.5, 0.9])
    arr = evaluate(spline, t)
    assert arr.shape == (3,)
    for ti, vi in zip(t, arr):
        assert evaluate(spline, float(ti)) == vi


def test_shifted_adds_constant():
    spline = fit([0.0, 0.4, 1.0], [0.3, -0.2, 0.9])
    shifted = spline.shifted(0.25)
    t = _dense()
    assert np.allclose(evaluate(shifted, t), evaluate(spline, t) + 0.25, atol=1e-13)
    assert np.array_equal(shifted.values, spline.values + 0.25)
    assert np.array_equal(shifted.derivatives, spline.derivatives)


def test_fit_rejects_bad_data():
    # One profile and a batch of it fail alike: the same error, the same message.
    cases = [
        ([0.0], [1.0]),
        ([0.0, 1.0], [1.0]),
        ([0.0, 0.0], [1.0, 2.0]),
        ([1.0, 0.0], [0.0, 1.0]),
        ([0.0, 1.0], [np.inf, 0.0]),
        ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
        ([0.0, -np.inf], [0.0, 1.0]),
        ([1.0, 0.0, 2.0], [0.0, 1.0, np.nan]),  # unsorted and non-finite: finiteness first
    ]
    for knots, values in cases:
        with pytest.raises(ValueError) as single:
            fit(knots, values)
        with pytest.raises(ValueError) as batch:
            fit(knots, [values])
        assert str(single.value) == str(batch.value)
    assert str(single.value) == "interpolation data must be finite"


# ---------------------------------------------------------------------------
# root finding


def _row(knots, values):
    """A one-row batch, the shape ``find_root`` takes."""
    return fit(knots, [values])


def test_find_root_linear_profile():
    spline = _row([0.0, 1.0], [0.8, -0.2])
    (root,) = find_root(spline)
    assert root == pytest.approx(0.8, abs=1e-10)


def test_find_root_none_when_sign_constant():
    spline = _row([0.0, 0.5, 1.0], [1.0, 0.4, 0.1])
    (root,) = find_root(spline)
    assert np.isnan(root)


def test_find_root_crossing_in_second_interval():
    spline = _row([0.0, 0.5, 1.0], [1.0, 0.5, -1.0])
    (root,) = find_root(spline)
    assert not np.isnan(root)
    assert 0.5 < root < 1.0
    assert abs(evaluate(spline, root)[0]) <= 1e-9


def test_find_root_returns_smallest_zero():
    # sign pattern + - + has two crossings; the scan must stop at the first
    spline = _row([0.0, 0.3, 0.6, 1.0], [1.0, -0.5, -0.4, 1.0])
    (root,) = find_root(spline)
    assert not np.isnan(root)
    assert root < 0.3
    assert abs(evaluate(spline, root)[0]) <= 1e-9


def test_find_root_exact_knot_zero():
    spline = _row([0.0, 0.5, 1.0], [0.5, 0.0, 0.5])
    assert find_root(spline)[0] == pytest.approx(0.5, abs=1e-12)


def test_find_root_sign_change_of_tiny_values():
    # f0 * f1 underflows to -0.0 here, which is not a sign change
    spline = _row([0.0, 1.0], [1e-200, -1e-200])
    assert find_root(spline)[0] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# minimization


def test_find_minimum_monotone_decreasing_picks_right_end():
    spline = fit([0.0, 0.5, 1.0], [1.0, 0.6, 0.2])
    t, v = find_minimum(spline, (0.0, 1.0))
    assert t == 1.0
    assert v == pytest.approx(0.2, abs=1e-14)


def test_find_minimum_interior_dip():
    spline = fit([0.0, 0.5, 1.0], [1.0, 0.1, 1.0])
    t, v = find_minimum(spline, (0.0, 1.0))
    assert 0.0 < t < 1.0
    assert v <= 0.1


def test_find_minimum_constant_data_prefers_left():
    spline = fit([0.0, 0.5, 1.0], [0.7, 0.7, 0.7])
    t, v = find_minimum(spline, (0.0, 1.0))
    assert t == 0.0
    assert v == pytest.approx(0.7, abs=1e-15)


def test_find_minimum_v_shape_lands_on_best_knot():
    # flat slope at the data minimum pins the interpolant minimum to the knot
    spline = fit([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.3, 0.1, 0.4, 1.0])
    t, v = find_minimum(spline, (0.0, 1.0))
    assert t == pytest.approx(0.5, abs=1e-12)
    assert v == pytest.approx(0.1, abs=1e-12)


def test_find_minimum_never_above_best_sample():
    rng = np.random.default_rng(22)
    for _ in range(25):
        x = np.linspace(0.0, 1.0, 5)
        y = rng.uniform(-1, 1, 5)
        spline = fit(x, y)
        _, v = find_minimum(spline, (0.0, 1.0))
        assert v <= y.min() + 1e-12


def test_find_minimum_rejects_reversed_interval():
    spline = fit([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        find_minimum(spline, (1.0, 0.0))
