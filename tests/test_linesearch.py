"""Step-length selection: residual-model and transition-controlled searches."""

import warnings
from collections import Counter

import numpy as np
import pytest

import fracsolve.linesearch
import scalar_oracle
from fracsolve.contact import transition_values
from fracsolve.interpolation import fit
from fracsolve.linesearch import (
    ALPHA_MIN,
    MAX_TIGHTENINGS,
    SAMPLE_COUNT,
    TRANSITION_TOLERANCE,
    TRIAL_ALPHAS,
    Diverged,
    Strategy,
    search_constraint,
    search_residual,
)


# ---------------------------------------------------------------------------
# strategies


def test_strategy_values():
    assert {s.value for s in Strategy} == {
        "none", "residual", "constraint-const", "constraint-adaptive"}


# ---------------------------------------------------------------------------
# residual-model search


def test_residual_search_quadratic_lands_on_best_sample():
    # minimum of (a - 0.6)^2 over the 5-sample grid sits at the knot 0.5005;
    # the shape-limited model pins the model minimum to that knot
    outcome = search_residual(lambda a: (a - 0.6) ** 2, 0.36)
    assert outcome.alpha == pytest.approx(0.5005, abs=1e-12)
    assert outcome.evaluations == 5
    knots, samples = outcome.diagnostics["knots"], outcome.diagnostics["samples"]
    assert (knots[0], samples[0]) == (0.0, 0.36)
    assert len(knots) == len(samples) == 6


def test_residual_search_recovers_knot_centered_minimum():
    outcome = search_residual(lambda a: (a - 0.5005) ** 2, 0.5005 ** 2)
    assert outcome.alpha == pytest.approx(0.5005, abs=1e-12)


def test_residual_search_excludes_nonfinite_samples():
    def objective(a):
        return np.where(a > 0.9, np.inf, (a - 0.25) ** 2)

    outcome = search_residual(objective, 0.0625)
    # still pays for every trial sample, but restricts the model to the
    # largest finite step
    assert outcome.evaluations == 5
    assert outcome.alpha == pytest.approx(0.25075, abs=1e-9)
    assert outcome.alpha <= 0.75025 + 1e-15


def test_residual_search_stops_at_the_largest_finite_step():
    # the model decreases past the last finite sample; the search must not
    # extrapolate beyond it
    outcome = search_residual(lambda a: np.where(a > 0.9, np.inf, 1.0 - a), 1.0)
    assert outcome.alpha == np.linspace(ALPHA_MIN, 1.0, 5)[3]


def test_residual_search_monotone_decrease_takes_full_step():
    outcome = search_residual(lambda a: 1.0 / (1.0 + a), 1.0)
    assert outcome.alpha == 1.0


@pytest.mark.parametrize("trials, alpha", [
    ([1.7e308, 1.0, 1.0, 1.0, 1.0], 0.25075),
    ([1.0, 1.7e308, 1.0, 1.0, 1.0], 0.001),
    ([1e307, 1e300, 1.0, 1e308, 1.0], 0.75025),
])
def test_residual_search_fits_samples_near_the_float_limit(trials, alpha):
    # inf - inf and inf * 0 in the slope limiter are no error: the limiter
    # discards their NaNs. The last model is NaN at its last two knots, and
    # the search steps to the first, as np.argmin picks it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = search_residual(lambda a: np.array(trials), 1.0)
        slopes = fit(outcome.diagnostics["knots"], outcome.diagnostics["samples"]).derivatives
    assert outcome.alpha == alpha
    assert not np.isnan(slopes).any()


def test_residual_search_diverges_when_nothing_is_finite():
    with pytest.raises(Diverged):
        search_residual(lambda a: np.full_like(a, np.nan), 1.0)


SEARCH_ROWS = 2500


def _residual_objective(rng, r):
    """The trial values of row r, an objective on them and the value at 0.

    Values are generic (1e-8 to 1e8), small integers (ties and flat spots)
    or an exact quadratic; each trial step is inf or NaN with probability
    0.35, so every count of finite steps from 0 to 5 occurs.
    """
    kind = r % 3
    if kind == 0:
        values = rng.random(SAMPLE_COUNT + 1) * 10.0 ** rng.uniform(-8.0, 8.0)
    elif kind == 1:
        values = rng.integers(0, 4, SAMPLE_COUNT + 1).astype(float)
    else:
        values = (np.concatenate(([0.0], TRIAL_ALPHAS)) - rng.uniform(0.0, 1.0)) ** 2
    reference, values = float(values[0]), values[1:]
    lost = rng.random(SAMPLE_COUNT) < 0.35
    values[lost] = rng.choice([np.inf, np.nan], lost.sum())
    table = dict(zip(TRIAL_ALPHAS.tolist(), values.tolist()))
    return values, lambda alphas: np.array([table[a] for a in alphas.tolist()]), reference


def _bits(value):
    return np.float64(value).tobytes()


def test_residual_search_equals_scalar_oracle():
    rng = np.random.default_rng(231)
    knot_counts = Counter()
    lost_at = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in range(SEARCH_ROWS):
            values, objective, reference = _residual_objective(rng, r)
            lost_at |= {(i, np.isnan(v)) for i, v in enumerate(values) if not np.isfinite(v)}
            if not np.isfinite(values).any():
                with pytest.raises(Diverged):
                    scalar_oracle.search_residual(objective, reference)
                with pytest.raises(Diverged):
                    search_residual(objective, reference)
                knot_counts[1] += 1
                continue
            expected = scalar_oracle.search_residual(objective, reference)
            outcome = search_residual(objective, reference)
            knots, samples = zip(*expected.diagnostics["samples"])
            assert _bits(outcome.alpha) == _bits(expected.alpha)
            assert outcome.evaluations == expected.evaluations
            found = outcome.diagnostics["model_minimum"]
            model = expected.diagnostics["model_minimum"]
            assert _bits(found) == _bits(model) or np.isnan(found) and np.isnan(model)
            assert outcome.diagnostics["knots"] == list(knots)
            assert np.array(outcome.diagnostics["samples"]).tobytes() == np.array(samples).tobytes()
            knot_counts[len(knots)] += 1
    # Every knot count occurs (1, the reference alone, is the diverged case),
    # and inf and NaN are lost at every trial step.
    assert set(knot_counts) == set(range(1, SAMPLE_COUNT + 2)), knot_counts
    assert lost_at == {(i, nan) for i in range(SAMPLE_COUNT) for nan in (False, True)}


# ---------------------------------------------------------------------------
# transition-controlled search


def _linear_evaluator(slopes, intercepts=None):
    slopes = np.asarray(slopes, dtype=float)
    if intercepts is None:
        intercepts = np.full_like(slopes, 0.5)

    def evaluator(alpha):
        normal = intercepts - slopes * alpha
        return np.stack([normal, np.zeros_like(normal)])

    return evaluator


def test_constraint_search_single_linear_cell():
    # indicator 0.5 - alpha crosses zero at 0.5; tolerance 0.3 allows an
    # overshoot to -0.3, hence alpha = 0.8
    outcome = search_constraint(_linear_evaluator([1.0]), [np.array([0])])
    assert outcome.alpha == pytest.approx(0.8, abs=1e-10)
    assert outcome.tightening_rounds == 0
    assert outcome.evaluations == 6
    assert outcome.transitions_per_fracture == (1,)


def test_constraint_search_negative_reference_sign():
    def evaluator(alpha):
        normal = np.array([-0.5 + alpha])
        return np.stack([normal, np.zeros(1)])

    outcome = search_constraint(evaluator, [np.array([0])])
    assert outcome.alpha == pytest.approx(0.8, abs=1e-10)


def test_constraint_search_no_transition_full_step():
    def evaluator(alpha):
        return np.stack([np.array([0.5 + alpha]), np.zeros(1)])

    outcome = search_constraint(evaluator, [np.array([0])])
    assert outcome.alpha == 1.0
    assert outcome.evaluations == 2
    assert outcome.tightening_rounds == 0
    assert outcome.final_tolerance == TRANSITION_TOLERANCE
    assert outcome.transitions_per_fracture == (0,)


def test_constraint_search_tightening_trace():
    # ten-cell fracture, four cells transitioning with distinct slopes: the
    # 20% budget allows 2 moved cells, so the tolerance halves twice
    slopes = np.array([1.0, 1.1, 1.2, 1.3] + [0.0] * 6)
    outcome = search_constraint(_linear_evaluator(slopes), [np.arange(10)])

    assert outcome.tightening_rounds == 2
    assert outcome.final_tolerance == pytest.approx(0.3 * 0.25, rel=1e-15)
    assert outcome.transitions_per_fracture == (2,)
    assert outcome.alpha == pytest.approx(0.575 / 1.3, abs=1e-9)
    assert outcome.evaluations == 7

    candidates = outcome.diagnostics["candidates"]
    assert len(candidates) == 3
    assert candidates[0] == pytest.approx(0.8 / 1.3, abs=1e-9)
    assert candidates[1] == pytest.approx(0.65 / 1.3, abs=1e-9)
    assert np.all(np.diff(candidates) <= 1e-12)


def test_constraint_search_fits_each_profile_at_most_once(monkeypatch):
    # Full-step overshoots 0.5, 0.6, 0.7, 0.8, 0.2 and 0.1: the first round
    # flags four cells, the second (tolerance 0.15) a fifth, the third
    # (0.075) a sixth. One fit covers all of them, in the round that first
    # flags a cell, and the outcome is the oracle's.
    slopes = np.array([1.0, 1.1, 1.2, 1.3, 0.7, 0.6] + [0.0] * 4)
    evaluator = _linear_evaluator(slopes)
    full = transition_values(evaluator(0.0), evaluator(1.0))
    assert np.count_nonzero(full > TRANSITION_TOLERANCE) == 4
    calls = []
    batched_fit = fracsolve.linesearch.fit

    def counting_fit(knots, values):
        calls.append(np.shape(values))
        return batched_fit(knots, values)

    monkeypatch.setattr(fracsolve.linesearch, "fit", counting_fit)
    outcome = search_constraint(evaluator, [np.arange(10)])

    assert outcome.tightening_rounds == 2
    assert outcome.diagnostics["flagged"] == 6
    assert calls == [(6, SAMPLE_COUNT)]
    expected = scalar_oracle.search_constraint(evaluator, [np.arange(10)])
    assert _summary(outcome) == _summary(expected)


def test_constraint_search_clamps_to_alpha_min():
    outcome = search_constraint(_linear_evaluator([1000.0]), [np.array([0])])
    assert outcome.alpha == ALPHA_MIN


def test_constraint_search_tightening_cap():
    # two identical crossing cells always exceed the 1-cell budget, so the
    # tolerance halves until the cap
    outcome = search_constraint(_linear_evaluator([1.0, 1.0]), [np.arange(2)])
    assert outcome.tightening_rounds == MAX_TIGHTENINGS
    assert outcome.final_tolerance == pytest.approx(0.3 * 2.0 ** -10, rel=1e-15)
    assert outcome.transitions_per_fracture == (2,)
    assert outcome.alpha == pytest.approx(0.5 + 0.3 * 2.0 ** -10, abs=1e-9)
    assert len(outcome.diagnostics["candidates"]) == 11


def test_constraint_search_bounds_overshoot_at_accepted_step():
    rng = np.random.default_rng(30)
    for _ in range(10):
        slopes = rng.uniform(0.6, 2.0, 6)
        evaluator = _linear_evaluator(slopes)
        outcome = search_constraint(evaluator, [np.arange(6)])
        ref = evaluator(0.0)
        at = evaluator(outcome.alpha)
        overshoot = transition_values(ref[0], at[0])
        assert np.all(overshoot <= outcome.final_tolerance + 1e-8)


def test_constraint_search_scale_division_is_exact():
    # dividing the indicators by a power of two is bitwise exact, so passing
    # the scale and pre-dividing the evaluator must agree exactly
    slopes = np.array([1.0, 1.1, 1.2, 1.3] + [0.0] * 6)
    raw = _linear_evaluator(slopes)
    cells = [np.arange(10)]

    scaled = search_constraint(raw, cells, scale=4.0)
    pre_divided = search_constraint(lambda a: raw(a) / 4.0, cells)

    assert scaled.alpha == pre_divided.alpha
    assert scaled.tightening_rounds == pre_divided.tightening_rounds
    assert scaled.transitions_per_fracture == pre_divided.transitions_per_fracture
    assert scaled.diagnostics["candidates"] == pre_divided.diagnostics["candidates"]


def _random_profile_evaluator(rng, n):
    # quadratic indicator profiles on both rows, about a third of them
    # crossing zero; some tangential cells masked to zero and a few cells
    # non-finite on a window of steps, so both fitted roots and fallback
    # steps are exercised
    start = rng.choice([-1.0, 1.0], (2, n)) * rng.uniform(0.2, 1.0, (2, n))
    slope = -start * np.where(rng.random((2, n)) < 0.35, rng.uniform(1.2, 3.0, (2, n)),
                              rng.uniform(-1.0, 0.8, (2, n)))
    curve = rng.uniform(-0.2, 0.2, (2, n))
    masked = rng.random(n) < 0.3
    start[1, masked] = slope[1, masked] = curve[1, masked] = 0.0
    window = np.full((2, n), np.inf)
    window[0, rng.choice(n, 4, replace=False)] = rng.uniform(0.1, 0.6, 4)
    fill = rng.choice([np.nan, np.inf, -np.inf], (2, n))

    def evaluator(alpha):
        values = start + slope * alpha + curve * alpha * alpha
        return np.where((window < alpha) & (alpha < window + 0.3), fill, values)

    return evaluator


def _summary(outcome):
    return (outcome.alpha, outcome.evaluations, outcome.tightening_rounds,
            outcome.final_tolerance, outcome.transitions_per_fracture,
            outcome.diagnostics["flagged"], outcome.diagnostics["candidates"])


@pytest.mark.parametrize("seed", range(8))
def test_constraint_search_matches_per_family_reference(seed):
    rng = np.random.default_rng(300 + seed)
    n = 24
    cells = np.split(rng.permutation(n), [5, 14])
    evaluator = _random_profile_evaluator(rng, n)
    scale = float(rng.choice([1.0, 0.37, 2.5]))

    outcome = search_constraint(evaluator, cells, scale=scale)
    expected = scalar_oracle.search_constraint(evaluator, cells, scale=scale)
    assert _summary(outcome) == _summary(expected)


def _near_float_limit(big):
    # 4 cells whose normal indicator samples overflow the fit's secant products
    def evaluator(alpha):
        normal = np.array([big * (0.3 - alpha), -big * (0.5 - alpha), big * (alpha - 0.9), 1.0])
        return np.stack([normal, np.zeros(4)])
    return evaluator


def test_constraint_search_fits_profiles_near_the_float_limit():
    # the fit's overflow is no error: the first cell still limits the step
    assert search_constraint(_near_float_limit(1e300), [np.arange(4)]).alpha == 0.3


def test_constraint_search_reports_a_failed_root_search():
    # Nearer the float limit the fitted profiles are NaN inside their spans,
    # so the root finder raises; the search reports why instead of letting
    # the finder's exception escape.
    with pytest.raises(Diverged, match=r"^constraint root search failed: "
                                       r"The function value at x=0.3 is NaN"):
        search_constraint(_near_float_limit(1.7e308), [np.arange(4)])


def test_constraint_search_falls_back_to_alpha_min():
    # an infinite reference cannot be fitted, and no finite sample keeps
    # its sign, so the cell limits the step to alpha_min
    def evaluator(alpha):
        return np.stack([np.array([np.inf if alpha == 0.0 else -0.5 - alpha]), np.zeros(1)])

    outcome = search_constraint(evaluator, [np.array([0])])
    assert outcome.diagnostics["candidates"] == [ALPHA_MIN]
    assert outcome.alpha == ALPHA_MIN
    assert outcome.evaluations == SAMPLE_COUNT + 1


@pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
def test_constraint_search_rejects_nonpositive_scale(scale):
    with pytest.raises(ValueError):
        search_constraint(_linear_evaluator([1.0]), [np.array([0])], scale=scale)


def test_transition_values_scale_homogeneous():
    rng = np.random.default_rng(31)
    ref = rng.uniform(-1, 1, 30)
    trial = rng.uniform(-1, 1, 30)
    for k in (0.5, 4.0):
        assert np.allclose(transition_values(k * ref, k * trial),
                           k * transition_values(ref, trial), atol=1e-15)
