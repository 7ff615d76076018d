"""Step-length selection: residual-model and transition-controlled searches."""

import numpy as np
import pytest

import fracsolve.linesearch
import scalar_oracle
from fracsolve.contact import transition_values
from fracsolve.linesearch import (
    ALPHA_MIN,
    MAX_TIGHTENINGS,
    SAMPLE_COUNT,
    TRANSITION_TOLERANCE,
    SearchDiverged,
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


def test_residual_search_diverges_when_nothing_is_finite():
    with pytest.raises(SearchDiverged):
        search_residual(lambda a: np.full_like(a, np.nan), 1.0)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the fit's overflow is not under test
def test_constraint_search_reports_a_failed_root_search():
    # Near the float limit the fitted profiles are NaN inside their spans, so
    # the root finder raises; the search reports why instead of letting the
    # finder's exception escape. Under the default warning filters the fit's
    # overflow only warns, so this is how a run outside pytest meets it.
    big = 1.7e308

    def evaluator(alpha):
        normal = np.array([big * (0.3 - alpha), -big * (0.5 - alpha), big * (alpha - 0.9), 1.0])
        return np.stack([normal, np.zeros(4)])

    with pytest.raises(SearchDiverged, match=r"^constraint root search failed: "
                                             r"The function value at x=0.3 is NaN"):
        search_constraint(evaluator, [np.arange(4)])


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
