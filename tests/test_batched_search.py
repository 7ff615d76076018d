"""Batched interpolation kernels and constraint search against the scalar oracle.

The batched ``fit`` and ``find_root`` must return, bit for bit, what the
scalar kernels of ``scalar_oracle`` (a per-knot slope loop and
``scipy.optimize.brentq``) return row by row, fail the way they fail, and
leave every Newton trajectory as the scalar constraint search leaves it.
``find_minimum``, which runs on Python floats, must return the scalar
per-piece oracle's abscissa and value, inf and NaN included, as Python floats.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import brenth, brentq

import fracsolve.newton
import scalar_oracle
from fracsolve import interpolation
from fracsolve.bench import resolve_criterion
from fracsolve.interpolation import MonotoneCubic, evaluate, find_minimum, find_root, fit
from fracsolve.linesearch import TRIAL_ALPHAS, Strategy
from fracsolve.models import preset
from fracsolve.newton import NewtonOptions, SolveStatus, solve

ROWS = 25_000  # per sample count, 100k rows over the four counts
KINDS = 7


def _profiles(rng, k, m):
    """k profiles on m knots and one shift per row.

    Magnitudes span 1e-8 to 1e8. Row r is of kind r % 7: generic; zero knot
    values; an exact tie between neighbours; values of order 1e-200, whose
    secant products underflow to zero; flat (every other one shifted to
    identically zero); shifted to zero at a knot; shifted to zero at the
    right end and positive before it.
    """
    mag = 10.0 ** rng.uniform(-8.0, 8.0, (k, 1))
    y = rng.standard_normal((k, m)) * mag
    shift = rng.standard_normal(k) * mag[:, 0]
    kind = np.arange(k) % KINDS
    knot = rng.integers(0, m, k)

    y[(kind == 1)[:, None] & (rng.random((k, m)) < 0.4)] = 0.0
    tie = np.flatnonzero(kind == 2)
    left = np.minimum(knot[tie], m - 2)
    y[tie, left + 1] = y[tie, left]
    tiny = kind == 3
    y[tiny] = rng.choice([-1e-200, 1e-200], (tiny.sum(), m)) * rng.integers(1, 4, (tiny.sum(), m))
    shift[tiny] = rng.choice([-1e-200, 0.0, 1e-200], tiny.sum())
    flat = kind == 4
    y[flat] = y[flat, :1]
    zeroed = flat & (np.arange(k) % 2 == 0)
    shift[zeroed] = -y[zeroed, 0]
    at_knot = np.flatnonzero(kind == 5)
    shift[at_knot] = -y[at_knot, knot[at_knot]]
    at_end = kind == 6
    y[at_end, :-1] = y[at_end, -1:] + np.abs(y[at_end, :-1])
    shift[at_end] = -y[at_end, -1]
    return y, shift


def _oracle(grid, y, shift):
    """Slopes, and roots with NaN for None, of the scalar kernels row by row."""
    slopes = np.empty_like(y)
    roots = np.empty(len(y))
    for r in range(len(y)):
        spline = scalar_oracle.fit(np.column_stack([grid, y[r]]))
        slopes[r] = spline.derivatives
        root = scalar_oracle.find_root(spline.shifted(shift[r]), (0.0, 1.0))
        roots[r] = np.nan if root is None else root
    return slopes, roots


@pytest.mark.parametrize("m", [2, 3, 5, 6])
def test_batched_fit_and_roots_equal_scalar_oracle_bitwise(m):
    rng = np.random.default_rng(500 + m)
    y, shift = _profiles(rng, ROWS, m)
    grid = np.linspace(0.0, 1.0, m)

    batch = fit(grid, y)
    roots = find_root(batch.shifted(shift))
    slopes, expected = _oracle(grid, y, shift)

    assert batch.derivatives.tobytes() == slopes.tobytes()
    assert roots.tobytes() == expected.tobytes()
    # Every outcome of the scan occurs: no root, a root at either end or at
    # an interior knot, and many roots solved between knots.
    at_knot = np.isin(roots, grid)
    assert np.isnan(roots).any()
    assert (roots == 0.0).any() and (roots == 1.0).any()
    assert m == 2 or np.isin(roots, grid[1:-1]).any()
    assert np.count_nonzero(~np.isnan(roots) & ~at_knot) > ROWS // 10


def test_extrapolation_branch_matches_brentq():
    # brenth differs from brentq only in the step taken when the last three
    # iterates are distinct (hyperbolic instead of inverse quadratic), so a
    # row on which they disagree took that extrapolation step.
    rng = np.random.default_rng(41)
    grid = np.linspace(0.0, 1.0, 5)
    y, shift = rng.standard_normal((2000, 5)), rng.standard_normal(2000)
    roots = find_root(fit(grid, y).shifted(shift))
    extrapolated = 0
    for r in range(len(y)):
        spline = scalar_oracle.fit(np.column_stack([grid, y[r]])).shifted(shift[r])
        values = scalar_oracle.evaluate(spline, grid)
        change = np.flatnonzero(np.signbit(values[:-1]) != np.signbit(values[1:]))
        if not change.size or np.any(values[:change[0] + 1] == 0.0):
            continue
        a, b = grid[change[0]], grid[change[0] + 1]
        f = lambda t: scalar_oracle.evaluate(spline, t)  # noqa: E731
        expected = brentq(f, a, b, xtol=1e-12)
        if brenth(f, a, b, xtol=1e-12) != expected:
            extrapolated += 1
            assert roots[r] == expected, r
    assert extrapolated > 500


def test_batched_evaluate_equals_scalar_oracle_bitwise():
    rng = np.random.default_rng(43)
    grid = np.linspace(0.0, 1.0, 6)
    y, _ = _profiles(rng, 500, 6)
    t = np.concatenate([grid, rng.uniform(-0.1, 1.1, 40)])
    values = evaluate(fit(grid, y), t)
    expected = np.stack([scalar_oracle.evaluate(scalar_oracle.fit(np.column_stack([grid, row])), t)
                         for row in y])
    assert values.tobytes() == expected.tobytes()
    assert evaluate(fit(grid, y), 0.3).shape == (500,)


MINIMUM_ROWS = 17_000  # per knot count, 102k over the six counts
ALPHA_MIN = 1e-3


PROFILE_ROWS = 3000  # single profiles on 2 to 6 knots
EXTREMES = [-1.7e308, -1e308, -1e300, -1.0, -0.0, 0.0, 1e-320, 1.0, 1e300, 1e308, 1.7e308]


def _single_profiles(rng, count):
    """count (knots, values) pairs on 2 to 6 knots.

    Knots are uniform on [0, 1], random with ends 0 and 1, or 0 and m - 1 of
    the residual search's trial steps. Row r is of kind r % 5: generic values
    of magnitude 1e-8 to 1e8; magnitudes 1e-300 to 1e300; small integers
    (flat spots and ties); signed zeros and 1e-320; values near the float
    limit, whose secants reach inf and -inf.
    """
    cases = []
    for r in range(count):
        m = int(rng.integers(2, 7))
        knot_kind = r // 5 % 3
        if knot_kind == 0:
            knots = np.linspace(0.0, 1.0, m)
        elif knot_kind == 1:
            knots = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, m - 2)), [1.0]))
        else:
            knots = np.concatenate(([0.0], np.sort(rng.choice(TRIAL_ALPHAS, m - 1,
                                                              replace=False))))
        kind = r % 5
        if kind < 2:
            top = 8.0 if kind == 0 else 300.0
            values = rng.standard_normal(m) * 10.0 ** rng.uniform(-top, top, m)
        elif kind == 2:
            values = rng.integers(-2, 3, m).astype(float)
        elif kind == 3:
            values = rng.choice([-0.0, 0.0, 1e-320, -1e-320], m)
        else:
            values = rng.choice(EXTREMES, m)
        cases.append((knots, values))
    return cases


def test_single_profile_fit_equals_its_batch_row_and_scalar_oracle_bitwise():
    rng = np.random.default_rng(230)
    seen = {"two knots": 0, "inf - inf": 0, "inf * 0": 0, "tie": 0, "-0.0 slope": 0}
    for knots, values in _single_profiles(rng, PROFILE_ROWS):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = fit(knots, values).derivatives
        row = fit(knots, values[None]).derivatives[0]
        with np.errstate(all="ignore"):  # the oracle's numpy scalars warn near the float limit
            oracle = scalar_oracle.fit(np.column_stack([knots, values])).derivatives
            sec = np.diff(values) / np.diff(knots)
            seen["inf - inf"] += bool(np.isnan(sec[:-1] + sec[1:]).any())
            seen["inf * 0"] += bool(np.isnan(sec[:-1] * sec[1:]).any())
            seen["tie"] += bool((np.diff(values) == 0.0).any())
        assert single.tobytes() == row.tobytes() == oracle.tobytes(), (knots, values)
        seen["two knots"] += len(knots) == 2
        seen["-0.0 slope"] += bool((np.signbit(single) & (single == 0.0)).any())
    assert min(seen.values()) > PROFILE_ROWS // 100, seen


def _minimum_cases(rng, k, m):
    """k (knots, values, interval) cases on m knots.

    Knots are uniform on [0, 1], random with ends 0 and 1, or those of the
    residual search: 0 and m - 1 of the six trial steps from ALPHA_MIN to 1.
    Values are generic with magnitudes 1e-8 to 1e8, flat, small integers
    (exact ties), or integer lines, whose pieces on uniform knots with m - 1 a
    power of two have qa == 0. The interval is (0, 1), (ALPHA_MIN, last knot)
    or random, its ends often on a knot and sometimes equal.
    """
    trials = np.linspace(ALPHA_MIN, 1.0, 6)
    knot_kind, value_kind, interval_kind = rng.integers(0, [3, 4, 3], (k, 3)).T
    knots = np.empty((k, m))
    knots[knot_kind == 0] = np.linspace(0.0, 1.0, m)
    random = knot_kind == 1
    knots[random] = np.sort(rng.uniform(0.0, 1.0, (random.sum(), m)), axis=1)
    knots[random, 0], knots[random, -1] = 0.0, 1.0
    residual = np.flatnonzero(knot_kind == 2)
    knots[residual, 0] = 0.0
    for r in residual:
        knots[r, 1:] = np.sort(rng.choice(trials, m - 1, replace=False))

    mag = 10.0 ** rng.uniform(-8.0, 8.0, (k, 1))
    values = rng.standard_normal((k, m)) * mag
    flat = value_kind == 1
    values[flat] = values[flat, :1]
    ties = value_kind == 2
    values[ties] = rng.integers(-2, 3, (ties.sum(), m))
    line = value_kind == 3
    slope, offset = rng.integers(-3, 4, (2, line.sum(), 1))
    values[line] = slope * np.arange(m) + offset

    on_knot = knots[np.arange(k)[:, None], rng.integers(0, m, (k, 2))]
    ends = np.where(rng.random((k, 2)) < 0.5, on_knot, rng.uniform(-0.1, 1.1, (k, 2)))
    same = rng.random(k) < 0.05
    ends[same, 1] = ends[same, 0]
    intervals = np.where((interval_kind == 0)[:, None], [0.0, 1.0],
                         np.where((interval_kind == 1)[:, None],
                                  np.column_stack([np.full(k, ALPHA_MIN), knots[:, -1]]),
                                  np.sort(ends, axis=1)))
    return knots, values, intervals


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_find_minimum_equals_scalar_oracle_bitwise(m):
    rng = np.random.default_rng(600 + m)
    knots, values, intervals = _minimum_cases(rng, MINIMUM_ROWS, m)
    found = np.empty((MINIMUM_ROWS, 2))
    expected = np.empty((MINIMUM_ROWS, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in range(MINIMUM_ROWS):
            spline = fit(knots[r], values[r])
            found[r] = find_minimum(spline, intervals[r])
            expected[r] = scalar_oracle.find_minimum(spline, intervals[r])
    assert found.tobytes() == expected.tobytes()
    # The minimum lands on each kind of candidate: an interval end, an
    # interior knot, and (a two-knot fit is a line) a stationary point
    # strictly inside a piece.
    t = found[:, 0]
    on_knot = (knots == t[:, None]).any(axis=1)
    inside = (intervals[:, 0] < t) & (t < intervals[:, 1])
    assert (t == intervals[:, 0]).any() and (t == intervals[:, 1]).any()
    assert m == 2 or np.count_nonzero(on_knot & inside) > MINIMUM_ROWS // 100
    assert m == 2 or np.count_nonzero(~on_knot & inside) > MINIMUM_ROWS // 100


def _assert_same_minimum(spline, interval):
    with np.errstate(all="ignore"):  # the oracle's array evaluation warns on inf and NaN
        expected = scalar_oracle.find_minimum(spline, interval)
    found = find_minimum(spline, interval)
    assert type(found[0]) is float and type(found[1]) is float
    assert np.array(found).tobytes() == np.array(expected, dtype=float).tobytes()
    return found


_RESIDUAL_KNOTS = np.concatenate(([0.0], TRIAL_ALPHAS))


@pytest.mark.parametrize("knots, values, slopes, interval, minimum", [
    # Every knot from 1 on is NaN (0 * inf in the Hermite form): the first
    # NaN candidate wins, not the finite 0 before it nor the last NaN.
    ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 1, np.inf, np.inf, 1], (0, 4), (1.0, np.nan)),
    # Samples near the float limit fit a model that is NaN at its last two
    # knots; the residual search steps to the first of them.
    (_RESIDUAL_KNOTS, [1, 1e307, 1e300, 1, 1e308, 1], None, (ALPHA_MIN, 1.0), (0.75025, np.nan)),
    # Linear data: qa == qb == 0 on every piece, so no stationary point.
    ([0, 0.5, 1], [0, 1, 2], None, (0, 1), (0.0, 0.0)),
    # qa == 0, qb != 0: the linear root s = 1/2 is the minimum.
    ([0, 1], [0, 0], [-1, 1], (0, 1), (0.5, -0.25)),
    # qa == 3, qb == -2, qc == 1: negative discriminant, no stationary point.
    ([0, 1], [0, 1], [1, 2], (0, 1), (0.0, 0.0)),
    # a == b on a knot, inside a piece, and past the last knot.
    ([0, 0.5, 1], [0.3, -0.1, 0.4], None, (0.5, 0.5), (0.5, -0.1)),
    ([0, 0.5, 1], [0.3, -0.1, 0.4], None, (0.25, 0.25), (0.25, None)),
    ([0, 0.5, 1], [0.3, -0.1, 0.4], None, (1.5, 1.5), (1.5, None)),
], ids=["first-nan", "nan-model", "qa-qb-zero", "linear-root", "negative-discriminant",
        "point-on-knot", "point-in-piece", "point-past-knots"])
def test_find_minimum_equals_scalar_oracle_on_edge_profiles(knots, values, slopes, interval,
                                                            minimum):
    knots, values = np.array(knots, dtype=float), np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        spline = (fit(knots, values) if slopes is None
                  else MonotoneCubic(knots, values, np.array(slopes, dtype=float)))
    t, v = _assert_same_minimum(spline, interval)
    assert t == minimum[0]
    assert minimum[1] is None or np.array_equal(v, minimum[1], equal_nan=True)


def test_find_minimum_equals_scalar_oracle_near_the_float_limit():
    # Samples at the float limit on the residual search's knots: the fitted
    # slopes are often infinite, so candidate values are inf or NaN.
    rng = np.random.default_rng(23)
    extremes = np.array([-1.7e308, -1e308, -1e300, -1.0, 0.0, 1.0, 1e300, 1e308, 1.7e308])
    minima = []
    for r in range(2000):
        m = rng.integers(2, 7)
        knots = np.concatenate(([0.0], np.sort(rng.choice(_RESIDUAL_KNOTS[1:], m - 1,
                                                          replace=False))))
        with np.errstate(all="ignore"):
            spline = fit(knots, rng.choice(extremes, m))
        interval = (ALPHA_MIN, knots[-1]) if r % 2 else (0.0, 1.0)
        minima.append(_assert_same_minimum(spline, interval)[1])
    assert np.isnan(minima).any() and np.isneginf(minima).any()


def test_nan_iterate_raises_value_error_like_brentq():
    # Both knot values are finite, but inside the one wide piece h * m
    # overflows and the cubic is inf - inf, so the first iterate is NaN.
    knots, values, slopes = np.array([0.0, 1e300]), np.array([1.0, -1.0]), np.array([1e10, 1e10])
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="NaN"):
            scalar_oracle.find_root(scalar_oracle.MonotoneCubic(knots, values, slopes),
                                    (0.0, 1e300))
        with pytest.raises(ValueError, match="NaN"):
            find_root(MonotoneCubic(knots, np.stack([-values, values]),
                                    np.stack([slopes, slopes])))


def test_no_convergence_raises_runtime_error_like_brentq(monkeypatch):
    grid = np.linspace(0.0, 1.0, 5)
    profile = np.array([1.0, 0.7, 0.2, -0.4, -1.0])
    spline = scalar_oracle.fit(np.column_stack([grid, profile]))
    with pytest.raises(RuntimeError):
        brentq(lambda t: scalar_oracle.evaluate(spline, t), 0.5, 0.75, xtol=1e-12, maxiter=2)
    monkeypatch.setattr(interpolation, "MAX_ITERATIONS", 2)
    with pytest.raises(RuntimeError):
        find_root(fit(grid, [profile]))


TRAJECTORIES = [
    ("single-tpm", 6, Strategy.CONSTRAINT_ADAPTIVE, 1e-4),
    ("single-tpm", 6, Strategy.CONSTRAINT_ADAPTIVE, 1.0),
    ("single-pm", 6, Strategy.CONSTRAINT_CONST, 1e-2),
    ("multi4-tpm", 4, Strategy.CONSTRAINT_ADAPTIVE, 1e-2),
]


def _solve(name, cells, strategy, u_c):
    model = preset(name, characteristic_displacement=u_c, cells_per_side=cells)
    return solve(model, options=NewtonOptions(line_search=strategy,
                                              criterion=resolve_criterion(name)))


@pytest.mark.parametrize("name, cells, strategy, u_c", TRAJECTORIES,
                         ids=[f"{c[0]}-{c[2].value}-{c[3]:g}" for c in TRAJECTORIES])
def test_solve_trajectory_equals_scalar_search(monkeypatch, name, cells, strategy, u_c):
    batched = _solve(name, cells, strategy, u_c)
    monkeypatch.setattr(fracsolve.newton, "search_constraint", scalar_oracle.search_constraint)
    scalar = _solve(name, cells, strategy, u_c)
    alphas = [record.search.alpha for record in batched.trace if record.search is not None]
    assert alphas == [record.search.alpha for record in scalar.trace if record.search is not None]
    assert batched.tightening_rounds == scalar.tightening_rounds
    assert batched.x.tobytes() == scalar.x.tobytes()
    assert min(alphas) < 1.0  # the search damped at least one step


def test_constraint_solve_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = _solve("single-tpm", 6, Strategy.CONSTRAINT_ADAPTIVE, 1e-4)
    assert report.status is SolveStatus.CONVERGED
