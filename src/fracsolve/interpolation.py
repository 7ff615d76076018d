"""Shape-preserving cubic interpolation of sampled line-search profiles.

Fritsch-Carlson construction (SIAM J. Numer. Anal. 17(2), 1980): knot slopes
are limited so the interpolant is monotone wherever the data is monotone
(zero slope at local extrema of the data, magnitudes capped at three times
the adjacent secants). A fit holds one profile, values of shape ``(m,)``, or
a batch of profiles over shared knots, shape ``(k, m)``. The slope rule is
written once, over a ``select(cond, a, b)`` and a ``sign``: over a batch they
are ``np.where`` and ``np.sign`` and every slope is one array expression; for
one profile the rule is evaluated knot by knot on Python floats, where a
numpy call per operation would cost more than the arithmetic. Both round
every operation alike, so a profile's slopes are bitwise its batch row's.
``evaluate`` returns one row of values per profile with no scalar special case.

``find_root`` takes a batch and searches the span of its knots. It scans the
knot intervals of every row for the first zero or sign change and solves all
bracketed rows together with a lock-step Brent iteration (Brent, *Algorithms
for Minimization Without Derivatives*, 1973, ch. 4). Each lane repeats the
update rules of scipy's ``brentq`` in the same operation order and with the
same tolerances, so every root is bitwise the one the scalar solver returns.
``find_minimum`` takes one profile of a handful of knots and also runs on
Python floats: the closed-form stationary points piece by piece, and each
candidate through the ``_hermite`` that ``evaluate`` uses.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = ["MonotoneCubic", "fit", "evaluate", "find_root", "find_minimum"]

# Absolute and relative abscissa tolerances and iteration cap of the root
# solve; the relative one is the smallest that brentq accepts.
XTOL = 1e-12
RTOL = 4.0 * np.finfo(float).eps
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class MonotoneCubic:
    """Piecewise-cubic Hermite interpolants with shape-limited knot slopes.

    ``values`` and ``derivatives`` have shape ``(m,)`` for one profile or
    ``(k, m)`` for k profiles over the same ``knots``.
    """

    knots: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def shifted(self, offset) -> "MonotoneCubic":
        """The interpolant of the data shifted by a constant, one per row.

        A constant shift leaves every secant, and therefore every limited
        slope, unchanged, so this is exactly ``self + offset``.
        """
        offset = np.asarray(offset, dtype=float)[..., None]
        return MonotoneCubic(self.knots, self.values + offset, self.derivatives)


def _first_unless_less(a, b):
    # Python's min(a, b): b only where b < a, so ties and NaNs keep a.
    return np.where(b < a, b, a)


def _select(cond, a, b):
    return a if cond else b


def _sign(v):
    # np.sign of one float, in its order of tests: NaN stays NaN, ±0 gives 0.0.
    return 1.0 if v > 0.0 else -1.0 if v < 0.0 else 0.0 if v == 0.0 else v


def _interior_slope(left, right, select, sign):
    # Local extremum (or flat spot) of the data: flat tangent. Elsewhere the
    # mean secant, its magnitude capped at three times the smaller secant's.
    avg = 0.5 * (left + right)
    cap = 3.0 * select(abs(right) < abs(left), abs(right), abs(left))
    return select(left * right <= 0.0, 0.0, sign(avg) * select(cap < abs(avg), cap, abs(avg)))


def _endpoint_slope(h0, h1, d0, d1, select, sign):
    # Non-centered three-point estimate, pulled back into the monotone region.
    slope = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    overshoot = (sign(d0) != sign(d1)) & (abs(slope) > 3.0 * abs(d0))
    return select(sign(slope) != sign(d0), 0.0, select(overshoot, 3.0 * d0, slope))


def _profile_slopes(x: list, y: list) -> list:
    # One profile: the batch path's checks and the limiter, knot by knot.
    if not all(map(math.isfinite, x + y)):
        raise ValueError("interpolation data must be finite")
    h = [b - a for a, b in zip(x, x[1:])]
    if min(h) <= 0.0:
        raise ValueError("knots must be strictly increasing")
    sec = [(b - a) / w for a, b, w in zip(y, y[1:], h)]
    if len(sec) == 1:
        return sec * 2
    return [_endpoint_slope(h[0], h[1], sec[0], sec[1], _select, _sign),
            *(_interior_slope(left, right, _select, _sign) for left, right in zip(sec, sec[1:])),
            _endpoint_slope(h[-1], h[-2], sec[-1], sec[-2], _select, _sign)]


def fit(knots, values) -> MonotoneCubic:
    """Fit monotonicity-preserving cubics through every row of ``values``.

    Args:
        knots: shape (m,), strictly increasing, m >= 2, finite.
        values: shape (m,) for one profile or (k, m) for k profiles over the
            same knots, finite.

    Raises:
        ValueError: on too few knots, mismatched shapes, unsorted/duplicate
            knots, or non-finite data.
    """
    x = np.array(knots, dtype=float)
    y = np.array(values, dtype=float)
    if x.ndim != 1 or x.size < 2 or y.ndim not in (1, 2) or y.shape[-1] != x.size:
        raise ValueError("need at least two knots and one value per knot in every row")
    if y.ndim == 1:
        return MonotoneCubic(x, y, np.array(_profile_slopes(x.tolist(), y.tolist())))
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("interpolation data must be finite")
    h = np.diff(x)
    if (h <= 0.0).any():
        raise ValueError("knots must be strictly increasing")

    # Data near the float limit: inf - inf and inf * 0 make NaNs that the
    # limiter discards (flat slope where left * right <= 0, zero end slope
    # where the sign test fails), so signs and caps still hold.
    with np.errstate(over="ignore", invalid="ignore"):
        sec = np.diff(y) / h
        if x.size == 2:
            return MonotoneCubic(x, y, np.repeat(sec, 2, axis=-1))
        interior = _interior_slope(sec[..., :-1], sec[..., 1:], np.where, np.sign)
        # Both ends at once: the first and last pieces, then their neighbours.
        ends = _endpoint_slope(h.take([0, -1]), h.take([1, -2]), sec.take([0, -1], axis=-1),
                               sec.take([1, -2], axis=-1), np.where, np.sign)
    return MonotoneCubic(x, y, np.concatenate([ends[..., :1], interior, ends[..., 1:]], axis=-1))


def _hermite(s, h, y0, m0, y1, m1):
    # The cubic piece at unit parameter s, from its end values and slopes.
    s2 = s * s
    s3 = s2 * s
    return (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h * m0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h * m1
    )


def _pieces(knots: np.ndarray, t: np.ndarray):
    # Piece index, piece width and unit parameter of every abscissa.
    # minimum/maximum, not np.clip: the same integers at a quarter of the cost.
    idx = np.minimum(np.maximum(np.searchsorted(knots, t, side="right") - 1, 0), len(knots) - 2)
    h = knots[idx + 1] - knots[idx]
    return idx, h, (t - knots[idx]) / h


def evaluate(spline: MonotoneCubic, t):
    """Evaluate the interpolant at ``t``: shape ``values.shape[:-1] + np.shape(t)``."""
    y, m = spline.values, spline.derivatives
    idx, h, s = _pieces(spline.knots, np.asarray(t, dtype=float))
    return _hermite(s, h, y.take(idx, axis=-1), m.take(idx, axis=-1),
                    y.take(idx + 1, axis=-1), m.take(idx + 1, axis=-1))


def _evaluate_lanes(spline: MonotoneCubic, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Row rows[i] of a batch at abscissa t[i].
    y, m = spline.values, spline.derivatives
    idx, h, s = _pieces(spline.knots, t)
    return _hermite(s, h, y[rows, idx], m[rows, idx], y[rows, idx + 1], m[rows, idx + 1])


def _brent(spline: MonotoneCubic, rows, xpre, xcur, fpre, fcur) -> np.ndarray:
    """Zeros of rows ``rows`` of a 2-D batch, one bracket [xpre, xcur] per
    lane with end values fpre and fcur of opposite signs.

    Every lane runs scipy's ``brentq`` iteration: the same update rules in
    the same operation order, sign changes tested with ``signbit``, C's
    ``MIN`` as a ``where``. Both step formulas are computed on every lane and
    the unused one discarded, so their floating-point warnings are muted.

    Raises:
        ValueError: the interpolant is NaN at an iterate.
        RuntimeError: a lane has not converged after MAX_ITERATIONS.
    """
    roots = np.empty(len(rows))
    lane = np.arange(len(rows))
    xblk = fblk = spre = scur = np.zeros(len(rows))
    for _ in range(MAX_ITERATIONS):
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre = np.where(flip, xcur - xpre, spre)
        scur = np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (XTOL + RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[lane[done]] = xcur[done]
            go = ~done
            if not go.any():
                return roots
            lane, rows, delta, sbis, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = (
                v[go] for v in (lane, rows, delta, sbis, xpre, xcur, xblk,
                                fpre, fcur, fblk, spre, scur))

        with np.errstate(all="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, inverse_quadratic)
            short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                     & (2 * np.abs(stry) < _first_unless_less(3 * np.abs(sbis) - delta,
                                                              np.abs(spre))))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        with np.errstate(invalid="ignore"):  # a NaN value is reported below
            fcur = _evaluate_lanes(spline, rows, xcur)
        if np.isnan(fcur).any():
            at = xcur[np.isnan(fcur)][0]
            raise ValueError(f"The function value at x={at} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {MAX_ITERATIONS} iterations, "
                       f"value is {xcur[0]}")


def find_root(spline: MonotoneCubic) -> np.ndarray:
    """Smallest zero of every row of a ``(k, m)`` batch over its knot span.

    Scans the knot intervals left to right: the first one whose left value
    is zero gives that abscissa, the first one whose endpoint values change
    sign is solved to an abscissa tolerance of about 1e-12. All rows are
    solved in one lock-step iteration.

    Returns:
        An array with one root per row, NaN where the row has none.
    """
    knots = spline.knots
    vals = spline.values
    f0, f1 = vals[:, :-1], vals[:, 1:]
    zero = f0 == 0.0
    # Compare signs, not the product, which can underflow to -0.0.
    event = zero | ((f0 < 0.0) & (0.0 < f1)) | ((f1 < 0.0) & (0.0 < f0))
    first = np.argmax(event, axis=1)
    lanes = np.arange(len(vals))
    found = event[lanes, first]

    roots = np.where(vals[:, -1] == 0.0, knots[-1], np.nan)
    roots[found] = knots[first[found]]
    rows = np.flatnonzero(found & ~zero[lanes, first])
    if rows.size:
        i = first[rows]
        roots[rows] = _brent(spline, rows, knots[i], knots[i + 1], f0[rows, i], f1[rows, i])
    return roots


def find_minimum(spline: MonotoneCubic, interval: tuple[float, float]) -> tuple[float, float]:
    """Global minimum of a single-profile interpolant over ``interval``.

    Candidates are the interval endpoints, the interior knots, and the
    stationary points of every cubic piece that meets the interval; exact
    ties go to the smaller abscissa, and a NaN value wins, as in ``np.argmin``.
    """
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise ValueError("empty interval")
    x, y, m = spline.knots.tolist(), spline.values.tolist(), spline.derivatives.tolist()
    stationary = []
    for j in range(len(x) - 1):
        x0, x1 = x[j], x[j + 1]
        if not (x1 > a and x0 < b):
            continue
        h = x1 - x0
        y0, y1, m0, m1 = y[j], y[j + 1], m[j], m[j + 1]
        # d/ds of the Hermite piece in its unit parameter s is qa s^2 + qb s + qc.
        qa = 6.0 * y0 + 3.0 * h * m0 - 6.0 * y1 + 3.0 * h * m1
        qb = -6.0 * y0 - 4.0 * h * m0 + 6.0 * y1 - 2.0 * h * m1
        qc = h * m0
        if qa == 0.0:
            roots = (-qc / qb,) if qb != 0.0 else ()
        else:
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                sq = math.sqrt(disc)
                roots = ((-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa))
            else:
                roots = ()
        for s in roots:
            if 0.0 < s < 1.0:
                t = x0 + s * h
                if a <= t <= b:
                    stationary.append(t)
    # The set keeps the first of 0.0 and -0.0; a stationary point is never
    # -0.0, so only the ends and knots, listed first, can decide which.
    cand = sorted(set([a, b, *(k for k in x if a < k < b), *stationary]))

    best, best_value = cand[0], math.inf
    last = len(x) - 2
    for t in cand:
        j = min(max(bisect_right(x, t) - 1, 0), last)
        h = x[j + 1] - x[j]
        value = _hermite((t - x[j]) / h, h, y[j], m[j], y[j + 1], m[j + 1])
        if value != value:  # the first NaN wins, as in np.argmin
            return t, value
        if value < best_value:
            best, best_value = t, value
    return best, best_value
