"""Scalar reference implementations of the interpolation kernels, the
constraint and residual searches, and the model residual.

The interpolation kernels as they were before they were batched: one profile
per fit with a per-knot slope loop, ``find_root`` scanning the knot intervals
and handing the first sign change to ``scipy.optimize.brentq``, and
``find_minimum`` solving for the stationary points piece by piece and
evaluating its candidates one at a time. The constraint search on top of
them fits and solves one (family, cell) at a time, and the residual search
evaluates one trial point per objective call. ``residual`` is the
``FractureAssembly`` residual of one point, as it was before the model took
stacks of points. Tests compare the batched kernels, searches and residual
against these, so nothing here imports ``fracsolve.interpolation``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

import fracsolve.models
from fracsolve.contact import (
    ContactStates,
    normal_complementarity,
    tangential_complementarity,
    transition_values,
)
from fracsolve.linesearch import (
    ALPHA_MIN,
    MAX_TIGHTENINGS,
    SAMPLE_COUNT,
    TRANSITION_FRACTION,
    TRANSITION_TOLERANCE,
    LineSearchOutcome,
    Diverged,
)
from fracsolve.models import (
    BIOT_COEFFICIENT,
    DRAINED_BULK_MODULUS,
    FLUID_COMPRESSIBILITY,
    FLUID_DENSITY,
    FLUID_HEAT_CAPACITY,
    FLUID_THERMAL_EXPANSION,
    HYDRAULIC_APERTURE_FLOOR,
    PRESSURE_SCALE,
    SOLID_THERMAL_EXPANSION,
    TEMPERATURE_SCALE,
    THERMAL_CONDUCTIVITY,
    TIME_STEP,
    transmissibility,
)


@dataclass(frozen=True)
class MonotoneCubic:
    """Piecewise-cubic Hermite interpolant with shape-limited knot slopes."""

    knots: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

    def __call__(self, t):
        return evaluate(self, t)

    def shifted(self, offset: float) -> "MonotoneCubic":
        """The interpolant of the data shifted by a constant.

        A constant shift leaves every secant, and therefore every limited
        slope, unchanged, so this is exactly ``self + offset``.
        """
        return MonotoneCubic(self.knots, self.values + float(offset), self.derivatives)


def _endpoint_slope(h0: float, h1: float, d0: float, d1: float) -> float:
    # Non-centered three-point estimate, pulled back into the monotone region.
    slope = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    if np.sign(slope) != np.sign(d0):
        return 0.0
    if np.sign(d0) != np.sign(d1) and abs(slope) > 3.0 * abs(d0):
        return 3.0 * d0
    return slope


def fit(points) -> MonotoneCubic:
    """Fit a monotonicity-preserving cubic through ``points``.

    Args:
        points: array-like of shape (m, 2) with strictly increasing abscissae,
            m >= 2, all entries finite.

    Raises:
        ValueError: on too few points, unsorted/duplicate abscissae, or
            non-finite data.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (abscissa, value) pairs")
    if not np.all(np.isfinite(pts)):
        raise ValueError("interpolation data must be finite")
    x = pts[:, 0].copy()
    y = pts[:, 1].copy()
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("abscissae must be strictly increasing")

    h = np.diff(x)
    sec = np.diff(y) / h

    m = np.empty_like(y)
    if len(x) == 2:
        m[:] = sec[0]
    else:
        for j in range(1, len(x) - 1):
            if sec[j - 1] * sec[j] <= 0.0:
                # Local extremum (or flat spot) of the data: flat tangent.
                m[j] = 0.0
            else:
                avg = 0.5 * (sec[j - 1] + sec[j])
                cap = 3.0 * min(abs(sec[j - 1]), abs(sec[j]))
                m[j] = np.sign(avg) * min(abs(avg), cap)
        m[0] = _endpoint_slope(h[0], h[1], sec[0], sec[1])
        m[-1] = _endpoint_slope(h[-1], h[-2], sec[-1], sec[-2])

    return MonotoneCubic(x, y, m)


def evaluate(spline: MonotoneCubic, t):
    """Evaluate the interpolant at scalar or array ``t``."""
    x, y, m = spline.knots, spline.values, spline.derivatives
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    idx = np.clip(np.searchsorted(x, tt, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    s = (tt - x[idx]) / h
    s2 = s * s
    s3 = s2 * s
    out = (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y[idx]
        + (s3 - 2.0 * s2 + s) * h * m[idx]
        + (-2.0 * s3 + 3.0 * s2) * y[idx + 1]
        + (s3 - s2) * h * m[idx + 1]
    )
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


def find_root(spline: MonotoneCubic, bracket: tuple[float, float]):
    """Smallest zero of the interpolant inside ``bracket``, or None.

    Scans the knot sub-intervals left to right and solves the first one whose
    endpoint values change sign (a knot value identically zero counts). Zeros
    the cubic to an absolute abscissa tolerance of 1e-12.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if b <= a:
        raise ValueError("empty bracket")
    cuts = np.unique(np.concatenate(([a, b], spline.knots[(spline.knots > a) & (spline.knots < b)])))
    vals = evaluate(spline, cuts)
    for i in range(len(cuts) - 1):
        f0, f1 = vals[i], vals[i + 1]
        if f0 == 0.0:
            return float(cuts[i])
        # Compare signs, not the product, which can underflow to -0.0.
        if (f0 < 0.0 < f1) or (f1 < 0.0 < f0):
            return float(brentq(lambda t: evaluate(spline, t), cuts[i], cuts[i + 1], xtol=1e-12))
    if vals[-1] == 0.0:
        return float(cuts[-1])
    return None


def _piece_critical_points(spline: MonotoneCubic, j: int) -> list[float]:
    # Stationary points of piece j, in global coordinates.
    x, y, m = spline.knots, spline.values, spline.derivatives
    h = x[j + 1] - x[j]
    # d/ds of the Hermite cubic in the unit parameter s.
    qa = 6.0 * y[j] + 3.0 * h * m[j] - 6.0 * y[j + 1] + 3.0 * h * m[j + 1]
    qb = -6.0 * y[j] - 4.0 * h * m[j] + 6.0 * y[j + 1] - 2.0 * h * m[j + 1]
    qc = h * m[j]
    roots: list[float] = []
    if qa == 0.0:
        if qb != 0.0:
            roots = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            sq = np.sqrt(disc)
            roots = [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
    return [x[j] + s * h for s in roots if 0.0 < s < 1.0]


def find_minimum(spline: MonotoneCubic, interval: tuple[float, float]) -> tuple[float, float]:
    """Global minimum of a single-profile interpolant over ``interval``.

    Candidates are the interval endpoints, the interior knots, and the
    stationary points of each cubic piece; exact ties go to the smaller
    abscissa.
    """
    a, b = float(interval[0]), float(interval[1])
    if b < a:
        raise ValueError("empty interval")
    cand = [a, b]
    cand.extend(float(k) for k in spline.knots if a < k < b)
    for j in range(len(spline.knots) - 1):
        if spline.knots[j + 1] <= a or spline.knots[j] >= b:
            continue
        cand.extend(t for t in _piece_critical_points(spline, j) if a <= t <= b)
    cand = sorted(set(cand))
    vals = [evaluate(spline, t) for t in cand]
    best = int(np.argmin(vals))
    return cand[best], vals[best]


def search_constraint(indicator_evaluator, fracture_cells, scale=1.0):
    """The constraint search written per indicator family, on the scalar kernels.

    Dicts keyed by family name, one transition call and one spline cache per
    family, one ``fit`` and one ``brentq`` root per flagged (family, cell),
    two fallback sites. Same signature and outcome as
    ``fracsolve.linesearch.search_constraint``.
    """
    families = ("normal", "tangential")
    fields, evaluations = {}, 0

    def field_at(alpha):
        nonlocal evaluations
        key = float(alpha)
        if key not in fields:
            raw = indicator_evaluator(key)
            fields[key] = {"normal": raw[0] / scale, "tangential": raw[1] / scale}
            evaluations += 1
        return fields[key]

    def fallback(samples, reference):
        ok = np.isfinite(samples) & (np.sign(samples) == np.sign(reference))
        return float(grid[np.where(ok)[0][-1]]) if np.any(ok) else ALPHA_MIN

    ref, full = field_at(0.0), field_at(1.0)
    trans_full = {f: transition_values(ref[f], full[f]) for f in families}
    grid = np.linspace(0.0, 1.0, SAMPLE_COUNT)
    values, splines = None, {}
    delta, rounds, candidates = TRANSITION_TOLERANCE, 0, []
    while True:
        flagged = [(f, int(c)) for f in families for c in np.where(trans_full[f] > delta)[0]]
        if not flagged:
            candidate = 1.0
        else:
            if values is None:
                per_alpha = [field_at(a) for a in grid]
                values = {f: np.column_stack([p[f] for p in per_alpha]) for f in families}
            roots = []
            for family, cell in flagged:
                samples = values[family][cell]
                if (family, cell) not in splines:
                    splines[family, cell] = (fit(np.column_stack([grid, samples]))
                                             if np.all(np.isfinite(samples)) else None)
                spline = splines[family, cell]
                reference = float(ref[family][cell])
                if spline is None:
                    roots.append(fallback(samples, reference))
                    continue
                root = find_root(spline.shifted(delta * np.sign(reference)), (0.0, 1.0))
                roots.append(fallback(samples, reference) if root is None else root)
            candidate = min(roots)
        candidates.append(candidate)
        at = field_at(candidate)
        moved = ((transition_values(ref["normal"], at["normal"]) > 0.0)
                 | (transition_values(ref["tangential"], at["tangential"]) > 0.0))
        counts = tuple(int(np.count_nonzero(moved[idx])) for idx in fracture_cells)
        crowded = any(c > max(1.0, TRANSITION_FRACTION * len(idx))
                      for c, idx in zip(counts, fracture_cells))
        if not crowded or rounds >= MAX_TIGHTENINGS:
            break
        delta *= 0.5
        rounds += 1
    return LineSearchOutcome(
        alpha=float(min(max(candidate, ALPHA_MIN), 1.0)),
        evaluations=evaluations,
        tightening_rounds=rounds,
        final_tolerance=delta,
        transitions_per_fracture=counts,
        diagnostics={"flagged": len(flagged), "candidates": candidates},
    )


def search_residual(objective, reference_value):
    """The residual search with one trial point per objective call.

    ``objective`` has the Newton solver's stacked signature; it is called
    with one step at a time, and the samples are kept as a list of pairs. Same
    signature and outcome fields as ``fracsolve.linesearch.search_residual``.
    """
    trial_alphas = np.linspace(ALPHA_MIN, 1.0, SAMPLE_COUNT)
    samples = [(0.0, float(reference_value))]
    evaluations = 0
    for a in trial_alphas:
        v = float(objective(np.array([a]))[0])
        evaluations += 1
        if np.isfinite(v):
            samples.append((float(a), v))
    if len(samples) < 2:
        raise Diverged("residual objective non-finite at every trial step")
    alpha, value = find_minimum(fit(samples), (ALPHA_MIN, samples[-1][0]))
    return LineSearchOutcome(
        alpha=float(min(max(alpha, ALPHA_MIN), 1.0)),
        evaluations=evaluations,
        diagnostics={"samples": samples, "model_minimum": value},
    )


# ---------------------------------------------------------------------------
# model residual of one point


def _interleave(*columns):
    return np.column_stack(columns).ravel()


def _negated(values):
    return np.where(np.isnan(values), values, -values)


def residual(model, x):
    """``FractureAssembly.residual`` of one point ``x`` of shape ``(n_dofs,)``."""
    n = model.n_cells
    traction = x[0:3 * n].reshape(n, 3)
    jump = x[3 * n:6 * n].reshape(n, 3)
    pressure = x[6 * n:7 * n]
    temperature = x[7 * n:8 * n] if model.has_temperature else None
    sigma_c = model.scales.stress
    weight = model.scales.complementarity_weight

    r = np.zeros(model.n_dofs)
    force = traction.ravel() + (model._stiffness @ (weight * jump)).ravel() \
        - model._external_traction.ravel() / sigma_c
    force = force.reshape(n, 3)
    force[:, 0] -= BIOT_COEFFICIENT * PRESSURE_SCALE * pressure / sigma_c
    if model.has_temperature:
        force[:, 0] += 3.0 * DRAINED_BULK_MODULUS * SOLID_THERMAL_EXPANSION \
            * TEMPERATURE_SCALE * temperature / sigma_c
    r[0:3 * n] = force.ravel()

    states = ContactStates(traction[:, 0], traction[:, 1:3], jump[:, 0], jump[:, 1:3],
                           model.dilation_angle, weight)
    contact = r[3 * n:6 * n].reshape(n, 3)
    contact[:, 0] = normal_complementarity(states)
    contact[:, 1:3] = tangential_complementarity(states)

    r[6 * n:7 * n] = _mass_rows(model, jump, pressure, temperature)
    if model.has_temperature:
        r[7 * n:8 * n] = _energy_rows(model, jump, temperature)
    return r


def _mass_rows(model, jump, pressure, temperature):
    apertures = fracsolve.models.RESIDUAL_APERTURE + jump[:, 0]
    rows = np.zeros(model.n_cells)
    dt = TIME_STEP
    rows += model._areas * (apertures - fracsolve.models.RESIDUAL_APERTURE) / dt
    rows += model._areas * apertures * FLUID_COMPRESSIBILITY * PRESSURE_SCALE * pressure / dt
    if temperature is not None:
        rows -= model._areas * apertures * FLUID_THERMAL_EXPANSION \
            * TEMPERATURE_SCALE * temperature / dt
    a, b = model._edge_a, model._edge_b
    mean = 0.5 * (apertures[a] + apertures[b])
    flux = transmissibility(np.maximum(mean, HYDRAULIC_APERTURE_FLOOR)) \
        * PRESSURE_SCALE * (pressure[a] - pressure[b])
    np.add.at(rows, model._flux_ends, _interleave(flux, _negated(flux)))
    rows /= model._mass_scale
    dir_p = _dirichlet(model, "dirichlet_pressure")
    fixed = np.isfinite(dir_p)
    rows[fixed] = pressure[fixed] - dir_p[fixed] / PRESSURE_SCALE
    return rows


def _energy_rows(model, jump, temperature):
    apertures = fracsolve.models.RESIDUAL_APERTURE + jump[:, 0]
    rows = np.zeros(model.n_cells)
    heat = FLUID_DENSITY * FLUID_HEAT_CAPACITY
    rows += model._areas * apertures * heat * TEMPERATURE_SCALE * temperature / TIME_STEP
    a, b = model._edge_a, model._edge_b
    mean = 0.5 * (apertures[a] + apertures[b])
    floored = np.maximum(mean, HYDRAULIC_APERTURE_FLOOR)
    conduction = THERMAL_CONDUCTIVITY * floored * TEMPERATURE_SCALE \
        * (temperature[a] - temperature[b])
    advected = heat * model._edge_rate * TEMPERATURE_SCALE * temperature[model._edge_up]
    np.add.at(rows, model._heat_ends, _interleave(
        conduction, _negated(conduction), advected, _negated(advected))[model._heat_kept])
    rows /= model._energy_scale
    dir_T = _dirichlet(model, "dirichlet_temperature")
    fixed = np.isfinite(dir_T)
    rows[fixed] = temperature[fixed] - dir_T[fixed] / TEMPERATURE_SCALE
    return rows


def _dirichlet(model, name):
    """One field's Dirichlet values per global cell, read from the fractures; NaN where free."""
    values = np.full(model.n_cells, np.nan)
    start = 0
    for fr in model.fractures:
        for local, value in getattr(fr, name).items():
            values[start + local] = value
        start += fr.n_cells
    return values
