"""The independent oracle: reference implementations the tests compare against.

The interpolation kernels as they were before they were batched: one profile
per fit with a per-knot slope loop, ``find_root`` scanning the knot intervals
and handing the first sign change to ``scipy.optimize.brentq``, and
``find_minimum`` solving for the stationary points piece by piece and
evaluating its candidates one at a time. The constraint search on top of
them fits and solves one (family, cell) at a time, and the residual search
evaluates one trial point per objective call.

The contact law is stated once, for one cell and for an array of cells
alike. An ``Oracle`` reads a model's topology from its fractures and takes
its friction coefficient and residual aperture as arguments; ``residual`` is
the ``FractureAssembly`` residual of one point built from it. From
``fracsolve`` this module reads only constants and the line-search outcome
types, never a kernel, so a wrong formula there cannot agree with itself here.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

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
    CROSS_FRACTURE_WEIGHT,
    DRAINED_BULK_MODULUS,
    FLUID_COMPRESSIBILITY,
    FLUID_DENSITY,
    FLUID_HEAT_CAPACITY,
    FLUID_THERMAL_EXPANSION,
    FLUID_VISCOSITY,
    HYDRAULIC_APERTURE_FLOOR,
    PRESSURE_SCALE,
    SOLID_THERMAL_EXPANSION,
    STIFFNESS_DIAGONAL,
    STIFFNESS_NEIGHBOR,
    TEMPERATURE_SCALE,
    THERMAL_CONDUCTIVITY,
    TIME_STEP,
)


@dataclass(frozen=True)
class MonotoneCubic:
    """Piecewise-cubic Hermite interpolant with shape-limited knot slopes."""

    knots: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray

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
    grid = np.linspace(0.0, 1.0, SAMPLE_COUNT)
    values, splines = None, {}
    delta, rounds, candidates = TRANSITION_TOLERANCE, 0, []
    while True:
        flagged = [(f, int(c)) for f in families
                   for c in np.where(crossed(ref[f], full[f], delta))[0]]
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
        moved = crossed(ref["normal"], at["normal"], 0.0) \
            | crossed(ref["tangential"], at["tangential"], 0.0)
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
# the contact law of one cell or of an array of cells


# A contact law: the Coulomb friction coefficient, the dilation angle (radians)
# and the complementarity weight.
Law = namedtuple("Law", "friction angle weight")

# A cell is (normal traction, tangential traction, normal jump, tangential
# jump). The law is written once over the operations below and reads either of
# two layouts: one cell, Python floats and numpy 2-vectors, with Python's
# conditional, max and pow; or an array of cells, columns of shape (..., n, 1)
# and (..., n, 2), with np.where, np.fmax and np.float_power. Both evaluate the
# same operations in the same order.
Ops = namedtuple("Ops", "select fmax pow dot")
ONE_CELL = Ops(lambda cond, a, b: a if cond else b, max, lambda x, y: float(x) ** y,
               lambda v: float(v @ v))
CELLS = Ops(np.where, np.fmax, np.float_power, lambda v: np.vecdot(v, v)[..., None])

# Regime codes, in census order.
OPEN, STICKING, SLIDING = 0, 1, 2


def _norm(v, ops):
    return np.sqrt(ops.dot(v))


def gap(ut, law, ops):
    return np.tan(law.angle) * _norm(ut, ops)


def normal_indicator(cell, law, ops):
    sn, _, un, ut = cell
    return -sn - law.weight * (un - gap(ut, law, ops))


def _slip_drive(cell, law):
    """Friction bound ``b`` and slip drive ``q``."""
    sn, st, _, ut = cell
    return -law.friction * sn, st + law.weight * ut


def normal_residual(cell, law, ops):
    return -cell[0] - ops.fmax(0.0, normal_indicator(cell, law, ops))


def tangential_residual(cell, law, ops):
    st = cell[1]
    b, q = _slip_drive(cell, law)
    return ops.select(b <= 0.0, st, st * ops.fmax(b, _norm(q, ops)) - b * q)


def regime(cell, law, ops):
    b, q = _slip_drive(cell, law)
    return ops.select(b <= 0.0, OPEN, ops.select(_norm(q, ops) > b, SLIDING, STICKING))


def tangential_indicator(cell, law, ops, active):
    b, q = _slip_drive(cell, law)
    return ops.select(active, _norm(q, ops) - b, 0.0)


def scale_estimate(cell, law, ops):
    sn, st, un, ut = cell
    traction = np.sqrt(ops.pow(sn, 2) + ops.dot(st))
    jump = np.sqrt(ops.pow(un - gap(ut, law, ops), 2) + ops.dot(ut))
    return traction + law.weight * jump


_UNIT = np.eye(2)


def _row(*parts):
    # Column groups, each (..., 1) or (..., 2), side by side.
    return np.concatenate(parts, axis=-1)


def derivative(cell, law, ops):
    """The contact rows' generalized derivative, ``(..., 3, 6)``.

    Rows: normal residual, tangential residual x2; columns: normal traction,
    tangential traction x2, normal jump, tangential jump x2. Ties take the
    penetration term and the sliding branch; the gap's subgradient at zero
    tangential jump is zero.
    """
    _, st, _, ut = cell
    F, c = law.friction, float(law.weight)
    zeros = np.zeros_like(st)
    zero = zeros[..., :1]
    ut_norm = _norm(ut, ops)
    dg = ops.select(ut_norm > 0.0, np.tan(law.angle) * ut / ut_norm, zeros)
    normal = ops.select(normal_indicator(cell, law, ops) >= 0.0,
                        _row(zero, zeros, zero + c, -c * dg),
                        _row(zero - 1.0, zeros, zero, zeros))
    b, q = _slip_drive(cell, law)
    q_norm = _norm(q, ops)
    q_hat = q / q_norm
    opened, sliding, sticking = [], [], []  # both tangential rows of each branch
    for i, e in enumerate(_UNIT):
        outer, be = st[..., i:i + 1] * q_hat, b * e
        opened += [zero, e + zeros, zero, zeros]
        sliding += [F * q[..., i:i + 1], q_norm * e + outer - be, zero, c * (outer - be)]
        sticking += [F * c * ut[..., i:i + 1], zeros, zero, -b * c * e]
    tangential = ops.select(b <= 0.0, _row(*opened),
                            ops.select(q_norm >= b, _row(*sliding), _row(*sticking)))
    rows = _row(normal, tangential)
    return rows.reshape(rows.shape[:-1] + (3, 6))


def crossed(reference, trial, margin):
    """Where an indicator changed sign (zero has none) and ``|trial| > margin``."""
    return (np.sign(reference) * np.sign(trial) < 0.0) & (np.abs(trial) > margin)


def oracle_transmissibility(left, right, viscosity):
    """Cubic-law transmissibility of an edge, or of arrays of edges, from its two apertures."""
    mean = np.maximum(0.5 * (left + right), HYDRAULIC_APERTURE_FLOOR)
    return np.float_power(mean, 3) / (12.0 * viscosity)


# ---------------------------------------------------------------------------
# a model's topology and the residual of one point


# Volumetric heat capacity of the fluid.
HEAT_CAPACITY = FLUID_DENSITY * FLUID_HEAT_CAPACITY

# Row-major centermost cell of each grid shape tested: where a cross-fracture
# tie ends (and a multi-fracture well sits).
CENTER_CELLS = {(4, 4): 10, (5, 5): 12, (2, 3): 4, (3, 2): 3}


def oracle_stiffness(fractures):
    """The 3n x 3n influence operator, summed one edge and one tie at a time."""
    blocks = []
    for fr in fractures:
        n = fr.n_cells
        lap = sp.lil_matrix((n, n))
        for a, b in fr.edges:
            lap[a, a] += 1.0
            lap[b, b] += 1.0
            lap[a, b] -= 1.0
            lap[b, a] -= 1.0
        shape_op = STIFFNESS_DIAGONAL * sp.eye(n) + STIFFNESS_NEIGHBOR * lap.tocsr()
        blocks.append(sp.kron(shape_op, sp.eye(3)))
    stiff = sp.block_diag(blocks, format="lil")
    starts = np.cumsum([0] + [fr.n_cells for fr in fractures[:-1]])
    for f in range(len(fractures) - 1):
        ca = starts[f] + CENTER_CELLS[fractures[f].shape]
        cb = starts[f + 1] + CENTER_CELLS[fractures[f + 1].shape]
        for comp in range(3):
            i = 3 * ca + comp
            j = 3 * cb + comp
            stiff[i, i] += CROSS_FRACTURE_WEIGHT
            stiff[j, j] += CROSS_FRACTURE_WEIGHT
            stiff[i, j] -= CROSS_FRACTURE_WEIGHT
            stiff[j, i] -= CROSS_FRACTURE_WEIGHT
    return stiff.tocsr()


class Oracle:
    """A model's data read from its fractures, and a contact law of its own.

    ``friction`` and ``residual_aperture`` default to the presets' law; the
    dilation angle and the complementarity weight are the model's settings.
    """

    def __init__(self, model, friction=1.0, residual_aperture=1.0e-3):
        self.model = model
        self.n = n = model.n_cells
        self.law = Law(friction, model.dilation_angle, model.scales.complementarity_weight)
        self.residual_aperture = residual_aperture
        self.edges = []
        self.dir_p = np.full(n, np.nan)
        self.dir_T = np.full(n, np.nan)
        start = 0  # the fractures own consecutive cell ranges in list order
        for fr in model.fractures:
            for k, (a, b) in enumerate(fr.edges):
                rate = 0.0 if fr.advection_rates is None else float(fr.advection_rates[k])
                self.edges.append((start + int(a), start + int(b), rate))
            for loc, val in fr.dirichlet_pressure.items():
                self.dir_p[start + loc] = val
            for loc, val in fr.dirichlet_temperature.items():
                self.dir_T[start + loc] = val
            start += fr.n_cells
        a, b, rate = (np.array(column) for column in zip(*self.edges))
        self.ends, self.rate = (a, b), rate
        self.areas = np.concatenate([np.full(fr.n_cells, fr.cell_area) for fr in model.fractures])
        self.external_traction = np.vstack([fr.external_traction for fr in model.fractures])
        flux_scale = residual_aperture ** 3 / (12.0 * FLUID_VISCOSITY)
        self.mass_scale = flux_scale * PRESSURE_SCALE
        advective = HEAT_CAPACITY * flux_scale * PRESSURE_SCALE
        conductive = THERMAL_CONDUCTIVITY * residual_aperture
        self.energy_scale = (conductive + advective) * TEMPERATURE_SCALE
        self.stiffness = oracle_stiffness(model.fractures)

    def split(self, x):
        """Traction and jump ``(n, 3)``; pressure, and temperature or None, ``(n,)``."""
        n = self.n
        temperature = x[7 * n:8 * n] if self.model.has_temperature else None
        return x[:3 * n].reshape(n, 3), x[3 * n:6 * n].reshape(n, 3), x[6 * n:7 * n], temperature

    def cells(self, x):
        """Every cell of one point or of a stack of points, in the law's array layout."""
        n, lead = self.n, x.shape[:-1]
        traction = x[..., :3 * n].reshape(lead + (n, 3))
        jump = x[..., 3 * n:6 * n].reshape(lead + (n, 3))
        return traction[..., 0:1], traction[..., 1:3], jump[..., 0:1], jump[..., 1:3]

    def apertures(self, jump):
        return self.residual_aperture + jump[:, 0]

    def mass_rows(self, jump, pressure, temperature):
        apertures = self.apertures(jump)
        rows = np.zeros(self.n)
        rows += self.areas * (apertures - self.residual_aperture) / TIME_STEP
        rows += self.areas * apertures * FLUID_COMPRESSIBILITY \
            * PRESSURE_SCALE * pressure / TIME_STEP
        if temperature is not None:
            rows -= self.areas * apertures * FLUID_THERMAL_EXPANSION \
                * TEMPERATURE_SCALE * temperature / TIME_STEP
        self.add_flux(rows, apertures, pressure)
        rows /= self.mass_scale
        return _fixed(rows, pressure, self.dir_p, PRESSURE_SCALE)

    def energy_rows(self, jump, temperature):
        apertures = self.apertures(jump)
        rows = np.zeros(self.n)
        rows += self.areas * apertures * HEAT_CAPACITY * TEMPERATURE_SCALE * temperature / TIME_STEP
        self.add_heat(rows, apertures, temperature)
        rows /= self.energy_scale
        return _fixed(rows, temperature, self.dir_T, TEMPERATURE_SCALE)

    def add_flux(self, rows, apertures, pressure):
        """Every edge's flux into its first cell and out of its second, in one ``np.add.at``."""
        a, b = self.ends
        flux = oracle_transmissibility(apertures[a], apertures[b], FLUID_VISCOSITY) \
            * PRESSURE_SCALE * (pressure[a] - pressure[b])
        np.add.at(rows, _interleave(a, b), _interleave(flux, _negated(flux)))

    def add_heat(self, rows, apertures, temperature):
        """Every edge's conduction, then its upwind advection, in one ``np.add.at``."""
        (a, b), rate = self.ends, self.rate
        floored = np.maximum(0.5 * (apertures[a] + apertures[b]), HYDRAULIC_APERTURE_FLOOR)
        conduction = THERMAL_CONDUCTIVITY * floored * TEMPERATURE_SCALE \
            * (temperature[a] - temperature[b])
        upwind = temperature[np.where(rate > 0.0, a, b)]
        advected = HEAT_CAPACITY * rate * TEMPERATURE_SCALE * upwind
        kept = _interleave(*np.broadcast_arrays(True, True, rate != 0.0, rate != 0.0))
        np.add.at(rows, _interleave(a, b, a, b)[kept], _interleave(
            conduction, _negated(conduction), advected, _negated(advected))[kept])


def _fixed(rows, unknowns, values, unit):
    """``rows`` with each Dirichlet cell's row replaced by its unknown minus its value."""
    fixed = np.isfinite(values)
    rows[fixed] = unknowns[fixed] - values[fixed] / unit
    return rows


def _interleave(*columns):
    return np.column_stack(columns).ravel()


def _negated(values):
    return np.where(np.isnan(values), values, -values)


def residual(oracle, x):
    """``FractureAssembly.residual`` of one point ``x`` of shape ``(n_dofs,)``."""
    traction, jump, pressure, temperature = oracle.split(x)
    sigma_c = oracle.model.scales.stress
    coupled = oracle.stiffness @ (oracle.law.weight * jump.ravel())
    force = traction + coupled.reshape(-1, 3) - oracle.external_traction / sigma_c
    force[:, 0] -= BIOT_COEFFICIENT * PRESSURE_SCALE * pressure / sigma_c
    if temperature is not None:
        force[:, 0] += 3.0 * DRAINED_BULK_MODULUS * SOLID_THERMAL_EXPANSION \
            * TEMPERATURE_SCALE * temperature / sigma_c
    cells, law = oracle.cells(x), oracle.law
    contact = [normal_residual(cells, law, CELLS), tangential_residual(cells, law, CELLS)]
    rows = [force, np.concatenate(contact, axis=-1), oracle.mass_rows(jump, pressure, temperature)]
    if temperature is not None:
        rows.append(oracle.energy_rows(jump, temperature))
    return np.concatenate([np.ravel(r) for r in rows])
