"""Globalization strategies for the semismooth Newton driver.

Four strategies share one outcome type: take the full step (no search),
minimize a cubic model of the residual norm along the step, or damp the step
so that per-cell contact-state transitions stay controlled. The constraint
searches never evaluate the residual; they work on the cheap state
indicators, sampling them along the ray, fitting monotone cubics, and solving
for the step length at which a transitioning cell overshoots its branch
boundary by exactly the transition tolerance. The indicators (``contact.evaluate_field``) arrive
as one ``(2, n)`` array per trial step (row 0 normal, row 1 tangential), so
both families share one cache, one transition test and one sample stack of
shape ``(2, n, SAMPLE_COUNT)``. Every tolerance flags a subset of the
profiles that move at the full step, so those are fitted once, as one batch,
when the first tolerance flags a cell; each round finds the roots of its
flagged profiles in one batched call. When too many cells of one fracture
still transition at the damped step, the tolerance is halved and the cached
fits are shifted by the new tolerance. The search parameters are the
paper's fixed values, module constants below. A search that cannot produce
a step raises ``Diverged``, the one exception that ends a run as diverged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .contact import transition_values
from .interpolation import MonotoneCubic, find_minimum, find_root, fit


class Strategy(enum.Enum):
    """How the Newton step length is chosen."""

    NONE = "none"
    RESIDUAL = "residual"
    CONSTRAINT_CONST = "constraint-const"
    CONSTRAINT_ADAPTIVE = "constraint-adaptive"


class Diverged(RuntimeError):
    """Why a run cannot go on, raised by the searches and by the Newton driver."""


# The paper's search parameters: the overshoot allowed past a branch boundary,
# the tolerated share of transitioning cells per fracture, the samples along
# the ray (endpoints included), the cap on tolerance halvings and the
# smallest step the residual and constraint searches return.
TRANSITION_TOLERANCE = 0.3
TRANSITION_FRACTION = 0.2
SAMPLE_COUNT = 5
MAX_TIGHTENINGS = 10
ALPHA_MIN = 1e-3

# The residual search's trial steps and the constraint search's sample grid
# (0, .25, .5, .75, 1), shared by every search and read-only.
TRIAL_ALPHAS = np.linspace(ALPHA_MIN, 1.0, SAMPLE_COUNT)
SAMPLE_GRID = np.linspace(0.0, 1.0, SAMPLE_COUNT)
TRIAL_ALPHAS.flags.writeable = SAMPLE_GRID.flags.writeable = False
_TRIAL_STEPS = tuple(TRIAL_ALPHAS.tolist())


@dataclass
class LineSearchOutcome:
    alpha: float
    evaluations: int = 0
    tightening_rounds: int = 0
    final_tolerance: float | None = None
    transitions_per_fracture: tuple[int, ...] = ()
    diagnostics: dict = field(default_factory=dict)


def search_residual(objective, reference_value: float) -> LineSearchOutcome:
    """Minimize a monotone-cubic model of the residual objective on the ray.

    ``objective(alphas)`` takes the vector of ``SAMPLE_COUNT`` trial steps
    and returns, for each, half the squared residual norm at that trial
    point; the Newton solver evaluates all of them in one stacked residual
    call.
    ``reference_value`` is the already-known value at alpha = 0, so the
    search spends exactly ``SAMPLE_COUNT`` extra residual evaluations.
    Non-finite samples are excluded and the minimization is restricted to the
    largest finite sampled step.
    """
    values = objective(TRIAL_ALPHAS).tolist()
    knots = [0.0, *(a for a, v in zip(_TRIAL_STEPS, values) if math.isfinite(v))]
    samples = [float(reference_value), *filter(math.isfinite, values)]
    if len(knots) == 1:
        raise Diverged("residual objective non-finite at every trial step")
    alpha, value = find_minimum(fit(knots, samples), (ALPHA_MIN, knots[-1]))
    return LineSearchOutcome(
        alpha=alpha,
        evaluations=TRIAL_ALPHAS.size,
        diagnostics={"knots": knots, "samples": samples, "model_minimum": value},
    )


def search_constraint(indicator_evaluator, fracture_cells,
                      scale: float = 1.0) -> LineSearchOutcome:
    """Damp the step so contact-state transitions stay controlled.

    ``indicator_evaluator(alpha)`` returns the unscaled ``(2, n)`` indicator
    array at the trial point (row 0 normal, row 1 tangential); the search
    divides it by the frozen positive ``scale`` (1 for the constant variant,
    so both constraint strategies share this exact code path).
    ``fracture_cells`` partitions the cell indices by fracture.

    A (row, cell) whose transition indicator at the full step exceeds the
    tolerance contributes the smallest root of the shifted indicator model;
    the global step is the minimum over those roots. The tolerance is halved
    while any fracture has more transitioning cells at the damped step than
    max(1, fraction * cells).
    """
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    fields: dict[float, np.ndarray] = {}  # alpha -> scaled (2, n) indicators

    def field_at(alpha: float) -> np.ndarray:
        key = float(alpha)
        if key not in fields:
            fields[key] = indicator_evaluator(key) / scale
        return fields[key]

    ref = field_at(0.0)
    sign = np.sign(ref)
    trans_full = transition_values(ref, field_at(1.0))
    samples = None  # (2, n, SAMPLE_COUNT), stacked once a cell is flagged

    delta = TRANSITION_TOLERANCE
    rounds = 0
    candidates: list[float] = []
    while True:
        flagged = trans_full > delta
        candidate = 1.0
        if flagged.any():
            if samples is None:
                samples = np.stack([field_at(a) for a in SAMPLE_GRID], axis=-1)
                finite = np.isfinite(samples).all(axis=-1)
                # Unfittable samples or no root: the largest sampled step
                # whose indicator still has the reference sign.
                kept = np.isfinite(samples) & (np.sign(samples) == sign[..., None])
                last = SAMPLE_GRID.size - 1 - np.argmax(kept[..., ::-1], axis=-1)
                fallback = np.where(kept.any(axis=-1), SAMPLE_GRID[last], ALPHA_MIN)
                # Any tolerance flags only profiles that move at the full step.
                slopes = np.empty_like(samples)
                movable = finite & (trans_full > 0.0)
                if movable.any():
                    slopes[movable] = fit(SAMPLE_GRID, samples[movable]).derivatives
            roots = fallback[flagged]
            solvable = finite[flagged]
            if solvable.any():
                rows = flagged & finite
                spline = MonotoneCubic(SAMPLE_GRID, samples[rows], slopes[rows])
                try:
                    found = find_root(spline.shifted(delta * sign[rows]))
                except (ValueError, RuntimeError) as err:  # NaN profile, no convergence
                    raise Diverged(f"constraint root search failed: {err}") from err
                roots[solvable] = np.where(np.isnan(found), roots[solvable], found)
            candidate = float(roots.min())

        candidates.append(candidate)
        cell_moved = (transition_values(ref, field_at(candidate)) > 0.0).any(axis=0)
        counts = tuple(int(np.count_nonzero(cell_moved[idx])) for idx in fracture_cells)
        crowded = any(
            n_moved > max(1.0, TRANSITION_FRACTION * len(idx))
            for n_moved, idx in zip(counts, fracture_cells)
        )
        if not crowded or rounds >= MAX_TIGHTENINGS:
            break
        delta *= 0.5
        rounds += 1

    alpha = float(min(max(candidate, ALPHA_MIN), 1.0))
    return LineSearchOutcome(
        alpha=alpha,
        evaluations=len(fields),
        tightening_rounds=rounds,
        final_tolerance=delta,
        transitions_per_fracture=counts,
        diagnostics={"flagged": int(np.count_nonzero(flagged)), "candidates": candidates},
    )
