"""State indicators that measure distance to contact-regime transitions.

For each fracture cell two scalar indicators report, in the units of the
complementarity residuals, how far the cell sits from its normal
(open/closed) and tangential (stick/slide) branch boundaries. A sign change
of an indicator along a Newton direction means the cell is about to switch
regime; the transition indicator turns that into a per-cell damping signal.
The tangential indicator is masked to zero on cells whose normal indicator is
nonpositive at the reference iterate, and the mask is held fixed along the
search ray. ``evaluate_field`` returns both families as one ``(2, n)`` array:
row 0 normal, row 1 tangential.
"""

from __future__ import annotations

import numpy as np

from .contact import ContactParameters, ContactStates, _norms, friction_bound, gap

__all__ = [
    "normal_indicator",
    "tangential_indicator",
    "transition_values",
    "evaluate_field",
    "reference_mask",
]


def normal_indicator(states: ContactStates, params: ContactParameters,
                     weight: float) -> np.ndarray:
    """Signed distance to the open/closed branch boundary, per cell.

    Positive exactly when the penetration term in the normal complementarity
    residual is on its active (contact) branch.
    """
    g = gap(states.tangential_jump, params.dilation_angle)
    return -states.normal_traction - weight * (states.normal_jump - g)


def tangential_indicator(states: ContactStates, params: ContactParameters,
                         weight: float, reference_active: np.ndarray) -> np.ndarray:
    """Signed distance to the stick/slide branch boundary, per cell.

    Positive exactly when the sliding branch is active. ``reference_active``
    is the Heaviside mask from the reference iterate: cells that were open
    there contribute exactly zero.
    """
    b = friction_bound(states.normal_traction, params.friction_coefficient)
    q = states.tangential_traction + weight * states.slip_increment
    return np.where(reference_active, _norms(q) - b, 0.0)


def transition_values(reference: np.ndarray, trial: np.ndarray) -> np.ndarray:
    """Damping signal from per-cell indicator pairs (reference, trial).

    Positive with magnitude |trial| where the sign flipped between reference
    and trial; negative where the sign persisted; zero wherever either value
    is zero (sgn(0) = 0).
    """
    reference = np.asarray(reference, dtype=float)
    trial = np.asarray(trial, dtype=float)
    # Signs are multiplied, not values: the product of two tiny values of
    # opposite sign underflows to -0.0, whose sign is 0. Where a sign is
    # zero the trial is zeroed first, so a zero reference with an infinite
    # trial gives 0 and not 0 * inf.
    signs = np.sign(reference) * np.sign(trial)
    return -signs * np.abs(np.where(signs == 0.0, 0.0, trial))


def reference_mask(states: ContactStates, params: ContactParameters,
                   weight: float) -> np.ndarray:
    """Heaviside mask: cells with strictly positive normal indicator."""
    return normal_indicator(states, params, weight) > 0.0


def evaluate_field(states: ContactStates, params: ContactParameters, weight: float,
                   mask: np.ndarray) -> np.ndarray:
    """Both indicator families over all cells, shape ``(2, n)``.

    Row 0 is the normal indicator, row 1 the tangential one. ``mask`` is the
    reference-iterate Heaviside mask; it must come from the same cell
    ordering as ``states``.
    """
    return np.stack([normal_indicator(states, params, weight),
                     tangential_indicator(states, params, weight, mask)])
