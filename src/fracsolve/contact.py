"""Complementarity formulation of frictional contact on fracture cells.

Each fracture cell carries a scaled traction and a displacement jump, split
into one normal and two tangential components in the local frame. The contact
conditions (non-penetration with shear dilation, Coulomb friction) are written
as semismooth complementarity residuals whose roots are exactly the admissible
states, so they can sit directly inside a Newton solve. All tractions here are
dimensionless (divided by the characteristic stress); jumps stay in meters and
enter through the complementarity weight, the reciprocal characteristic
displacement.

The state of all cells is one ``ContactStates`` of per-cell arrays that also
carries the contact law (dilation angle and complementarity weight; the
friction coefficient is ``FRICTION_COEFFICIENT``), and every kernel here maps
it alone to per-cell arrays in a single vectorized pass.

The residuals, the regime census, the generalized derivative and the state
indicators share one open/closed test, ``normal_indicator``, and one
stick/slide test, the friction bound against the slip drive ``q``. The
indicators are signed distances to those boundaries in residual units;
``evaluate_field`` returns both as one ``(2, n)`` array (row 0 normal, row 1
tangential, zero on cells open at the reference iterate), and
``transition_values`` turns a sign change along a Newton direction into a
per-cell damping signal.

Every model solves one implicit step from rest, so a cell's tangential jump is
also its slip in the step. Sign conventions: a negative normal traction is
compressive; the tangential jump of a consistently sliding cell is a
nonnegative multiple of the tangential traction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FRICTION_COEFFICIENT",
    "check_dilation_angle",
    "ContactStates",
    "ContactRegime",
    "friction_bound",
    "gap",
    "normal_complementarity",
    "tangential_complementarity",
    "classify_regime",
    "contact_generalized_derivative",
    "normal_indicator",
    "tangential_indicator",
    "transition_values",
    "reference_mask",
    "evaluate_field",
]


# Coulomb friction coefficient of every fracture cell.
FRICTION_COEFFICIENT = 1.0


def check_dilation_angle(angle: float) -> None:
    """Reject a dilation angle (radians) outside [0, pi/2), NaN included."""
    if not 0.0 <= angle < 0.5 * np.pi:
        raise ValueError("dilation angle must lie in [0, pi/2)")


@dataclass(frozen=True)
class ContactStates:
    """Tractions and jumps of n fracture cells in their local frames.

    Shapes are ``(n,)`` for the normal components and ``(n, 2)`` for the
    tangential ones; the complementarity residuals also take the states of a
    stack of points, ``(k, n)`` and ``(k, n, 2)``. Tractions are scaled
    (dimensionless); the jumps are physical displacements in meters. The
    arrays are read-only views; the caller's arrays are not copied.
    ``dilation_angle`` (radians) and ``weight``, the complementarity weight,
    are the contact law every kernel here reads from the states.
    """

    normal_traction: np.ndarray
    tangential_traction: np.ndarray
    normal_jump: np.ndarray
    tangential_jump: np.ndarray
    dilation_angle: float
    weight: float

    def __post_init__(self):
        for name in ("normal_traction", "tangential_traction", "normal_jump", "tangential_jump"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


class ContactRegime(enum.IntEnum):
    """Regime codes returned by ``classify_regime``, in census order."""

    OPEN = 0
    STICKING = 1
    SLIDING = 2


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis.

    Rounds exactly like ``np.linalg.norm`` of each vector on its own, which
    ``np.linalg.norm(..., axis=-1)`` does not.
    """
    return np.sqrt(np.vecdot(vectors, vectors))


def friction_bound(normal_traction):
    """Coulomb bound on the tangential traction magnitude.

    Positive only under compression; nonpositive values mean the cell cannot
    sustain any shear (open contact).
    """
    return -FRICTION_COEFFICIENT * normal_traction


def gap(tangential_jump: np.ndarray, dilation_angle: float):
    """Dilation-induced normal gap, tan(psi) * ||tangential jump|| over the last axis."""
    return np.tan(dilation_angle) * _norms(tangential_jump)


def normal_indicator(states: ContactStates) -> np.ndarray:
    """Signed distance to the open/closed branch boundary, per cell.

    Positive exactly when the penetration term in the normal complementarity
    residual is on its active (contact) branch.
    """
    g = gap(states.tangential_jump, states.dilation_angle)
    return -states.normal_traction - states.weight * (states.normal_jump - g)


def _slip_drive(states: ContactStates):
    """Friction bound ``b``, shape ``(n,)``, and slip drive ``q``, shape ``(n, 2)``."""
    b = friction_bound(states.normal_traction)
    return b, states.tangential_traction + states.weight * states.tangential_jump


def normal_complementarity(states: ContactStates) -> np.ndarray:
    """Residual of the normal contact conditions, shape ``(..., n)``.

    Zero exactly when -traction >= 0, jump - gap >= 0 and their product
    vanishes; the root set does not depend on the (positive) weight.
    """
    return -states.normal_traction - np.fmax(0.0, normal_indicator(states))


def tangential_complementarity(states: ContactStates) -> np.ndarray:
    """Residual of the Coulomb friction conditions, shape ``(..., n, 2)``.

    On an open cell (friction bound <= 0) this is the tangential traction
    itself. On a closed cell the residual vanishes exactly for stick (zero
    tangential jump, traction within the bound) and for consistent slide
    (traction at the bound, tangential jump a nonnegative multiple of it).
    """
    b, q = _slip_drive(states)
    b = b[..., None]
    sig_t = states.tangential_traction
    closed = sig_t * np.fmax(b, _norms(q)[..., None]) - b * q
    return np.where(b <= 0.0, sig_t, closed)


def classify_regime(states: ContactStates) -> np.ndarray:
    """Diagnostic regime code per cell, an ``(n,)`` array of ``ContactRegime`` values."""
    b, q = _slip_drive(states)
    regime = np.where(_norms(q) > b, ContactRegime.SLIDING, ContactRegime.STICKING)
    return np.where(b <= 0.0, ContactRegime.OPEN, regime)


def contact_generalized_derivative(states: ContactStates) -> np.ndarray:
    """Active-branch derivative of the contact residuals, as ``(n, 3, 6)`` blocks.

    Rows are (normal residual, tangential residual x2); columns are
    (normal traction, tangential traction x2, normal jump, tangential jump x2).
    At branch ties the state-change branch is selected: the penetration term in
    the normal residual at zero argument, the sliding branch at a tangential
    tie. The dilation gap is nonsmooth at zero tangential jump, where its
    subgradient is taken as zero.
    """
    F = FRICTION_COEFFICIENT
    c = float(states.weight)
    sig_t = states.tangential_traction
    u_t = states.tangential_jump
    eye = np.eye(2)

    D = np.zeros(states.normal_traction.shape + (3, 6))

    tan_psi = np.tan(states.dilation_angle)
    u_t_norm = _norms(u_t)
    dg_dut = np.zeros_like(u_t)
    moving = u_t_norm > 0.0
    dg_dut[moving] = tan_psi * u_t[moving] / u_t_norm[moving, None]

    contact = normal_indicator(states) >= 0.0
    # Contact branch: residual reduces to c * (jump - gap).
    D[contact, 0, 3] = c
    D[contact, 0, 4:6] = -c * dg_dut[contact]
    D[~contact, 0, 0] = -1.0

    b, q = _slip_drive(states)
    q_norm = _norms(q)
    closed = ~(b <= 0.0)
    sliding = closed & (q_norm >= b)
    sticking = closed & ~sliding
    D[~closed, 1:3, 1:3] = eye

    # Sliding branch: sig_t * ||q|| - b * q; ||q|| >= b > 0 here.
    b_s = b[sliding, None, None]
    q_s = q[sliding]
    n_s = q_norm[sliding]
    outer = sig_t[sliding, :, None] * (q_s / n_s[:, None])[:, None, :]
    D[sliding, 1:3, 0] = F * q_s
    D[sliding, 1:3, 1:3] = n_s[:, None, None] * eye + outer - b_s * eye
    D[sliding, 1:3, 4:6] = c * (outer - b_s * eye)

    # Sticking branch: residual reduces to -b * c * tangential jump.
    D[sticking, 1:3, 0] = F * c * u_t[sticking]
    D[sticking, 1:3, 4:6] = (-b[sticking] * c)[:, None, None] * eye
    return D


def tangential_indicator(states: ContactStates, reference_active: np.ndarray) -> np.ndarray:
    """Signed distance to the stick/slide branch boundary, per cell.

    Positive exactly when the sliding branch is active. ``reference_active``
    is the Heaviside mask from the reference iterate: cells that were open
    there contribute exactly zero.
    """
    b, q = _slip_drive(states)
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


def reference_mask(states: ContactStates) -> np.ndarray:
    """Heaviside mask: cells with strictly positive normal indicator."""
    return normal_indicator(states) > 0.0


def evaluate_field(states: ContactStates, mask: np.ndarray) -> np.ndarray:
    """Both indicator families over all cells, shape ``(2, n)``.

    Row 0 is the normal indicator, row 1 the tangential one. ``mask`` is the
    reference-iterate Heaviside mask; it must come from the same cell
    ordering as ``states``.
    """
    return np.stack([normal_indicator(states), tangential_indicator(states, mask)])
