"""Complementarity formulation of frictional contact on fracture cells.

Each fracture cell carries a scaled traction and a displacement jump, split
into one normal and two tangential components in the local frame. The contact
conditions (non-penetration with shear dilation, Coulomb friction) are written
as semismooth complementarity residuals whose roots are exactly the admissible
states, so they can sit directly inside a Newton solve. All tractions here are
dimensionless (divided by the characteristic stress); jumps stay in meters and
enter through the complementarity weight, the reciprocal characteristic
displacement.

The state of all cells is one ``ContactStates`` of per-cell arrays, and every
kernel here maps it to per-cell arrays in a single vectorized pass.

Sign conventions: a negative normal traction is compressive; the slip
increment of a consistently sliding cell is a nonnegative multiple of the
tangential traction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContactParameters",
    "ContactStates",
    "ContactRegime",
    "friction_bound",
    "gap",
    "normal_complementarity",
    "tangential_complementarity",
    "classify_regime",
    "contact_generalized_derivative",
]


@dataclass(frozen=True)
class ContactParameters:
    """Cell-wise contact constitutive constants."""

    friction_coefficient: float = 1.0
    dilation_angle: float = 0.0       # radians, in [0, pi/2)
    residual_aperture: float = 1e-3   # meters, hydraulic aperture at closed contact

    def __post_init__(self):
        if not self.friction_coefficient >= 0.0:
            raise ValueError("friction coefficient must be nonnegative")
        if not 0.0 <= self.dilation_angle < 0.5 * np.pi:
            raise ValueError("dilation angle must lie in [0, pi/2)")
        if not self.residual_aperture > 0.0:
            raise ValueError("residual aperture must be positive")


@dataclass(frozen=True)
class ContactStates:
    """Tractions and jumps of n fracture cells in their local frames.

    Shapes are ``(n,)`` for the normal components and ``(n, 2)`` for the
    tangential ones. Tractions are scaled (dimensionless); the jumps are
    physical displacements in meters. ``previous_tangential_jump`` is the
    converged value of the preceding time step, so the tangential slip
    increment is ``tangential_jump - previous_tangential_jump``. The arrays
    are read-only views; the caller's arrays are not copied.
    """

    normal_traction: np.ndarray
    tangential_traction: np.ndarray
    normal_jump: np.ndarray
    tangential_jump: np.ndarray
    previous_tangential_jump: np.ndarray

    def __post_init__(self):
        for name in ("normal_traction", "tangential_traction", "normal_jump",
                     "tangential_jump", "previous_tangential_jump"):
            view = np.asarray(getattr(self, name), dtype=float).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.normal_traction)

    @property
    def slip_increment(self) -> np.ndarray:
        return self.tangential_jump - self.previous_tangential_jump


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


def friction_bound(normal_traction, friction_coefficient: float):
    """Coulomb bound on the tangential traction magnitude.

    Positive only under compression; nonpositive values mean the cell cannot
    sustain any shear (open contact).
    """
    return -friction_coefficient * normal_traction


def gap(tangential_jump: np.ndarray, dilation_angle: float):
    """Dilation-induced normal gap, tan(psi) * ||tangential jump|| over the last axis."""
    return np.tan(dilation_angle) * _norms(tangential_jump)


def normal_complementarity(states: ContactStates, params: ContactParameters,
                           weight: float) -> np.ndarray:
    """Residual of the normal contact conditions, shape ``(n,)``.

    Zero exactly when -traction >= 0, jump - gap >= 0 and their product
    vanishes; the root set does not depend on the (positive) weight.
    """
    g = gap(states.tangential_jump, params.dilation_angle)
    reach = -states.normal_traction - weight * (states.normal_jump - g)
    return -states.normal_traction - np.fmax(0.0, reach)


def tangential_complementarity(states: ContactStates, params: ContactParameters,
                               weight: float) -> np.ndarray:
    """Residual of the Coulomb friction conditions, shape ``(n, 2)``.

    On an open cell (friction bound <= 0) this is the tangential traction
    itself. On a closed cell the residual vanishes exactly for stick (zero
    slip increment, traction within the bound) and for consistent slide
    (traction at the bound, slip increment a nonnegative multiple of it).
    """
    b = friction_bound(states.normal_traction, params.friction_coefficient)[:, None]
    sig_t = states.tangential_traction
    q = sig_t + weight * states.slip_increment
    closed = sig_t * np.fmax(b, _norms(q)[:, None]) - b * q
    return np.where(b <= 0.0, sig_t, closed)


def classify_regime(states: ContactStates, params: ContactParameters,
                    weight: float) -> np.ndarray:
    """Diagnostic regime code per cell, an ``(n,)`` array of ``ContactRegime`` values."""
    b = friction_bound(states.normal_traction, params.friction_coefficient)
    q = states.tangential_traction + weight * states.slip_increment
    regime = np.where(_norms(q) > b, ContactRegime.SLIDING, ContactRegime.STICKING)
    return np.where(b <= 0.0, ContactRegime.OPEN, regime)


def contact_generalized_derivative(states: ContactStates, params: ContactParameters,
                                   weight: float) -> np.ndarray:
    """Active-branch derivative of the contact residuals, as ``(n, 3, 6)`` blocks.

    Rows are (normal residual, tangential residual x2); columns are
    (normal traction, tangential traction x2, normal jump, tangential jump x2).
    At branch ties the state-change branch is selected: the penetration term in
    the normal residual at zero argument, the sliding branch at a tangential
    tie. The dilation gap is nonsmooth at zero tangential jump, where its
    subgradient is taken as zero.
    """
    F = params.friction_coefficient
    c = float(weight)
    sig_n = states.normal_traction
    sig_t = states.tangential_traction
    u_t = states.tangential_jump
    slip = states.slip_increment
    eye = np.eye(2)

    D = np.zeros((len(states), 3, 6))

    tan_psi = np.tan(params.dilation_angle)
    u_t_norm = _norms(u_t)
    dg_dut = np.zeros_like(u_t)
    moving = u_t_norm > 0.0
    dg_dut[moving] = tan_psi * u_t[moving] / u_t_norm[moving, None]

    reach = -sig_n - c * (states.normal_jump - tan_psi * u_t_norm)
    contact = reach >= 0.0
    # Contact branch: residual reduces to c * (jump - gap).
    D[contact, 0, 3] = c
    D[contact, 0, 4:6] = -c * dg_dut[contact]
    D[~contact, 0, 0] = -1.0

    b = friction_bound(sig_n, F)
    q = sig_t + c * slip
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

    # Sticking branch: residual reduces to -b * c * slip increment.
    D[sticking, 1:3, 0] = F * c * slip[sticking]
    D[sticking, 1:3, 4:6] = (-b[sticking] * c)[:, None, None] * eye
    return D
