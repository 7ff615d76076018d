"""Characteristic scales and the adaptive magnitude estimate.

The solver works with tractions divided by a characteristic stress built from
a characteristic displacement guess. When that guess is poor, the contact
residuals and indicators live on a wildly wrong magnitude; the adaptive scale
estimates the actual magnitude from the current iterate (a high-order mean of
per-cell contributions, so large cells dominate without the max's
discontinuity) and is frozen during each line search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contact import ContactStates, gap

__all__ = [
    "CharacteristicScales",
    "cell_scale_estimate",
    "p_mean_scale",
]

SCALE_FLOOR = 1e-8
SCALE_CEILING = 1e8
# Order of the power mean that turns per-cell estimates into one scale.
P_MEAN_EXPONENT = 5.0

# Elastic moduli of the shipped problems and the length of their domain. The
# characteristic stress of a displacement guess u_c is E * u_c / L.
LAME_LAMBDA = 2.0e6          # Pa
SHEAR_MODULUS = 2.0e6        # Pa
YOUNGS_MODULUS = SHEAR_MODULUS * (3.0 * LAME_LAMBDA + 2.0 * SHEAR_MODULUS) / (LAME_LAMBDA + SHEAR_MODULUS)
DOMAIN_LENGTH = 1.0          # m


@dataclass(frozen=True)
class CharacteristicScales:
    """Scales induced by a characteristic displacement over the domain."""

    displacement: float          # u_c, meters

    def __post_init__(self):
        with np.errstate(over="ignore"):  # kernels multiply two weight-scaled quantities
            if not (0.0 < self.displacement < np.inf and np.isfinite(self.stress)
                    and np.isfinite(self.complementarity_weight * self.complementarity_weight)):
                raise ValueError("characteristic quantities must be positive and finite, "
                                 "with a finite stress and a finite squared weight")

    @property
    def stress(self) -> float:
        return YOUNGS_MODULUS * self.displacement / DOMAIN_LENGTH

    @property
    def complementarity_weight(self) -> float:
        """Weight pairing jumps with scaled tractions, 1 / displacement."""
        return 1.0 / self.displacement


def cell_scale_estimate(states: ContactStates) -> np.ndarray:
    """Magnitude contribution of each cell, shape ``(n,)``.

    Sum of the scaled traction norm and the weighted norm of the jump with
    the dilation gap removed along the normal. Both terms are dimensionless
    and O(1) when the characteristic displacement is well chosen. A cell
    past the float range estimates inf, without an overflow warning.
    """
    # float_power squares through the C library's pow, exactly like Python's
    # float ** in the per-cell reference formula; numpy's ** multiplies,
    # which differs from it in the last bit on ~0.1% of cells.
    sig_t = states.tangential_traction
    u_t = states.tangential_jump
    with np.errstate(over="ignore"):
        traction_sq = np.float_power(states.normal_traction, 2) + np.vecdot(sig_t, sig_t)
        g = gap(u_t, states.dilation_angle)
        jump_sq = np.float_power(states.normal_jump - g, 2) + np.vecdot(u_t, u_t)
        return np.sqrt(traction_sq) + states.weight * np.sqrt(jump_sq)


def p_mean_scale(values) -> float:
    """Power mean of order ``P_MEAN_EXPONENT`` of per-cell estimates, clamped
    to [1e-8, 1e8].

    The mean sits between the smallest and largest input and leans toward the
    maximum, so a few large cells set the scale without a hard max. An
    infinite estimate, or a power past the float range, gives the ceiling.
    """
    vals = np.asarray(values, dtype=float)
    if vals.size == 0 or not np.all(vals >= 0.0):
        raise ValueError("need one or more cell estimates, each nonnegative and not NaN")
    with np.errstate(over="ignore"):
        mean = float(np.mean(vals ** P_MEAN_EXPONENT) ** (1.0 / P_MEAN_EXPONENT))
    return float(min(max(mean, SCALE_FLOOR), SCALE_CEILING))
