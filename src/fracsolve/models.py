"""Desk-scale fracture assemblies exercising the contact solver.

These models replace a full domain discretization with its Schur-like shadow
on the fracture cells: an SPD influence operator plays the role of the
surrounding elastic matrix, mapping displacement jumps to traction responses,
while fracture-local flow (cubic law in the aperture) and energy transport
(conduction plus upwind advection in a frozen flow field) provide the
poromechanical and thermoporomechanical couplings. Loading, material constants
and boundary values are chosen so converged solutions mix open, sticking and
sliding cells and the couplings carry comparable weight, at desk-problem cost.

All model construction is deterministic: multi-fracture geometries derive from
an integer seed, and the first fractures of a larger family coincide with the
smaller family at the same seed. ``preset``, the one public constructor,
describes the whole problem, boundary values and flow field included; the
physics only picks the unknowns.
Each model is one implicit step of ``TIME_STEP`` from rest (zero jumps,
pressures and temperatures), so an evaluation reads nothing but its ``x``.

Unknown layout (n fracture cells, numbered fracture by fracture and row-major
within each grid): scaled traction (3 per cell, local frame [normal,
tangential x2]), displacement jump (3 per cell, meters), scaled pressure (1
per cell), then scaled temperature (1 per cell) when the physics includes it.
Residual rows follow the same order: force balance, contact complementarity,
mass balance, energy balance.

Assembly is array-valued throughout. The influence operator is stored once,
as the n x n operator of the cell grid that the three jump components share. The
Jacobian is filled into a sorted CSC pattern cached at construction, with its
constant force-balance entries and the slot of every contribution that
changes with the iterate. The mass and energy rows are one balance block,
whose row scales and Dirichlet values are arrays built at construction; its
rows take every edge term from one helper, ``_edge_terms``, and scatter in a
fixed edge order, so every evaluation is bitwise reproducible. The residual
maps the last axis of its argument: a stack ``(k, n_dofs)`` gives one row per
point, each bitwise that point's residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .contact import (
    ContactStates,
    check_dilation_angle,
    contact_generalized_derivative,
    normal_complementarity,
    tangential_complementarity,
)

__all__ = [
    "Physics",
    "CharacteristicScales",
    "Fracture",
    "FractureAssembly",
    "transmissibility",
    "preset",
    "PRESET_NAMES",
]


class Physics(enum.Enum):
    PORO = "poro"
    THERMOPORO = "thermoporo"


# Material constants for the shipped problems. The characteristic stress of a
# displacement guess u_c is E * u_c / L. The flow and thermal constants keep the
# couplings at comparable magnitude with the contact terms on the reference scaling.
LAME_LAMBDA = 2.0e6          # Pa
SHEAR_MODULUS = 2.0e6        # Pa
YOUNGS_MODULUS = SHEAR_MODULUS * (3.0 * LAME_LAMBDA + 2.0 * SHEAR_MODULUS) / (LAME_LAMBDA + SHEAR_MODULUS)
DOMAIN_LENGTH = 1.0          # m
DRAINED_BULK_MODULUS = LAME_LAMBDA + 2.0 * SHEAR_MODULUS / 3.0
BIOT_COEFFICIENT = 0.8
FLUID_COMPRESSIBILITY = 1.0e-6   # 1/Pa
FLUID_VISCOSITY = 0.1            # Pa s
FLUID_DENSITY = 1.0              # kg/m^3
FLUID_HEAT_CAPACITY = 100.0      # J/kg/K
FLUID_THERMAL_EXPANSION = 0.01   # 1/K
SOLID_THERMAL_EXPANSION = 1.0e-3  # 1/K
THERMAL_CONDUCTIVITY = 1.0       # W/m/K
REFERENCE_DISPLACEMENT = 0.01  # m, the loading is sized to produce jumps of this order
REFERENCE_STRESS = YOUNGS_MODULUS * REFERENCE_DISPLACEMENT / DOMAIN_LENGTH  # Pa
TIME_STEP = 1.0e6            # s, single implicit step

PRESSURE_SCALE = 1.5e5       # Pa, magnitude of the pressure unknowns
TEMPERATURE_SCALE = 10.0     # K, magnitude of the temperature unknowns
INLET_PRESSURE = 1.5e5       # Pa
OUTLET_PRESSURE = -1.0e5     # Pa
INLET_TEMPERATURE = -10.0    # K relative to reference
OUTLET_TEMPERATURE = 0.0     # K

# Influence-operator shape: diagonal dominance keeps single-cell problems
# well-posed; the neighbor weight spreads load redistribution; the cross
# weight ties fractures of a family together without breaking positivity.
# The diagonal also bounds aperture excursions (jump ~ load / diagonal), which
# keeps the cubic-law feedback between opening and pressure redistribution
# from destabilizing the Newton map.
STIFFNESS_DIAGONAL = 3.0
STIFFNESS_NEIGHBOR = 0.5
CROSS_FRACTURE_WEIGHT = 0.05

# Single-fracture loading recipe, in units of ``REFERENCE_STRESS``: the
# external normal traction ramps along the first grid axis while a uniform
# shear pulls along the first tangent. With the inlet/outlet pressure drive
# this yields open cells near the inlet, a sliding band, and sticking cells
# toward the outlet.
SINGLE_NORMAL_RAMP = (-2.2, -1.0)
SINGLE_SHEAR_LOAD = 0.75

# Multi-fracture far-field stress in units of ``REFERENCE_STRESS`` (negative
# definite: every orientation starts compressed; wells unclamp their fracture).
FAR_FIELD_STRESS = np.array([
    [-1.2, -0.35, 0.15],
    [-0.35, -1.9, -0.25],
    [0.15, -0.25, -2.6],
])
MULTI_CELLS_PER_SIDE = 4


# Hydraulic aperture of a cell at zero normal jump (closed contact).
RESIDUAL_APERTURE = 1.0e-3   # m
# Minimum hydraulic aperture: closed or interpenetrating trial states keep a
# small positive conductance so the flow block stays elliptic. Converged
# states always sit above the floor (contact enforces nonnegative openings).
HYDRAULIC_APERTURE_FLOOR = 5.0e-5


def transmissibility(floored_mean):
    """Cubic-law transmissibility of edges from their floored mean apertures, elementwise.

    ``_edge_terms`` returns the floored means; doubling one multiplies its
    result by exactly eight. The cube is ``np.float_power``, which rounds as
    the C library's ``pow`` does (numpy's ``**`` multiplies and can differ in
    the last bit); a NaN mean stays NaN.
    """
    return np.float_power(floored_mean, 3) / (12.0 * FLUID_VISCOSITY)


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


@dataclass
class Fracture:
    """One planar fracture discretized as a uniform cell grid, cells row-major.

    The assembly ignores the fields its physics does not read.
    """

    shape: tuple[int, int]
    external_traction: np.ndarray      # (n_cells, 3) local [normal, t1, t2], Pa
    edges: np.ndarray                  # (n_edges, 2) local cell pairs
    cell_area: float
    dirichlet_pressure: dict[int, float] = field(default_factory=dict)     # local cell -> Pa
    dirichlet_temperature: dict[int, float] = field(default_factory=dict)  # local cell -> K
    advection_rates: np.ndarray | None = None   # per edge, m^3/s, frozen

    @property
    def n_cells(self) -> int:
        return self.shape[0] * self.shape[1]


def _grid_edges(shape: tuple[int, int]) -> np.ndarray:
    """Grid-neighbor cell pairs, row-major by first cell, right before down."""
    rows, cols = shape
    v = np.arange(rows * cols).reshape(rows, cols)
    pairs = np.stack([np.stack([v, v + 1], axis=-1), np.stack([v, v + cols], axis=-1)], axis=2)
    exists = np.stack(np.broadcast_arrays(np.arange(cols) + 1 < cols,
                                          (np.arange(rows) + 1 < rows)[:, None]), axis=-1)
    return pairs[exists]


def _center_cell(shape: tuple[int, int]) -> int:
    """Row-major index of a grid's centermost cell: a multi-fracture well and a tie end."""
    rows, cols = shape
    return (rows // 2) * cols + (cols // 2)


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(normal)))] = 1.0
    t1 = np.cross(normal, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    return np.vstack([t1, t2])


class FractureAssembly:
    """Residual/Jacobian provider over one or more fracture grids.

    The fractures own consecutive global cell ranges in list order. Everything
    about the Jacobian that depends only on topology is built once, at
    construction: the n x n influence operator of the cell grid, the sorted CSC
    pattern, the constant force-balance entries (identity, influence operator
    per jump component, Biot and thermal columns), and the slot in ``data`` of
    every contribution that changes with the iterate. ``scales`` is read there
    too; ``dilation_angle`` (radians) is the contact law's one setting.
    """

    def __init__(self, fractures: list[Fracture], dilation_angle: float,
                 physics: Physics, scales: CharacteristicScales):
        check_dilation_angle(dilation_angle)
        self.fractures = fractures
        self.dilation_angle = dilation_angle
        self.physics = physics
        self.scales = scales

        sizes = [fr.n_cells for fr in fractures]
        self._starts = np.cumsum([0] + sizes[:-1])
        self.n_cells = sum(sizes)

        # Grid edges in global cell indices, fracture by fracture; the
        # influence operator and the flow rows share them.
        self._edge_a, self._edge_b = np.concatenate([
            np.reshape(np.asarray(fr.edges, dtype=int), (-1, 2)) + start
            for fr, start in zip(fractures, self._starts)]).T
        self._stiffness = self._build_stiffness()

        self._edge_rate = np.concatenate([
            np.zeros(len(fr.edges)) if fr.advection_rates is None
            else np.asarray(fr.advection_rates, dtype=float) for fr in fractures])
        self._edge_up = np.where(self._edge_rate > 0.0, self._edge_a, self._edge_b)
        # Residual scatter targets: each edge's flux goes into a, then out of
        # b; heat is advected only along edges with a nonzero rate.
        moving = self._edge_rate != 0.0
        always = np.ones_like(moving)
        self._flux_ends = _interleave(self._edge_a, self._edge_b)
        self._heat_kept = _interleave(always, always, moving, moving)
        self._heat_ends = _interleave(self._edge_a, self._edge_b,
                                      self._edge_a, self._edge_b)[self._heat_kept]

        self._areas = np.concatenate([np.full(fr.n_cells, fr.cell_area) for fr in fractures])
        self._external_traction = np.vstack([fr.external_traction for fr in fractures])  # Pa

        # The balance block, mass then energy rows: Dirichlet values in unit
        # scale (NaN where free), and row scales keeping the rest O(1).
        flux_scale = transmissibility(RESIDUAL_APERTURE)
        mass_scale = flux_scale * PRESSURE_SCALE
        advective = FLUID_DENSITY * FLUID_HEAT_CAPACITY * flux_scale * PRESSURE_SCALE
        conductive = THERMAL_CONDUCTIVITY * RESIDUAL_APERTURE
        energy_scale = (conductive + advective) * TEMPERATURE_SCALE
        blocks = [("dirichlet_pressure", PRESSURE_SCALE, mass_scale)]
        if self.has_temperature:
            blocks.append(("dirichlet_temperature", TEMPERATURE_SCALE, energy_scale))
        self._fixed = np.full(len(blocks) * self.n_cells, np.nan)
        for k, (name, unit, _) in enumerate(blocks):
            for fr, start in zip(fractures, self._starts):
                for local, value in getattr(fr, name).items():
                    self._fixed[k * self.n_cells + start + local] = value / unit
        self._row_scale = np.repeat([row_scale for *_, row_scale in blocks], self.n_cells)

        self._build_jacobian_pattern()

    # ----- layout -------------------------------------------------------

    @property
    def has_temperature(self) -> bool:
        return self.physics is Physics.THERMOPORO

    @property
    def n_dofs(self) -> int:
        n = 7 * self.n_cells
        if self.has_temperature:
            n += self.n_cells
        return n

    def split(self, x: np.ndarray):
        """Traction and jump ``(..., n, 3)``; pressure, and temperature or None, ``(..., n)``.

        ``x`` is one point ``(n_dofs,)`` or a stack ``(k, n_dofs)``; every
        block is taken along the last axis.
        """
        n = self.n_cells
        lead = x.shape[:-1]
        traction = x[..., 0:3 * n].reshape(lead + (n, 3))
        jump = x[..., 3 * n:6 * n].reshape(lead + (n, 3))
        pressure = x[..., 6 * n:7 * n]
        temperature = x[..., 7 * n:8 * n] if self.has_temperature else None
        return traction, jump, pressure, temperature

    # ----- hooks consumed by the driver ---------------------------------

    def fracture_cells(self) -> list[np.ndarray]:
        """Global cell indices of each fracture, consecutive ranges in list order."""
        return [np.arange(start, start + fr.n_cells)
                for fr, start in zip(self.fractures, self._starts)]

    def contact_states(self, x: np.ndarray) -> ContactStates:
        """Read-only per-cell views of the tractions and jumps in ``x``, with the contact law."""
        traction, jump, _, _ = self.split(x)
        return ContactStates(traction[..., 0], traction[..., 1:3], jump[..., 0], jump[..., 1:3],
                             self.dilation_angle, self.scales.complementarity_weight)

    def initial_guess(self) -> np.ndarray:
        """Zero jumps and reference pressures/temperatures, seeded tractions.

        Tractions start at the elastically clamped values: they balance the
        external load at zero jump, so the first magnitude estimates see
        load-sized tractions.
        """
        x = np.zeros(self.n_dofs)
        x[0:3 * self.n_cells] = (self._external_traction / self.scales.stress).ravel()
        return x

    # ----- construction helpers -----------------------------------------

    def _build_stiffness(self) -> sp.csr_matrix:
        """Dimensionless n x n influence operator, acting on each jump component / u_c.

        Per fracture ``STIFFNESS_DIAGONAL * I + STIFFNESS_NEIGHBOR * L`` with L
        the grid-graph Laplacian, plus weak ties between the center cells of
        consecutive fractures: one grid operator, summed in a fixed order
        (diagonal, edges, ties), checked once and shared by all three components.
        """
        n = self.n_cells
        centers = self._starts + np.array([_center_cell(fr.shape) for fr in self.fractures])
        cells = np.arange(n)
        a, b = self._edge_a, self._edge_b
        ta, tb = centers[:-1], centers[1:]
        rows = np.concatenate([cells, _interleave(a, b, a, b), _interleave(ta, tb, ta, tb)])
        cols = np.concatenate([cells, _interleave(a, b, b, a), _interleave(ta, tb, tb, ta)])
        neighbor, tie = STIFFNESS_NEIGHBOR, CROSS_FRACTURE_WEIGHT
        values = np.concatenate([np.full(n, STIFFNESS_DIAGONAL),
                                 np.tile([neighbor, neighbor, -neighbor, -neighbor], len(a)),
                                 np.tile([tie, tie, -tie, -tie], len(ta))])
        # Rows and columns swapped: the sorted CSC pattern of the transpose is the sorted CSR.
        indptr, indices, (slots,) = _pattern(n, [(cols, rows)])
        data = np.zeros(len(indices))
        np.add.at(data, slots, values)
        grid = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        grid.eliminate_zeros()
        self._check_positive_definite(grid)
        return grid

    @staticmethod
    def _check_positive_definite(matrix: sp.csr_matrix):
        """Reject an operator that is not provably symmetric positive definite.

        A symmetric matrix whose positive diagonal strictly dominates every
        row is positive definite (Gershgorin). Both checks read the arrays of
        a canonical CSR matrix without stored zeros: each entry must equal its
        mirror image, and each row sums its off-diagonal magnitudes in order.
        """
        n = matrix.shape[0]
        rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
        cols, data = matrix.indices.astype(np.int64), matrix.data
        mirror = np.argsort(cols * n + rows)  # the transpose's entries, in CSR order
        if not (np.array_equal(cols[mirror], rows) and np.array_equal(rows[mirror], cols)
                and np.all(data[mirror] - data == 0.0)):
            raise ValueError("influence operator must be symmetric")
        diagonal = matrix.diagonal()
        off_diagonal = np.bincount(rows, np.where(rows == cols, 0.0, np.abs(data)), minlength=n)
        if not np.all(diagonal > off_diagonal):
            raise ValueError("influence operator must be strictly diagonally dominant")

    def _build_jacobian_pattern(self):
        """Cache the Jacobian's CSC pattern, constant entries and contribution slots.

        Columns: traction (3 per cell), jump (3 per cell), then pressure and
        temperature; rows follow the residual. Mass and energy contributions
        are listed in the order a sequential assembly adds them: per-cell
        storage first, then edge by edge.
        """
        n = self.n_cells
        cells = np.arange(n)
        a, b, up = self._edge_a, self._edge_b, self._edge_up
        sigma_c = self.scales.stress
        jump_col = 3 * n + 3 * cells      # normal jump of each cell
        pressure_col = mass_row = 6 * n + cells
        temperature_col = energy_row = 7 * n + cells

        grid = self._stiffness.tocoo()
        traction_cols = 3 * cells[:, None] + np.arange(3)
        contact_cols = np.hstack([traction_cols, 3 * n + traction_cols])[:, None, :]
        groups = {
            "identity": (np.arange(3 * n), np.arange(3 * n)),
            "stiffness": (traction_cols[grid.row], 3 * n + traction_cols[grid.col]),
            "contact": (np.broadcast_to(3 * n + traction_cols[:, :, None], (n, 3, 6)),
                        np.broadcast_to(contact_cols, (n, 3, 6))),
            "biot": (3 * cells, pressure_col),
        }
        constants = {"identity": 1.0,
                     "stiffness": np.repeat(grid.data * self.scales.complementarity_weight, 3),
                     "biot": -BIOT_COEFFICIENT * PRESSURE_SCALE / sigma_c}
        ra, rb = mass_row[a], mass_row[b]
        storage_cols = [jump_col, pressure_col] + ([temperature_col] if self.has_temperature else [])
        balance_rows = [np.tile(mass_row, len(storage_cols)),
                        _interleave(ra, ra, rb, rb, ra, rb, ra, rb)]
        balance_cols = storage_cols + [_interleave(
            pressure_col[a], pressure_col[b], pressure_col[b], pressure_col[a],
            jump_col[a], jump_col[a], jump_col[b], jump_col[b])]
        if self.has_temperature:
            groups["thermal"] = (3 * cells, temperature_col)
            constants["thermal"] = 3.0 * DRAINED_BULK_MODULUS * SOLID_THERMAL_EXPANSION \
                * TEMPERATURE_SCALE / sigma_c
            ra, rb = energy_row[a], energy_row[b]
            balance_rows += [energy_row, energy_row,
                             _interleave(ra, ra, rb, rb, ra, rb, ra, rb, ra, rb)]
            balance_cols += [temperature_col, jump_col, _interleave(
                temperature_col[a], temperature_col[b], temperature_col[b], temperature_col[a],
                jump_col[a], jump_col[a], jump_col[b], jump_col[b],
                temperature_col[up], temperature_col[up])]
        groups["balance"] = (np.concatenate(balance_rows), np.concatenate(balance_cols))
        # A Dirichlet unknown's balance row keeps only its diagonal entry.
        fixed_rows = 6 * n + np.flatnonzero(np.isfinite(self._fixed))
        groups["dirichlet"] = (fixed_rows, fixed_rows)

        indptr, indices, slots = _pattern(self.n_dofs, list(groups.values()))
        slot = dict(zip(groups, slots))
        self._indptr, self._indices = indptr, indices
        self._constant_data = np.zeros(len(indices))
        for name, value in constants.items():
            self._constant_data[slot[name]] = value
        self._contact_slots = slot["contact"]
        self._balance_slots = slot["balance"]
        # Every slot's divisor: its row scale on the balance rows, 1 elsewhere.
        self._divisor = np.concatenate([np.ones(6 * n), self._row_scale])[indices]
        fixed = np.concatenate([np.zeros(6 * n, dtype=bool), np.isfinite(self._fixed)])
        self._dirichlet_slots = np.flatnonzero(fixed[indices])
        self._dirichlet_diagonal = slot["dirichlet"]

    # ----- residual ------------------------------------------------------

    def _apertures(self, jump: np.ndarray) -> np.ndarray:
        return RESIDUAL_APERTURE + jump[..., 0]

    def _edge_terms(self, apertures: np.ndarray, values: np.ndarray):
        """Per-edge mean aperture, the same floored for flow, and the drop in ``values``.

        Per-cell arrays are read along their last axis; the drop is ``values``
        at the first cell of each edge minus ``values`` at the second.
        """
        a, b = self._edge_a, self._edge_b
        mean = 0.5 * (np.take(apertures, a, axis=-1) + np.take(apertures, b, axis=-1))
        drop = np.take(values, a, axis=-1) - np.take(values, b, axis=-1)
        return mean, np.maximum(mean, HYDRAULIC_APERTURE_FLOOR), drop

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Residual of one point ``(n_dofs,)`` or of each row of a stack ``(k, n_dofs)``.

        Every row of a stack is bitwise the residual of that row on its own.
        """
        traction, jump, pressure, temperature = self.split(x)
        lead = x.shape[:-1]
        sigma_c = self.scales.stress
        weight = self.scales.complementarity_weight

        # Force balance: traction responds to the jump through the influence
        # operator; pressure and cooling shift the normal component toward
        # tension (effective contact traction). One sparse product, cells first,
        # treats each jump component of each point as a column summed on its own;
        # the product is copied back to points first, which adds faster than
        # its transposed view.
        cells_first = (weight * jump).swapaxes(0, -2)
        coupled = self._stiffness @ cells_first.reshape(self.n_cells, -1)
        points_first = np.ascontiguousarray(coupled.reshape(cells_first.shape).swapaxes(0, -2))
        force = traction + points_first - self._external_traction / sigma_c
        force[..., 0] -= BIOT_COEFFICIENT * PRESSURE_SCALE * pressure / sigma_c
        if self.has_temperature:
            force[..., 0] += 3.0 * DRAINED_BULK_MODULUS * SOLID_THERMAL_EXPANSION \
                * TEMPERATURE_SCALE * temperature / sigma_c

        # Contact complementarity rows.
        states = self.contact_states(x)
        contact = np.concatenate([
            normal_complementarity(states)[..., None], tangential_complementarity(states)], axis=-1)

        balance = [self._mass_rows(jump, pressure, temperature)]
        if self.has_temperature:
            balance.append(self._energy_rows(jump, temperature))
        balance = np.concatenate(balance, axis=-1) / self._row_scale
        np.copyto(balance, x[..., 6 * self.n_cells:] - self._fixed, where=np.isfinite(self._fixed))
        return np.concatenate([force.reshape(lead + (-1,)), contact.reshape(lead + (-1,)), balance],
                              axis=-1)

    def _mass_rows(self, jump, pressure, temperature) -> np.ndarray:
        apertures = self._apertures(jump)
        rows = np.zeros(apertures.shape)

        # Storage: aperture change plus compressibility/thermal expansion of
        # the resident fluid over the step from rest, per unit time.
        rows += self._areas * (apertures - RESIDUAL_APERTURE) / TIME_STEP
        rows += self._areas * apertures * FLUID_COMPRESSIBILITY \
            * PRESSURE_SCALE * pressure / TIME_STEP
        if temperature is not None:
            rows -= self._areas * apertures * FLUID_THERMAL_EXPANSION \
                * TEMPERATURE_SCALE * temperature / TIME_STEP

        _, floored, drop = self._edge_terms(apertures, pressure)
        flux = transmissibility(floored) * PRESSURE_SCALE * drop
        _scatter_add(rows, self._flux_ends, _interleave(flux, _negated(flux)))
        return rows

    def _energy_rows(self, jump, temperature) -> np.ndarray:
        apertures = self._apertures(jump)
        rows = np.zeros(apertures.shape)

        heat = FLUID_DENSITY * FLUID_HEAT_CAPACITY
        rows += self._areas * apertures * heat * TEMPERATURE_SCALE * temperature / TIME_STEP

        _, floored, drop = self._edge_terms(apertures, temperature)
        conduction = THERMAL_CONDUCTIVITY * floored * TEMPERATURE_SCALE * drop
        advected = heat * self._edge_rate * TEMPERATURE_SCALE \
            * np.take(temperature, self._edge_up, axis=-1)
        _scatter_add(rows, self._heat_ends, np.compress(self._heat_kept, _interleave(
            conduction, _negated(conduction), advected, _negated(advected)), axis=-1))
        return rows

    # ----- Jacobian ------------------------------------------------------

    def jacobian(self, x: np.ndarray) -> sp.csc_matrix:
        _, jump, pressure, temperature = self.split(x)
        data = self._constant_data.copy()
        derivative = contact_generalized_derivative(self.contact_states(x))
        data[self._contact_slots] = derivative.ravel()
        entries = [self._mass_entries(jump, pressure, temperature)]
        if self.has_temperature:
            entries.append(self._energy_entries(jump, temperature))
        np.add.at(data, self._balance_slots, np.concatenate(entries))
        data /= self._divisor
        data[self._dirichlet_slots] = 0.0
        data[self._dirichlet_diagonal] = 1.0
        matrix = sp.csc_matrix((data, self._indices.copy(), self._indptr.copy()),
                               shape=(self.n_dofs, self.n_dofs))
        matrix.eliminate_zeros()
        return matrix

    def _mass_entries(self, jump, pressure, temperature) -> np.ndarray:
        """Unscaled mass-row contributions, in the order of ``_balance_slots``.

        Subtractions are added negated; ``x - y == x + (-y)`` bit for bit
        unless ``y`` is NaN, and Newton takes the Jacobian at finite iterates.
        """
        area, dt = self._areas, TIME_STEP
        apertures = self._apertures(jump)

        storage_u = area / dt + area * FLUID_COMPRESSIBILITY * PRESSURE_SCALE * pressure / dt
        storage = [storage_u, area * apertures * FLUID_COMPRESSIBILITY * PRESSURE_SCALE / dt]
        if temperature is not None:
            storage_u -= area * FLUID_THERMAL_EXPANSION * TEMPERATURE_SCALE * temperature / dt
            storage.append(-area * apertures * FLUID_THERMAL_EXPANSION * TEMPERATURE_SCALE / dt)

        mean, floored, drop = self._edge_terms(apertures, pressure)
        trans = transmissibility(floored) * PRESSURE_SCALE
        dtrans = np.where(mean < HYDRAULIC_APERTURE_FLOOR, 0.0,
                          3.0 * np.float_power(floored, 2) * 0.5 / (12.0 * FLUID_VISCOSITY))
        dflux = dtrans * (PRESSURE_SCALE * drop)
        return np.concatenate(storage + [_interleave(trans, -trans, trans, -trans,
                                                     dflux, -dflux, dflux, -dflux)])

    def _energy_entries(self, jump, temperature) -> np.ndarray:
        """Unscaled energy-row contributions, after the mass ones in ``_balance_slots``.

        Edges with a zero advection rate add exact zeros to the upwind slots.
        """
        area, dt = self._areas, TIME_STEP
        heat = FLUID_DENSITY * FLUID_HEAT_CAPACITY
        apertures = self._apertures(jump)
        storage_T = area * apertures * heat * TEMPERATURE_SCALE / dt
        storage_u = area * heat * TEMPERATURE_SCALE * temperature / dt

        mean, floored, drop = self._edge_terms(apertures, temperature)
        cond = THERMAL_CONDUCTIVITY * floored * TEMPERATURE_SCALE
        dcond = np.where(mean < HYDRAULIC_APERTURE_FLOOR, 0.0,
                         THERMAL_CONDUCTIVITY * 0.5 * TEMPERATURE_SCALE * drop)
        advection = heat * self._edge_rate * TEMPERATURE_SCALE
        return np.concatenate([storage_T, storage_u, _interleave(
            cond, -cond, cond, -cond, dcond, -dcond, dcond, -dcond, advection, -advection)])


def _interleave(*columns: np.ndarray) -> np.ndarray:
    """Equal-shape columns read along the last axis: c0[0], c1[0], ..., c0[1], c1[1], ..."""
    count, first = len(columns), columns[0]
    out = np.empty(first.shape[:-1] + (count * first.shape[-1],), np.result_type(*columns))
    for i, column in enumerate(columns):
        out[..., i::count] = column
    return out


def _scatter_add(rows: np.ndarray, targets: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(rows, targets, values)`` along the last axis, in place.

    Each row of a stack receives its values in the order of ``targets``, as
    it would on its own; one scatter over flat indices serves the whole stack.
    """
    n = rows.shape[-1]
    offsets = np.arange(0, rows.size, n).reshape(rows.shape[:-1] + (1,))
    np.add.at(rows.reshape(-1), (offsets + targets).ravel(), values.ravel())


def _negated(values: np.ndarray) -> np.ndarray:
    """``-values`` with NaNs left as they are.

    ``x - y`` returns a NaN ``y`` with its sign, so ``x + _negated(y)`` equals
    ``x - y`` bit for bit; plain ``-y`` would flip the NaN's sign bit.
    """
    return np.where(np.isnan(values), values, -values)


def _pattern(size: int, groups: list[tuple[np.ndarray, np.ndarray]]):
    """Sorted CSC pattern of a ``size`` x ``size`` matrix covering every group.

    Each group is a pair of same-shape row and column arrays; positions may
    repeat within and across groups. Returns ``indptr``, ``indices`` (row
    indices, int32, as scipy stores them) and, for each group, the slot in
    ``data`` of each of its positions, in the group's shape raveled.
    """
    rows = np.concatenate([np.ravel(r) for r, _ in groups])
    cols = np.concatenate([np.ravel(c) for _, c in groups]).astype(np.int64)
    keys = cols * size + rows
    order = np.argsort(keys)
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # the first position of each distinct key
    slots = np.empty_like(order)
    slots[order] = np.cumsum(first) - 1
    keys = keys[first]
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // size, minlength=size), out=indptr[1:])
    indices = (keys % size).astype(np.int32)
    return indptr, indices, np.split(slots, np.cumsum([np.size(r) for r, _ in groups])[:-1])


# ----- constructors -------------------------------------------------------


def _single_fracture(cells_per_side: int) -> list[Fracture]:
    """A unit-square fracture under a normal load ramp and uniform shear.

    Flow enters through a fixed-pressure left cell column and leaves through
    the right column; the thermal variant also fixes inlet/outlet
    temperatures and advects heat along the pressure drop in a frozen flow
    field.
    """
    if cells_per_side < 2:
        raise ValueError("need at least a 2x2 fracture grid")
    m = cells_per_side
    n = m * m

    # Cell centers: first grid axis is the flow direction.
    xi = (np.arange(m) + 0.5) / m
    centers_x = np.repeat(xi, m)

    external = np.zeros((n, 3))
    left, right = SINGLE_NORMAL_RAMP
    external[:, 0] = REFERENCE_STRESS * (left + (right - left) * centers_x)
    external[:, 1] = REFERENCE_STRESS * SINGLE_SHEAR_LOAD

    edges = _grid_edges((m, m))

    inlet, outlet = range(m), range((m - 1) * m, n)   # first and last grid rows
    dirichlet_p = dict.fromkeys(inlet, INLET_PRESSURE) | dict.fromkeys(outlet, OUTLET_PRESSURE)
    dirichlet_T = dict.fromkeys(inlet, INLET_TEMPERATURE) \
        | dict.fromkeys(outlet, OUTLET_TEMPERATURE)

    # Frozen flow field along the ramp axis at residual-aperture rate.
    base_rate = transmissibility(RESIDUAL_APERTURE) * (INLET_PRESSURE - OUTLET_PRESSURE) / m
    along_flow = edges[:, 1] == edges[:, 0] + m
    advection = np.where(along_flow, base_rate, 0.0)

    return [Fracture(
        shape=(m, m),
        external_traction=external,
        edges=edges,
        cell_area=(DOMAIN_LENGTH / m) ** 2,
        dirichlet_pressure=dirichlet_p,
        dirichlet_temperature=dirichlet_T,
        advection_rates=advection,
    )]


def _multi_fracture(n_fractures: int, seed: int) -> list[Fracture]:
    """Randomly oriented small fractures under a shared far-field load.

    Fractures are generated one at a time from the seed, so the first k
    fractures coincide across family sizes. Each fracture's centermost cell
    hosts a well with alternating injection/production pressure (and
    temperature for the thermal variant).
    """
    rng = np.random.default_rng(seed)
    far_field = REFERENCE_STRESS * FAR_FIELD_STRESS

    m = MULTI_CELLS_PER_SIDE
    n_local = m * m
    edges = _grid_edges((m, m))

    fractures = []
    for i in range(n_fractures):
        vec = rng.normal(size=3)
        normal = vec / np.linalg.norm(vec)
        tangents = _tangent_basis(normal)

        traction_vector = far_field @ normal
        normal_load = float(normal @ traction_vector)
        shear = traction_vector - normal_load * normal
        shear_local = tangents @ shear

        external = np.zeros((n_local, 3))
        external[:, 0] = normal_load
        external[:, 1] = shear_local[0]
        external[:, 2] = shear_local[1]

        center = _center_cell((m, m))
        injecting = i % 2 == 0
        dirichlet_p = {center: INLET_PRESSURE if injecting else OUTLET_PRESSURE}
        dirichlet_T = {center: INLET_TEMPERATURE if injecting else OUTLET_TEMPERATURE}

        fractures.append(Fracture(
            shape=(m, m),
            external_traction=external,
            edges=edges,
            cell_area=(0.25 * DOMAIN_LENGTH / m) ** 2,
            dirichlet_pressure=dirichlet_p,
            dirichlet_temperature=dirichlet_T,
        ))
    return fractures


PRESET_NAMES = ("single-pm", "single-tpm", "multi4-pm", "multi4-tpm",
                "multi8-pm", "multi8-tpm")


def preset(name: str, dilation_angle: float = 0.1,
           characteristic_displacement: float = 0.01,
           cells_per_side: int = 6, seed: int = 0) -> FractureAssembly:
    """Construct one of the models named in ``PRESET_NAMES``.

    ``characteristic_displacement`` only changes the scaling, never the problem.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}")
    head, kind = name.split("-")
    physics = Physics.PORO if kind == "pm" else Physics.THERMOPORO
    if head == "single":
        fractures = _single_fracture(cells_per_side)
    else:
        fractures = _multi_fracture(int(head.removeprefix("multi")), seed)
    return FractureAssembly(fractures, dilation_angle, physics,
                            CharacteristicScales(characteristic_displacement))
