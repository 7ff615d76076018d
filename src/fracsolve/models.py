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
smaller family at the same seed.

Unknown layout (n fracture cells): scaled traction (3 per cell, local frame
[normal, tangential x2]), displacement jump (3 per cell, meters), then scaled
pressure and scaled temperature (1 per cell each) when the physics includes
them. Residual rows follow the same order: force balance, contact
complementarity, mass balance, energy balance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .contact import (
    ContactParameters,
    ContactStates,
    contact_generalized_derivative,
    normal_complementarity,
    tangential_complementarity,
)
from .scaling import CharacteristicScales

__all__ = [
    "Physics",
    "PhysicsCouplings",
    "Fracture",
    "FractureAssembly",
    "transmissibility",
    "make_single_fracture",
    "make_multi_fracture",
    "preset",
    "PRESET_NAMES",
]


class Physics(enum.Enum):
    ELASTIC = "elastic"
    PORO = "poro"
    THERMOPORO = "thermoporo"


# Material constants for the shipped problems. Elastic moduli give a Young's
# modulus of 5e6 Pa; the flow and thermal constants keep the couplings at
# comparable magnitude with the contact terms on the reference scaling.
LAME_LAMBDA = 2.0e6          # Pa
SHEAR_MODULUS = 2.0e6        # Pa
YOUNGS_MODULUS = SHEAR_MODULUS * (3.0 * LAME_LAMBDA + 2.0 * SHEAR_MODULUS) / (LAME_LAMBDA + SHEAR_MODULUS)
DRAINED_BULK_MODULUS = LAME_LAMBDA + 2.0 * SHEAR_MODULUS / 3.0
DOMAIN_LENGTH = 1.0          # m
REFERENCE_DISPLACEMENT = 0.01  # m, the loading is sized to produce jumps of this order
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

# Single-fracture loading recipe, in units of the reference stress
# E * REFERENCE_DISPLACEMENT / L: the external normal traction ramps along the
# first grid axis while a uniform shear pulls along the first tangent. With
# the inlet/outlet pressure drive this yields open cells near the inlet,
# a sliding band, and sticking cells toward the outlet.
SINGLE_NORMAL_RAMP = (-2.2, -1.0)
SINGLE_SHEAR_LOAD = 0.75

# Multi-fracture far-field stress in units of the reference stress (negative
# definite: every orientation starts compressed; wells unclamp their fracture).
FAR_FIELD_STRESS = np.array([
    [-1.2, -0.35, 0.15],
    [-0.35, -1.9, -0.25],
    [0.15, -0.25, -2.6],
])
MULTI_CELLS_PER_SIDE = 4


@dataclass(frozen=True)
class PhysicsCouplings:
    """Coupling coefficients between mechanics, flow and energy."""

    biot_coefficient: float = 0.8
    fluid_compressibility: float = 1.0e-6   # 1/Pa
    fluid_viscosity: float = 0.1            # Pa s
    fluid_density: float = 1.0              # kg/m^3
    fluid_heat_capacity: float = 100.0      # J/kg/K
    fluid_thermal_expansion: float = 0.01   # 1/K
    solid_thermal_expansion: float = 1.0e-3  # 1/K
    thermal_conductivity: float = 1.0       # W/m/K
    drained_bulk_modulus: float = DRAINED_BULK_MODULUS


# Minimum hydraulic aperture: closed or interpenetrating trial states keep a
# small positive conductance so the flow block stays elliptic. Converged
# states always sit above the floor (contact enforces nonnegative openings).
HYDRAULIC_APERTURE_FLOOR = 5.0e-5


def transmissibility(aperture_left: float, aperture_right: float,
                     viscosity: float) -> float:
    """Cubic-law transmissibility between two adjacent fracture cells.

    Uses the arithmetic-mean aperture, floored at the minimum hydraulic
    aperture; above the floor, doubling both apertures multiplies the result
    by exactly eight.
    """
    mean = max(0.5 * (aperture_left + aperture_right), HYDRAULIC_APERTURE_FLOOR)
    return mean ** 3 / (12.0 * viscosity)


@dataclass
class Fracture:
    """One planar fracture discretized as a uniform cell grid."""

    index: int
    shape: tuple[int, int]
    cells: np.ndarray                  # global cell indices, row-major over the grid
    normal: np.ndarray                 # global unit normal
    tangents: np.ndarray               # (2, 3) orthonormal in-plane basis
    external_traction: np.ndarray      # (n_cells, 3) local [normal, t1, t2], Pa
    edges: np.ndarray                  # (n_edges, 2) local cell pairs
    cell_area: float
    dirichlet_pressure: dict[int, float] = field(default_factory=dict)     # local cell -> Pa
    dirichlet_temperature: dict[int, float] = field(default_factory=dict)  # local cell -> K
    advection_rates: np.ndarray | None = None   # per edge, m^3/s, frozen

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def _grid_edges(shape: tuple[int, int]) -> np.ndarray:
    rows, cols = shape
    pairs = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                pairs.append((v, v + 1))
            if i + 1 < rows:
                pairs.append((v, v + cols))
    return np.asarray(pairs, dtype=int)


def _tangent_basis(normal: np.ndarray) -> np.ndarray:
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(normal)))] = 1.0
    t1 = np.cross(normal, helper)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(normal, t1)
    return np.vstack([t1, t2])


class FractureAssembly:
    """Residual/Jacobian provider over one or more fracture grids."""

    def __init__(self, fractures: list[Fracture], params: ContactParameters,
                 couplings: PhysicsCouplings, physics: Physics,
                 scales: CharacteristicScales, cells_per_side: int,
                 label: str = "assembly"):
        self.fractures = fractures
        self.params = params
        self.couplings = couplings
        self.physics = physics
        self.scales = scales
        self.cells_per_side = cells_per_side
        self.label = label

        self.n_cells = sum(fr.n_cells for fr in fractures)
        self.previous_jump = np.zeros((self.n_cells, 3))
        self.previous_pressure = np.zeros(self.n_cells)     # scaled
        self.previous_temperature = np.zeros(self.n_cells)  # scaled
        self.time_step = TIME_STEP

        self._stiffness = self._build_stiffness()
        self._check_positive_definite(self._stiffness)

        # Flattened flow topology in global cell indices.
        self._edges_global = []
        for fr in fractures:
            for k, (a, b) in enumerate(fr.edges):
                rate = 0.0 if fr.advection_rates is None else float(fr.advection_rates[k])
                self._edges_global.append((int(fr.cells[a]), int(fr.cells[b]), rate))
        self._dir_p = np.full(self.n_cells, np.nan)
        self._dir_T = np.full(self.n_cells, np.nan)
        for fr in fractures:
            for loc, val in fr.dirichlet_pressure.items():
                self._dir_p[fr.cells[loc]] = val
            for loc, val in fr.dirichlet_temperature.items():
                self._dir_T[fr.cells[loc]] = val
        self._areas = np.concatenate([np.full(fr.n_cells, fr.cell_area) for fr in fractures])
        ext = np.vstack([fr.external_traction for fr in fractures])
        self._external_traction = ext  # Pa, local components

        # Row scales keeping mass/energy residuals O(1).
        c = couplings
        flux_scale = (params.residual_aperture ** 3 / (12.0 * c.fluid_viscosity))
        self._mass_scale = flux_scale * PRESSURE_SCALE
        advective = c.fluid_density * c.fluid_heat_capacity * flux_scale * PRESSURE_SCALE
        conductive = c.thermal_conductivity * params.residual_aperture
        self._energy_scale = (conductive + advective) * TEMPERATURE_SCALE

    # ----- layout -------------------------------------------------------

    @property
    def has_pressure(self) -> bool:
        return self.physics in (Physics.PORO, Physics.THERMOPORO)

    @property
    def has_temperature(self) -> bool:
        return self.physics is Physics.THERMOPORO

    @property
    def n_dofs(self) -> int:
        n = 6 * self.n_cells
        if self.has_pressure:
            n += self.n_cells
        if self.has_temperature:
            n += self.n_cells
        return n

    def split(self, x: np.ndarray):
        n = self.n_cells
        traction = x[0:3 * n].reshape(n, 3)
        jump = x[3 * n:6 * n].reshape(n, 3)
        offset = 6 * n
        pressure = None
        temperature = None
        if self.has_pressure:
            pressure = x[offset:offset + n]
            offset += n
        if self.has_temperature:
            temperature = x[offset:offset + n]
        return traction, jump, pressure, temperature

    # ----- hooks consumed by the driver ---------------------------------

    @property
    def contact_parameters(self) -> ContactParameters:
        return self.params

    @property
    def complementarity_weight(self) -> float:
        return self.scales.complementarity_weight

    def fracture_cells(self) -> list[np.ndarray]:
        return [fr.cells for fr in self.fractures]

    def contact_states(self, x: np.ndarray) -> ContactStates:
        """Read-only per-cell views of the tractions and jumps in ``x``."""
        traction, jump, _, _ = self.split(x)
        return ContactStates(traction[:, 0], traction[:, 1:3], jump[:, 0], jump[:, 1:3],
                             self.previous_jump[:, 1:3])

    def initial_guess(self, load_seeded: bool = True) -> np.ndarray:
        """Zero jumps and reference pressures/temperatures, seeded tractions.

        ``load_seeded`` starts tractions at the elastically clamped values
        (they balance the external load at zero jump, so the first magnitude
        estimates see load-sized tractions); otherwise cells whose loading
        implies contact get a small compressive seed of -0.1.
        """
        x = np.zeros(self.n_dofs)
        traction = x[0:3 * self.n_cells].reshape(self.n_cells, 3)
        if load_seeded:
            traction[:] = self._external_traction / self.scales.stress
        else:
            traction[self._external_traction[:, 0] < 0.0, 0] = -0.1
        return x

    # ----- construction helpers -----------------------------------------

    def _build_stiffness(self) -> sp.csr_matrix:
        """Dimensionless influence operator acting on jump / u_c."""
        blocks = []
        for fr in self.fractures:
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
        # Weak mechanical ties between the center cells of consecutive fractures.
        starts = np.cumsum([0] + [fr.n_cells for fr in self.fractures[:-1]])
        for f in range(len(self.fractures) - 1):
            ca = starts[f] + self._center_local(self.fractures[f])
            cb = starts[f + 1] + self._center_local(self.fractures[f + 1])
            for comp in range(3):
                i = 3 * ca + comp
                j = 3 * cb + comp
                lap_w = CROSS_FRACTURE_WEIGHT
                stiff[i, i] += lap_w
                stiff[j, j] += lap_w
                stiff[i, j] -= lap_w
                stiff[j, i] -= lap_w
        return stiff.tocsr()

    @staticmethod
    def _center_local(fr: Fracture) -> int:
        rows, cols = fr.shape
        return (rows // 2) * cols + (cols // 2)

    @staticmethod
    def _check_positive_definite(matrix: sp.spmatrix):
        dense = matrix.toarray()
        if not np.allclose(dense, dense.T, atol=1e-12):
            raise ValueError("influence operator must be symmetric")
        np.linalg.cholesky(dense)  # raises LinAlgError if not positive definite

    # ----- residual ------------------------------------------------------

    def _apertures(self, jump: np.ndarray) -> np.ndarray:
        return self.params.residual_aperture + jump[:, 0]

    def residual(self, x: np.ndarray) -> np.ndarray:
        traction, jump, pressure, temperature = self.split(x)
        n = self.n_cells
        sigma_c = self.scales.stress
        weight = self.scales.complementarity_weight
        cpl = self.couplings

        r = np.zeros(self.n_dofs)

        # Force balance: traction responds to the jump through the influence
        # operator; pressure and cooling shift the normal component toward
        # tension (effective contact traction).
        force = traction.ravel() + self._stiffness @ (weight * jump.ravel()) \
            - self._external_traction.ravel() / sigma_c
        force = force.reshape(n, 3)
        if self.has_pressure:
            force[:, 0] -= cpl.biot_coefficient * PRESSURE_SCALE * pressure / sigma_c
        if self.has_temperature:
            force[:, 0] += 3.0 * cpl.drained_bulk_modulus * cpl.solid_thermal_expansion \
                * TEMPERATURE_SCALE * temperature / sigma_c
        r[0:3 * n] = force.ravel()

        # Contact complementarity rows.
        states = self.contact_states(x)
        contact = r[3 * n:6 * n].reshape(n, 3)
        contact[:, 0] = normal_complementarity(states, self.params, weight)
        contact[:, 1:3] = tangential_complementarity(states, self.params, weight)

        if self.has_pressure:
            r[6 * n:7 * n] = self._mass_rows(jump, pressure, temperature)
        if self.has_temperature:
            r[7 * n:8 * n] = self._energy_rows(jump, temperature)
        return r

    def _mass_rows(self, jump, pressure, temperature) -> np.ndarray:
        cpl = self.couplings
        n = self.n_cells
        apertures = self._apertures(jump)
        prev_ap = self._apertures(self.previous_jump)
        rows = np.zeros(n)

        # Storage: aperture change plus compressibility/thermal expansion of
        # the resident fluid, per unit time.
        rows += self._areas * (apertures - prev_ap) / self.time_step
        rows += self._areas * apertures * cpl.fluid_compressibility \
            * PRESSURE_SCALE * (pressure - self.previous_pressure) / self.time_step
        if temperature is not None:
            rows -= self._areas * apertures * cpl.fluid_thermal_expansion \
                * TEMPERATURE_SCALE * (temperature - self.previous_temperature) / self.time_step

        for a, b, _rate in self._edges_global:
            trans = transmissibility(apertures[a], apertures[b], cpl.fluid_viscosity)
            flux = trans * PRESSURE_SCALE * (pressure[a] - pressure[b])
            rows[a] += flux
            rows[b] -= flux

        rows /= self._mass_scale

        fixed = np.isfinite(self._dir_p)
        rows[fixed] = pressure[fixed] - self._dir_p[fixed] / PRESSURE_SCALE
        return rows

    def _energy_rows(self, jump, temperature) -> np.ndarray:
        cpl = self.couplings
        n = self.n_cells
        apertures = self._apertures(jump)
        rows = np.zeros(n)

        heat = cpl.fluid_density * cpl.fluid_heat_capacity
        rows += self._areas * apertures * heat * TEMPERATURE_SCALE \
            * (temperature - self.previous_temperature) / self.time_step

        for a, b, rate in self._edges_global:
            mean_ap = max(0.5 * (apertures[a] + apertures[b]), HYDRAULIC_APERTURE_FLOOR)
            conduction = cpl.thermal_conductivity * mean_ap * TEMPERATURE_SCALE \
                * (temperature[a] - temperature[b])
            rows[a] += conduction
            rows[b] -= conduction
            if rate != 0.0:
                upwind = temperature[a] if rate > 0.0 else temperature[b]
                advected = heat * rate * TEMPERATURE_SCALE * upwind
                rows[a] += advected
                rows[b] -= advected

        rows /= self._energy_scale

        fixed = np.isfinite(self._dir_T)
        rows[fixed] = temperature[fixed] - self._dir_T[fixed] / TEMPERATURE_SCALE
        return rows

    # ----- Jacobian ------------------------------------------------------

    def jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        traction, jump, pressure, temperature = self.split(x)
        n = self.n_cells
        sigma_c = self.scales.stress
        weight = self.scales.complementarity_weight
        cpl = self.couplings

        eye3n = sp.eye(3 * n, format="csr")
        force_u = self._stiffness * weight

        blocks: list[list] = [[eye3n, force_u], [None, None]]

        # Contact rows: per-cell 3x6 derivative, block diagonal.
        derivative = contact_generalized_derivative(self.contact_states(x), self.params, weight)
        blocks[1][0] = _block_diagonal(derivative[:, :, 0:3])
        blocks[1][1] = _block_diagonal(derivative[:, :, 3:6])

        if self.has_pressure:
            blocks[0].append(self._normal_column(-cpl.biot_coefficient * PRESSURE_SCALE / sigma_c))
            blocks[1].append(None)
            mass_u, mass_p, mass_T = self._mass_jacobian(jump, pressure, temperature)
            row = [None, mass_u, mass_p]
            if self.has_temperature:
                row.append(mass_T)
            blocks.append(row)

        if self.has_temperature:
            blocks[0].append(self._normal_column(3.0 * cpl.drained_bulk_modulus
                                                 * cpl.solid_thermal_expansion
                                                 * TEMPERATURE_SCALE / sigma_c))
            blocks[1].append(None)
            energy_u, energy_T = self._energy_jacobian(jump, temperature)
            blocks.append([None, energy_u, None, energy_T])

        return sp.bmat(blocks, format="csr")

    def _normal_column(self, coefficient: float) -> sp.csr_matrix:
        """Force-balance coupling of a per-cell scalar into each normal traction row."""
        n = self.n_cells
        cells = np.arange(n)
        return sp.csr_matrix((np.full(n, coefficient), (3 * cells, cells)), shape=(3 * n, n))

    def _mass_jacobian(self, jump, pressure, temperature):
        cpl = self.couplings
        n = self.n_cells
        apertures = self._apertures(jump)

        mass_u = sp.lil_matrix((n, 3 * n))
        mass_p = sp.lil_matrix((n, n))
        mass_T = sp.lil_matrix((n, n)) if self.has_temperature else None

        dp = pressure - self.previous_pressure
        for v in range(n):
            storage_u = self._areas[v] / self.time_step \
                + self._areas[v] * cpl.fluid_compressibility * PRESSURE_SCALE * dp[v] / self.time_step
            if temperature is not None:
                storage_u -= self._areas[v] * cpl.fluid_thermal_expansion * TEMPERATURE_SCALE \
                    * (temperature[v] - self.previous_temperature[v]) / self.time_step
            mass_u[v, 3 * v] = storage_u
            mass_p[v, v] = self._areas[v] * apertures[v] * cpl.fluid_compressibility \
                * PRESSURE_SCALE / self.time_step
            if mass_T is not None:
                mass_T[v, v] = -self._areas[v] * apertures[v] * cpl.fluid_thermal_expansion \
                    * TEMPERATURE_SCALE / self.time_step

        for a, b, _rate in self._edges_global:
            mean = 0.5 * (apertures[a] + apertures[b])
            floored = max(mean, HYDRAULIC_APERTURE_FLOOR)
            trans = floored ** 3 / (12.0 * cpl.fluid_viscosity)
            dtrans = 0.0 if mean < HYDRAULIC_APERTURE_FLOOR \
                else 3.0 * floored ** 2 * 0.5 / (12.0 * cpl.fluid_viscosity)
            dp_ab = PRESSURE_SCALE * (pressure[a] - pressure[b])
            mass_p[a, a] += trans * PRESSURE_SCALE
            mass_p[a, b] -= trans * PRESSURE_SCALE
            mass_p[b, b] += trans * PRESSURE_SCALE
            mass_p[b, a] -= trans * PRESSURE_SCALE
            for cell in (a, b):
                mass_u[a, 3 * cell] += dtrans * dp_ab
                mass_u[b, 3 * cell] -= dtrans * dp_ab

        mass_u /= self._mass_scale
        mass_p /= self._mass_scale
        if mass_T is not None:
            mass_T /= self._mass_scale

        fixed = np.where(np.isfinite(self._dir_p))[0]
        for v in fixed:
            mass_u[v, :] = 0.0
            mass_p[v, :] = 0.0
            mass_p[v, v] = 1.0
            if mass_T is not None:
                mass_T[v, :] = 0.0
        return mass_u.tocsr(), mass_p.tocsr(), (mass_T.tocsr() if mass_T is not None else None)

    def _energy_jacobian(self, jump, temperature):
        cpl = self.couplings
        n = self.n_cells
        apertures = self._apertures(jump)
        heat = cpl.fluid_density * cpl.fluid_heat_capacity

        energy_u = sp.lil_matrix((n, 3 * n))
        energy_T = sp.lil_matrix((n, n))

        dT = temperature - self.previous_temperature
        for v in range(n):
            energy_T[v, v] = self._areas[v] * apertures[v] * heat * TEMPERATURE_SCALE / self.time_step
            energy_u[v, 3 * v] = self._areas[v] * heat * TEMPERATURE_SCALE * dT[v] / self.time_step

        for a, b, rate in self._edges_global:
            mean = 0.5 * (apertures[a] + apertures[b])
            floored = max(mean, HYDRAULIC_APERTURE_FLOOR)
            cond = cpl.thermal_conductivity * floored * TEMPERATURE_SCALE
            dcond = 0.0 if mean < HYDRAULIC_APERTURE_FLOOR else \
                cpl.thermal_conductivity * 0.5 * TEMPERATURE_SCALE * (temperature[a] - temperature[b])
            energy_T[a, a] += cond
            energy_T[a, b] -= cond
            energy_T[b, b] += cond
            energy_T[b, a] -= cond
            for cell in (a, b):
                energy_u[a, 3 * cell] += dcond
                energy_u[b, 3 * cell] -= dcond
            if rate != 0.0:
                up = a if rate > 0.0 else b
                coeff = heat * rate * TEMPERATURE_SCALE
                energy_T[a, up] += coeff
                energy_T[b, up] -= coeff

        energy_u /= self._energy_scale
        energy_T /= self._energy_scale

        fixed = np.where(np.isfinite(self._dir_T))[0]
        for v in fixed:
            energy_u[v, :] = 0.0
            energy_T[v, :] = 0.0
            energy_T[v, v] = 1.0
        return energy_u.tocsr(), energy_T.tocsr()


def _block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """CSR matrix with the ``(n, 3, 3)`` blocks on its diagonal, zeros not stored."""
    n = len(blocks)
    matrix = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(3 * n, 3 * n)).tocsr()
    matrix.eliminate_zeros()
    return matrix


# ----- constructors -------------------------------------------------------


def _reference_stress() -> float:
    return YOUNGS_MODULUS * REFERENCE_DISPLACEMENT / DOMAIN_LENGTH


def make_single_fracture(cells_per_side: int = 6, dilation_angle: float = 0.1,
                         characteristic_displacement: float = 0.01,
                         physics: Physics = Physics.PORO) -> FractureAssembly:
    """A unit-square fracture under a normal load ramp and uniform shear.

    Flow enters through a fixed-pressure left cell column and leaves through
    the right column; the thermal variant also fixes inlet/outlet
    temperatures and advects heat along the pressure drop in a frozen flow
    field. ``characteristic_displacement`` only changes the scaling, never the
    physical problem.
    """
    if cells_per_side < 2:
        raise ValueError("need at least a 2x2 fracture grid")
    m = cells_per_side
    n = m * m
    sigma_ref = _reference_stress()

    # Cell centers: first grid axis is the flow direction.
    xi = (np.arange(m) + 0.5) / m
    centers_x = np.repeat(xi, m)

    external = np.zeros((n, 3))
    left, right = SINGLE_NORMAL_RAMP
    external[:, 0] = sigma_ref * (left + (right - left) * centers_x)
    external[:, 1] = sigma_ref * SINGLE_SHEAR_LOAD

    edges = _grid_edges((m, m))

    dirichlet_p: dict[int, float] = {}
    dirichlet_T: dict[int, float] = {}
    if physics in (Physics.PORO, Physics.THERMOPORO):
        for j in range(m):
            dirichlet_p[0 * m + j] = INLET_PRESSURE        # first row = inlet column
            dirichlet_p[(m - 1) * m + j] = OUTLET_PRESSURE
    if physics is Physics.THERMOPORO:
        for j in range(m):
            dirichlet_T[0 * m + j] = INLET_TEMPERATURE
            dirichlet_T[(m - 1) * m + j] = OUTLET_TEMPERATURE

    params = ContactParameters(friction_coefficient=1.0, dilation_angle=dilation_angle,
                               residual_aperture=1.0e-3)

    advection = None
    if physics is Physics.THERMOPORO:
        # Frozen flow field along the ramp axis at residual-aperture rate.
        base_rate = (params.residual_aperture ** 3 / (12.0 * 0.1)) \
            * (INLET_PRESSURE - OUTLET_PRESSURE) / m
        advection = np.zeros(len(edges))
        for k, (a, b) in enumerate(edges):
            if b == a + m:  # edge along the flow axis
                advection[k] = base_rate

    fracture = Fracture(
        index=0,
        shape=(m, m),
        cells=np.arange(n),
        normal=np.array([0.0, 0.0, 1.0]),
        tangents=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        external_traction=external,
        edges=edges,
        cell_area=(DOMAIN_LENGTH / m) ** 2,
        dirichlet_pressure=dirichlet_p,
        dirichlet_temperature=dirichlet_T,
        advection_rates=advection,
    )

    scales = CharacteristicScales(displacement=characteristic_displacement,
                                  domain_length=DOMAIN_LENGTH,
                                  youngs_modulus=YOUNGS_MODULUS)
    return FractureAssembly([fracture], params, PhysicsCouplings(), physics, scales,
                            cells_per_side=m, label=f"single-{m}")


def make_multi_fracture(n_fractures: int = 4, seed: int = 0,
                        dilation_angle: float = 0.1,
                        characteristic_displacement: float = 0.01,
                        physics: Physics = Physics.PORO) -> FractureAssembly:
    """Randomly oriented small fractures under a shared far-field load.

    Fractures are generated one at a time from the seed, so the first k
    fractures coincide across family sizes. Each fracture's centermost cell
    hosts a well with alternating injection/production pressure (and
    temperature for the thermal variant).
    """
    if n_fractures < 1:
        raise ValueError("need at least one fracture")
    rng = np.random.default_rng(seed)
    sigma_ref = _reference_stress()
    far_field = sigma_ref * FAR_FIELD_STRESS

    m = MULTI_CELLS_PER_SIDE
    n_local = m * m
    edges = _grid_edges((m, m))
    params = ContactParameters(friction_coefficient=1.0, dilation_angle=dilation_angle,
                               residual_aperture=1.0e-3)

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

        center = (m // 2) * m + (m // 2)
        injecting = i % 2 == 0
        dirichlet_p: dict[int, float] = {}
        dirichlet_T: dict[int, float] = {}
        if physics in (Physics.PORO, Physics.THERMOPORO):
            dirichlet_p[center] = INLET_PRESSURE if injecting else OUTLET_PRESSURE
        if physics is Physics.THERMOPORO:
            dirichlet_T[center] = INLET_TEMPERATURE if injecting else OUTLET_TEMPERATURE

        fractures.append(Fracture(
            index=i,
            shape=(m, m),
            cells=np.arange(i * n_local, (i + 1) * n_local),
            normal=normal,
            tangents=tangents,
            external_traction=external,
            edges=edges,
            cell_area=(0.25 * DOMAIN_LENGTH / m) ** 2,
            dirichlet_pressure=dirichlet_p,
            dirichlet_temperature=dirichlet_T,
        ))

    scales = CharacteristicScales(displacement=characteristic_displacement,
                                  domain_length=DOMAIN_LENGTH,
                                  youngs_modulus=YOUNGS_MODULUS)
    return FractureAssembly(fractures, params, PhysicsCouplings(), physics, scales,
                            cells_per_side=m, label=f"multi{n_fractures}")


PRESET_NAMES = ("single-pm", "single-tpm", "multi4-pm", "multi4-tpm",
                "multi8-pm", "multi8-tpm")


def preset(name: str, dilation_angle: float = 0.1,
           characteristic_displacement: float = 0.01,
           cells_per_side: int = 6, seed: int = 0) -> FractureAssembly:
    """Construct one of the named benchmark models."""
    physics = {"pm": Physics.PORO, "tpm": Physics.THERMOPORO}
    if name == "single-pm" or name == "single-tpm":
        kind = name.split("-")[1]
        model = make_single_fracture(cells_per_side, dilation_angle,
                                     characteristic_displacement, physics[kind])
    elif name.startswith("multi") and name.count("-") == 1:
        head, kind = name.split("-")
        if kind not in physics or not head.removeprefix("multi").isdigit():
            raise ValueError(f"unknown preset {name!r}")
        count = int(head.removeprefix("multi"))
        model = make_multi_fracture(count, seed, dilation_angle,
                                    characteristic_displacement, physics[kind])
    else:
        raise ValueError(f"unknown preset {name!r}")
    model.label = name
    return model
