"""Array-valued assembly against the sequential sparse-loop assembly it replaced.

The oracle, ``scalar_oracle.Oracle`` with its balance rows' edge terms added
one edge at a time, builds the influence operator, the mass and energy
residual rows and the whole Jacobian one cell and one edge at a time: Python
scalars, ``lil_matrix`` item writes and ``sp.bmat`` over per-block matrices.
Its contact rows and their derivative blocks come from its own contact law,
with the friction coefficient and residual aperture it is given. The
shipped ``FractureAssembly`` fills a CSC pattern cached at construction. The
two must agree byte for byte: residual values, and the Jacobian's ``data``,
``indices`` and ``indptr`` against the oracle's converted to CSC, on random
iterates and on the edge cases where the mean aperture sits below or exactly
at the hydraulic floor, heat is advected against the edge direction, cells
carry Dirichlet values, fractures are tied together, or the iterate holds NaN
or infinite entries. The pattern builder ``_pattern`` must agree byte for byte
with the ``np.unique`` formulation it replaced, on every call a preset build
makes and on random groups.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import fracsolve.contact
import fracsolve.models
import scalar_oracle
from fracsolve.models import (
    BIOT_COEFFICIENT,
    DRAINED_BULK_MODULUS,
    FLUID_COMPRESSIBILITY,
    FLUID_THERMAL_EXPANSION,
    FLUID_VISCOSITY,
    HYDRAULIC_APERTURE_FLOOR,
    PRESET_NAMES,
    PRESSURE_SCALE,
    SOLID_THERMAL_EXPANSION,
    TEMPERATURE_SCALE,
    THERMAL_CONDUCTIVITY,
    TIME_STEP,
    CharacteristicScales,
    Fracture,
    FractureAssembly,
    Physics,
    _grid_edges,
    _pattern,
    preset,
)
from scalar_oracle import HEAT_CAPACITY, Oracle, oracle_stiffness, oracle_transmissibility

# ---------------------------------------------------------------------------
# oracle: sequential assembly over cells and edges


class SequentialOracle(Oracle):
    """``scalar_oracle.Oracle`` adding the balance rows' edge terms one edge at a time."""

    def add_flux(self, rows, apertures, pressure):
        for a, b, _rate in self.edges:
            trans = oracle_transmissibility(apertures[a], apertures[b], FLUID_VISCOSITY)
            flux = trans * PRESSURE_SCALE * (pressure[a] - pressure[b])
            rows[a] += flux
            rows[b] -= flux

    def add_heat(self, rows, apertures, temperature):
        for a, b, rate in self.edges:
            mean_ap = max(0.5 * (apertures[a] + apertures[b]), HYDRAULIC_APERTURE_FLOOR)
            conduction = THERMAL_CONDUCTIVITY * mean_ap * TEMPERATURE_SCALE \
                * (temperature[a] - temperature[b])
            rows[a] += conduction
            rows[b] -= conduction
            if rate != 0.0:
                upwind = temperature[a] if rate > 0.0 else temperature[b]
                advected = HEAT_CAPACITY * rate * TEMPERATURE_SCALE * upwind
                rows[a] += advected
                rows[b] -= advected


def _block_diagonal(blocks):
    n = len(blocks)
    matrix = sp.bsr_matrix((blocks, np.arange(n), np.arange(n + 1)), shape=(3 * n, 3 * n)).tocsr()
    matrix.eliminate_zeros()
    return matrix


def _normal_column(n, coefficient):
    cells = np.arange(n)
    return sp.csr_matrix((np.full(n, coefficient), (3 * cells, cells)), shape=(3 * n, n))


def oracle_mass_jacobian(o, jump, pressure, temperature):
    n = o.n
    apertures = o.apertures(jump)
    mass_u = sp.lil_matrix((n, 3 * n))
    mass_p = sp.lil_matrix((n, n))
    mass_T = sp.lil_matrix((n, n)) if temperature is not None else None
    for v in range(n):
        storage_u = o.areas[v] / TIME_STEP \
            + o.areas[v] * FLUID_COMPRESSIBILITY * PRESSURE_SCALE * pressure[v] / TIME_STEP
        if temperature is not None:
            storage_u -= o.areas[v] * FLUID_THERMAL_EXPANSION * TEMPERATURE_SCALE \
                * temperature[v] / TIME_STEP
        mass_u[v, 3 * v] = storage_u
        mass_p[v, v] = o.areas[v] * apertures[v] * FLUID_COMPRESSIBILITY \
            * PRESSURE_SCALE / TIME_STEP
        if mass_T is not None:
            mass_T[v, v] = -o.areas[v] * apertures[v] * FLUID_THERMAL_EXPANSION \
                * TEMPERATURE_SCALE / TIME_STEP
    for a, b, _rate in o.edges:
        mean = 0.5 * (apertures[a] + apertures[b])
        floored = max(mean, HYDRAULIC_APERTURE_FLOOR)
        trans = oracle_transmissibility(apertures[a], apertures[b], FLUID_VISCOSITY)
        dtrans = 0.0 if mean < HYDRAULIC_APERTURE_FLOOR \
            else 3.0 * floored ** 2 * 0.5 / (12.0 * FLUID_VISCOSITY)
        dp_ab = PRESSURE_SCALE * (pressure[a] - pressure[b])
        mass_p[a, a] += trans * PRESSURE_SCALE
        mass_p[a, b] -= trans * PRESSURE_SCALE
        mass_p[b, b] += trans * PRESSURE_SCALE
        mass_p[b, a] -= trans * PRESSURE_SCALE
        for cell in (a, b):
            mass_u[a, 3 * cell] += dtrans * dp_ab
            mass_u[b, 3 * cell] -= dtrans * dp_ab
    mass_u /= o.mass_scale
    mass_p /= o.mass_scale
    if mass_T is not None:
        mass_T /= o.mass_scale
    for v in np.where(np.isfinite(o.dir_p))[0]:
        mass_u[v, :] = 0.0
        mass_p[v, :] = 0.0
        mass_p[v, v] = 1.0
        if mass_T is not None:
            mass_T[v, :] = 0.0
    return mass_u.tocsr(), mass_p.tocsr(), (mass_T.tocsr() if mass_T is not None else None)


def oracle_energy_jacobian(o, jump, temperature):
    n = o.n
    apertures = o.apertures(jump)
    energy_u = sp.lil_matrix((n, 3 * n))
    energy_T = sp.lil_matrix((n, n))
    for v in range(n):
        energy_T[v, v] = o.areas[v] * apertures[v] * HEAT_CAPACITY * TEMPERATURE_SCALE / TIME_STEP
        energy_u[v, 3 * v] = o.areas[v] * HEAT_CAPACITY * TEMPERATURE_SCALE \
            * temperature[v] / TIME_STEP
    for a, b, rate in o.edges:
        mean = 0.5 * (apertures[a] + apertures[b])
        floored = max(mean, HYDRAULIC_APERTURE_FLOOR)
        cond = THERMAL_CONDUCTIVITY * floored * TEMPERATURE_SCALE
        dcond = 0.0 if mean < HYDRAULIC_APERTURE_FLOOR else \
            THERMAL_CONDUCTIVITY * 0.5 * TEMPERATURE_SCALE * (temperature[a] - temperature[b])
        energy_T[a, a] += cond
        energy_T[a, b] -= cond
        energy_T[b, b] += cond
        energy_T[b, a] -= cond
        for cell in (a, b):
            energy_u[a, 3 * cell] += dcond
            energy_u[b, 3 * cell] -= dcond
        if rate != 0.0:
            up = a if rate > 0.0 else b
            coeff = HEAT_CAPACITY * rate * TEMPERATURE_SCALE
            energy_T[a, up] += coeff
            energy_T[b, up] -= coeff
    energy_u /= o.energy_scale
    energy_T /= o.energy_scale
    for v in np.where(np.isfinite(o.dir_T))[0]:
        energy_u[v, :] = 0.0
        energy_T[v, :] = 0.0
        energy_T[v, v] = 1.0
    return energy_u.tocsr(), energy_T.tocsr()


def oracle_jacobian(o, x):
    _, jump, pressure, temperature = o.split(x)
    n = o.n
    sigma_c = o.model.scales.stress
    blocks = [[sp.eye(3 * n, format="csr"), o.stiffness * o.law.weight], [None, None]]
    with np.errstate(all="ignore"):  # the law evaluates every branch, then selects
        derivative = scalar_oracle.derivative(o.cells(x), o.law, scalar_oracle.CELLS)
    blocks[1][0] = _block_diagonal(derivative[:, :, 0:3])
    blocks[1][1] = _block_diagonal(derivative[:, :, 3:6])
    blocks[0].append(_normal_column(n, -BIOT_COEFFICIENT * PRESSURE_SCALE / sigma_c))
    blocks[1].append(None)
    mass_u, mass_p, mass_T = oracle_mass_jacobian(o, jump, pressure, temperature)
    row = [None, mass_u, mass_p]
    if temperature is not None:
        row.append(mass_T)
    blocks.append(row)
    if temperature is not None:
        blocks[0].append(_normal_column(n, 3.0 * DRAINED_BULK_MODULUS
                                        * SOLID_THERMAL_EXPANSION
                                        * TEMPERATURE_SCALE / sigma_c))
        blocks[1].append(None)
        energy_u, energy_T = oracle_energy_jacobian(o, jump, temperature)
        blocks.append([None, energy_u, None, energy_T])
    return sp.bmat(blocks, format="csr")


# ---------------------------------------------------------------------------
# comparisons


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_residual(oracle, x, nan_signs=True):
    with np.errstate(all="ignore"):
        got = oracle.model.residual(x)
        want = scalar_oracle.residual(oracle, x)
    if not nan_signs:
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = got[~np.isnan(got)], want[~np.isnan(want)]
    assert_same_bytes(got, want)


def assert_same_jacobian(oracle, x):
    got = oracle.model.jacobian(x)
    want = oracle_jacobian(oracle, x).tocsc()
    assert type(got) is type(want)
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert_same_bytes(getattr(got, name), getattr(want, name))


def random_iterate(oracle, rng):
    n = oracle.n
    x = np.zeros(oracle.model.n_dofs)
    x[0:3 * n] = rng.uniform(-1.5, 1.5, 3 * n)
    x[3 * n:6 * n] = rng.uniform(-0.5, 0.5, 3 * n) * oracle.residual_aperture
    x[6 * n:] = rng.uniform(-1.0, 1.0, x.size - 6 * n)
    return x


def hand_built(monkeypatch, physics=Physics.THERMOPORO, seed=0, closed_aperture=1.0e-3,
               oracle=SequentialOracle):
    """The ``oracle`` of a 4x3 fracture with advection along and against its edges and random wells.

    Its contact law is not the presets': friction 0.8, dilation 0.2 and a
    residual aperture of ``closed_aperture``. The model's friction coefficient
    and residual aperture are module constants, patched for the rest of the
    calling test; the oracle is given them as arguments.
    """
    monkeypatch.setattr(fracsolve.contact, "FRICTION_COEFFICIENT", 0.8)
    monkeypatch.setattr(fracsolve.models, "RESIDUAL_APERTURE", closed_aperture)
    rng = np.random.default_rng(seed)
    shape = (4, 3)
    n = shape[0] * shape[1]
    edges = _grid_edges(shape)
    rates = rng.uniform(-2e-6, 2e-6, len(edges))
    rates[::3] = 0.0
    rates[1] = -0.0
    scales = CharacteristicScales(displacement=0.01)
    fracture = Fracture(
        shape=shape,
        external_traction=rng.uniform(-1.0, 1.0, (n, 3)) * scales.stress,
        edges=edges, cell_area=1.0 / n,
        dirichlet_pressure={0: 1.5e5, 7: -2.0e4, 11: -1.0e5},
        dirichlet_temperature={2: -10.0, 5: 3.0},
        advection_rates=rates,
    )
    return oracle(FractureAssembly([fracture], 0.2, physics, scales),
                  friction=0.8, residual_aperture=closed_aperture)


def tied_family(physics=Physics.PORO):
    """Fractures of every tabulated shape, tied center to center in list order."""
    scales = CharacteristicScales(displacement=0.01)
    fractures = [Fracture(shape=shape, external_traction=np.zeros((shape[0] * shape[1], 3)),
                          edges=_grid_edges(shape), cell_area=1.0)
                 for shape in ((2, 3), (5, 5), (3, 2), (4, 4))]
    return FractureAssembly(fractures, 0.0, physics, scales)


# Each builder takes the test's monkeypatch, which the hand-built models use,
# and returns the model's oracle.
MODELS = {
    "single-pm": lambda _: SequentialOracle(preset("single-pm", cells_per_side=5)),
    "single-tpm": lambda _: SequentialOracle(preset("single-tpm", cells_per_side=5)),
    "multi4-pm": lambda _: SequentialOracle(preset("multi4-pm", seed=1)),
    "multi4-tpm": lambda _: SequentialOracle(preset("multi4-tpm")),
    "hand-built-tpm": hand_built,
    "hand-built-pm": lambda monkeypatch: hand_built(monkeypatch, Physics.PORO, seed=1),
}


@pytest.mark.parametrize("name", ["single-pm", "multi4-pm", "multi8-tpm", "tied-family"])
def test_influence_operator_matches_sequential_build(name):
    model = tied_family() if name == "tied-family" else preset(name, cells_per_side=7)
    want = oracle_stiffness(model.fractures)
    # every jump component's block is the grid operator, and no entry couples two components
    assert want.nnz == 3 * model._stiffness.nnz
    for component in range(3):
        block = want[component::3, component::3]
        for field in ("data", "indices", "indptr"):
            assert_same_bytes(getattr(model._stiffness, field), getattr(block, field))


# ---------------------------------------------------------------------------
# sparse patterns: the np.unique formulation that one argsort replaced


def unique_pattern(size, groups):
    """``_pattern`` with its keys and slots from ``np.unique(..., return_inverse=True)``."""
    rows = np.concatenate([np.ravel(r) for r, _ in groups])
    cols = np.concatenate([np.ravel(c) for _, c in groups]).astype(np.int64)
    keys, slots = np.unique(cols * size + rows, return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // size, minlength=size), out=indptr[1:])
    indices = (keys % size).astype(np.int32)
    return indptr, indices, np.split(slots, np.cumsum([np.size(r) for r, _ in groups])[:-1])


def assert_same_pattern(size, groups):
    (indptr, indices, slots), (want_indptr, want_indices, want_slots) = (
        _pattern(size, groups), unique_pattern(size, groups))
    assert_same_bytes(indptr, want_indptr)
    assert_same_bytes(indices, want_indices)
    assert len(slots) == len(want_slots) == len(groups)
    for got, want in zip(slots, want_slots):
        assert_same_bytes(got, want)


def recorded_patterns(monkeypatch, name, cells):
    """A preset and the arguments of every ``_pattern`` call its build made."""
    calls = []

    def recording(size, groups):
        calls.append((size, groups))
        return _pattern(size, groups)

    monkeypatch.setattr(fracsolve.models, "_pattern", recording)
    model = preset(name, cells_per_side=cells)
    monkeypatch.undo()
    return model, calls


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_pattern_matches_the_unique_formulation_on_every_preset(name, monkeypatch):
    for cells in (6, 12, 16, 36):
        model, calls = recorded_patterns(monkeypatch, name, cells)
        # the grid operator's pattern, then the Jacobian's
        assert [size for size, _ in calls] == [model.n_cells, model.n_dofs]
        for size, groups in calls:
            assert_same_pattern(size, groups)


def test_pattern_matches_the_unique_formulation_on_random_groups():
    # positions repeat within each group and across groups; one group is
    # empty, one is two-dimensional and one holds int32 columns
    rng = np.random.default_rng(19)
    for size in (1, 2, 7, 50):
        groups = [(rng.integers(0, size, shape), rng.integers(0, size, shape))
                  for shape in [(30,), (4, 5), (0,), (200,)]]
        groups.append((groups[0][0][::-1], groups[0][1][::-1].astype(np.int32)))
        assert_same_pattern(size, groups)


def test_pattern_matches_the_unique_formulation_at_the_size_goal(monkeypatch):
    _, calls = recorded_patterns(monkeypatch, "single-tpm", 96)
    assert sum(np.size(rows) for rows, _ in calls[-1][1]) > 650_000
    for size, groups in calls:
        assert_same_pattern(size, groups)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_random_iterates(name, monkeypatch):
    oracle = MODELS[name](monkeypatch)
    rng = np.random.default_rng(50)
    for _ in range(8):
        x = random_iterate(oracle, rng)
        assert_same_residual(oracle, x)
        assert_same_jacobian(oracle, x)


FLOOR_MODELS = {
    "single-tpm": MODELS["single-tpm"],
    "multi4-pm": MODELS["multi4-pm"],
    # a residual aperture within a factor two of the floor makes the floor
    # reachable exactly: floor - residual and residual + (floor - residual)
    # are exact (Sterbenz)
    "hand-built-tpm": lambda monkeypatch: hand_built(monkeypatch, closed_aperture=0.8e-4),
    "hand-built-pm": lambda monkeypatch: hand_built(monkeypatch, Physics.PORO,
                                                    closed_aperture=0.6e-4),
}


@pytest.mark.parametrize("name", sorted(FLOOR_MODELS))
def test_apertures_below_and_at_the_hydraulic_floor(name, monkeypatch):
    oracle = FLOOR_MODELS[name](monkeypatch)
    model = oracle.model
    rng = np.random.default_rng(51)
    n = model.n_cells
    residual = oracle.residual_aperture
    at_floor = HYDRAULIC_APERTURE_FLOOR - residual
    exact = residual + at_floor == HYDRAULIC_APERTURE_FLOOR
    assert exact or not name.startswith("hand-built")
    for _ in range(4):
        x = random_iterate(oracle, rng)
        normal = x[3 * n:6 * n].reshape(n, 3)[:, 0]
        pick = rng.integers(0, 3, n)
        normal[pick == 0] = at_floor
        normal[pick == 1] = -residual * rng.uniform(0.9, 1.5, n)[pick == 1]
        normal[:2] = at_floor   # cells 0 and 1 share an edge in every grid
        apertures = residual + normal
        means = np.array([0.5 * (apertures[a] + apertures[b]) for a, b, _ in oracle.edges])
        assert np.any(means < HYDRAULIC_APERTURE_FLOOR)
        assert np.any(means == HYDRAULIC_APERTURE_FLOOR) == exact
        assert_same_residual(oracle, x)
        assert_same_jacobian(oracle, x)


@pytest.mark.parametrize("name", ["single-tpm", "hand-built-pm"])
def test_powers_round_as_the_c_library_pow(name, monkeypatch):
    # numpy's ``**`` multiplies for small integer exponents and can differ in
    # the last bit from ``pow``; pick a uniform aperture where both the square
    # and the cube differ, so every edge mean hits such a value
    oracle = MODELS[name](monkeypatch)
    model = oracle.model
    rng = np.random.default_rng(55)
    residual = oracle.residual_aperture
    jumps = rng.uniform(-0.5, 0.5, 4000) * residual
    apertures = residual + jumps
    differs = (apertures ** 2 != [float(v) ** 2 for v in apertures]) \
        & (apertures ** 3 != [float(v) ** 3 for v in apertures])
    assert np.any(differs)
    n = model.n_cells
    x = random_iterate(oracle, rng)
    x[3 * n:6 * n].reshape(n, 3)[:, 0] = jumps[np.argmax(differs)]
    assert_same_residual(oracle, x)
    assert_same_jacobian(oracle, x)


def test_hand_built_fracture_advects_against_edge_direction(monkeypatch):
    oracle = hand_built(monkeypatch)
    model = oracle.model
    rates = np.array([rate for _, _, rate in oracle.edges])
    assert np.any(rates < 0.0) and np.any(rates > 0.0) and np.any(rates == 0.0)
    rng = np.random.default_rng(52)
    x = random_iterate(oracle, rng)
    assert_same_residual(oracle, x)
    assert_same_jacobian(oracle, x)
    # Dirichlet rows keep only their unit diagonal
    n = model.n_cells
    jacobian = model.jacobian(x)
    for row in (6 * n + 7, 7 * n + 5):
        entries = jacobian.getrow(row)
        assert entries.nnz == 1 and entries[0, row] == 1.0


NON_FINITE = {"nan": (np.nan, True), "inf": (np.inf, True), "-inf": (-np.inf, True),
              # A sign-bit-set NaN meets the positive NaN that NaN ** 3 returns.
              # When NaNs of both signs meet in an addition, which one comes
              # out depends on the compiled operand order (numpy's scalar add
              # returns its second NaN, its array loops the first), so these
              # iterates compare NaN positions and every other entry's bytes.
              "-nan": (-np.nan, False)}


@pytest.mark.parametrize("name", ["single-tpm", "multi4-tpm", "hand-built-tpm", "hand-built-pm"])
@pytest.mark.parametrize("kind", sorted(NON_FINITE))
def test_residual_at_non_finite_iterates(name, kind, monkeypatch):
    bad, nan_signs = NON_FINITE[kind]
    oracle = MODELS[name](monkeypatch)
    model = oracle.model
    rng = np.random.default_rng(53)
    for _ in range(6):
        x = random_iterate(oracle, rng)
        x[rng.choice(x.size, size=max(1, x.size // 20), replace=False)] = bad
        assert_same_residual(oracle, x, nan_signs)
    # the pressure and temperature of a single cell, and a single jump
    n = model.n_cells
    for index in (6 * n + n // 2, x.size - 1, 3 * n + 3 * (n // 3)):
        x = random_iterate(oracle, rng)
        x[index] = bad
        assert_same_residual(oracle, x, nan_signs)


def test_the_oracle_keeps_its_own_friction_coefficient(monkeypatch):
    # The model reads its friction coefficient from the package at evaluation
    # time, the oracle only from its arguments: an oracle built on the
    # package's kernels or constants would follow the patch and still agree.
    oracle = SequentialOracle(preset("single-pm", cells_per_side=5))
    x = random_iterate(oracle, np.random.default_rng(56))
    regimes = scalar_oracle.regime(oracle.cells(x), oracle.law, scalar_oracle.CELLS)
    assert np.any(regimes == scalar_oracle.SLIDING)
    assert_same_residual(oracle, x)
    monkeypatch.setattr(fracsolve.contact, "FRICTION_COEFFICIENT", 0.5)
    contact = slice(3 * oracle.n, 6 * oracle.n)
    assert np.any(oracle.model.residual(x)[contact] != scalar_oracle.residual(oracle, x)[contact])


def test_cached_pattern_survives_evaluations():
    # eliminate_zeros compacts in place; the cached pattern must not change
    model = preset("single-tpm", cells_per_side=4)
    indices, indptr = model._indices.copy(), model._indptr.copy()
    oracle = SequentialOracle(model)
    rng = np.random.default_rng(54)
    for x in (model.initial_guess(), random_iterate(oracle, rng), model.initial_guess()):
        assert_same_jacobian(oracle, x)
    assert np.array_equal(model._indices, indices)
    assert np.array_equal(model._indptr, indptr)
